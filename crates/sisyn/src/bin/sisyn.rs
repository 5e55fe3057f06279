//! `sisyn` — command-line front end for the structural synthesis library.
//!
//! ```text
//! sisyn check   SPEC.g               consistency / CSC / liveness report
//! sisyn synth   SPEC.g [options]     synthesize and print (or emit) the circuit
//! sisyn verify  SPEC.g [options]     synthesize then verify speed independence
//! sisyn resolve SPEC.g [-o OUT.g]    CSC resolution by state-signal insertion
//! sisyn dot     SPEC.g               Graphviz rendering of the STG
//! sisyn deadlock SPEC.proto          deadlock / dangling-send / overflow
//!                                    check of a CFSM channel protocol
//!                                    (see `sisyn::proto`); honours --cap,
//!                                    --shards, --timeout, --json and
//!                                    --backend explicit, with a replayable
//!                                    action-sequence counterexample on
//!                                    failure
//! sisyn serve   --socket PATH        persistent synthesis server: jobs over a
//!                                    Unix/TCP socket with a content-addressed
//!                                    artifact store (see `sisyn::serve`)
//! sisyn submit  --socket PATH OP SPEC.g   send one job to a running server;
//!                                    takes the options below, and always
//!                                    prints the JSON response line
//!
//! options (README has the long form):
//!   -o FILE            write the artifact (Verilog / .g / dot) to FILE
//!   --arch ARCH        complex | excitation | per-region (default excitation)
//!   --stages N         minimization stage 0..4, "full" or "none" (default full)
//!   --minimizer M      espresso | exact | bdd | auto (default espresso): the
//!                      two-level backend of the complex-gate architecture
//!   --json             the JSON report on stdout: for check / synth / verify /
//!                      resolve the body `sisyn serve` answers with, minus
//!                      the artifact (written only with -o)
//!   --waveform N       synth: also print an N-step simulated waveform
//!   --cap N            state cap of every reachability-based oracle
//!                      (defaults: check 100000, synth / verify 4000000,
//!                      resolve 1000000 per candidate's acceptance oracle)
//!   --shards N|auto    parallel explorer workers for every traversal
//!                      (rounded up to a power of two, max 64; default 1)
//!   --budget N         resolve: candidate-search budget (default 100000)
//!   --strategy S       resolve: greedy | beam (default greedy)
//!   --backend B        check / verify: explicit | symbolic | auto, which
//!                      backend answers state counts and exact CSC checks
//!   --timeout DUR      wall-clock budget (`500ms`, `2s`, `1m`; `--timeout-ms N`
//!                      is the same); past it, and on Ctrl-C, every traversal
//!                      winds down into a partial verdict with exit code 3
//!   --profile[=tree|json], --progress DUR   span profile / heartbeats
//! ```
//!
//! Exit codes: `0` success, `1` failure (violations found or a hard
//! error), `2` usage, `3` inconclusive (the budget — cap, deadline or
//! Ctrl-C — ran out before a definitive verdict; partial results are
//! still reported).
//!
//! `check`, `synth`, `verify` and `resolve` are in-process clients of
//! [`sisyn::serve::Service`]: each op's flow and report exist once, in
//! the service, and the text printed here is rendered from the same body
//! `--json` prints. `deadlock` and `dot` are local flows.

use sisyn::prelude::*;
use sisyn::serve::cli::{self, Args, ProfileFormat, EXIT_INCONCLUSIVE};
use sisyn::serve::json::escape;
use sisyn::serve::service::error_json;
use std::fmt::Write as _;
use std::process::ExitCode;

/// The process-wide cancellation token cancelled by SIGINT (Ctrl-C):
/// every oracle's budget carries a clone, so interrupting a long run
/// winds explorations down gracefully into partial verdicts instead of
/// killing the process mid-traversal.
static INTERRUPT: std::sync::OnceLock<CancelToken> = std::sync::OnceLock::new();

fn interrupt_token() -> &'static CancelToken {
    INTERRUPT.get_or_init(CancelToken::new)
}

/// Installs the SIGINT handler (Unix only; elsewhere Ctrl-C keeps its
/// default process-killing behaviour). The handler only flips the
/// token's atomic flag — async-signal-safe by construction (no
/// allocation, no locks; `main` initializes the token before installing).
#[cfg(unix)]
fn install_interrupt_handler() {
    extern "C" fn on_sigint(_sig: i32) {
        if let Some(token) = INTERRUPT.get() {
            token.cancel();
        }
    }
    const SIGINT: i32 = 2;
    extern "C" {
        // The C library's `signal(2)`: the environment has no `libc`
        // crate, so declare the one symbol needed directly.
        fn signal(signum: i32, handler: usize) -> usize;
    }
    interrupt_token(); // initialize before the handler can observe it
    unsafe {
        signal(SIGINT, on_sigint as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_interrupt_handler() {}

fn main() -> ExitCode {
    install_interrupt_handler();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `serve` owns its flag vocabulary (endpoints, store sizing).
    match argv.first().map(String::as_str) {
        Some("serve") => return ExitCode::from(cli::serve_main(&argv[1..], interrupt_token())),
        Some("submit") => return ExitCode::from(cli::submit_main(&argv[1..])),
        _ => {}
    }
    let args = match cli::parse_args(&argv, false) {
        Ok(a) => a,
        Err(code) => return ExitCode::from(code),
    };
    if args.profile.is_some() {
        si_obs::set_enabled(true);
    }
    if let Some(interval) = args.progress {
        si_obs::arm_progress(interval);
    }
    let code = run(&args);
    // The tree profile goes to stderr after the command wound down (its
    // top-level span has closed by now); the JSON profile was already
    // spliced into the final `--json` report, or prints alone on stdout
    // when no report owned stdout.
    match args.profile {
        Some(ProfileFormat::Tree) => si_obs::log_lines(&si_obs::render_tree()),
        Some(ProfileFormat::Json) if !args.json => println!("{}", si_obs::render_json()),
        _ => {}
    }
    ExitCode::from(code)
}

fn run(args: &Args) -> u8 {
    // The CLI layer's span is the profile tree's root, so every child
    // phase sums under one wall-clock total.
    let span = match args.op.as_str() {
        "check" => "cli.check",
        "synth" => "cli.synth",
        "verify" => "cli.verify",
        "resolve" => "cli.resolve",
        "deadlock" => "cli.deadlock",
        "dot" => "cli.other",
        other => {
            eprintln!("unknown command {other:?}");
            return cli::usage();
        }
    };
    let _span = si_obs::span(span);
    // `dot` has no report; `--json` would swallow its only output.
    if args.json && args.op == "dot" {
        eprintln!("--json is only supported for check, synth, verify, resolve and deadlock");
        return cli::usage();
    }
    let text = match cli::read_spec(args) {
        Ok(t) => t,
        Err(code) => return code,
    };
    match args.op.as_str() {
        "deadlock" => cmd_deadlock(&text, args),
        "dot" => match parse_g(&text) {
            Ok(stg) => match &args.output {
                Some(path) => std::fs::write(path, stg_to_dot(&stg)).map_or_else(
                    |e| {
                        eprintln!("cannot write {path}: {e}");
                        1
                    },
                    |()| 0,
                ),
                None => {
                    print!("{}", stg_to_dot(&stg));
                    0
                }
            },
            Err(e) => {
                eprintln!("parse error: {e}");
                1
            }
        },
        _ => {
            let code = cli::run_local(args, &text, interrupt_token());
            match args.waveform {
                Some(steps) if args.op == "synth" && code == 0 => waveform(&text, args, steps),
                _ => code,
            }
        }
    }
}

/// `synth --waveform N`: simulates the synthesized circuit for `steps`
/// random firings and prints the waveform on stderr. The walk reads the
/// initial wire values from a session under the request's cap and
/// deadline and the Ctrl-C token; a budget that runs out exits 3.
fn waveform(text: &str, args: &Args, steps: usize) -> u8 {
    let stg = parse_g(text).expect("the spec parsed for synth");
    let engine = Engine::new(&stg)
        .reach(
            args.request
                .reach(4_000_000)
                .cancel(interrupt_token().clone()),
        )
        .options(args.request.synthesis());
    let syn = match engine.synthesize() {
        Ok(syn) => syn,
        Err(e) => {
            eprintln!("synthesis failed: {e}");
            return 1;
        }
    };
    match engine.record_walk(&syn.circuit, steps, 1) {
        Ok((outcome, trace)) => {
            eprintln!("simulation: {outcome:?}");
            eprint!("{}", sisyn::stg::render_waveform(&stg, &trace));
            0
        }
        Err(e) => {
            eprintln!("simulation impossible: {e}");
            if e.is_inconclusive() {
                EXIT_INCONCLUSIVE
            } else {
                1
            }
        }
    }
}

fn cmd_deadlock(text: &str, args: &Args) -> u8 {
    let sys = match parse_proto(text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("parse error: {e}");
            return 1;
        }
    };
    let reach = args
        .request
        .reach(sisyn::proto::DEFAULT_CAP)
        .cancel(interrupt_token().clone());
    let head = "{\"command\": \"deadlock\", \"ok\": ";
    let report = match check_deadlock_with(&sys, reach) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("deadlock check failed: {e}");
            if args.json {
                let error = error_json("worker-panicked", &e.to_string(), 0);
                cli::print_json(
                    args,
                    &format!(
                        "{head}false, \"inconclusive\": false, \"model\": {}, \"error\": {error}}}",
                        escape(sys.name()),
                    ),
                );
            }
            return 1;
        }
    };

    // Human report on stdout (stderr when --json owns stdout) — one
    // summary line, then the counterexample as an action sequence.
    let mut human = String::new();
    let verdict = match (report.is_ok(), report.is_conclusive()) {
        (false, _) => "FAILED",
        (true, true) => "OK",
        (true, false) => "OK so far (partial)",
    };
    let _ = writeln!(
        human,
        "model {}: {} modules, {} channels\n\
         deadlock check: {verdict} ({} deadlock(s), {} dangling send(s), \
         {} overflow(s) in {} states)",
        sys.name(),
        sys.modules().len(),
        sys.channels().len(),
        report.deadlocks(),
        report.dangling_sends(),
        report.overflows(),
        report.states_explored,
    );
    if let Some(first) = report.violations.first() {
        let _ = writeln!(
            human,
            "first violation ({}): {}\n  at state: {}",
            first.violation.kind(),
            first.violation.render(&sys),
            first.state.render(&sys),
        );
    }
    if let Some(trace) = &report.trace {
        let _ = writeln!(
            human,
            "counterexample ({} action(s) from the initial state):",
            trace.len()
        );
        for step in trace {
            let _ = writeln!(human, "  {step}");
        }
    }
    // A clean-but-interrupted run carries the same structured error
    // object as the other inconclusive commands.
    let mut error = "null".to_string();
    if let Some(i) = report.interrupted.filter(|_| report.is_ok()) {
        let _ = writeln!(
            human,
            "inconclusive ({}): no violation in the {} states explored — \
             raise `--cap N` / `--timeout DUR` for a definitive verdict \
             (and `--shards auto` to explore in parallel)",
            i.reason, i.states_explored
        );
        let detail = format!("deadlock check interrupted: {i}");
        error = error_json(i.reason.as_str(), &detail, i.states_explored);
    }
    if !args.json {
        print!("{human}");
    } else {
        eprint!("{human}");
        let trace = report.trace.as_ref().map_or("null".to_string(), |ts| {
            let steps: Vec<String> = ts.iter().map(|s| escape(s)).collect();
            format!("[{}]", steps.join(", "))
        });
        let state = report
            .violations
            .first()
            .map_or("null".to_string(), |v| escape(&v.state.render(&sys)));
        cli::print_json(
            args,
            &format!(
                "{head}{}, \"inconclusive\": {}, \
             \"model\": {}, \"modules\": {}, \"channels\": {}, \
             \"states_explored\": {}, \"violations\": {}, \"deadlocks\": {}, \
             \"dangling_sends\": {}, \"overflows\": {}, \"state\": {state}, \
             \"trace\": {trace}, \"error\": {error}}}",
                report.is_ok() && report.is_conclusive(),
                !report.is_conclusive(),
                escape(sys.name()),
                sys.modules().len(),
                sys.channels().len(),
                report.states_explored,
                report.violations.len(),
                report.deadlocks(),
                report.dangling_sends(),
                report.overflows(),
            ),
        );
    }
    match (report.is_ok(), report.is_conclusive()) {
        (false, _) => 1,
        (true, false) => EXIT_INCONCLUSIVE,
        (true, true) => 0,
    }
}
