//! The `sisyn` subcommands that speak the request protocol: `check`,
//! `synth`, `verify` and `resolve` run in process, `submit` sends the
//! same request to a server, and `serve` runs one.
//!
//! This is library code so flag parsing, exit codes and the text report
//! are testable; the binary forwards `argv` and its SIGINT token. One
//! parser ([`parse_args`]) turns flags into a request line for local runs
//! and `submit` alike, validated by [`Request::parse`] — the code a
//! server runs on the same line. A local run executes that line on a
//! [`Service`] over a throwaway in-memory store and prints the response
//! body (`--json`) or the text rendered from it. [`exit_code`] maps a
//! body to the exit code for both.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use si_petri::{CancelToken, ReachOptions};

use crate::client::submit_lines;
use crate::json::{self, escape, Value};
use crate::server::{serve, Endpoint, ServerConfig};
use crate::service::{Request, Service};
use crate::store::ArtifactStore;

/// Exit code of an inconclusive run: the budget (cap, deadline or
/// Ctrl-C) ran out before a definitive verdict.
pub const EXIT_INCONCLUSIVE: u8 = 3;
/// Exit code of a usage error.
pub const EXIT_USAGE: u8 = 2;

/// Memory tier of a local run's throwaway store (`sisyn serve`'s default).
const LOCAL_STORE_BYTES: usize = 64 << 20;

/// How `--profile` renders the collected profile at process exit.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ProfileFormat {
    /// Human-readable span tree + metrics on stderr (the default).
    Tree,
    /// The profile JSON object: spliced into the final `--json` report
    /// when one is emitted, printed alone on stdout otherwise.
    Json,
}

/// A parsed `sisyn <op>` or `sisyn submit` command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// The op: the first positional argument.
    pub op: String,
    /// The spec path (`-` reads stdin): the second positional argument.
    pub input: Option<String>,
    /// The validated request options (with an empty spec).
    pub request: Request,
    /// The options as request-line fields: (key, JSON value).
    fields: Vec<(&'static str, String)>,
    /// `-o FILE`: where the artifact (Verilog, `.g`, dot) goes.
    pub output: Option<String>,
    /// `--json`: print the report body rather than text.
    pub json: bool,
    /// `--waveform N`: also print an N-step simulated waveform (`synth`).
    pub waveform: Option<usize>,
    /// `--profile[=tree|json]`.
    pub profile: Option<ProfileFormat>,
    /// `--progress DUR`: periodic exploration heartbeats on stderr.
    pub progress: Option<Duration>,
    /// `--socket PATH` / `--tcp ADDR` (`submit` only).
    pub endpoint: Option<Endpoint>,
}

impl Args {
    /// The request line for `spec`: what `submit` sends and a local run
    /// executes.
    pub fn request_line(&self, spec: &str) -> String {
        request_line(&self.op, spec, &self.fields)
    }
}

fn request_line(op: &str, spec: &str, fields: &[(&str, String)]) -> String {
    let mut line = format!("{{\"op\": {}", escape(op));
    if !spec.is_empty() {
        let _ = write!(line, ", \"spec\": {}", escape(spec));
    }
    for (key, value) in fields {
        let _ = write!(line, ", \"{key}\": {value}");
    }
    line.push('}');
    line
}

/// Prints the usage of the request-shaped subcommands.
pub fn usage() -> u8 {
    eprintln!(
        "usage: sisyn <check|synth|verify|resolve|deadlock|dot> SPEC.g|SPEC.proto [options]\n       \
         sisyn submit (--socket PATH | --tcp ADDR) \
         <check|synth|verify|resolve|stats|metrics> [SPEC.g] [options]\n\
         options: [-o FILE] [--arch complex|excitation|per-region] [--stages 0..4|full|none] \
         [--minimizer espresso|exact|bdd|auto] [--json] [--waveform N] \
         [--cap N] [--shards N|auto] [--budget N] [--strategy greedy|beam] \
         [--timeout DUR | --timeout-ms N] [--backend explicit|symbolic|auto] \
         [--profile[=tree|json]] [--progress DUR]"
    );
    EXIT_USAGE
}

/// Parses a duration: `500ms`, `2s`, `1m` or a plain number of
/// milliseconds.
fn parse_duration(s: &str) -> Option<Duration> {
    let digits = s.len() - s.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    let (num, unit) = s.split_at(digits);
    let n: u64 = num.parse().ok()?;
    match unit {
        "" | "ms" => Some(Duration::from_millis(n)),
        "s" => Some(Duration::from_secs(n)),
        "m" => Some(Duration::from_secs(n.checked_mul(60)?)),
        _ => None,
    }
}

/// A flag value as a request-line value: a JSON number when it reads as
/// one, else a string — [`Request::parse`] judges it like a wire value.
fn wire(v: &str) -> String {
    match v.parse::<f64>() {
        Ok(n) if n.is_finite() => n.to_string(),
        _ => escape(v),
    }
}

/// Parses the command line of a request-shaped subcommand: `argv` holds
/// the op, the spec path and the flags, in any order. `remote` admits the
/// `submit` endpoint flags. `Err` is the exit code of a usage error, whose
/// message is already printed.
pub fn parse_args(argv: &[String], remote: bool) -> Result<Args, u8> {
    let mut positional = Vec::new();
    let mut fields: Vec<(&'static str, String)> = Vec::new();
    let (mut output, mut json, mut waveform) = (None, false, None);
    let (mut profile, mut progress, mut endpoint) = (None, None, None);
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = || {
            it.next().cloned().ok_or_else(|| {
                eprintln!("{a} needs a value");
                usage()
            })
        };
        let duration = |v: String| {
            parse_duration(&v).ok_or_else(|| {
                eprintln!("bad {a} {v:?} (expected e.g. 500ms, 2s, 1m)");
                usage()
            })
        };
        match a.as_str() {
            "-o" => output = Some(value()?),
            "--json" => json = true,
            "--profile" | "--profile=tree" => profile = Some(ProfileFormat::Tree),
            "--profile=json" => profile = Some(ProfileFormat::Json),
            "--progress" => progress = Some(duration(value()?)?),
            "--waveform" => waveform = Some(value()?.parse().map_err(|_| usage())?),
            "--arch" => fields.push(("arch", wire(&value()?))),
            "--stages" => fields.push(("stages", wire(&value()?))),
            "--minimizer" => fields.push(("minimizer", wire(&value()?))),
            "--strategy" => fields.push(("strategy", wire(&value()?))),
            "--backend" => fields.push(("backend", wire(&value()?))),
            "--cap" => fields.push(("cap", wire(&value()?))),
            "--budget" => fields.push(("budget", wire(&value()?))),
            "--shards" => {
                let v = value()?;
                let shards = match v.as_str() {
                    "auto" => ReachOptions::auto(1).shards.to_string(),
                    n => wire(n),
                };
                fields.push(("shards", shards));
            }
            "--timeout" => {
                let ms = duration(value()?)?.as_millis();
                fields.push(("timeout_ms", ms.to_string()));
            }
            "--timeout-ms" => fields.push(("timeout_ms", wire(&value()?))),
            "--socket" if remote => endpoint = Some(Endpoint::Unix(PathBuf::from(value()?))),
            "--tcp" if remote => endpoint = Some(Endpoint::Tcp(value()?)),
            other if other.starts_with("--") || positional.len() == 2 => {
                eprintln!("unexpected argument {other:?}");
                return Err(usage());
            }
            _ => positional.push(a.clone()),
        }
    }
    let mut positional = positional.into_iter();
    let op = positional.next().ok_or_else(usage)?;
    // Validate the options exactly as a server validates the same line.
    let request = Request::parse(&request_line(&op, "", &fields)).map_err(|(_, detail)| {
        eprintln!("{detail}");
        usage()
    })?;
    Ok(Args {
        op,
        input: positional.next(),
        request,
        fields,
        output,
        json,
        waveform,
        profile,
        progress,
        endpoint,
    })
}

/// Reads the spec named on the command line (`-` = stdin). `Err` is the
/// exit code, with the message printed.
pub fn read_spec(args: &Args) -> Result<String, u8> {
    let Some(path) = args.input.as_deref() else {
        eprintln!("{} needs a spec argument", args.op);
        return Err(usage());
    };
    let text = match path {
        "-" => std::io::read_to_string(std::io::stdin()),
        _ => std::fs::read_to_string(path),
    };
    text.map_err(|e| {
        eprintln!("cannot read {path}: {e}");
        1
    })
}

/// The process exit code of a report body: `0` ok, `1` failed, `3`
/// inconclusive. A found failure outranks an inconclusive phase, so a
/// verify whose functional check failed exits `1` even when its
/// conformance product ran out of budget.
pub fn exit_code(body: &Value) -> u8 {
    let flag = |key| body.get(key).and_then(Value::as_bool);
    let found = ["functional_ok", "conformance_ok", "random_walks_ok"]
        .into_iter()
        .any(|key| flag(key) == Some(false));
    match (flag("ok"), flag("inconclusive")) {
        (Some(true), _) => 0,
        (_, Some(true)) if !found => EXIT_INCONCLUSIVE,
        _ => 1,
    }
}

/// The artifact keys of a response body: synth's Verilog, resolve's `.g`.
const ARTIFACT_KEYS: [&str; 2] = ["verilog", "resolved"];

/// The artifact text of a response.
fn artifact(v: &Value) -> Option<&str> {
    ARTIFACT_KEYS
        .into_iter()
        .find_map(|key| v.get(key).and_then(Value::as_str))
}

/// The report of a response body: the body without its artifact key.
/// The service writes that key last, and its separator `, "verilog": `
/// cannot occur inside a JSON string (every quote there is escaped), so
/// the report is the body cut before it.
fn report_of(body: &str) -> String {
    ARTIFACT_KEYS
        .into_iter()
        .find_map(|key| body.find(&format!(", \"{key}\": ")))
        .map_or(body.to_string(), |at| format!("{}}}", &body[..at]))
}

/// Writes the response's artifact to `-o FILE` (when both exist) and
/// returns the exit code: the body's, or `1` when the write failed.
fn finish(args: &Args, v: &Value) -> u8 {
    if let (Some(path), Some(text)) = (&args.output, artifact(v)) {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
    }
    exit_code(v)
}

/// Prints a final report object on stdout. Under `--profile=json` the
/// collected profile is spliced in as a `"profile"` key: the report is the
/// last thing a command prints, so every phase span below its own has
/// closed.
pub fn print_json(args: &Args, body: &str) {
    match body.trim_end().strip_suffix('}') {
        Some(head) if args.profile == Some(ProfileFormat::Json) => {
            println!("{head}, \"profile\": {}}}", si_obs::render_json())
        }
        _ => println!("{}", body.trim_end()),
    }
}

/// Runs `sisyn check|synth|verify|resolve` on `spec` in process: the request line
/// goes through [`Service::execute`] on a throwaway in-memory store, with
/// `cancel` (the Ctrl-C token) in every budget. Prints the report, writes
/// the artifact to `-o FILE` (or stdout in text mode) and returns the
/// exit code.
pub fn run_local(args: &Args, spec: &str, cancel: &CancelToken) -> u8 {
    let store = Arc::new(ArtifactStore::in_memory(LOCAL_STORE_BYTES));
    let service = Service::new(store).cancel(cancel.clone());
    let body = service.execute(&args.request_line(spec)).body;
    let parsed = json::parse(&body).expect("service bodies are JSON");
    let (report, notes) = render(&body, &parsed);
    if args.json {
        eprint!("{report}{notes}");
        print_json(args, &report_of(&body));
    } else {
        eprint!("{notes}");
        print!("{report}");
        if args.output.is_none() {
            print!("{}", artifact(&parsed).unwrap_or_default());
        }
    }
    finish(args, &parsed)
}

/// The string field `key` of `v` (`?` when absent).
fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or("?")
}

/// The number field `key` of `v`, formatted (`?` when absent).
fn num(v: &Value, key: &str) -> String {
    v.get(key)
        .and_then(Value::as_f64)
        .map_or("?".to_string(), |n| n.to_string())
}

/// The object field `key` of `v`, when it is one (not `null`).
fn obj<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.get(key).filter(|o| matches!(o, Value::Obj(_)))
}

/// The raw text of the top-level number `key` in a body, exact even past
/// 2^53 (state counts are `u128`).
fn raw_number<'a>(raw: &'a str, key: &str) -> Option<&'a str> {
    let rest = &raw[raw.find(&format!("\"{key}\": "))? + key.len() + 4..];
    let len = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    (len > 0).then(|| &rest[..len])
}

/// Renders the text of a response body (`raw` is its JSON text) as
/// (report, notes): the report is the answer (stdout in text mode, stderr
/// under `--json`), the notes are diagnostics for stderr.
fn render(raw: &str, v: &Value) -> (String, String) {
    let flag = |key| v.get(key).and_then(Value::as_bool) == Some(true);
    let (mut report, mut notes) = (String::new(), String::new());
    let command = text(v, "command");
    if let Some(stats) = obj(v, "stats") {
        let wall_ms = stats.get("wall_ms").and_then(Value::as_f64).unwrap_or(0.0);
        let _ = writeln!(
            &mut notes,
            "search[{}]: {} core(s), {} candidate(s) generated, {} evaluated, \
             {} rejected, {} oracle call(s), {wall_ms:.1} ms",
            text(stats, "strategy"),
            num(stats, "cores"),
            num(stats, "candidates_generated"),
            num(stats, "candidates_evaluated"),
            num(stats, "candidates_rejected"),
            num(stats, "oracle_calls"),
        );
    }
    if let Some(error) = obj(v, "error") {
        let detail = text(error, "detail");
        let interrupted = obj(v, "stats").and_then(|s| obj(s, "interrupted"));
        let _ = match (text(error, "kind"), interrupted) {
            ("parse-error", _) => writeln!(&mut notes, "parse error: {detail}"),
            ("synthesis-failed", _) => writeln!(&mut notes, "synthesis failed: {detail}"),
            (_, Some(i)) => writeln!(
                notes,
                "search interrupted ({}): no resolution among the {} candidate(s) \
                 evaluated before the budget ran out — raise `--timeout DUR` for a \
                 definitive answer",
                text(i, "reason"),
                num(i, "candidates_evaluated"),
            ),
            _ if flag("inconclusive") => writeln!(
                notes,
                "{command} inconclusive: {detail} — pass a larger `--cap N` / \
                 `--timeout DUR` to raise the budget (and `--shards auto` to \
                 explore in parallel)"
            ),
            _ => writeln!(&mut notes, "{command} failed: {detail}"),
        };
        return (report, notes);
    }
    let _ = match command {
        "check" => render_check(raw, v, &mut report),
        "synth" => writeln!(
            &mut notes,
            "synthesized {} signal(s): {} literal units, {} transistor pairs",
            num(v, "signals"),
            num(v, "literal_area"),
            num(v, "mapped_area"),
        ),
        "resolve" => writeln!(
            &mut notes,
            "resolved: {} -> {} signals",
            num(v, "signals_before"),
            num(v, "signals_after")
        ),
        "verify" => {
            let verdict = |ok, phase| match (flag(ok), obj(v, phase)) {
                (false, _) => "FAILED",
                (true, Some(_)) => "OK so far (partial)",
                (true, None) => "OK",
            };
            let _ = writeln!(
                &mut report,
                "functional+monotonic: {} ({} states) | conformance: {} ({} states) | \
                 random walks: {}",
                verdict("functional_ok", "functional_interrupted"),
                num(v, "states_checked"),
                verdict("conformance_ok", "conformance_interrupted"),
                num(v, "states_explored"),
                if flag("random_walks_ok") {
                    "OK"
                } else {
                    "FAILED"
                },
            );
            for (phase, what) in [
                ("functional_interrupted", "functional verification"),
                ("conformance_interrupted", "conformance"),
            ] {
                if let Some(i) = obj(v, phase) {
                    let _ = writeln!(
                        notes,
                        "{what} inconclusive ({}): no failure in the {} states explored \
                         — raise `--timeout DUR` for a definitive verdict",
                        text(i, "reason"),
                        num(i, "states_explored"),
                    );
                }
            }
            if let Some(Value::Arr(trace)) = v.get("trace") {
                let names: Vec<&str> = trace.iter().filter_map(Value::as_str).collect();
                let _ = writeln!(
                    notes,
                    "counterexample ({} firings from the initial state): {}",
                    names.len(),
                    names.join(" ")
                );
            }
            match obj(v, "symbolic") {
                Some(s) => writeln!(
                    notes,
                    "symbolic backend: {} spec state(s) in {} iteration(s), peak {} BDD node(s)",
                    raw_number(raw, "spec_states").unwrap_or("?"),
                    num(s, "iterations"),
                    num(s, "peak_nodes"),
                ),
                None => Ok(()),
            }
        }
        _ => Ok(()),
    };
    (report, notes)
}

/// The text of a `check` body.
fn render_check(raw: &str, v: &Value, out: &mut String) -> std::fmt::Result {
    let ok = |key| v.get(key).and_then(Value::as_bool) == Some(true);
    writeln!(
        out,
        "model {}: {} signals, {} transitions, {} places, free-choice: {}",
        text(v, "model"),
        num(v, "signals"),
        num(v, "transitions"),
        num(v, "places"),
        ok("free_choice"),
    )?;
    let backend = text(v, "backend");
    match (raw_number(raw, "spec_states"), obj(v, "spec_states_error")) {
        (Some(n), _) if backend == "explicit" => writeln!(out, "reachable markings: {n}")?,
        (Some(n), _) => writeln!(out, "reachable markings: {n} ({backend} backend)")?,
        (None, Some(e)) => match text(e, "kind") {
            "cap-exceeded" => writeln!(
                out,
                "reachable markings: > {} (state cap exceeded — the structural flow \
                 does not need the state graph; pass a larger `--cap N` for exact \
                 counts, `--shards auto` to explore big state spaces in parallel, or \
                 `--backend symbolic` to count without enumerating)",
                num(e, "states_explored"),
            )?,
            kind @ ("deadline-expired" | "cancelled" | "memory-exhausted") => writeln!(
                out,
                "reachable markings: >= {} (count interrupted: {kind} — the \
                 structural flow does not need the state graph)",
                num(e, "states_explored"),
            )?,
            _ => writeln!(out, "reachability: FAILED ({})", text(e, "detail"))?,
        },
        (None, None) => {}
    }
    let verdict = |key, good| if ok(key) { good } else { "FAILED" };
    writeln!(
        out,
        "liveness/safeness: {}",
        verdict("live_safe", "OK (Commoner)")
    )?;
    writeln!(out, "consistency: {}", verdict("consistent", "OK"))?;
    if let Some(Value::Str(e)) = v.get("analysis_error") {
        return writeln!(out, "structural analysis failed: {e}");
    }
    writeln!(
        out,
        "coding conflicts: {} (after {} refinement round(s))",
        num(v, "conflicts"),
        num(v, "refinement_rounds"),
    )?;
    let witnesses = num(v, "witness_places");
    match (text(v, "csc"), witnesses.as_str()) {
        ("usc-holds", _) => writeln!(out, "state coding: USC holds"),
        ("csc-holds", "?") => writeln!(out, "state coding: CSC holds"),
        ("csc-holds", n) => writeln!(
            out,
            "state coding: CSC holds (symbolic exact check; {n} structural witness \
             place(s) were false alarms)"
        ),
        ("csc-violation", _) => writeln!(
            out,
            "state coding: CSC violation (symbolic exact check) — try `sisyn resolve`"
        ),
        (_, n) => writeln!(
            out,
            "state coding: possible CSC violation ({n} witness place(s)) — try `sisyn resolve`"
        ),
    }
}

/// Runs `sisyn submit ARGS`: sends the request the flags describe,
/// prints the response line, writes the artifact to `-o FILE` and maps
/// the response to the exit code.
pub fn submit_main(argv: &[String]) -> u8 {
    let args = match parse_args(argv, true) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let Some(endpoint) = &args.endpoint else {
        eprintln!("submit needs --socket PATH or --tcp ADDR");
        return usage();
    };
    let spec = if matches!(args.op.as_str(), "stats" | "metrics") {
        String::new()
    } else {
        match read_spec(&args) {
            Ok(spec) => spec,
            Err(code) => return code,
        }
    };
    let response = match submit_lines(endpoint, &[args.request_line(&spec)]) {
        Ok(mut lines) => lines.remove(0),
        Err(e) => {
            eprintln!("submit: {e}");
            return 1;
        }
    };
    println!("{response}");
    let Ok(v) = json::parse(&response) else {
        eprintln!("submit: malformed response");
        return 1;
    };
    finish(&args, &v)
}

fn serve_usage() -> u8 {
    eprintln!(
        "usage: sisyn serve (--socket PATH | --tcp ADDR) [--workers N] \
         [--store-bytes N] [--store-dir DIR] [--log] [--metrics-addr ADDR]"
    );
    EXIT_USAGE
}

/// Runs `sisyn serve ARGS` until `cancel` fires (Ctrl-C in the binary),
/// returning the process exit code.
pub fn serve_main(args: &[String], cancel: &CancelToken) -> u8 {
    let mut endpoint = None;
    let mut config_workers = 2usize;
    let mut store_bytes = 64usize << 20;
    let mut store_dir = None;
    let mut log = false;
    let mut metrics_addr = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => match it.next() {
                Some(p) => endpoint = Some(Endpoint::Unix(PathBuf::from(p))),
                None => return serve_usage(),
            },
            "--tcp" => match it.next() {
                Some(addr) => endpoint = Some(Endpoint::Tcp(addr.clone())),
                None => return serve_usage(),
            },
            "--workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => config_workers = n,
                _ => return serve_usage(),
            },
            "--store-bytes" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => store_bytes = n,
                _ => return serve_usage(),
            },
            "--store-dir" => match it.next() {
                Some(d) => store_dir = Some(PathBuf::from(d)),
                None => return serve_usage(),
            },
            "--log" => log = true,
            "--metrics-addr" => match it.next() {
                Some(addr) => metrics_addr = Some(addr.clone()),
                None => return serve_usage(),
            },
            other => {
                eprintln!("unexpected argument {other:?}");
                return serve_usage();
            }
        }
    }
    let Some(endpoint) = endpoint else {
        return serve_usage();
    };
    let config = ServerConfig {
        endpoint,
        workers: config_workers,
        store_bytes,
        store_dir,
        log,
        metrics_addr,
    };
    match serve(&config, cancel) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("serve: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &str) -> Vec<String> {
        args.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn local_and_remote_flags_build_the_same_request() {
        let local = parse_args(&argv("verify spec.g --timeout 2s --shards 2"), false).unwrap();
        let remote = parse_args(
            &argv("--socket s.sock verify spec.g --timeout-ms 2000 --shards 2"),
            true,
        )
        .unwrap();
        assert_eq!(local.request_line("x"), remote.request_line("x"));
        assert_eq!(local.request.timeout, Some(Duration::from_secs(2)));
        assert_eq!(
            remote.endpoint,
            Some(Endpoint::Unix(PathBuf::from("s.sock")))
        );
    }

    #[test]
    fn invalid_options_are_usage_errors() {
        for bad in [
            "synth spec.g --stages 9",
            "synth spec.g --stages 2.5",
            "check spec.g --cap 0",
            "check spec.g --shards 18446744073709551615",
            "synth spec.g --backend symbolic",
            "synth spec.g --socket s.sock",
            "synth spec.g --frobnicate",
            "synth a.g b.g",
        ] {
            assert_eq!(
                parse_args(&argv(bad), false).err(),
                Some(EXIT_USAGE),
                "{bad}"
            );
        }
    }

    #[test]
    fn a_found_failure_outranks_inconclusive() {
        let code = |body: &str| exit_code(&json::parse(body).unwrap());
        assert_eq!(code("{\"ok\": true}"), 0);
        assert_eq!(code("{\"ok\": false}"), 1);
        assert_eq!(
            code("{\"ok\": false, \"inconclusive\": true}"),
            EXIT_INCONCLUSIVE
        );
        assert_eq!(
            code("{\"ok\": false, \"inconclusive\": true, \"functional_ok\": false}"),
            1
        );
    }

    #[test]
    fn the_artifact_is_cut_off_the_report() {
        let body =
            "{\"ok\": true, \"note\": \"a, \\\"verilog\\\": b\", \"verilog\": \"module m;\"}";
        let report = "{\"ok\": true, \"note\": \"a, \\\"verilog\\\": b\"}";
        assert_eq!(report_of(body), report);
        assert_eq!(artifact(&json::parse(body).unwrap()), Some("module m;"));
    }
}
