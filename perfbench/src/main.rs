//! perfbench: the end-to-end and per-layer benchmark of the synthesis
//! stack. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --sisyn PATH --out-dir DIR
//! ```
//!
//! Prints a human summary, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of the traced run with
//! `--trace 1`.

mod batch;
mod expected;
mod jobs;
mod layers;
mod parity;
mod session;
mod specs;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use specs::Gen;
use stats::Metrics;

/// Set-up repeats, all before the timed phase: at least `SETUP_REPEATS`,
/// and for at least `SETUP_SECONDS`, so that they span several of the
/// tenths of a second for which a shared host may run at one speed;
/// `setup_s` is their geometric mean (see `batch` for why not their
/// median). Repeats after the timed phase ran slower on `serve_session`
/// (its heap then holds the whole session).
const SETUP_REPEATS: usize = 30;
const SETUP_SECONDS: f64 = 2.0;
/// Rounds generated for `serve_session`; the clients stop at the end of
/// the round in progress when the time is up.
const SERVE_ROUNDS: usize = 128;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    sisyn: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut sisyn, mut out_dir) = (None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be a number")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds must be a number")?),
            "--trace" => trace = Some(value == "1"),
            "--sisyn" => sisyn = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        sisyn: sisyn.ok_or("--sisyn is required")?,
        out_dir: out_dir.ok_or("--out-dir is required")?,
    })
}

/// Runs `f` at least `n` (at least 1) times and for at least `seconds`,
/// each time on a fresh `Gen`, and returns the last result with the time
/// each run spent in the program's set-up calls, in ms: generator
/// calls and their serialization, and whatever `f` times through
/// `Gen::timed`.
fn setup<T>(n: usize, seconds: f64, mut f: impl FnMut(&mut Gen) -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    let t0 = std::time::Instant::now();
    while times.len() < n.max(1) || t0.elapsed().as_secs_f64() < seconds {
        drop(last.take());
        let mut gen = Gen::default();
        last = Some(f(&mut gen));
        times.push(gen.spent.as_secs_f64() * 1e3);
    }
    (last.expect("at least one repeat"), times)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let expected = expected::Expected::load();
    let tracer = trace::Tracer::new();
    // A traced run reports no `setup_s`: one set-up is enough.
    let (repeats, setup_seconds) = if args.trace {
        (1, 0.0)
    } else {
        (SETUP_REPEATS, SETUP_SECONDS)
    };
    let (metrics, mut attempted, mut failed): (Metrics, usize, usize) = match args.workload.as_str()
    {
        w @ ("structural_batch" | "state_space_batch") => {
            let deadlines = if w == "state_space_batch" {
                let d = workloads::verify_deadlines_ms();
                println!(
                    "{w}: verify deadlines {} ms at 1 shard, {} ms at 2",
                    d[0], d[1]
                );
                d
            } else {
                [0; 2]
            };
            let make = |gen: &mut Gen| {
                if w == "structural_batch" {
                    workloads::structural(args.seed, gen)
                } else {
                    workloads::state_space(args.seed, gen, deadlines)
                }
            };
            let (batches, setup_times) = setup(repeats, setup_seconds, make);
            let setup_s = stats::geomean(&setup_times) / 1e3;
            if args.trace {
                batch::traced(&batches, args.seed, &expected, &tracer)
            } else {
                let t = batch::timed(
                    &batches,
                    args.seed,
                    args.seconds,
                    batch::MIN_PASSES,
                    &expected,
                );
                println!(
                    "{w}: {} jobs x {} passes, {:.1} requests/s",
                    batches.len(),
                    t.passes,
                    t.rate()
                );
                (t.metrics(&batches, setup_s), t.attempted, t.failed)
            }
        }
        "serve_session" => {
            let make = |gen: &mut Gen| {
                let specs = session::specs(gen);
                (specs, gen.timed(session::Session::new))
            };
            let ((specs, s), setup_times) = setup(repeats, setup_seconds, make);
            let setup_s = stats::geomean(&setup_times) / 1e3;
            let reqs = session::stream(&specs, args.seed, SERVE_ROUNDS);
            if args.trace {
                drop(s);
                session::traced(&reqs, args.seconds, &expected, &tracer)
            } else {
                let (done, wall) = s.drive(&reqs, args.seconds, None);
                drop(s);
                let j = session::judge(&reqs, &done, &expected);
                println!(
                    "serve_session: {} requests ({} rounds) in {wall:.2} s",
                    done.len(),
                    j.rounds()
                );
                (j.metrics(setup_s, wall), j.attempted, j.failed)
            }
        }
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let (probed, failures) = parity::probe(&args.sisyn, &args.out_dir.join("parity"));
    attempted += probed;
    failed += failures.len();
    for f in &failures {
        eprintln!("perfbench: FAILED {f}");
    }
    if args.trace {
        let path = args
            .out_dir
            .join(format!("spans_{}_seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    println!(
        "{} seed {}: attempted {attempted}, failed {failed}, failed_ratio {:.4}",
        args.workload,
        args.seed,
        failed as f64 / attempted.max(1) as f64
    );
    print!("{}", metrics.table());
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics.json()
    );
    ExitCode::SUCCESS
}
