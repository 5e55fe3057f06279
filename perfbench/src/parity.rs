//! Untimed CLI parity probe: one job per op also run as `sisyn <op>`, with
//! its verdict fields compared against the in-process answer. It shows
//! that the in-process benchmark measures what the CLI runs.

use std::path::Path;
use std::process::Command;

use si_serve::json::{parse, Value};
use si_stg::{benchmarks, generators, write_g};

use crate::jobs::{self, Opts};

/// Runs `sisyn` with `args` and returns (exit code, stdout).
fn sisyn(bin: &Path, args: &[&str]) -> Result<(i32, String), String> {
    let out = Command::new(bin)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    Ok((
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    ))
}

/// The last JSON object line of `stdout`.
fn last_json(stdout: &str) -> Value {
    stdout
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .and_then(|l| parse(l).ok())
        .unwrap_or(Value::Null)
}

fn same(field: &str, cli: &Value, inproc: &Value) -> Result<(), String> {
    let (a, b) = (cli.get(field), inproc.get(field));
    if a.is_some() && a == b {
        Ok(())
    } else {
        Err(format!("{field}: cli {a:?} vs in-process {b:?}"))
    }
}

/// Runs the probe in `dir`; returns (attempted, failures).
pub fn probe(bin: &Path, dir: &Path) -> (usize, Vec<String>) {
    let mut failures = Vec::new();
    let mut attempted = 0;
    if let Err(e) = std::fs::create_dir_all(dir) {
        return (1, vec![format!("cannot create {}: {e}", dir.display())]);
    }
    let service = jobs::fresh_service();
    let stg_cases = [
        ("check", write_g(&generators::clatch(4)), "clatch4.g"),
        (
            "synth",
            write_g(&benchmarks::running_example()),
            "running.g",
        ),
        (
            "verify",
            write_g(&generators::muller_pipeline(4)),
            "muller4.g",
        ),
        ("resolve", write_g(&benchmarks::vme_read_raw()), "vme.g"),
    ];
    for (op, spec, file) in stg_cases {
        attempted += 1;
        let path = dir.join(file);
        let result = std::fs::write(&path, &spec)
            .map_err(|e| e.to_string())
            .and_then(|()| {
                let p = path.to_string_lossy().into_owned();
                let inproc = jobs::answer(&service.execute(&jobs::request_line(op, &spec, Opts::default())).body);
                if op == "check" {
                    // `check` has no --json: read its exit code and count line.
                    let (code, out) = sisyn(bin, &["check", &p])?;
                    let count = out
                        .lines()
                        .find_map(|l| l.strip_prefix("reachable markings: "))
                        .and_then(|n| n.trim().parse::<f64>().ok());
                    let ok = inproc.get("ok").and_then(Value::as_bool);
                    let states = inproc.get("spec_states").and_then(Value::as_f64);
                    if Some(code == 0) != ok || count != states {
                        return Err(format!("cli exit {code} count {count:?} vs in-process ok {ok:?} count {states:?}"));
                    }
                    return Ok(());
                }
                let (_, out) = sisyn(bin, &[op, &p, "--json", "-o", &format!("{p}.out")])?;
                let cli = last_json(&out);
                let fields: &[&str] = match op {
                    "synth" => &["ok", "signals"],
                    "verify" => &["ok", "inconclusive", "spec_states", "functional_ok", "conformance_ok"],
                    _ => &["ok", "signals_before", "signals_after"],
                };
                fields.iter().try_for_each(|f| same(f, &cli, &inproc))?;
                if op == "resolve" && matches!(cli.get("plan"), None | Some(Value::Null)) {
                    return Err("cli resolve found no plan".to_string());
                }
                Ok(())
            });
        if let Err(e) = result {
            failures.push(format!("parity {op}: {e}"));
        }
    }
    attempted += 1;
    let text = si_proto::write_proto(&si_proto::dining(3));
    let path = dir.join("dining3.proto");
    let result = std::fs::write(&path, &text)
        .map_err(|e| e.to_string())
        .and_then(|()| {
            let (_, out) = sisyn(bin, &["deadlock", &path.to_string_lossy(), "--json"])?;
            let cli = last_json(&out);
            let inproc = jobs::answer(&jobs::deadlock_body(&text, 1));
            [
                "ok",
                "inconclusive",
                "states_explored",
                "deadlocks",
                "state",
            ]
            .iter()
            .try_for_each(|f| same(f, &cli, &inproc))
        });
    if let Err(e) = result {
        failures.push(format!("parity deadlock: {e}"));
    }
    (attempted, failures)
}
