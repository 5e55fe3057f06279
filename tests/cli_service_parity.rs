//! Golden test of the CLI as a client of the service: `sisyn
//! check|synth|verify|resolve --json` must print exactly the body
//! `si_serve::Service::execute` answers the same request with — minus the
//! artifact (`verilog`, `resolved`) and the timing fields — and exit with
//! the shared body-to-exit-code mapping.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use sisyn::serve::cli::{exit_code, EXIT_INCONCLUSIVE, EXIT_USAGE};
use sisyn::serve::json::{self, escape, Value};
use sisyn::serve::{ArtifactStore, Service};
use sisyn::stg::{generators, write_g};

/// Runs the built binary; returns (exit code, stdout).
fn sisyn(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sisyn"))
        .args(args)
        .output()
        .expect("the sisyn binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    (out.status.code().unwrap_or(-1), stdout)
}

/// The service's body for `op` on `spec` with extra request `fields`.
fn service_body(op: &str, spec: &str, fields: &str) -> String {
    let service = Service::new(Arc::new(ArtifactStore::in_memory(64 << 20)));
    let line = format!(
        "{{\"op\": {}, \"spec\": {}{fields}}}",
        escape(op),
        escape(spec)
    );
    service.execute(&line).body
}

/// `body` with its trailing artifact key dropped and every timing value
/// replaced by 0.
fn comparable(body: &str) -> String {
    let mut s = body.trim_end().to_string();
    for key in ["verilog", "resolved"] {
        if let Some(at) = s.find(&format!(", \"{key}\": ")) {
            s.truncate(at);
            s.push('}');
        }
    }
    for key in ["wall_ms", "elapsed_ms"] {
        let pat = format!("\"{key}\": ");
        let mut out = String::new();
        let mut rest = s.as_str();
        while let Some(at) = rest.find(&pat) {
            out.push_str(&rest[..at + pat.len()]);
            out.push('0');
            rest =
                rest[at + pat.len()..].trim_start_matches(|c: char| c.is_ascii_digit() || c == '.');
        }
        out.push_str(rest);
        s = out;
    }
    s
}

/// A private temp directory for the test `tag`.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sisyn-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn write_spec(dir: &Path, name: &str, text: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, text).expect("spec written");
    path
}

#[test]
fn every_op_prints_the_service_body_and_its_exit_code() {
    let dir = scratch_dir("parity");
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let mut specs: Vec<PathBuf> = std::fs::read_dir(&examples)
        .expect("examples/specs exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "g"))
        .collect();
    specs.sort();
    specs.push(write_spec(
        &dir,
        "clatch3.g",
        &write_g(&generators::clatch(3)),
    ));
    specs.push(write_spec(
        &dir,
        "muller4.g",
        &write_g(&generators::muller_pipeline(4)),
    ));
    for path in &specs {
        let spec = std::fs::read_to_string(path).expect("spec readable");
        for op in ["check", "synth", "verify", "resolve"] {
            let body = service_body(op, &spec, "");
            let (code, stdout) = sisyn(&[op, path.to_str().expect("utf-8 path"), "--json"]);
            let what = format!("{op} {}", path.display());
            assert_eq!(comparable(&stdout), comparable(&body), "{what}");
            let expected = exit_code(&json::parse(&body).expect("body is JSON"));
            assert_eq!(code, i32::from(expected), "{what}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_deadline_gives_the_inconclusive_code_and_error_kind() {
    let dir = scratch_dir("deadline");
    let spec = write_g(&generators::clatch(14));
    let path = write_spec(&dir, "clatch14.g", &spec);
    let (code, stdout) = sisyn(&[
        "verify",
        path.to_str().unwrap(),
        "--timeout",
        "1ms",
        "--json",
    ]);
    let kind = |body: &str| {
        json::parse(body)
            .expect("body is JSON")
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str)
            .map(str::to_string)
    };
    let body = service_body("verify", &spec, ", \"timeout_ms\": 1");
    assert_eq!(code, i32::from(EXIT_INCONCLUSIVE), "{stdout}");
    assert_eq!(
        kind(&stdout).as_deref(),
        Some("deadline-expired"),
        "{stdout}"
    );
    assert_eq!(kind(&stdout), kind(&body), "{body}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_input_gives_the_documented_exit_codes() {
    let dir = scratch_dir("bad-input");
    let broken = write_spec(
        &dir,
        "broken.g",
        ".model broken\n.inputs a\n.graph\na+\n.end\n",
    );
    let (code, stdout) = sisyn(&["synth", broken.to_str().unwrap(), "--json"]);
    assert_eq!(code, 1, "a parse error is a failure: {stdout}");
    assert!(stdout.contains("\"parse-error\""), "{stdout}");
    let good = write_spec(&dir, "clatch2.g", &write_g(&generators::clatch(2)));
    let (code, stdout) = sisyn(&["synth", good.to_str().unwrap(), "--stages", "9"]);
    assert_eq!(code, i32::from(EXIT_USAGE), "--stages 9 is a usage error");
    assert!(stdout.is_empty(), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn specs_without_a_state_encoding_fail_verify_with_a_structured_error() {
    let dir = scratch_dir("no-encoding");
    // A declared input that never switches, and a graph with no
    // transitions at all: structurally fine, but no reachable marking
    // fixes the value of the silent signal.
    let specs = [
        (
            "silent_input.g",
            ".model silent\n.inputs a b\n.graph\na+ a-\na- a+\n.marking { <a-,a+> }\n.end\n",
        ),
        (
            "no_transitions.g",
            ".model idle\n.inputs a\n.outputs b\n.graph\n.end\n",
        ),
    ];
    for (name, text) in specs {
        let path = write_spec(&dir, name, text);
        for op in ["check", "synth", "verify"] {
            let body = service_body(op, text, "");
            let (code, stdout) = sisyn(&[op, path.to_str().unwrap(), "--json"]);
            let what = format!("{op} {name}");
            assert_eq!(comparable(&stdout), comparable(&body), "{what}");
            let parsed = json::parse(&body).expect("body is JSON");
            let expected = if op == "verify" { 1 } else { 0 };
            assert_eq!(code, expected, "{what}: {stdout}");
            assert_eq!(exit_code(&parsed), expected as u8, "{what}");
            if op == "verify" {
                let kind = parsed
                    .get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Value::as_str);
                assert_eq!(kind, Some("undetermined-signal"), "{what}: {body}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
