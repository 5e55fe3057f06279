//! `sisyn synth --waveform N` simulates on a session built from the
//! request, so the request's budget governs the walk: a cap too small for
//! the specification's state space is an inconclusive exit with a
//! message, not a panic.

use std::process::Command;

#[test]
fn waveform_under_a_small_cap_is_inconclusive() {
    let dir = std::env::temp_dir().join(format!("sisyn-waveform-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec = dir.join("clatch4.g");
    let text = sisyn::stg::write_g(&sisyn::stg::generators::clatch(4));
    std::fs::write(&spec, text).expect("spec written");
    let out = Command::new(env!("CARGO_BIN_EXE_sisyn"))
        .args([
            "synth",
            spec.to_str().unwrap(),
            "--cap",
            "10",
            "--waveform",
            "5",
        ])
        .output()
        .expect("the sisyn binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(
        out.status.code(),
        Some(i32::from(sisyn::serve::cli::EXIT_INCONCLUSIVE)),
        "{stderr}"
    );
    assert!(stderr.contains("simulation impossible"), "{stderr}");
}
