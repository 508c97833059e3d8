//! A damaged result must fail its workload's check, count as a failed
//! operation and make the benchmark exit non-zero. The `--damage` flag
//! flips one byte of the first checked result: a decoded buffer
//! (local-roundtrip, shared-link), a GET slice (serve-mixed) or a record
//! (nephele-records). Run with `cargo test --release`; the workloads are
//! too slow in a debug build.

use std::process::Command;

fn run(workload: &str, damage: bool) -> (bool, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    if damage {
        cmd.arg("--damage");
    }
    let out = cmd.output().expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success(), last)
}

fn field(json: &str, key: &str) -> String {
    let at = json
        .find(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("{key} in {json}"));
    json[at + key.len() + 4..]
        .split([',', '}'])
        .next()
        .unwrap()
        .trim()
        .to_string()
}

fn check(workload: &str) {
    let (ok, clean) = run(workload, false);
    assert!(ok, "{workload} clean run failed: {clean}");
    assert_eq!(field(&clean, "failed"), "0");
    assert_eq!(field(&clean, "correct"), "true");

    let (ok, damaged) = run(workload, true);
    assert!(!ok, "{workload}: damaged run exited 0: {damaged}");
    assert_eq!(field(&damaged, "correct"), "false");
    assert_eq!(field(&damaged, "failed"), "1", "{workload}: {damaged}");
}

#[test]
fn local_roundtrip_catches_a_flipped_decoded_byte() {
    check("local-roundtrip");
}

#[test]
fn shared_link_catches_a_flipped_decoded_byte() {
    check("shared-link");
}

#[test]
fn serve_mixed_catches_a_flipped_get_byte() {
    check("serve-mixed");
}

#[test]
fn nephele_records_catches_a_flipped_record_byte() {
    check("nephele-records");
}

#[test]
fn unknown_workload_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope"])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
