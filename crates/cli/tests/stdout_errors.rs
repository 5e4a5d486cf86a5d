//! `gms-sim` writing to a stdout that fails: a reader that closes early
//! ends the output with a clean exit, and any other write error is
//! reported with a non-zero exit, never a panic.

use std::process::{Command, Stdio};

/// A run whose output (about 220 KB) outgrows any pipe buffer, so a
/// closed reader is always seen.
const LONG: &str = "explain --app atom --policy sp_1024 --scale 0.05 --memory quarter \
                    --worst 4 --window 500us --slo 900us --fault-plan loss=0.3,seed=9";

fn gms_sim() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gms-sim"));
    cmd.args(LONG.split_whitespace()).stderr(Stdio::piped());
    cmd
}

#[test]
fn a_closed_reader_ends_the_output_cleanly() {
    let mut child = gms_sim().stdout(Stdio::piped()).spawn().expect("spawns");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("runs to the end");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(stderr.is_empty(), "{stderr}");
}

#[cfg(target_os = "linux")]
#[test]
fn other_write_errors_are_reported() {
    let full = std::fs::File::create("/dev/full").expect("/dev/full opens");
    let out = gms_sim().stdout(full).output().expect("runs to the end");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: cannot write the output:"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
