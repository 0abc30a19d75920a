//! A `LEMRA_FAULT` value that does not parse must stop the binaries before
//! they run (`fault-inject` feature): a mistyped spec that ran fault-free
//! would let a fault-injection check pass without injecting anything.
#![cfg(feature = "fault-inject")]

use std::process::Command;

/// Runs `bin` with `args` under `LEMRA_FAULT=panic@0:ssq` (no attempt is
/// named `ssq`) and asserts it exits non-zero, says why naming the
/// variable, and prints nothing on stdout.
fn assert_rejects_the_typo(bin: &str, args: &[&str]) {
    let out = Command::new(bin)
        .args(args)
        .env("LEMRA_FAULT", "panic@0:ssq")
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{bin} exited 0; stderr: {stderr}");
    assert!(stderr.contains("LEMRA_FAULT=`panic@0:ssq`"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "{bin} ran: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn repro_rejects_an_unparsable_fault_spec() {
    assert_rejects_the_typo(env!("CARGO_BIN_EXE_repro"), &["table1", "--json"]);
}

#[test]
fn wholeprogram_rejects_an_unparsable_fault_spec() {
    assert_rejects_the_typo(env!("CARGO_BIN_EXE_wholeprogram"), &["--tier", "1k"]);
}
