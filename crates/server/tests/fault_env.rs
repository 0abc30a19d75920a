//! A `LEMRA_FAULT` value that does not parse must stop the server before
//! it listens (`fault-inject` feature), not serve fault-free.
#![cfg(feature = "fault-inject")]

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn server_rejects_an_unparsable_fault_spec() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lemra-server"))
        .args(["--listen", "127.0.0.1:0", "--admin", "127.0.0.1:0"])
        .args(["--workers", "1"])
        .env("LEMRA_FAULT", "panic@0:ssq")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("server starts");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on the server") {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("lemra-server kept running under an unparsable LEMRA_FAULT");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    assert!(!status.success(), "{stderr}");
    assert!(stderr.contains("LEMRA_FAULT=`panic@0:ssq`"), "{stderr}");
}
