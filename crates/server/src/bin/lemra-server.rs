//! The `lemra-server` binary: allocation-as-a-service over TCP.
//!
//! ```text
//! cargo run -p lemra-server --bin lemra-server -- \
//!     --listen 127.0.0.1:7407 --admin 127.0.0.1:7408 --workers 4
//! ```
//!
//! Flags override the corresponding environment variables
//! (`LEMRA_LISTEN`, `LEMRA_ADMIN`, `LEMRA_QUEUE_DEPTH`,
//! `LEMRA_REQ_TIMEOUT_MS`, `LEMRA_MAX_PAYLOAD`); the solver-side knobs
//! (`LEMRA_BACKEND`, `LEMRA_THREADS`, `LEMRA_CACHE`, `LEMRA_FAULT`, …)
//! are read by the pipeline as usual. `--timings` prints the shared
//! pipeline/cache stats block, always collected, to stderr on exit.
//!
//! SIGTERM and SIGINT begin a graceful drain: the listener stops
//! accepting, new frames are refused with `shutting_down`, every admitted
//! request still gets its response, then the process exits 0.

// The signal handler is the one place this crate needs unsafe: a raw
// `signal(2)` registration, kept to a single flag store to stay
// async-signal-safe (no libc crate in the offline build).
#![allow(unsafe_code)]

use lemra_netflow::LemraConfig;
use lemra_server::{Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::Release);
}

fn install_signal_handlers() {
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: lemra-server [--listen HOST:PORT] [--admin HOST:PORT] [--workers N]\n\
         \x20                   [--queue-depth N] [--timeout-ms N] [--timings]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let timings = args.iter().any(|a| a == "--timings");
    LemraConfig::from_env()
        .unwrap_or_else(|e| {
            eprintln!("lemra-server: {e}");
            std::process::exit(2);
        })
        .install();

    let mut cfg = ServerConfig::from_env().unwrap_or_else(|e| {
        eprintln!("lemra-server: {e}");
        std::process::exit(2);
    });

    // Flags: `--flag value` or `--flag=value`, overriding the environment.
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .unwrap_or_else(|| usage())
        };
        match flag {
            "--listen" => cfg.listen = value(),
            "--admin" => cfg.admin = value(),
            "--workers" => match value().parse::<usize>() {
                Ok(n) if n > 0 => cfg.workers = n,
                _ => usage(),
            },
            "--queue-depth" => match value().parse::<usize>() {
                Ok(n) if n > 0 => cfg.queue_depth = n,
                _ => usage(),
            },
            "--timeout-ms" => match value().parse::<u64>() {
                Ok(n) if n > 0 => cfg.default_timeout_ms = n,
                _ => usage(),
            },
            "--timings" => {}
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    install_signal_handlers();

    let mut server = Server::start(cfg.clone()).unwrap_or_else(|e| {
        eprintln!("lemra-server: bind failed: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "lemra-server: listening on {} (admin {}), {} workers, queue depth {}",
        server.addr(),
        server.admin_addr(),
        cfg.workers,
        cfg.queue_depth
    );

    while !SHUTDOWN.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(50));
    }

    eprintln!("lemra-server: draining…");
    server.join();
    eprint!("{}", server.metrics().render_stats(0, cfg.workers));
    if timings {
        eprint!("{}", lemra_core::StatsSnapshot::collect().render_timings());
    }
    eprintln!("lemra-server: drained, exiting");
}
