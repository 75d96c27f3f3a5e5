//! `bips-serve` — the sharded location engine behind a real socket.
//!
//! Builds the load-bench workload's server-side state (registry, APSP
//! grid, every user logged in), binds a listener, prints a single
//! `LISTENING <addr>` line on stdout, and serves `lan::rpc` frames
//! until a client sends `Shutdown`. The serving loop lives in
//! [`bips_bench::serve`]; the protocol subset is documented in
//! `docs/PROTOCOLS.md`.
//!
//! Usage:
//!   cargo run -p bips-bench --bin bips-serve --release -- \
//!       [--workload full|smoke|tiny] [--listen HOST:PORT] [--uds PATH] \
//!       [--jobs N] [--mix Q:U]
//!
//! Defaults: smoke workload, TCP on `127.0.0.1:0` (the `LISTENING`
//! line carries the actual port), flush jobs 4, and the 80:20 mix.
//! `--mix` re-tunes the workload's per-tick blocks (clients must drive
//! the same mix for checksums to line up). At exit the run's `serve.*`
//! counters print to stderr.

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use bips_bench::loadgen::{build_service, Workload};
use bips_bench::serve::{Bind, Server};
use bips_bench::telemetry::{reject_unknown, take_flag, take_mix};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (args, workload) = take_flag(args, "--workload");
    let (args, listen) = take_flag(args, "--listen");
    let (args, uds) = take_flag(args, "--uds");
    let (args, jobs) = take_flag(args, "--jobs");
    let (args, mix) = take_mix(args);
    reject_unknown(&args);

    let w = match workload.as_deref().unwrap_or("smoke") {
        "full" => Workload::full(),
        "smoke" => Workload::smoke(),
        "tiny" => Workload::tiny(),
        other => {
            eprintln!("unknown workload {other:?} (expected full, smoke, or tiny)");
            std::process::exit(2);
        }
    }
    .with_mix(mix);
    let jobs: usize = jobs.map_or(4, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("--jobs must be a non-negative integer");
            std::process::exit(2);
        })
    });
    let bind = match (listen, uds) {
        (Some(_), Some(_)) => {
            eprintln!("--listen and --uds are mutually exclusive");
            std::process::exit(2);
        }
        (_, Some(path)) => Bind::Uds(PathBuf::from(path)),
        (listen, None) => Bind::Tcp(listen.unwrap_or_else(|| "127.0.0.1:0".to_string())),
    };

    eprintln!(
        "[bips-serve] building {} workload: {} users, {} cells, {} shards ...",
        w.name,
        w.users,
        w.cells(),
        w.shards
    );
    let svc = Arc::new(build_service(&w));
    let server = Server::bind(&bind, svc, jobs).unwrap_or_else(|e| {
        eprintln!("cannot bind {bind:?}: {e}");
        std::process::exit(1);
    });
    // The readiness line CI (and any other harness) greps for.
    println!("LISTENING {}", server.addr_string());
    let _ = std::io::stdout().flush();

    let stats = server.serve();
    eprintln!(
        "[bips-serve] drained: {} conns, {} frames, {} bytes in, {} bytes out, {} dropped",
        stats.conns.load(Ordering::Relaxed),
        stats.frames.load(Ordering::Relaxed),
        stats.bytes_in.load(Ordering::Relaxed),
        stats.bytes_out.load(Ordering::Relaxed),
        stats.dropped.load(Ordering::Relaxed),
    );
}
