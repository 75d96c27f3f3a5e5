//! Networked serving-path load bench: the 1M-user `server_throughput`
//! workload driven through `bips-serve` over real loopback sockets.
//!
//! For each workload this binary first replays the trace in-process
//! ([`run_sharded`] at jobs 1, 4, and 8 — all three must agree
//! bit-for-bit), then serves the same trace over loopback TCP at 1, 4,
//! and 8 client connections (an in-process `bips-serve` thread per
//! config, flush jobs matching the connection count). Every socket
//! run's answer checksum and flush-ack checksum must equal the
//! in-process ones — the standing proof that framing, batching, and
//! connection interleaving are invisible in the answers — and the
//! refusal to report numbers over diverging answers carries over from
//! `server_throughput`.
//!
//! Usage:
//!   cargo run -p bips-bench --bin net_throughput --release -- \
//!       [--smoke] [--json PATH] [--mix Q:U] \
//!       [--connect HOST:PORT [--conns N]]
//!
//! `--mix Q:U` re-tunes the workloads to a query:update preset
//! (`80:20` default, `50:50`, `99:1`); non-default mixes suffix the
//! section names (`smoke` → `smoke_50_50`). In `--connect` mode the
//! external `bips-serve` only holds login state, so any mix works
//! against the same server instance.
//!
//! `--json PATH` writes a `bips-run-report/v1` document with a section
//! per workload holding the in-process reference (`inproc_jobs1`) and
//! `socket_c{N}` blocks (end-to-end RTT HDR quantiles — p50/p99/p999 —
//! queries/sec, checksums; schema in `docs/OBSERVABILITY.md`). Each
//! `socket_c{N}` block also carries `p50_over_inproc`, its p50 over the
//! in-process p50 of the same replay, and every run judges that ratio
//! for each connection count it drove (table in
//! [`bips_bench::gate::net_throughput`]), exiting 1 if one fails:
//!
//! | field | gate |
//! |-------|------|
//! | `socket_c{N}.p50_over_inproc` | < 1000 |
//!
//! The frames and bytes each request costs on the wire are exact and
//! pinned by the `socket_e2e` Tier-1 test instead.
//!
//! `--connect HOST:PORT` is the two-process mode CI's network smoke
//! job uses: instead of spawning in-process servers, the client drives
//! one externally launched `bips-serve` (which must carry the same
//! workload), verifies the checksums against an in-process replay that
//! it records and gates against in the same way, and shuts the server
//! down over the socket.

// Bench binary: wall-clock reads feed the perf report, not simulation
// results.
#![allow(clippy::disallowed_methods)]

use std::sync::Arc;

use bips_bench::gate;
use bips_bench::loadgen::{
    build_service, generate_trace, run_sharded, run_socket, ModeResult, Workload,
};
use bips_bench::serve::{Bind, Server};
use bips_bench::telemetry::{reject_unknown, take_flag, take_mix, take_switch};
use desim::report::{Json, RunReport};

/// Client connection counts exercised in in-process mode; server flush
/// jobs follow the same values.
const CONNS: [usize; 3] = [1, 4, 8];

/// In-process replay at jobs 1/4/8; all three must agree bit-for-bit.
/// Returns the jobs-1 run as the reference.
fn inproc_reference(w: &Workload, trace: &bips_bench::loadgen::Trace) -> ModeResult {
    let mut reference: Option<ModeResult> = None;
    for jobs in [1usize, 4, 8] {
        let (r, _) = run_sharded(w, trace, jobs);
        if let Some(base) = &reference {
            assert_eq!(
                r.checksum, base.checksum,
                "{}: in-process checksum differs between jobs 1 and {jobs}",
                w.name
            );
            assert_eq!(
                r.ack_checksum, base.ack_checksum,
                "{}: in-process ack checksum differs between jobs 1 and {jobs}",
                w.name
            );
        } else {
            reference = Some(r);
        }
    }
    reference.expect("at least one jobs config ran")
}

fn verify(w: &Workload, conns: usize, socket: &ModeResult, reference: &ModeResult) {
    assert_eq!(
        socket.checksum, reference.checksum,
        "{}: socket answers at {conns} conns diverged from in-process",
        w.name
    );
    assert_eq!(
        socket.ack_checksum, reference.ack_checksum,
        "{}: socket flush acks at {conns} conns diverged from in-process",
        w.name
    );
    assert_eq!(socket.found, reference.found);
    assert_eq!(socket.latencies_ns.len() as u64, w.queries());
}

/// A socket run's block: its own numbers plus its p50 over the
/// in-process p50 of the same replay.
fn socket_json(socket: &ModeResult, reference: &ModeResult) -> Json {
    let ratio = socket.percentile_us(0.50) / reference.percentile_us(0.50).max(1e-3);
    let mut j = socket.to_json();
    j.set("p50_over_inproc", ratio);
    j
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (args, json_path) = take_flag(args, "--json");
    let (args, connect) = take_flag(args, "--connect");
    let (args, conns_flag) = take_flag(args, "--conns");
    let (args, mix) = take_mix(args);
    let (args, smoke_only) = take_switch(args, "--smoke");
    reject_unknown(&args);

    let mut report = RunReport::new("net_throughput", Workload::smoke().seed);
    let mut rows = Vec::new();

    if let Some(addr) = connect {
        // Two-process mode: one run against an external bips-serve.
        let w = if smoke_only {
            Workload::smoke().with_mix(mix)
        } else {
            Workload::full().with_mix(mix)
        };
        let conns: usize = conns_flag.map_or(4, |v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--conns must be a positive integer");
                std::process::exit(2);
            })
        });
        eprintln!("[{}] in-process reference ...", w.name);
        let trace = generate_trace(&w);
        let (reference, _) = run_sharded(&w, &trace, 1);
        eprintln!(
            "[{}] socket replay against {addr} ({conns} conns) ...",
            w.name
        );
        let r = run_socket(&w, &trace, &Bind::Tcp(addr.clone()), conns, true).unwrap_or_else(|e| {
            eprintln!("socket replay against {addr} failed: {e}");
            std::process::exit(2);
        });
        verify(&w, conns, &r, &reference);
        println!("== {} over {addr} ==", w.name);
        r.print_row(&format!("socket_c{conns}"));
        println!(
            "  checksums match in-process ({:016x} / {:016x})",
            r.checksum, r.ack_checksum
        );
        let mut section = Json::object();
        section
            .set("inproc_jobs1", reference.to_json())
            .set(&format!("socket_c{conns}"), socket_json(&r, &reference));
        report.section(w.name, section);
        rows.extend(gate::net_throughput(w.name, &[conns]));
    } else {
        let workloads = if smoke_only {
            vec![Workload::smoke().with_mix(mix)]
        } else {
            vec![
                Workload::full().with_mix(mix),
                Workload::smoke().with_mix(mix),
            ]
        };
        for w in workloads {
            eprintln!(
                "[{}] {} users, {} cells, {} ticks x ({} moves + {} queries)",
                w.name,
                w.users,
                w.cells(),
                w.ticks,
                w.updates_per_tick,
                w.queries_per_tick
            );
            eprintln!("[{}] in-process reference at jobs 1/4/8 ...", w.name);
            let trace = generate_trace(&w);
            let reference = inproc_reference(&w, &trace);
            let mut section = Json::object();
            let mut config = Json::object();
            config
                .set("users", w.users)
                .set("cells", w.cells())
                .set("mix", mix.name())
                .set("ticks", w.ticks)
                .set("shards", w.shards)
                .set("seed", w.seed);
            section.set("config", config);
            section.set("inproc_jobs1", reference.to_json());
            println!("== {} ==", w.name);
            reference.print_row("inproc   ");
            for conns in CONNS {
                eprintln!("[{}] socket replay at {conns} conns ...", w.name);
                let svc = Arc::new(build_service(&w));
                let server = Server::bind(&Bind::Tcp("127.0.0.1:0".to_string()), svc, conns)
                    .unwrap_or_else(|e| {
                        eprintln!("cannot bind loopback listener: {e}");
                        std::process::exit(2);
                    });
                let Some(addr) = server.tcp_addr() else {
                    eprintln!("tcp listener lost its address");
                    std::process::exit(2);
                };
                let handle = std::thread::spawn(move || server.serve());
                let r = run_socket(&w, &trace, &Bind::Tcp(addr.to_string()), conns, true)
                    .unwrap_or_else(|e| {
                        eprintln!("socket replay at {conns} conns failed: {e}");
                        std::process::exit(2);
                    });
                let stats = handle.join().unwrap_or_else(|_| {
                    eprintln!("server thread panicked");
                    std::process::exit(2);
                });
                verify(&w, conns, &r, &reference);
                r.print_row(&format!("socket_c{conns}"));
                section.set(&format!("socket_c{conns}"), socket_json(&r, &reference));
                let mut metrics = desim::metrics::MetricSet::new();
                stats.export_metrics(&mut metrics);
                if w.name == "full" && conns == 4 {
                    report.metrics(&metrics);
                }
            }
            println!(
                "  all socket checksums match in-process at jobs 1/4/8 ({:016x} / {:016x})",
                reference.checksum, reference.ack_checksum
            );
            report.section(w.name, section);
            rows.extend(gate::net_throughput(w.name, &CONNS));
        }
    }
    gate::finish(&report, json_path.as_deref(), &rows);
}
