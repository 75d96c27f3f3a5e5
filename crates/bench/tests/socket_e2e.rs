//! End-to-end socket serving tests: `bips-serve` behind a real
//! loopback TCP socket (and a Unix-domain socket) must serve the tiny
//! workload bit-identically to the in-process sharded engine —
//! checksum, ack checksum, and found count — for any connection count,
//! and drain gracefully on `Shutdown`.

use std::sync::Arc;

use bips_bench::loadgen::{build_service, generate_trace, run_sharded, run_socket, Mix, Workload};
use bips_bench::serve::{Bind, ServeStats, Server};

fn serve_and_run(
    w: &Workload,
    bind: &Bind,
    conns: usize,
) -> (bips_bench::loadgen::ModeResult, ServeStats) {
    let trace = generate_trace(w);
    let svc = Arc::new(build_service(w));
    let server = Server::bind(bind, svc, 2).expect("bind");
    let dial = match (bind, server.tcp_addr()) {
        (Bind::Tcp(_), Some(addr)) => Bind::Tcp(addr.to_string()),
        (Bind::Uds(path), _) => Bind::Uds(path.clone()),
        (Bind::Tcp(_), None) => panic!("tcp listener lost its address"),
    };
    let handle = std::thread::spawn(move || server.serve());
    let result = run_socket(w, &trace, &dial, conns, true).expect("socket replay");
    let stats = handle.join().expect("server thread");
    (result, stats)
}

#[test]
fn tcp_serving_is_bit_identical_to_in_process() {
    let w = Workload::tiny();
    let trace = generate_trace(&w);
    let (reference, _) = run_sharded(&w, &trace, 1);
    for conns in [1usize, 3] {
        let (r, stats) = serve_and_run(&w, &Bind::Tcp("127.0.0.1:0".to_string()), conns);
        assert_eq!(
            r.checksum, reference.checksum,
            "networked answers diverged at {conns} conns"
        );
        assert_eq!(
            r.ack_checksum, reference.ack_checksum,
            "networked flush acks diverged at {conns} conns"
        );
        assert_eq!(r.found, reference.found);
        assert_eq!(r.latencies_ns.len() as u64, w.queries());
        // Control conn + query conns + the shutdown wake-up dial.
        use std::sync::atomic::Ordering;
        assert_eq!(stats.conns.load(Ordering::Relaxed), 1 + conns as u64);
        assert_eq!(stats.dropped.load(Ordering::Relaxed), 0);
        // Exact wire counts: every request's frame and bytes, the same
        // however the requests are spread over connections.
        let wire =
            [&stats.frames, &stats.bytes_in, &stats.bytes_out].map(|c| c.load(Ordering::Relaxed));
        assert_eq!(
            wire,
            [1_703, 93_478, 74_094],
            "frames, bytes in and bytes out at {conns} conns"
        );
    }
}

#[test]
fn socket_checksums_are_mix_and_conn_invariant() {
    // The answer re-fold and the per-tick outcome buffer are sized
    // from the workload's own per-tick query count, so a non-default
    // mix must replay bit-identically for any connection count too.
    for mix in [Mix::Q50U50, Mix::Q99U1] {
        let w = Workload::tiny().with_mix(mix);
        let trace = generate_trace(&w);
        let (reference, _) = run_sharded(&w, &trace, 1);
        for conns in [1usize, 3] {
            let (r, _) = serve_and_run(&w, &Bind::Tcp("127.0.0.1:0".to_string()), conns);
            assert_eq!(
                r.checksum, reference.checksum,
                "{} answers diverged at {conns} conns",
                w.name
            );
            assert_eq!(
                r.ack_checksum, reference.ack_checksum,
                "{} flush acks diverged at {conns} conns",
                w.name
            );
            assert_eq!(r.found, reference.found);
            assert_eq!(r.latencies_ns.len() as u64, w.queries());
        }
    }
}

#[test]
fn uds_serving_is_bit_identical_to_in_process() {
    let w = Workload::tiny();
    let trace = generate_trace(&w);
    let (reference, _) = run_sharded(&w, &trace, 1);
    let path = std::env::temp_dir().join(format!("bips-serve-test-{}.sock", std::process::id()));
    let (r, _) = serve_and_run(&w, &Bind::Uds(path.clone()), 2);
    assert_eq!(r.checksum, reference.checksum, "uds answers diverged");
    assert_eq!(r.ack_checksum, reference.ack_checksum);
    assert!(!path.exists(), "socket file not cleaned up on shutdown");
}
