//! Tracing is observational only: the differential proof.
//!
//! Runs the same deterministic workload against the sharded engine
//! with tracing off and with tracing on (fresh span per query, every
//! ingest/flush recorded), at several `jobs` values, and demands
//! bit-identical serving results: the answer checksum (kind, cell,
//! distance, full path per query) and the flush-ack checksum must
//! match exactly, as must the seed-server baseline.

use std::sync::Arc;

use bips_bench::loadgen::{
    generate_trace, run_baseline, run_sharded, run_sharded_traced, Workload,
};
use desim::tracing::Tracer;

#[test]
fn tracing_is_bit_identical_across_jobs() {
    let w = Workload::tiny();
    let trace = generate_trace(&w);
    let baseline = run_baseline(&w, &trace);
    assert_eq!(baseline.latencies_ns.len() as u64, w.queries());

    let mut seen: Option<(u64, u64, u64)> = None;
    for jobs in [1usize, 4, 8] {
        let (sharded, _) = run_sharded(&w, &trace, jobs);
        let tracer = Arc::new(Tracer::new(w.shards, 1024));
        let (traced, _) = run_sharded_traced(&w, &trace, jobs, &tracer);

        // Sharded agrees with the seed server.
        assert_eq!(
            sharded.checksum, baseline.checksum,
            "jobs={jobs}: sharded diverged from baseline"
        );
        // Tracing perturbs neither answers nor acks nor outcome counts.
        assert_eq!(
            traced.checksum, sharded.checksum,
            "jobs={jobs}: tracing perturbed the answers"
        );
        assert_eq!(
            traced.ack_checksum, sharded.ack_checksum,
            "jobs={jobs}: tracing perturbed the flush acks"
        );
        assert_eq!(traced.found, sharded.found);
        assert_eq!(traced.latencies_ns.len(), sharded.latencies_ns.len());

        // The traced run actually traced: ~2 events per query plus
        // ingests and flushes, and nothing was dropped.
        assert!(
            tracer.recorded() >= 2 * w.queries(),
            "jobs={jobs}: only {} events recorded",
            tracer.recorded()
        );
        assert_eq!(tracer.dropped(), 0);

        // And every jobs value lands on the same checksums.
        let key = (traced.checksum, traced.ack_checksum, traced.found);
        match seen {
            None => seen = Some(key),
            Some(prev) => assert_eq!(prev, key, "jobs={jobs}: results depend on jobs"),
        }
    }
}
