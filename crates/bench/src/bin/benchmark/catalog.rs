//! Every metric the benchmark reports, with its unit and direction.
//! `BENCHMARK.json` at the repository root declares the same lists; a
//! test keeps the two in step.
//!
//! The end-to-end metrics are reported by every workload, so each is
//! defined per workload in terms of that workload's operation:
//!
//! | metric | serve_inproc / serve_socket | path_churn | tracking |
//! |---|---|---|---|
//! | `throughput` | `WhereIs` answers per second | same | virtual seconds simulated per host second |
//! | `latency_p50_us`, `latency_p99_us` | one `WhereIs` (call or RTT) | one `WhereIs` call | host time to simulate one virtual second |
//! | `update_rate` | presence notices ingested and flushed per second | topology mutations per second | location-DB updates applied per host second |
//!
//! Per-layer metrics of a layer a workload does not run read 0.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Metric name, `[A-Za-z0-9_.-]`.
    pub name: &'static str,
    /// Unit as reported.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: the share of the baseline median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Metrics a user of the system sees, gated from untraced runs.
pub const END_TO_END: &[Spec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.1),
    e2e("throughput", "1/s", Higher, 0.25),
    e2e("latency_p50_us", "us", Lower, 0.25),
    e2e("latency_p99_us", "us", Lower, 0.25),
    e2e("update_rate", "1/s", Higher, 0.25),
];

/// `setup_s` is a fraction of a second on `path_churn` and `tracking`,
/// where a share alone would flag scheduler noise: `compare` allows a
/// `setup_s` change, and a spread, of this many seconds when that is
/// more than the bound's share.
pub const SETUP_FLOOR_S: f64 = 0.05;

/// Declares the tracking workload's hourly pipeline counters once:
/// `TRACKING_COUNTERS` names them as `export_metrics` does, and
/// `HOURLY` declares each as `<name>.h1` and `<name>.h2`.
macro_rules! hourly {
    ($($name:literal),* $(,)?) => {
        /// Pipeline counters the tracking workload reports per virtual hour.
        pub const TRACKING_COUNTERS: &[&str] = &[$($name),*];
        const HOURLY: &[Spec] = &[$(
            layer(concat!($name, ".h1"), "count", Lower),
            layer(concat!($name, ".h2"), "count", Lower),
        )*];
    };
}

hourly!(
    "baseband.inquiry.ids_transmitted",
    "baseband.inquiry.fhs_collisions",
    "baseband.inquiry.backoffs",
    "baseband.page.completed",
    "baseband.page.failed",
    "lan.frames.sent",
    "lan.transport.retransmissions",
    "core.db.applied",
    "core.tracking.sightings",
    "core.tracking.changes_emitted",
    "core.system.missed_detections",
    "mobility.cell.entries",
);

const LAYERS: &[Spec] = &[
    // Set-up stages (sum to setup_s on the serving workloads).
    layer("setup.registry_s", "s", Lower),
    layer("setup.apsp_s", "s", Lower),
    layer("setup.login_s", "s", Lower),
    layer("setup.initial_ingest_s", "s", Lower),
    layer("setup.warmup_s", "s", Lower),
    // bips-core::service.
    layer("service.where_is_p50_ns", "ns", Lower),
    layer("service.where_is_p99_ns", "ns", Lower),
    layer("service.ingest_p50_ns", "ns", Lower),
    layer("service.flush_ns_per_notice", "ns", Lower),
    layer("service.read_retries", "count", Lower),
    layer("service.slot_publishes", "count", Lower),
    layer("service.applied", "count", Higher),
    layer("service.redundant", "count", Lower),
    layer("service.ignored", "count", Lower),
    layer("graph.path_len_mean", "nodes", Lower),
    // Socket client stages (serve_socket).
    layer("client.encode_p50_ns", "ns", Lower),
    layer("client.write_p50_ns", "ns", Lower),
    layer("client.read_wait_p50_ns", "ns", Lower),
    layer("client.decode_p50_ns", "ns", Lower),
    layer("client.reads_per_reply", "count", Lower),
    layer("client.ingest_rtt_p50_us", "us", Lower),
    layer("client.flush_rtt_p50_us", "us", Lower),
    // Server stages, replayed in process from the captured frames.
    layer("server.reframe_p50_ns", "ns", Lower),
    layer("server.rpc_decode_p50_ns", "ns", Lower),
    layer("server.serve_payload_p50_ns", "ns", Lower),
    layer("server.frame_p50_ns", "ns", Lower),
    layer("serve.bytes_in_per_query", "bytes", Lower),
    layer("serve.bytes_out_per_query", "bytes", Lower),
    layer("socket.rtt_p50_ns", "ns", Lower),
    layer("socket.residual_ns", "ns", Lower),
    // bips-core::graph under topology churn (path_churn).
    layer("churn.edge_weight_p50_us", "us", Lower),
    layer("churn.edge_weight_p99_us", "us", Lower),
    layer("churn.node_toggle_p50_us", "us", Lower),
    layer("churn.node_toggle_p99_us", "us", Lower),
    layer("churn.applied_frac", "fraction", Higher),
    layer("graph.tree_repairs_per_mutation", "count", Lower),
    layer("graph.vertices_touched_per_mutation", "count", Lower),
    layer("graph.cache_hits", "count", Higher),
    layer("graph.cache_misses", "count", Lower),
    // Tracking pipeline (desim, baseband, mobility, lan, core).
    layer("sim.events", "count", Lower),
    layer("sim.ns_per_event_h1", "ns", Lower),
    layer("sim.ns_per_event_h2", "ns", Lower),
    layer("tracking.accuracy", "fraction", Higher),
    layer("tracking.detect_mean_s", "virtual_s", Lower),
    // Allocations on the measuring thread, per operation.
    layer("alloc.per_query", "count", Lower),
    layer("alloc.per_notice", "count", Lower),
    layer("alloc.per_mutation", "count", Lower),
    // The traced run itself.
    layer("trace.spans", "count", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// Every per-layer metric: the fixed list followed by the hourly
/// tracking counters.
pub fn per_layer() -> impl Iterator<Item = &'static Spec> {
    LAYERS.iter().chain(HOURLY.iter())
}

/// Looks a metric up in either list.
pub fn find(name: &str) -> Option<&'static Spec> {
    END_TO_END
        .iter()
        .chain(per_layer())
        .find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Spec> = END_TO_END.iter().chain(per_layer()).collect();
        for (i, s) in all.iter().enumerate() {
            assert!(
                s.name.len() <= 64
                    && s.name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric())
                    && s.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                s.name
            );
            assert!(
                all[..i].iter().all(|o| o.name != s.name),
                "{} twice",
                s.name
            );
        }
        assert!(per_layer().count() <= 128);
    }
}
