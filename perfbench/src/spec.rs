//! The benchmark's contract: workloads and metric names with their
//! units. `BENCHMARK.json` at the repository root lists the same names;
//! a unit test holds the two in step.

/// A workload: its name and why it is in the benchmark.
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line on what it stresses.
    pub why: &'static str,
}

/// Every workload.
pub const WORKLOADS: [WorkloadSpec; 3] = [
    WorkloadSpec {
        name: "pingpong-small",
        why: "TCP loopback, 2 rails, 8 B-4 KiB eager round trips: per-message fixed costs (hand-off, wake-up, one syscall per frame)",
    },
    WorkloadSpec {
        name: "stream-bulk",
        why: "TCP loopback, 2 rails, CRC on, window of 4 one-way 64 KiB-4 MiB messages: byte costs of rendezvous, split, CRC and reassembly",
    },
    WorkloadSpec {
        name: "mixed-shaped",
        why: "shaped mem fabric (paper rails, time_scale 10), 4 channels, open-loop Poisson, Pareto 64 B-1 MiB at 30% of rail bandwidth: queueing and strategy set latency",
    },
];

/// An end-to-end metric: name, unit, and whether higher is better.
pub type MetricSpec = (&'static str, &'static str, bool);

/// Reported with `--trace 0`, by every workload.
pub const END_TO_END: [MetricSpec; 5] = [
    ("lat_p50_us", "us", false),
    ("lat_p99_us", "us", false),
    ("goodput_MBps", "MB/s", true),
    ("cpu_us_per_op", "us", false),
    ("setup_s", "s", false),
];

/// Reported with `--trace 1`, by every workload.
pub const PER_LAYER: [MetricSpec; 37] = [
    ("core.submit_ns", "ns", false),
    ("core.post_recv_ns", "ns", false),
    ("core.next_tx_ns", "ns", false),
    ("core.on_tx_done_ns", "ns", false),
    ("core.on_frame_ns", "ns", false),
    ("core.try_recv_ns", "ns", false),
    ("core.cpu_us_per_msg", "us", false),
    ("wire.crc_ns_per_KiB", "ns/KiB", false),
    ("wire.decode_ns_per_frame", "ns", false),
    ("wire.copied_bytes_per_msg", "B", false),
    ("core.strategy.packets_per_msg", "count", false),
    ("core.strategy.segments_per_aggregate", "count", true),
    ("core.strategy.rail0_byte_share", "ratio", true),
    ("core.strategy.rail0_ideal_share", "ratio", true),
    ("core.strategy.rail0_share_gap", "ratio", false),
    ("core.strategy.useful_offer_ratio", "ratio", true),
    ("core.pool.magazine_hit_ratio", "ratio", true),
    ("core.pool.hot_path_allocs_per_msg", "count", false),
    ("transport.send_call_us", "us", false),
    ("transport.post_recv_call_us", "us", false),
    ("transport.residual_us", "us", false),
    ("transport.tx_syscalls_per_packet", "count", false),
    ("transport.rx_syscalls_per_packet", "count", false),
    ("transport.errors", "count", false),
    ("transport.outstanding_p99", "count", false),
    ("floor.tcp_rtt_us", "us", false),
    ("floor.chan_rtt_us", "us", false),
    ("bench.gen_lag_p99_us", "us", false),
    ("bench.trace_overhead_pct", "%", false),
    ("bench.unattributed_pct", "%", false),
    ("bench.failed_ratio", "ratio", false),
    ("bench.e2e_us_per_msg", "us", false),
    ("self.app_us", "us", false),
    ("self.bench_us", "us", false),
    ("self.transport_us", "us", false),
    ("self.core_us", "us", false),
    ("self.wire_us", "us", false),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_metric_name, valid_unit};

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| (w.name, "s"))
            .chain(END_TO_END.iter().map(|m| (m.0, m.1)))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)));
        for (name, unit) in names {
            assert!(valid_metric_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    /// `BENCHMARK.json` names the same workloads and metrics, with the
    /// same units and directions, as this file.
    #[test]
    fn benchmark_json_agrees() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let flat: String = json.split_whitespace().collect();
        for w in &WORKLOADS {
            assert!(
                flat.contains(&format!("\"name\":\"{}\"", w.name)),
                "{}",
                w.name
            );
        }
        let entry = |m: &MetricSpec| {
            let better = if m.2 { "higher" } else { "lower" };
            format!(
                "\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\"",
                m.0, m.1
            )
        };
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(flat.contains(&entry(m)), "{} missing or different", m.0);
        }
        assert_eq!(
            flat.matches("\"better\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists metrics this file does not"
        );
    }
}
