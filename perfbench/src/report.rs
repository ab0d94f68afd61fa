//! Metric names, units and the result line.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// A metric the benchmark can emit: name, unit, direction.
pub type Spec = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// Printed on every untraced run.
pub const END_TO_END: &[Spec] = &[
    ("wall_s", "s", Lower),
    ("setup_s", "s", Lower),
    ("events_per_s", "1/s", Higher),
    ("requests_per_s", "1/s", Higher),
    ("peak_rss_mb", "MB", Lower),
    ("ops_ok_share", "share", Higher),
];

/// Printed on every traced run, for every workload (zero where a workload
/// does not exercise the layer).
pub const PER_LAYER: &[Spec] = &[
    // Executor sync at the workload's shard count (idle at 1 shard).
    ("simnet.epochs", "count", Lower),
    ("simnet.barrier_waits", "count", Lower),
    ("simnet.events_per_epoch", "count", Higher),
    ("simnet.mailbox_events", "count", Lower),
    ("simnet.mailbox_bytes", "B", Lower),
    ("simnet.dispatch_ratio", "share", Lower),
    ("simnet.epoch_work_s", "s", Lower),
    ("simnet.epoch_wait_s", "s", Lower),
    ("simnet.epoch_samples_dropped", "count", Lower),
    ("proc.sys_cpu_s", "s", Lower),
    ("proc.vol_ctx_switches", "count", Lower),
    ("proc.cpu_util", "share", Lower),
    // The same on 2 shards (crawl only), where the sync layer works.
    ("simnet.shards2.wall_ratio", "share", Lower),
    ("simnet.shards2.epochs", "count", Lower),
    ("simnet.shards2.barrier_waits", "count", Lower),
    ("simnet.shards2.events_per_epoch", "count", Higher),
    ("simnet.shards2.mailbox_events", "count", Lower),
    ("simnet.shards2.mailbox_bytes", "B", Lower),
    ("simnet.shards2.dispatch_ratio", "share", Lower),
    ("simnet.shards2.epoch_work_s", "s", Lower),
    ("simnet.shards2.epoch_wait_s", "s", Lower),
    ("simnet.shards2.epoch_samples_dropped", "count", Lower),
    ("proc.shards2.sys_cpu_s", "s", Lower),
    ("proc.shards2.vol_ctx_switches", "count", Lower),
    ("proc.shards2.cpu_util", "share", Lower),
    ("core.shards2.campaign_new_s", "s", Lower),
    // Scheduler and dispatch.
    ("simnet.events", "count", Lower),
    ("simnet.ns_per_event", "ns", Lower),
    ("simnet.kind.deliver", "count", Lower),
    ("simnet.kind.dial_arrive", "count", Lower),
    ("simnet.kind.handshake", "count", Lower),
    ("simnet.kind.relay_hop", "count", Lower),
    ("simnet.kind.dial_outcome", "count", Lower),
    ("simnet.kind.timer", "count", Lower),
    ("simnet.kind.command", "count", Lower),
    ("simnet.kind.command_batch", "count", Lower),
    ("simnet.kind.node_up", "count", Lower),
    ("simnet.kind.node_down", "count", Lower),
    ("simnet.kind.conn_closed", "count", Lower),
    ("simnet.kind.fault", "count", Lower),
    ("simnet.peak_queue_len", "count", Lower),
    ("simnet.dials_ok", "count", Lower),
    ("simnet.dials_failed", "count", Lower),
    ("simnet.events_per_request", "count", Lower),
    // Process.
    ("proc.user_cpu_s", "s", Lower),
    ("proc.invol_ctx_switches", "count", Lower),
    ("proc.rss_mb.bootstrap", "MB", Lower),
    ("proc.rss_mb.preflash", "MB", Lower),
    ("proc.rss_mb.flash", "MB", Lower),
    ("proc.rss_mb.cooldown", "MB", Lower),
    // Harness, crawler, analysis, replay driver, forks.
    ("netgen.build_s", "s", Lower),
    ("core.campaign_new_s", "s", Lower),
    ("core.warmup_s", "s", Lower),
    ("core.gap_s", "s", Lower),
    ("core.crawl_s", "s", Lower),
    ("core.crawl_peers", "count", Higher),
    ("core.collect_s", "s", Lower),
    ("core.analysis_s", "s", Lower),
    ("core.replay.bootstrap_s", "s", Lower),
    ("core.replay.preflash_s", "s", Lower),
    ("core.replay.flash_s", "s", Lower),
    ("core.replay.cooldown_s", "s", Lower),
    ("core.fork_probe_s", "s", Lower),
    ("core.fork_self_s", "s", Lower),
    // DHT.
    ("kademlia.resolve_providers_s", "s", Lower),
    ("kademlia.lookups_completed", "count", Lower),
    ("kademlia.lookup_peer_failures", "count", Lower),
    ("kademlia.lookup_contacted_mean", "count", Lower),
    ("kademlia.providers_live", "count", Lower),
    ("kademlia.providers_raw", "count", Lower),
    // Content path.
    ("ipfs_node.fetches_started", "count", Lower),
    ("ipfs_node.want_coalesce_hits", "count", Higher),
    ("ipfs_node.served_cache", "count", Higher),
    ("ipfs_node.served_bitswap", "count", Higher),
    ("ipfs_node.served_dht", "count", Higher),
    ("ipfs_node.cache_hit_share", "share", Higher),
    ("bitswap.fetches_resolved", "count", Higher),
    // Observation cost.
    ("telemetry.trace_overhead_share", "share", Lower),
];

/// Whether `name` is a legal metric name: 1–64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric values in emission order; every name must come from `specs`.
pub struct Metrics {
    specs: &'static [Spec],
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn new(specs: &'static [Spec]) -> Metrics {
        Metrics {
            specs,
            values: Vec::new(),
        }
    }

    /// Record `name`; a non-finite value (a ratio over nothing) reads 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.specs.iter().any(|s| s.0 == name),
            "metric {name} is not declared"
        );
        assert!(
            self.values.iter().all(|v| v.0 != name),
            "metric {name} set twice"
        );
        self.values
            .push((name, if value.is_finite() { value } else { 0.0 }));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.0 == name).map(|v| v.1)
    }

    /// Names declared but never set.
    pub fn missing(&self) -> Vec<&'static str> {
        self.specs
            .iter()
            .map(|s| s.0)
            .filter(|n| self.get(n).is_none())
            .collect()
    }

    /// `"name": {"value": v, "unit": "u"}, ...` in declaration order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, spec) in self.specs.iter().enumerate() {
            let v = self.get(spec.0).unwrap_or(0.0);
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                spec.0, spec.1
            )
            .expect("writing to a String cannot fail");
        }
        out.push('}');
        out
    }

    /// Aligned `name value unit` lines for humans.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        for spec in self.specs {
            let v = self.get(spec.0).unwrap_or(0.0);
            writeln!(out, "  {:<34} {:>18.6} {}", spec.0, v, spec.1)
                .expect("writing to a String cannot fail");
        }
        out
    }
}

/// The result line: the last line the benchmark prints on stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_name_is_legal_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|s| s.0).collect();
        for n in &all {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "names are used once");
        assert!(PER_LAYER.len() <= 128);
        for s in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                s.1.len() <= 16
                    && s.1
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {}",
                s.1
            );
        }
    }

    #[test]
    fn name_rule_rejects_what_the_pattern_excludes() {
        assert!(valid_name("simnet.kind.dial_arrive"));
        assert!(valid_name("0x-ok"));
        assert!(!valid_name(""));
        assert!(!valid_name(".leading_dot"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("proc.rss_mb.pre-flash/x"));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::new(END_TO_END);
        m.set("wall_s", 1.25);
        m.set("ops_ok_share", f64::NAN);
        let line = result_line(true, 3, 0, &m);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"ops_ok_share\": {\"value\": 0, \"unit\": \"share\"}"));
        assert_eq!(m.missing().len(), END_TO_END.len() - 2);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_refused() {
        Metrics::new(END_TO_END).set("simnet.events", 1.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // The package can be built outside the repository.
        };
        let text: String = text.split_whitespace().collect();
        for &(name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            let better = if better == Higher { "higher" } else { "lower" };
            let entry =
                format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"");
            assert!(text.contains(&entry), "{name} missing from BENCHMARK.json");
        }
        assert_eq!(
            text.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + crate::WORKLOADS.len(),
            "BENCHMARK.json declares metrics or workloads the benchmark does not have"
        );
        for w in crate::WORKLOADS {
            assert!(text.contains(&format!("{{\"name\":\"{}\",\"why\":", w.name)));
        }
    }
}
