//! Every metric the benchmark reports: name, unit, which way is better.
//! `BENCHMARK.json` declares the same lists (a test keeps them in step);
//! README.md says what each measures and which end-to-end metric it
//! should move on which workload.

/// A metric's declaration.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// What a user of the engine sees, from the untraced run.
pub const END_TO_END: [Def; 5] = [
    def("ops_per_s", "1/s", "higher"),
    def("op_p50_ns", "ns", "lower"),
    def("sim_flow_ns", "ns", "lower"),
    def("sim_hot_flow_ns", "ns", "lower"),
    def("setup_s", "s", "lower"),
];

/// One layer at a time, from the traced run.
pub const PER_LAYER: [Def; 81] = [
    def("list.walk_ns", "ns", "lower"),
    def("list.append_ns", "ns", "lower"),
    def("list.depth_mean", "count", "lower"),
    def("list.bytes_per_op", "B", "lower"),
    def("list.lines_per_op", "count", "lower"),
    def("list.baseline.walk_ns", "ns", "lower"),
    def("list.lla8.walk_ns", "ns", "lower"),
    def("list.lla32.walk_ns", "ns", "lower"),
    def("list.bins.walk_ns", "ns", "lower"),
    def("list.hashbins.walk_ns", "ns", "lower"),
    def("list.ranktrie.walk_ns", "ns", "lower"),
    def("list.baseline.lines_per_op", "count", "lower"),
    def("list.lla8.lines_per_op", "count", "lower"),
    def("pool.footprint_bytes", "B", "lower"),
    def("pool.allocations", "count", "lower"),
    def("engine.flow_ns", "ns", "lower"),
    def("engine.self_ns", "ns", "lower"),
    def("engine.iprobe_ns", "ns", "lower"),
    def("engine.cancel_ns", "ns", "lower"),
    def("engine.prq_depth_mean", "count", "lower"),
    def("engine.prq_depth_max", "count", "lower"),
    def("engine.umq_depth_mean", "count", "lower"),
    def("engine.rejected", "count", "lower"),
    def("concurrent.flow_ns", "ns", "lower"),
    def("concurrent.self_ns", "ns", "lower"),
    def("concurrent.iprobe_ns", "ns", "lower"),
    def("concurrent.lock_acq_per_op", "count", "lower"),
    def("shard.flow_ns", "ns", "lower"),
    def("shard.self_ns", "ns", "lower"),
    def("shard.wild_flow_ns", "ns", "lower"),
    def("shard.wild_self_ns", "ns", "lower"),
    def("shard.lock_acq_per_op", "count", "lower"),
    def("shard.contended_pct", "%", "lower"),
    def("shard.wild_crossings_per_op", "count", "lower"),
    def("shard.imbalance", "ratio", "lower"),
    def("shard.max_prq_len", "count", "lower"),
    def("ingest.push_ns", "ns", "lower"),
    def("ingest.drain_ns_per_op", "ns", "lower"),
    def("ingest.flow_ns", "ns", "lower"),
    def("ingest.self_ns", "ns", "lower"),
    def("ingest.lock_acq_per_op", "count", "lower"),
    def("ingest.ops_per_drain", "count", "higher"),
    def("ingest.flush_on_probe_ns", "ns", "lower"),
    def("seqsnap.iprobe_hit_ns", "ns", "lower"),
    def("seqsnap.iprobe_miss_ns", "ns", "lower"),
    def("seqsnap.queue_lens_ns", "ns", "lower"),
    def("seqsnap.stats_ns", "ns", "lower"),
    def("seqsnap.retry_pct", "%", "lower"),
    def("seqsnap.fallback_pct", "%", "lower"),
    def("seqsnap.prescan_park_pct", "%", "higher"),
    def("heater.register_ns", "ns", "lower"),
    def("heater.deregister_ns", "ns", "lower"),
    def("heater.pass_ns", "ns", "lower"),
    def("heater.lines_per_pass", "count", "lower"),
    def("cachesim.lines_per_op", "count", "lower"),
    def("cachesim.dram_per_op", "count", "lower"),
    def("cachesim.prefetch_fills_per_op", "count", "lower"),
    def("cachesim.l1_hit_pct", "%", "higher"),
    def("cachesim.l2_hit_pct", "%", "higher"),
    def("cachesim.l3_hit_pct", "%", "higher"),
    def("cachesim.heat_fills_per_window", "count", "lower"),
    def("cachesim.l3_resident_pct", "%", "higher"),
    def("cachesim.baseline.sim_flow_ns", "ns", "lower"),
    def("cachesim.lla8.sim_flow_ns", "ns", "lower"),
    def("cachesim.broadwell.sim_flow_ns", "ns", "lower"),
    def("cachesim.host_ns_per_access", "ns", "lower"),
    def("osu.bw_mibps_8b_d1024", "MiB/s", "higher"),
    def("osu.latency_us_d1024", "us", "lower"),
    def("workload.gen_ns_per_req", "ns", "lower"),
    def("workload.top1_share_pct", "%", "higher"),
    def("workload.unexpected_pct", "%", "lower"),
    def("harness.timer_ns", "ns", "lower"),
    def("harness.samples", "count", "higher"),
    def("harness.threads", "count", "higher"),
    def("harness.op_p99_ns", "ns", "lower"),
    def("harness.op_p999_ns", "ns", "lower"),
    def("harness.rep_iqr_pct", "%", "lower"),
    def("harness.trace_overhead_pct", "%", "lower"),
    def("harness.peak_rss_mib", "MiB", "lower"),
    def("harness.failed_frac", "ratio", "lower"),
    def("harness.spans", "count", "higher"),
];

/// What a run reports: the contract's four keys.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Ops sent.
    pub attempted: u64,
    /// Ops whose outcome was wrong, plus discrepancies at quiescence.
    pub failed: u64,
    /// Metric values by name.
    pub values: Vec<(String, f64)>,
}

impl Outcome {
    /// Records `name = value`.
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Whether every op returned what the reference model expected.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: exactly `defs`' metrics, each with its unit.
    /// Panics if the run left one out, so a forgotten metric fails loudly.
    pub fn to_json(&self, defs: &[Def]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self
                    .get(d.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
                assert!(v.is_finite(), "metric {} is {v}", d.name);
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The metrics as an aligned table for people.
    pub fn table(&self, defs: &[Def]) -> String {
        let mut s = String::new();
        for d in defs {
            if let Some(v) = self.get(d.name) {
                s += &format!(
                    "  {:<34} {:>18.4} {:<6} ({} is better)\n",
                    d.name, v, d.unit, d.better
                );
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// binary prints. They must name the same things.
    #[test]
    fn benchmark_json_declares_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let declared = json.matches("\"name\":").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for (name, why) in WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"why\": \"{why}\"")),
                "{name}"
            );
        }
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            let decl = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            assert!(json.contains(&decl), "{decl}");
        }
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.put("setup_s", 0.25);
        let line = o.to_json(&[def("setup_s", "s", "lower")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
