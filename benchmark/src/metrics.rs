//! The metric tables.  `BENCHMARK.json` at the repository root lists the
//! same names, units and bounds; a test keeps the two in step.

use crate::stats::Summary;

/// A metric as printed: name, unit, value.
pub type Row = (&'static str, &'static str, Summary);

/// Which way a metric improves.  The driver reads it from
/// `BENCHMARK.json`; here only the test that keeps the two in step does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the system sees, measured with tracing of any kind
/// off.  The share of failed ops is not a metric here because it must be
/// 0: it is the `failed`/`attempted` pair of every result line.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "seq_wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "speedup",
        unit: "ratio",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ratio",
        unit: "ratio",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.05,
    },
];

/// Below this, a difference in `setup_s` is not a regression in `--aa`
/// (set-up is 0.3 ms on `conflict_mix`).
pub const SETUP_FLOOR_S: f64 = 0.005;

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Metrics of single layers (the crates), all from the traced run.  A
/// metric of a layer the workload never executes reads 0: `simcpu.*` on
/// the four native workloads.
pub const PER_LAYER: &[PerLayer] = &[
    // membuf probes: the per-speculative-load path …
    layer("membuf.buffer.load_miss_ns", "ns", Lower),
    layer("membuf.buffer.load_hit_ns", "ns", Lower),
    layer("membuf.wordmap.insert_ns", "ns", Lower),
    layer("membuf.wordmap.get_hit_ns", "ns", Lower),
    layer("membuf.wordmap.get_miss_ns", "ns", Lower),
    layer("membuf.commitlog.snapshot_ns", "ns", Lower),
    layer("membuf.commitlog.register_reader_ns", "ns", Lower),
    // … the direct-store path of rank 0 …
    layer("membuf.commitlog.record_word_ns", "ns", Lower),
    layer("membuf.commitlog.take_readers_ns", "ns", Lower),
    layer("membuf.memory.write_word_ns", "ns", Lower),
    layer("membuf.memory.read_word_ns", "ns", Lower),
    // … and the join-time path.
    layer("membuf.buffer.store_ns", "ns", Lower),
    layer("membuf.buffer.validate_ns_per_word", "ns", Lower),
    layer("membuf.buffer.commit_ns_per_word", "ns", Lower),
    layer("membuf.commitlog.record_batch_ns_per_range", "ns", Lower),
    layer("membuf.commitlog.probe_ns", "ns", Lower),
    layer("membuf.buffer.clear_ns_per_word", "ns", Lower),
    // The same operations through `SpecContext`.
    layer("runtime.spec_load_ns", "ns", Lower),
    layer("runtime.spec_store_ns", "ns", Lower),
    layer("runtime.direct_load_ns", "ns", Lower),
    layer("runtime.direct_store_ns", "ns", Lower),
    layer("runtime.fork_join_ns", "ns", Lower),
    layer("runtime.fork_denied_ns", "ns", Lower),
    layer("runtime.new_s", "s", Lower),
    layer("runtime.drop_s", "s", Lower),
    // The paper's Fig. 8/9 breakdown, from `RunReport`.
    layer("runtime.phase.crit.work_frac", "ratio", Higher),
    layer("runtime.phase.crit.idle_frac", "ratio", Lower),
    layer("runtime.phase.crit.join_frac", "ratio", Lower),
    layer("runtime.phase.crit.fork_frac", "ratio", Lower),
    layer("runtime.phase.spec.work_frac", "ratio", Higher),
    layer("runtime.phase.spec.wasted_frac", "ratio", Lower),
    layer("runtime.phase.spec.idle_frac", "ratio", Lower),
    layer("runtime.phase.spec.validation_frac", "ratio", Lower),
    layer("runtime.phase.spec.commit_frac", "ratio", Lower),
    layer("runtime.phase.spec.finalize_frac", "ratio", Lower),
    layer("runtime.cpu_busy_frac", "ratio", Higher),
    layer("runtime.wasted_frac", "ratio", Lower),
    layer("runtime.commit_ratio", "ratio", Higher),
    layer("runtime.rollbacks.conflict", "count", Lower),
    layer("runtime.rollbacks.overflow", "count", Lower),
    layer("runtime.rollbacks.other", "count", Lower),
    layer("runtime.retries", "count", Higher),
    layer("runtime.targeted_dooms", "count", Lower),
    layer("runtime.precise_passes", "count", Higher),
    layer("runtime.forks", "count", Higher),
    layer("runtime.failed_forks", "count", Lower),
    layer("runtime.loads.crit", "count", Lower),
    layer("runtime.loads.spec", "count", Higher),
    layer("runtime.stores.crit", "count", Lower),
    layer("runtime.stores.spec", "count", Higher),
    layer("membuf.commitlog.commits", "count", Lower),
    layer("membuf.commitlog.stamp_writes", "count", Lower),
    layer("membuf.commitlog.lock_ns", "ns", Lower),
    layer("membuf.commitlog.cas_retries", "count", Lower),
    layer("membuf.commitlog.ring_overflows", "count", Lower),
    layer("membuf.commitlog.reader_spills", "count", Lower),
    // No movement is predicted from these at the default `Static`
    // policy and with trace and metrics off.
    layer("adaptive.governor.decide_ns", "ns", Lower),
    layer("adaptive.governor.record_outcome_ns", "ns", Lower),
    layer("adaptive.grain.tick_ns", "ns", Lower),
    layer("trace.emit_disabled_ns", "ns", Lower),
    layer("metrics.add_disabled_ns", "ns", Lower),
    layer("trace.emit_enabled_ns", "ns", Lower),
    layer("metrics.add_enabled_ns", "ns", Lower),
    layer("trace.enabled_wall_ratio", "ratio", Lower),
    layer("metrics.enabled_wall_ratio", "ratio", Lower),
    // `sim_replay` only.
    layer("simcpu.record_s", "s", Lower),
    layer("simcpu.replay_s.1", "s", Lower),
    layer("simcpu.replay_s.4", "s", Lower),
    layer("simcpu.replay_s.16", "s", Lower),
    layer("simcpu.replay_s.64", "s", Lower),
    layer("simcpu.replay_ns_per_memop", "ns", Lower),
    layer("simcpu.sim_cycles.1", "cycles", Lower),
    layer("simcpu.sim_cycles.4", "cycles", Lower),
    layer("simcpu.sim_cycles.16", "cycles", Lower),
    layer("simcpu.sim_cycles.64", "cycles", Lower),
    layer("simcpu.predicted_speedup", "ratio", Higher),
    layer("simcpu.native_speedup", "ratio", Higher),
    layer("simcpu.speedup_error", "ratio", Lower),
    layer("workloads.setup_s", "s", Lower),
    layer("workloads.ops_total", "count", Lower),
    layer("workloads.store_frac", "ratio", Lower),
    layer("bench.trace_overhead_frac", "ratio", Lower),
];

/// The metrics one run measured, by name.
#[derive(Default)]
pub struct Measured(Vec<(&'static str, Summary)>);

impl Measured {
    pub fn put(&mut self, name: &'static str, summary: Summary) {
        self.0.push((name, summary));
    }

    pub fn put_value(&mut self, name: &'static str, value: f64) {
        self.put(name, Summary::single(value));
    }

    fn take(&mut self, name: &str) -> Option<Summary> {
        let at = self.0.iter().position(|(n, _)| *n == name)?;
        Some(self.0.swap_remove(at).1)
    }

    fn sanitized(mut summary: Summary) -> Summary {
        for v in [
            &mut summary.value,
            &mut summary.min,
            &mut summary.median,
            &mut summary.max,
        ] {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
        summary
    }

    /// Every end-to-end metric in table order.
    ///
    /// # Panics
    /// Panics if one is missing or an unknown name was measured: both
    /// are bugs in this benchmark.
    pub fn end_to_end(mut self) -> Vec<Row> {
        let rows = END_TO_END
            .iter()
            .map(|m| {
                let summary = self
                    .take(m.name)
                    .unwrap_or_else(|| panic!("end-to-end metric `{}` was not measured", m.name));
                (m.name, m.unit, Self::sanitized(summary))
            })
            .collect();
        self.assert_drained();
        rows
    }

    /// Every per-layer metric in table order; a layer the run never
    /// executed reads 0.
    pub fn per_layer(mut self) -> Vec<Row> {
        let rows = PER_LAYER
            .iter()
            .map(|m| {
                let summary = self.take(m.name).unwrap_or(Summary::single(0.0));
                (m.name, m.unit, Self::sanitized(summary))
            })
            .collect();
        self.assert_drained();
        rows
    }

    fn assert_drained(&self) {
        let unknown: Vec<&str> = self.0.iter().map(|(n, _)| *n).collect();
        assert!(
            unknown.is_empty(),
            "measured metrics missing from the tables: {unknown:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn metric_names_units_and_counts_fit_the_contract() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(valid_name(name), "bad metric name `{name}`");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "metric names are used once");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "bad unit `{unit}`");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(!valid_name(".x") && !valid_name("a b") && valid_name("simcpu.replay_s.64"));
    }

    /// `BENCHMARK.json` lists what the tables list, in the same order.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut expected = String::new();
        for m in END_TO_END {
            expected.push_str(&format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.label(),
                m.bound
            ));
        }
        for m in PER_LAYER {
            expected.push_str(&format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.label()
            ));
        }
        let listed: String = text
            .lines()
            .map(str::trim)
            .filter(|line| line.starts_with("{\"name\": ") && line.contains("\"unit\""))
            .map(|line| line.trim_end_matches(','))
            .collect();
        assert_eq!(listed, expected);
        for workload in crate::kernels::Workload::ALL {
            assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\": ", workload.name())));
        }
        assert!(text.contains(&format!("\"run_seconds\": {}", crate::RUN_SECONDS)));
    }

    #[test]
    fn unmeasured_layers_read_zero_and_unknown_names_panic() {
        let mut measured = Measured::default();
        measured.put_value("runtime.forks", 63.0);
        measured.put_value("workloads.store_frac", f64::NAN);
        let rows = measured.per_layer();
        assert_eq!(rows.len(), PER_LAYER.len());
        let get = |name: &str| rows.iter().find(|r| r.0 == name).unwrap().2.value;
        assert_eq!(get("runtime.forks"), 63.0);
        assert_eq!(get("simcpu.record_s"), 0.0);
        assert_eq!(get("workloads.store_frac"), 0.0);

        let mut typo = Measured::default();
        typo.put_value("runtime.forkz", 1.0);
        assert!(std::panic::catch_unwind(move || typo.per_layer()).is_err());
    }
}
