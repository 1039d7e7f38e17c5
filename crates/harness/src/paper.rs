//! The paper's own evaluation artefacts (§V): Table II and Fig. 3–11,
//! all on the deterministic simulator.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::Serialize;

use mutls_membuf::GlobalMemory;
use mutls_runtime::{ForkModel, Phase};
use mutls_simcpu::{record_region, simulate, Recording, SimConfig, SimResult};
use mutls_workloads::{
    arena_bytes, descriptor, run_speculative, setup_shared, Scale, WorkloadClass, WorkloadKind,
};

use crate::report::{format_breakdown_table, format_sweep_table, Table};
use crate::sinks::ExperimentConfig;

/// Map `f` over `items` across host threads, preserving input order in the
/// result.  The discrete-event simulator is single-threaded, so the
/// independent points of a sweep (workload × CPU count × policy) scale
/// with host cores; output stays deterministic because each result lands
/// in its input slot.
pub(crate) fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    if n <= 1 {
        return items.iter().map(&f).collect();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(&items[i]);
                *slots[i].lock() = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every slot filled"))
        .collect()
}

/// CPU counts used by the paper's breakdown figures 8 and 9.
pub const BREAKDOWN_CPUS: [usize; 15] = [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 15, 20, 32, 48, 64];

/// Rollback probabilities of figure 11.
pub const ROLLBACK_PROBABILITIES: [f64; 6] = [0.01, 0.05, 0.10, 0.20, 0.50, 1.00];

/// One data point of a sweep figure.
#[derive(Debug, Clone, Serialize)]
pub struct SweepRow {
    /// Benchmark name.
    pub workload: String,
    /// Number of speculative CPUs.
    pub cpus: usize,
    /// Absolute speedup `T_s / T_N`.
    pub speedup: f64,
    /// Critical path efficiency.
    pub critical_efficiency: f64,
    /// Speculative path efficiency.
    pub speculative_efficiency: f64,
    /// Power efficiency.
    pub power_efficiency: f64,
    /// Parallel execution coverage.
    pub coverage: f64,
    /// Committed speculative threads.
    pub committed: u64,
    /// Rolled-back speculative threads.
    pub rolled_back: u64,
}

/// One row of a breakdown figure (per-phase fractions at a CPU count).
#[derive(Debug, Clone, Serialize)]
pub struct BreakdownRow {
    /// Benchmark name.
    pub workload: String,
    /// Number of speculative CPUs.
    pub cpus: usize,
    /// Phase label → fraction of the path's runtime.
    pub fractions: Vec<(String, f64)>,
}

/// Which metric a sweep figure reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Absolute speedup (figures 3 and 4).
    Speedup,
    /// Critical path efficiency (figure 5).
    CriticalEfficiency,
    /// Speculative path efficiency (figure 6).
    SpeculativeEfficiency,
    /// Power efficiency (figure 7).
    PowerEfficiency,
}

/// Record a workload's speculation trace at the given scale.
pub fn record_workload(kind: WorkloadKind, scale: Scale) -> Recording {
    record_workload_shared(kind, scale, None)
}

/// [`record_workload`] with the conflict family's true-sharing rate set
/// explicitly (permille; `None` keeps the scale's preset).
pub fn record_workload_shared(
    kind: WorkloadKind,
    scale: Scale,
    sharing_permille: Option<u32>,
) -> Recording {
    let memory = Arc::new(GlobalMemory::new(arena_bytes(kind, scale)));
    let data = setup_shared(kind, scale, sharing_permille, &memory);
    record_region(memory, |ctx| run_speculative(ctx, &data))
}

fn simulate_point(recording: &Recording, cpus: usize, seed: u64) -> SimResult {
    let config = SimConfig {
        num_cpus: cpus,
        seed,
        ..Default::default()
    };
    simulate(recording, config)
}

fn sweep_row(kind: WorkloadKind, cpus: usize, result: &SimResult) -> SweepRow {
    SweepRow {
        workload: kind.name().to_string(),
        cpus,
        speedup: result.speedup(),
        critical_efficiency: result.report.critical_path_efficiency(),
        speculative_efficiency: result.report.speculative_path_efficiency(),
        power_efficiency: result.power_efficiency(),
        coverage: result.report.coverage(),
        committed: result.report.committed_threads,
        rolled_back: result.report.rolled_back_threads,
    }
}

/// Sweep a set of workloads over the configured CPU counts.  Recordings
/// and the independent simulation points both fan out across host
/// threads; row order is deterministic regardless.
pub fn speedup_sweep(kinds: &[WorkloadKind], config: &ExperimentConfig) -> Vec<SweepRow> {
    let recordings = par_map(kinds, |&kind| record_workload(kind, config.scale));
    let points: Vec<(usize, usize)> = (0..kinds.len())
        .flat_map(|ki| config.cpus.iter().map(move |&cpus| (ki, cpus)))
        .collect();
    par_map(&points, |&(ki, cpus)| {
        let result = simulate_point(&recordings[ki], cpus, config.seed);
        sweep_row(kinds[ki], cpus, &result)
    })
}

fn metric_table(
    title: &str,
    kinds: &[WorkloadKind],
    config: &ExperimentConfig,
    metric: MetricKind,
) -> (Vec<SweepRow>, String) {
    let rows = speedup_sweep(kinds, config);
    let series: Vec<(String, Vec<f64>)> = kinds
        .iter()
        .map(|kind| {
            let values = config
                .cpus
                .iter()
                .map(|&cpus| {
                    rows.iter()
                        .find(|r| r.workload == kind.name() && r.cpus == cpus)
                        .map(|r| match metric {
                            MetricKind::Speedup => r.speedup,
                            MetricKind::CriticalEfficiency => r.critical_efficiency,
                            MetricKind::SpeculativeEfficiency => r.speculative_efficiency,
                            MetricKind::PowerEfficiency => r.power_efficiency,
                        })
                        .unwrap_or(f64::NAN)
                })
                .collect();
            (kind.name().to_string(), values)
        })
        .collect();
    let text = format_sweep_table(title, &config.cpus, &series);
    (rows, text)
}

/// Figure 3: speedup of the computation-intensive applications.
pub fn figure3(config: &ExperimentConfig) -> (Vec<SweepRow>, String) {
    metric_table(
        "Figure 3 — Performance of Computation-Intensive Applications (absolute speedup)",
        &WorkloadKind::COMPUTATION_INTENSIVE,
        config,
        MetricKind::Speedup,
    )
}

/// Figure 4: speedup of the memory-intensive applications.
pub fn figure4(config: &ExperimentConfig) -> (Vec<SweepRow>, String) {
    metric_table(
        "Figure 4 — Performance of Memory-Intensive Applications (absolute speedup)",
        &WorkloadKind::MEMORY_INTENSIVE,
        config,
        MetricKind::Speedup,
    )
}

/// Figure 5: critical path execution efficiency of all benchmarks.
pub fn figure5(config: &ExperimentConfig) -> (Vec<SweepRow>, String) {
    metric_table(
        "Figure 5 — Critical Path Execution Efficiency",
        &WorkloadKind::ALL,
        config,
        MetricKind::CriticalEfficiency,
    )
}

/// Figure 6: speculative path execution efficiency of all benchmarks.
pub fn figure6(config: &ExperimentConfig) -> (Vec<SweepRow>, String) {
    metric_table(
        "Figure 6 — Speculative Path Execution Efficiency",
        &WorkloadKind::ALL,
        config,
        MetricKind::SpeculativeEfficiency,
    )
}

/// Figure 7: power efficiency of all benchmarks.
pub fn figure7(config: &ExperimentConfig) -> (Vec<SweepRow>, String) {
    metric_table(
        "Figure 7 — Power Efficiency",
        &WorkloadKind::ALL,
        config,
        MetricKind::PowerEfficiency,
    )
}

/// Phase breakdown of either execution path for one workload.
pub fn breakdown(
    kind: WorkloadKind,
    config: &ExperimentConfig,
    cpus_list: &[usize],
    speculative_path: bool,
) -> Vec<BreakdownRow> {
    let recording = record_workload(kind, config.scale);
    let phases: [Phase; 10] = Phase::ALL;
    let mut rows = Vec::new();
    for &cpus in cpus_list {
        let result = simulate_point(&recording, cpus, config.seed);
        let stats = if speculative_path {
            &result.report.speculative
        } else {
            &result.report.critical
        };
        let fractions = phases
            .iter()
            .map(|p| (p.label().to_string(), stats.fraction(*p)))
            .collect();
        rows.push(BreakdownRow {
            workload: kind.name().to_string(),
            cpus,
            fractions,
        });
    }
    rows
}

fn breakdown_text(title: &str, rows: &[BreakdownRow]) -> String {
    let cpus: Vec<usize> = rows.iter().map(|r| r.cpus).collect();
    let phases: Vec<&str> = rows
        .first()
        .map(|r| r.fractions.iter().map(|(p, _)| p.as_str()).collect())
        .unwrap_or_default();
    let values: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| r.fractions.iter().map(|(_, v)| *v).collect())
        .collect();
    format_breakdown_table(title, &cpus, &phases, &values)
}

/// Figure 8: critical path breakdown for fft and md.
pub fn figure8(config: &ExperimentConfig) -> (Vec<BreakdownRow>, String) {
    let cpus: Vec<usize> = BREAKDOWN_CPUS
        .iter()
        .copied()
        .filter(|c| config.cpus.iter().max().map(|&m| *c <= m).unwrap_or(true))
        .collect();
    let mut rows = breakdown(WorkloadKind::Fft, config, &cpus, false);
    let fft_text = breakdown_text("Figure 8a — Critical Path Breakdown: FFT", &rows);
    let md_rows = breakdown(WorkloadKind::Md, config, &cpus, false);
    let md_text = breakdown_text(
        "Figure 8b — Critical Path Breakdown: Molecular Dynamics",
        &md_rows,
    );
    rows.extend(md_rows);
    (rows, format!("{fft_text}\n{md_text}"))
}

/// Figure 9: speculative path breakdown for fft and matmult.
pub fn figure9(config: &ExperimentConfig) -> (Vec<BreakdownRow>, String) {
    let cpus: Vec<usize> = BREAKDOWN_CPUS
        .iter()
        .copied()
        .filter(|c| *c >= 2 && config.cpus.iter().max().map(|&m| *c <= m).unwrap_or(true))
        .collect();
    let mut rows = breakdown(WorkloadKind::Fft, config, &cpus, true);
    let fft_text = breakdown_text("Figure 9a — Speculative Path Breakdown: FFT", &rows);
    let mm_rows = breakdown(WorkloadKind::Matmult, config, &cpus, true);
    let mm_text = breakdown_text("Figure 9b — Speculative Path Breakdown: Matmult", &mm_rows);
    rows.extend(mm_rows);
    (rows, format!("{fft_text}\n{mm_text}"))
}

/// Figure 10: speedups of the in-order and out-of-order models normalized
/// to the mixed model, for the tree-form recursion benchmarks.
pub fn figure10(config: &ExperimentConfig) -> (Vec<(String, usize, f64)>, String) {
    let mut rows = Vec::new();
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    for &kind in &WorkloadKind::TREE_RECURSION {
        let recording = record_workload(kind, config.scale);
        for model in [ForkModel::InOrder, ForkModel::OutOfOrder] {
            let mut values = Vec::new();
            for &cpus in &config.cpus {
                let mixed = simulate_point(&recording, cpus, config.seed).speedup();
                let other = simulate(
                    &recording,
                    SimConfig {
                        num_cpus: cpus,
                        fork_model: Some(model),
                        seed: config.seed,
                        ..Default::default()
                    },
                )
                .speedup();
                let normalized = other / mixed.max(f64::MIN_POSITIVE);
                rows.push((
                    format!("{} {}", kind.name(), model.label()),
                    cpus,
                    normalized,
                ));
                values.push(normalized);
            }
            series.push((format!("{} {}", kind.name(), model.label()), values));
        }
    }
    let text = format_sweep_table(
        "Figure 10 — Comparison of Forking Models (speedup normalized to mixed)",
        &config.cpus,
        &series,
    );
    (rows, text)
}

/// Figure 11: rollback sensitivity — relative slowdown with respect to the
/// non-rollback run at the largest configured CPU count.
pub fn figure11(config: &ExperimentConfig) -> (Vec<(String, f64, f64)>, String) {
    let kinds = [
        WorkloadKind::Mandelbrot,
        WorkloadKind::Md,
        WorkloadKind::Fft,
        WorkloadKind::Matmult,
        WorkloadKind::Nqueen,
        WorkloadKind::Tsp,
        WorkloadKind::Bh,
    ];
    let cpus = config.cpus.iter().copied().max().unwrap_or(64);
    let mut rows = Vec::new();
    let mut table = Table::new(
        format!("Figure 11 — Rollback Sensitivity at {cpus} CPUs (fraction of non-rollback speedup preserved)"),
        &["workload", "1%", "5%", "10%", "20%", "50%", "100%"],
    );
    // One parallel task per workload: record, baseline, probability sweep.
    let per_kind = par_map(&kinds, |&kind| {
        let recording = record_workload(kind, config.scale);
        let baseline = simulate_point(&recording, cpus, config.seed).speedup();
        let sensitivities: Vec<(f64, f64)> = ROLLBACK_PROBABILITIES
            .iter()
            .map(|&p| {
                let degraded = simulate(
                    &recording,
                    SimConfig {
                        num_cpus: cpus,
                        rollback_probability: p,
                        seed: config.seed,
                        ..Default::default()
                    },
                )
                .speedup();
                (p, degraded / baseline.max(f64::MIN_POSITIVE))
            })
            .collect();
        (kind, sensitivities)
    });
    for (kind, sensitivities) in per_kind {
        let mut row = vec![kind.name().to_string()];
        for (p, sensitivity) in sensitivities {
            rows.push((kind.name().to_string(), p, sensitivity));
            row.push(format!("{sensitivity:.2}"));
        }
        table.push_row(row);
    }
    (rows, table.render())
}

/// Table II: the benchmark suite, with the measured memory-access density
/// of each recording added as evidence for the computation/memory
/// classification.
pub fn table2(config: &ExperimentConfig) -> (HashMap<String, f64>, String) {
    let mut table = Table::new(
        "Table II — Benchmarks",
        &[
            "benchmark",
            "description",
            "amount of data (paper)",
            "pattern",
            "class",
            "measured mem density",
        ],
    );
    let mut densities = HashMap::new();
    for kind in WorkloadKind::ALL {
        let d = descriptor(kind);
        let recording = record_workload(kind, config.scale);
        let density = recording.memory_density();
        densities.insert(kind.name().to_string(), density);
        table.push_row(vec![
            d.name.to_string(),
            d.description.to_string(),
            d.amount_of_data.to_string(),
            d.pattern.to_string(),
            match d.class {
                WorkloadClass::ComputationIntensive => "computation".to_string(),
                WorkloadClass::MemoryIntensive => "memory".to_string(),
            },
            format!("{density:.3}"),
        ]);
    }
    (densities, table.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentConfig {
        ExperimentConfig::quick()
    }

    #[test]
    fn figure3_reports_scaling_compute_workloads() {
        let (rows, text) = figure3(&quick());
        assert!(text.contains("Figure 3"));
        // Speedup at 64 CPUs should be much larger than at 1 CPU for 3x+1.
        let s1 = rows
            .iter()
            .find(|r| r.workload == "3x+1" && r.cpus == 1)
            .unwrap()
            .speedup;
        let s64 = rows
            .iter()
            .find(|r| r.workload == "3x+1" && r.cpus == 64)
            .unwrap()
            .speedup;
        assert!(s64 > s1, "s64 {s64} vs s1 {s1}");
    }

    #[test]
    fn figure10_out_of_order_loses_on_tree_recursion() {
        let (rows, _) = figure10(&quick());
        let max_cpus = quick().cpus.into_iter().max().unwrap();
        let normalized = |kind: &str| {
            rows.iter()
                .find(|(name, cpus, _)| name == &format!("{kind} outoforder") && *cpus == max_cpus)
                .map(|(_, _, v)| *v)
                .unwrap()
        };
        // At tiny scale fft shows the divide-and-conquer gap clearly; the
        // DFS benchmarks have so little work per subtree that the models
        // converge, but out-of-order must never *beat* mixed.
        assert!(
            normalized("fft") < 1.0,
            "fft: out-of-order should trail mixed, got {}",
            normalized("fft")
        );
        for kind in ["matmult", "nqueen", "tsp"] {
            assert!(
                normalized(kind) <= 1.05,
                "{kind}: out-of-order should not beat mixed, got {}",
                normalized(kind)
            );
        }
    }

    #[test]
    fn figure11_sensitivity_is_monotone_in_probability() {
        let config = ExperimentConfig {
            scale: Scale::Tiny,
            cpus: vec![16],
            seed: 3,
            trace: None,
            metrics: None,
        };
        let (rows, _) = figure11(&config);
        let fft: Vec<f64> = rows
            .iter()
            .filter(|(name, _, _)| name == "fft")
            .map(|(_, _, v)| *v)
            .collect();
        assert_eq!(fft.len(), ROLLBACK_PROBABILITIES.len());
        assert!(fft.first().unwrap() >= fft.last().unwrap());
    }

    #[test]
    fn table2_densities_separate_classes() {
        let (densities, text) = table2(&quick());
        assert!(text.contains("Table II"));
        let compute_max = ["3x+1", "mandelbrot"]
            .iter()
            .map(|k| densities[*k])
            .fold(0.0f64, f64::max);
        let memory_min = ["fft", "matmult"]
            .iter()
            .map(|k| densities[*k])
            .fold(f64::INFINITY, f64::min);
        assert!(
            compute_max < memory_min,
            "computation-intensive density {compute_max} should be below memory-intensive {memory_min}"
        );
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let rows = breakdown(WorkloadKind::Fft, &quick(), &[4], false);
        let total: f64 = rows[0].fractions.iter().map(|(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..64).collect();
        let doubled = par_map(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(par_map(&[] as &[u64], |&x| x), Vec::<u64>::new());
    }
}
