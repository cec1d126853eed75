//! `sweep_nsps`: the bench harness's NSPS for a workload's cell.

use crate::stats::{mean, median};
use crate::workload::{small_cells, Workload};
use pic_bench::{measure_nsps_variant, BenchConfig, KernelVariant};
use pic_particles::Layout;
use pic_perfmodel::{Precision, Scenario};
use pic_runtime::{Schedule, Topology};
use std::time::Instant;

/// Seconds of harness runs behind one `sweep_nsps` figure.
pub const SWEEP_SECONDS: f64 = 8.0;

/// Fewest harness runs per cell.
const MIN_RUNS: usize = 5;

/// Short `measure_nsps_variant` runs of the workload's cell (each of the
/// mix's cells on `small-jobs-open`). A closed loop spreads them over
/// its phase and an open loop, which cannot pause, takes half before and
/// half after it, so the figure samples the same stretch of machine time
/// as the end-to-end metrics: the FP-heavy Analytical sampler's speed on
/// a shared host drifts over seconds.
pub struct SweepSampler {
    cells: Vec<(Scenario, Layout, Precision)>,
    cfg: BenchConfig,
    runs: Vec<Vec<f64>>,
    spent: f64,
}

impl SweepSampler {
    /// A sampler for `workload`'s cells, one iteration of the cell's
    /// steps per run.
    pub fn new(workload: Workload) -> SweepSampler {
        let cell = workload.cell();
        let cells = match workload {
            Workload::SmallJobsOpen => small_cells().to_vec(),
            _ => vec![(cell.scenario, Layout::Soa, Precision::F32)],
        };
        SweepSampler {
            runs: vec![Vec::new(); cells.len()],
            cells,
            cfg: BenchConfig {
                particles: cell.particles,
                steps_per_iteration: cell.steps,
                iterations: 1,
            },
            spent: 0.0,
        }
    }

    /// True when less than `progress` (0..=1) of the budget is spent.
    pub fn behind(&self, progress: f64) -> bool {
        self.spent < progress * SWEEP_SECONDS
    }

    /// One harness run of every cell.
    pub fn run_once(&mut self) {
        let start = Instant::now();
        let topo = Topology::single(1);
        for (k, &(scenario, layout, precision)) in self.cells.iter().enumerate() {
            let run = match precision {
                Precision::F32 => measure_nsps_variant::<f32>(
                    layout,
                    scenario,
                    &self.cfg,
                    &topo,
                    Schedule::dynamic(),
                    KernelVariant::SoaFast,
                ),
                Precision::F64 => measure_nsps_variant::<f64>(
                    layout,
                    scenario,
                    &self.cfg,
                    &topo,
                    Schedule::dynamic(),
                    KernelVariant::SoaFast,
                ),
            };
            self.runs[k].push(run.nsps());
        }
        self.spent += start.elapsed().as_secs_f64();
    }

    /// Spends what is left of the budget, then the mean over cells of
    /// each cell's median run.
    pub fn finish(mut self) -> f64 {
        while self.behind(1.0) || self.runs[0].len() < MIN_RUNS {
            self.run_once();
        }
        mean(&self.runs.iter().map(|r| median(r)).collect::<Vec<_>>())
    }
}
