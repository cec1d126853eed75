//! The three workloads: server flags, the job stream each one sends,
//! and the physics cell its sweep and layer passes measure.

use pic_particles::Layout;
use pic_perfmodel::{Precision, Scenario};
use pic_serve::{JobSpec, Priority};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum Workload {
    /// Closed loop, one large SoA f32 Analytical job in flight, no cache.
    AnalyticalSweep,
    /// Closed loop over SoA f32 Precalculated jobs straddling the shard
    /// threshold, with checkpoints, pinned shards and returned dumps.
    PrecalcIo,
    /// Open loop of small mixed jobs at a fixed offered rate.
    SmallJobsOpen,
}

/// Offered rate of `small-jobs-open`, jobs/s.
pub const OPEN_RATE: f64 = 40.0;

/// `small-jobs-open` sends its jobs in shuffled blocks of this many,
/// each with the mix below exactly: a seed changes which jobs run and
/// in what order, not the shares of repeats, cells, priorities, dumps
/// or sizes, which would otherwise move the latency percentiles from
/// one seed to the next.
const SMALL_BLOCK: usize = 32;

/// Jobs per block that repeat an earlier spec (a quarter).
const SMALL_REPEATS: usize = 8;

/// Fresh jobs per block that ask for their dump (a quarter).
const SMALL_RETURNS: usize = 6;

const ANALYTICAL_PARTICLES: usize = 200_000;
const ANALYTICAL_STEPS: usize = 20;
const PRECALC_SMALL: usize = 25_000;
const PRECALC_LARGE: usize = 75_000;
const PRECALC_SHARD_THRESHOLD: usize = 50_000;
/// `precalc-io` sends a fixed number of four-job cycles per second of
/// `--seconds`: its latencies fall into four classes (size × return), so
/// a job count that varied from run to run would move the percentiles
/// from one class to the next.
const PRECALC_CYCLES_PER_S: f64 = 1.0;
const PRECALC_STEPS: usize = 6;
const PRECALC_CHECKPOINT: usize = 2;
const PRECALC_CACHE: usize = 8;
const SMALL_MIN: usize = 1_000;
const SMALL_MAX: usize = 4_000;
const SMALL_STEPS: usize = 20;

/// What the server does with a job beyond the sweep, as far as the
/// layer replay needs to know.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Result cache enabled (every fresh job renders a dump for it).
    pub cache: bool,
    /// Steps between checkpoints (0 = none).
    pub checkpoint_interval: usize,
    /// Jobs above this many particles are sharded (0 = never).
    pub shard_threshold: usize,
    /// Shards per sharded job.
    pub shards: usize,
    /// Shards are pinned and Morton-sorted.
    pub pinned: bool,
}

/// The physics cell a workload's sweep and layer passes run.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Field scenario.
    pub scenario: Scenario,
    /// Particles.
    pub particles: usize,
    /// Steps per pass.
    pub steps: usize,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::AnalyticalSweep,
        Workload::PrecalcIo,
        Workload::SmallJobsOpen,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AnalyticalSweep => "analytical-sweep",
            Workload::PrecalcIo => "precalc-io",
            Workload::SmallJobsOpen => "small-jobs-open",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// `pic-serve` flags. Two workers with one sweep thread each keep the
    /// server within the two cores the benchmark budgets for it.
    pub fn server_args(self) -> Vec<String> {
        let mut args = vec!["--stdio", "--workers", "2", "--threads", "1"];
        let cache = PRECALC_CACHE.to_string();
        let checkpoint = PRECALC_CHECKPOINT.to_string();
        let threshold = PRECALC_SHARD_THRESHOLD.to_string();
        match self {
            Workload::AnalyticalSweep => args.extend(["--cache", "0"]),
            Workload::PrecalcIo => args.extend([
                "--cache",
                &cache,
                "--checkpoint-interval",
                &checkpoint,
                "--shard-threshold",
                &threshold,
                "--shards",
                "2",
                "--pinned",
            ]),
            Workload::SmallJobsOpen => {}
        }
        args.into_iter().map(str::to_string).collect()
    }

    /// The server-side behaviour the layer replay mirrors.
    pub fn shape(self) -> Shape {
        match self {
            Workload::AnalyticalSweep => Shape {
                cache: false,
                checkpoint_interval: 0,
                shard_threshold: 0,
                shards: 0,
                pinned: false,
            },
            Workload::PrecalcIo => Shape {
                cache: true,
                checkpoint_interval: PRECALC_CHECKPOINT,
                shard_threshold: PRECALC_SHARD_THRESHOLD,
                shards: 2,
                pinned: true,
            },
            Workload::SmallJobsOpen => Shape {
                cache: true,
                checkpoint_interval: 0,
                shard_threshold: 0,
                shards: 0,
                pinned: false,
            },
        }
    }

    /// Offered rate for an open loop; `None` for a closed loop.
    pub fn open_rate(self) -> Option<f64> {
        match self {
            Workload::SmallJobsOpen => Some(OPEN_RATE),
            _ => None,
        }
    }

    /// Jobs a closed loop sends in a phase of `seconds`: `None` to keep
    /// sending until the time is up.
    pub fn closed_count(self, seconds: f64) -> Option<usize> {
        match self {
            Workload::PrecalcIo => {
                Some(4 * (seconds * PRECALC_CYCLES_PER_S).round().max(1.0) as usize)
            }
            _ => None,
        }
    }

    /// The cell `sweep_nsps` and the traced layer passes measure.
    pub fn cell(self) -> Cell {
        match self {
            Workload::AnalyticalSweep => Cell {
                scenario: Scenario::Analytical,
                particles: ANALYTICAL_PARTICLES,
                steps: ANALYTICAL_STEPS,
            },
            Workload::PrecalcIo => Cell {
                scenario: Scenario::Precalculated,
                particles: PRECALC_LARGE,
                steps: PRECALC_STEPS,
            },
            Workload::SmallJobsOpen => Cell {
                scenario: Scenario::Analytical,
                particles: (SMALL_MIN + SMALL_MAX) / 2,
                steps: SMALL_STEPS,
            },
        }
    }

    /// Jobs run on each freshly launched server before it counts as set
    /// up. Their seeds come from a stream the measured jobs never use.
    pub fn warmup(self, seed: u64) -> Vec<JobSpec> {
        let mut rng = Rng::new(seed, 1);
        match self {
            Workload::AnalyticalSweep => vec![analytical(&mut rng, false)],
            Workload::PrecalcIo => vec![
                precalc(&mut rng, PRECALC_SMALL, false),
                precalc(&mut rng, PRECALC_LARGE, false),
            ],
            Workload::SmallJobsOpen => CELLS
                .iter()
                .map(|&(scenario, layout, precision)| JobSpec {
                    scenario,
                    layout,
                    precision,
                    particles: 2_000,
                    steps: SMALL_STEPS,
                    seed: rng.seed(),
                    ..JobSpec::default()
                })
                .collect(),
        }
    }

    /// A job sent after the timed region to check the output of a
    /// workload whose measured jobs return no dump.
    pub fn check_job(self, seed: u64) -> Option<JobSpec> {
        let mut rng = Rng::new(seed, 2);
        match self {
            Workload::AnalyticalSweep => Some(JobSpec {
                particles: 4_096,
                ..analytical(&mut rng, true)
            }),
            _ => None,
        }
    }

    /// The measured job stream. Deterministic in `seed`; `stream`
    /// separates the untraced and traced halves of a traced run.
    pub fn jobs(self, seed: u64, stream: u64) -> Jobs {
        Jobs {
            workload: self,
            rng: Rng::new(seed, 3 + stream),
            history: Vec::new(),
            block: Vec::new(),
            index: 0,
        }
    }
}

/// Every scenario × layout × precision cell, the `small-jobs-open` mix.
const CELLS: [(Scenario, Layout, Precision); 8] = [
    (Scenario::Analytical, Layout::Soa, Precision::F32),
    (Scenario::Analytical, Layout::Soa, Precision::F64),
    (Scenario::Analytical, Layout::Aos, Precision::F32),
    (Scenario::Analytical, Layout::Aos, Precision::F64),
    (Scenario::Precalculated, Layout::Soa, Precision::F32),
    (Scenario::Precalculated, Layout::Soa, Precision::F64),
    (Scenario::Precalculated, Layout::Aos, Precision::F32),
    (Scenario::Precalculated, Layout::Aos, Precision::F64),
];

/// The cells `sweep_nsps` averages for `small-jobs-open`.
pub fn small_cells() -> &'static [(Scenario, Layout, Precision)] {
    &CELLS
}

fn analytical(rng: &mut Rng, return_particles: bool) -> JobSpec {
    JobSpec {
        scenario: Scenario::Analytical,
        layout: Layout::Soa,
        precision: Precision::F32,
        particles: ANALYTICAL_PARTICLES,
        steps: ANALYTICAL_STEPS,
        seed: rng.seed(),
        return_particles,
        ..JobSpec::default()
    }
}

fn precalc(rng: &mut Rng, particles: usize, return_particles: bool) -> JobSpec {
    JobSpec {
        scenario: Scenario::Precalculated,
        layout: Layout::Soa,
        precision: Precision::F32,
        particles,
        steps: PRECALC_STEPS,
        seed: rng.seed(),
        return_particles,
        ..JobSpec::default()
    }
}

/// An endless, seeded stream of one workload's jobs.
pub struct Jobs {
    workload: Workload,
    rng: Rng,
    history: Vec<JobSpec>,
    /// The rest of the current `small-jobs-open` block; `None` marks a
    /// repeat.
    block: Vec<Option<JobSpec>>,
    index: usize,
}

impl Iterator for Jobs {
    type Item = JobSpec;

    fn next(&mut self) -> Option<JobSpec> {
        let i = self.index;
        self.index += 1;
        let rng = &mut self.rng;
        Some(match self.workload {
            Workload::AnalyticalSweep => analytical(rng, false),
            // Sizes alternate below and above the shard threshold; the
            // return flag alternates every two jobs, so all four
            // combinations recur every four jobs.
            Workload::PrecalcIo => {
                let particles = if i.is_multiple_of(2) {
                    PRECALC_SMALL
                } else {
                    PRECALC_LARGE
                };
                precalc(rng, particles, (i / 2).is_multiple_of(2))
            }
            Workload::SmallJobsOpen => {
                if self.block.is_empty() {
                    self.block = small_block(rng);
                }
                loop {
                    match self.block.pop().expect("a block holds fresh jobs") {
                        Some(spec) => {
                            self.history.push(spec.clone());
                            break spec;
                        }
                        // An exact earlier spec: a cache hit, or coalesced
                        // onto the original when it is still in flight.
                        None if !self.history.is_empty() => {
                            let recent = self.history.len().min(64);
                            let pick = self.history.len() - 1 - rng.below(recent);
                            break self.history[pick].clone();
                        }
                        // Nothing to repeat yet: the repeat waits for a
                        // fresh job of the same block.
                        None => self.block.insert(0, None),
                    }
                }
            }
        })
    }
}

/// One shuffled `small-jobs-open` block: [`SMALL_REPEATS`] repeat marks
/// and fresh jobs spread evenly over the cells and priorities, with
/// [`SMALL_RETURNS`] dumps and one size from each equal slice of
/// `SMALL_MIN..=SMALL_MAX`.
fn small_block(rng: &mut Rng) -> Vec<Option<JobSpec>> {
    const PRIORITIES: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];
    let fresh = SMALL_BLOCK - SMALL_REPEATS;
    let span = SMALL_MAX - SMALL_MIN + 1;
    let mut sizes: Vec<usize> = (0..fresh)
        .map(|k| {
            let lo = k * span / fresh;
            let hi = (k + 1) * span / fresh;
            SMALL_MIN + lo + rng.below(hi - lo)
        })
        .collect();
    let mut priorities: Vec<Priority> = (0..fresh).map(|k| PRIORITIES[k % 3]).collect();
    let mut returns: Vec<bool> = (0..fresh).map(|k| k < SMALL_RETURNS).collect();
    shuffle(rng, &mut sizes);
    shuffle(rng, &mut priorities);
    shuffle(rng, &mut returns);
    let mut block: Vec<Option<JobSpec>> = (0..fresh)
        .map(|k| {
            let (scenario, layout, precision) = CELLS[k % CELLS.len()];
            Some(JobSpec {
                scenario,
                layout,
                precision,
                particles: sizes[k],
                steps: SMALL_STEPS,
                priority: priorities[k],
                seed: rng.seed(),
                return_particles: returns[k],
                ..JobSpec::default()
            })
        })
        .chain((0..SMALL_REPEATS).map(|_| None))
        .collect();
    shuffle(rng, &mut block);
    block
}

/// Fisher–Yates shuffle driven by `rng`.
fn shuffle<T>(rng: &mut Rng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i + 1));
    }
}

/// SplitMix64: a small seeded generator, so the job stream depends on
/// nothing but the seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng.next_u64();
        rng
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A job seed. The wire carries numbers as JSON doubles, so seeds
    /// stay below 2^32.
    fn seed(&mut self) -> u64 {
        self.next_u64() >> 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_streams_repeat_for_a_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            let a: Vec<JobSpec> = w.jobs(7, 0).take(50).collect();
            let b: Vec<JobSpec> = w.jobs(7, 0).take(50).collect();
            let c: Vec<JobSpec> = w.jobs(8, 0).take(50).collect();
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a, c, "{}", w.name());
        }
    }

    #[test]
    fn small_jobs_blocks_hold_the_mix_exactly() {
        let jobs: Vec<JobSpec> = Workload::SmallJobsOpen
            .jobs(3, 0)
            .take(50 * SMALL_BLOCK)
            .collect();
        for (b, block) in jobs.chunks(SMALL_BLOCK).enumerate() {
            let start = b * SMALL_BLOCK;
            let fresh: Vec<&JobSpec> = block
                .iter()
                .enumerate()
                .filter(|(i, s)| !jobs[..start + i].contains(s))
                .map(|(_, s)| s)
                .collect();
            assert_eq!(fresh.len(), SMALL_BLOCK - SMALL_REPEATS, "block {b}");
            let returns = fresh.iter().filter(|s| s.return_particles).count();
            assert_eq!(returns, SMALL_RETURNS, "block {b}");
            for cell in CELLS {
                let n = fresh
                    .iter()
                    .filter(|s| (s.scenario, s.layout, s.precision) == cell)
                    .count();
                assert_eq!(n, fresh.len() / CELLS.len(), "block {b} {cell:?}");
            }
            for p in [Priority::High, Priority::Normal, Priority::Low] {
                let n = fresh.iter().filter(|s| s.priority == p).count();
                assert_eq!(n, fresh.len() / 3, "block {b} {p:?}");
            }
            let mut sizes: Vec<usize> = fresh.iter().map(|s| s.particles).collect();
            sizes.sort_unstable();
            let (span, f) = (SMALL_MAX - SMALL_MIN + 1, fresh.len());
            for (k, &n) in sizes.iter().enumerate() {
                let slice = k * span / f..(k + 1) * span / f;
                assert!(
                    slice.contains(&(n - SMALL_MIN)),
                    "block {b}: size {n} not in slice {k}"
                );
            }
        }
    }

    #[test]
    fn precalc_jobs_straddle_the_shard_threshold() {
        let jobs: Vec<JobSpec> = Workload::PrecalcIo.jobs(1, 0).take(4).collect();
        let sharded: Vec<bool> = jobs
            .iter()
            .map(|s| s.particles > PRECALC_SHARD_THRESHOLD)
            .collect();
        assert_eq!(sharded, [false, true, false, true]);
        let returns: Vec<bool> = jobs.iter().map(|s| s.return_particles).collect();
        assert_eq!(returns, [true, true, false, false]);
    }
}
