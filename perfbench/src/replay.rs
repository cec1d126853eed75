//! The traced per-layer replay: the calls `pic-serve` makes for a
//! workload's jobs, made again in-process and timed around each layer's
//! public function. The program itself stays uninstrumented.

use crate::stats::median;
use crate::workload::{Cell, Shape, Workload};
use pic_bench::{
    bench_dt, bench_grid, build_ensemble, build_ensemble_range, dipole_wave, run_mdipole_steps,
    KernelVariant, MdipoleScenario,
};
use pic_boris::{BorisPusher, PrecalculatedSource, Pusher, SoaBorisKernel};
use pic_fields::{BatchSampler, EbSlices, PrecalculatedFields};
use pic_math::Real;
use pic_particles::io::write_ensemble;
use pic_particles::sort::{apply_perm, invert_perm, morton_perm};
use pic_particles::{
    AosEnsemble, ColumnSegment, Layout, ParticleAccess, ParticleStore, SoaEnsemble, SpeciesTable,
};
use pic_perfmodel::{CpuModel, Parallelization, Precision, Scenario};
use pic_runtime::{Schedule, Topology};
use pic_serve::{merge_segments, JobSpec, ShardPlan};
use std::hint::black_box;
use std::time::Instant;

/// Fresh jobs replayed per workload.
const REPLAY_JOBS: usize = 4;

/// Minimum wall time of one timed pass family, seconds.
const PASS_SECONDS: f64 = 0.3;

/// Layer timings gathered over the replayed jobs.
#[derive(Default)]
struct Acc {
    jobs: usize,
    build_ms: f64,
    prepare_ms: f64,
    sort_ms: Vec<f64>,
    render_ms: Vec<f64>,
    render_bytes: Vec<f64>,
    gather_ms: Vec<f64>,
    gather_bytes: Vec<f64>,
    // Per job: the render between the sweep and the reply (final dump or
    // `merge_segments`), the part of `serve.unreported_ms` it explains.
    reply_render_ms: Vec<f64>,
    // One call each per job at job size, used only for a layer the
    // workload never calls, so its per-call cost is still on record.
    probe_sort_ms: Vec<f64>,
    probe_render_ms: Vec<f64>,
    probe_render_bytes: Vec<f64>,
    probe_gather_ms: Vec<f64>,
    probe_gather_bytes: Vec<f64>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn render<R: Real, A: ParticleAccess<R>>(store: &A) -> (f64, f64) {
    let t = Instant::now();
    let mut out: Vec<u8> = Vec::new();
    write_ensemble(store, &mut out).expect("writing to a Vec cannot fail");
    let text = String::from_utf8(out).expect("the io format is ASCII");
    let ms = ms_since(t);
    (ms, black_box(text).len() as f64)
}

fn copy<R: Real, S: ParticleStore<R>>(from: &S, order: Option<&[usize]>) -> S {
    let mut out = S::default();
    match order {
        Some(inv) => inv.iter().for_each(|&i| out.push(from.get(i))),
        None => (0..from.len()).for_each(|i| out.push(from.get(i))),
    }
    out
}

/// The pinned-shard Morton pre-sort: the permutation of the t=0
/// ensemble applied to both stores, and its inverse for the restore.
/// Returns the inverse and the time taken, ms.
fn presort<R: Real, S: ParticleStore<R>>(initial: &mut S, store: &mut S) -> (Vec<usize>, f64) {
    let t = Instant::now();
    let perm = morton_perm(initial, &bench_grid());
    apply_perm(initial, &perm);
    apply_perm(store, &perm);
    let inv = invert_perm(&perm);
    (inv, ms_since(t))
}

/// Integrates `store` through `steps` in checkpoint segments, rendering
/// a checkpoint at every inner boundary as the server does.
fn sweep_with_checkpoints<R: Real, S: ParticleStore<R>>(
    store: &mut S,
    ctx: &MdipoleScenario<R>,
    steps: usize,
    interval: usize,
    restore: Option<&[usize]>,
    acc: &mut Acc,
) {
    let mut time = R::ZERO;
    let mut done = 0;
    while done < steps {
        let seg = if interval == 0 {
            steps - done
        } else {
            (steps - done).min(interval)
        };
        run_mdipole_steps(
            store,
            ctx,
            seg,
            &mut time,
            &Topology::single(1),
            Schedule::dynamic(),
            KernelVariant::SoaFast,
            None,
            &mut |_, _| true,
        );
        done += seg;
        if interval > 0 && done < steps {
            let own = copy::<R, S>(store, restore);
            let (ms, bytes) = render::<R, S>(&own);
            acc.render_ms.push(ms);
            acc.render_bytes.push(bytes);
        }
    }
}

fn replay_job<R: Real, S: ParticleStore<R>>(spec: &JobSpec, shape: Shape, acc: &mut Acc) {
    acc.jobs += 1;
    let n = spec.particles;
    let sharded = shape.shard_threshold > 0 && n > shape.shard_threshold;
    if !sharded {
        let t = Instant::now();
        let seeded: S = build_ensemble(n, spec.seed);
        acc.build_ms += ms_since(t);
        let initial = copy::<R, S>(&seeded, None);
        let mut store = seeded;
        let t = Instant::now();
        let ctx = MdipoleScenario::<R>::prepare(spec.scenario, &initial);
        acc.prepare_ms += ms_since(t);
        sweep_with_checkpoints(
            &mut store,
            &ctx,
            spec.steps,
            shape.checkpoint_interval,
            None,
            acc,
        );
        let (ms, bytes) = render::<R, S>(&store);
        if shape.cache || spec.return_particles {
            acc.render_ms.push(ms);
            acc.render_bytes.push(bytes);
            acc.reply_render_ms.push(ms);
        }
        acc.probe_render_ms.push(ms);
        acc.probe_render_bytes.push(bytes);
        // Probes for the layers a monolithic job skips.
        let (mut probe_initial, mut probe_store) = (initial, copy::<R, S>(&store, None));
        let (inv, ms) = presort::<R, S>(&mut probe_initial, &mut probe_store);
        black_box(inv);
        acc.probe_sort_ms.push(ms);
        let t = Instant::now();
        let seg = ColumnSegment::from_store(&store, 0, n);
        let text = merge_segments(&[&seg]);
        acc.probe_gather_ms.push(ms_since(t));
        black_box(text);
        acc.probe_gather_bytes.push(seg.byte_len() as f64);
        return;
    }
    let plan = ShardPlan::new(n, shape.shards);
    let mut segments = Vec::with_capacity(plan.shards());
    let mut gather_ms = 0.0;
    for &(offset, len) in plan.ranges() {
        let t = Instant::now();
        let seeded: S = build_ensemble_range(n, spec.seed, offset, len);
        acc.build_ms += ms_since(t);
        let mut initial = copy::<R, S>(&seeded, None);
        let mut store = seeded;
        let restore = if shape.pinned && len > 1 {
            let (inv, ms) = presort::<R, S>(&mut initial, &mut store);
            acc.sort_ms.push(ms);
            Some(inv)
        } else {
            None
        };
        let t = Instant::now();
        let ctx = MdipoleScenario::<R>::prepare(spec.scenario, &initial);
        acc.prepare_ms += ms_since(t);
        sweep_with_checkpoints(
            &mut store,
            &ctx,
            spec.steps,
            shape.checkpoint_interval,
            restore.as_deref(),
            acc,
        );
        let own = copy::<R, S>(&store, restore.as_deref());
        let t = Instant::now();
        let seg = ColumnSegment::from_store(&own, 0, own.len());
        gather_ms += ms_since(t);
        segments.push(seg);
    }
    let refs: Vec<&ColumnSegment> = segments.iter().collect();
    if shape.cache || spec.return_particles {
        let t = Instant::now();
        black_box(merge_segments(&refs));
        let ms = ms_since(t);
        gather_ms += ms;
        acc.reply_render_ms.push(ms);
    }
    acc.gather_ms.push(gather_ms);
    acc.gather_bytes
        .push(segments.iter().map(ColumnSegment::byte_len).sum::<usize>() as f64);
}

/// Per-particle(-step) times of the workload's cell, SoA f32.
struct CellTimes {
    sample_ns: f64,
    push_ns: f64,
    sweep_ns: f64,
}

/// Repeats `pass` (which returns its own timed nanoseconds) at least
/// three times and for at least [`PASS_SECONDS`]; the median.
fn repeat(mut pass: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 3 || start.elapsed().as_secs_f64() < PASS_SECONDS {
        times.push(pass());
    }
    median(&times)
}

fn cell_times(cell: Cell, seed: u64) -> CellTimes {
    let base: SoaEnsemble<f32> = build_ensemble(cell.particles, seed);
    let n = base.len();
    let work = (n * cell.steps) as f64;
    let wave = dipole_wave::<f32>();
    let dt = bench_dt() as f32;
    let positions: Vec<_> = (0..n).map(|i| base.get(i).position).collect();
    let xs: Vec<f32> = positions.iter().map(|p| p.x).collect();
    let ys: Vec<f32> = positions.iter().map(|p| p.y).collect();
    let zs: Vec<f32> = positions.iter().map(|p| p.z).collect();

    // Sample-only: the analytical field at every particle, every step.
    let mut cols = vec![vec![0.0f32; n]; 6];
    let sample = repeat(|| {
        let t = Instant::now();
        let mut time = 0.0f32;
        for _ in 0..cell.steps {
            let [ex, ey, ez, bx, by, bz] = &mut cols[..] else {
                unreachable!("six field columns")
            };
            let mut out = EbSlices {
                ex,
                ey,
                ez,
                bx,
                by,
                bz,
            };
            wave.sample_into(&xs, &ys, &zs, time, &mut out);
            black_box(&mut out);
            time += dt;
        }
        t.elapsed().as_nanos() as f64
    });

    // Push-only: the fast-path kernel over fields sampled beforehand.
    let pre = PrecalculatedFields::from_sampler(&wave, positions.iter().copied(), 0.0f32);
    let source = PrecalculatedSource::new(&pre);
    let table = SpeciesTable::<f32>::with_standard_species();
    let push = repeat(|| {
        let mut store = base.clone();
        let t = Instant::now();
        let mut time = 0.0f32;
        for _ in 0..cell.steps {
            let mut lanes = store.soa_lanes_mut().expect("SoA store has lanes");
            SoaBorisKernel::new(&source, &table, dt, time).run_lanes(&mut lanes);
            time += dt;
        }
        let ns = t.elapsed().as_nanos() as f64;
        black_box(&store);
        ns
    });

    // The fused sweep the service runs.
    let ctx = MdipoleScenario::<f32>::prepare(cell.scenario, &base);
    let sweep = repeat(|| {
        let mut store = base.clone();
        let mut time = 0.0f32;
        let t = Instant::now();
        run_mdipole_steps(
            &mut store,
            &ctx,
            cell.steps,
            &mut time,
            &Topology::single(1),
            Schedule::dynamic(),
            KernelVariant::SoaFast,
            None,
            &mut |_, _| true,
        );
        let ns = t.elapsed().as_nanos() as f64;
        black_box(&store);
        ns
    });
    CellTimes {
        sample_ns: sample / work,
        push_ns: push / work,
        sweep_ns: sweep / work,
    }
}

/// What the replay measured.
pub struct Replay {
    /// The per-layer metrics.
    pub metrics: Vec<LayerMetric>,
    /// Mean render between sweep and reply per job, ms; `None` when the
    /// workload's jobs render nothing there.
    pub reply_render_ms: Option<f64>,
}

/// One per-layer metric.
pub struct LayerMetric {
    /// Metric name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The sweep a cell's scenario runs is sample + push (Analytical) or
/// push alone (Precalculated); `runtime.reconcile_ratio` is the fused
/// sweep over that sum.
fn parts_of_sweep(scenario: Scenario, sample_ns: f64, push_ns: f64) -> f64 {
    match scenario {
        Scenario::Analytical => sample_ns + push_ns,
        Scenario::Precalculated => push_ns,
    }
}

/// Replays `jobs` (fresh specs of `workload`'s stream) layer by layer and
/// measures its cell's passes.
pub fn replay(workload: Workload, seed: u64, jobs: &[JobSpec]) -> Replay {
    let shape = workload.shape();
    let mut acc = Acc::default();
    for spec in jobs.iter().take(REPLAY_JOBS.max(1)) {
        match (spec.layout, spec.precision) {
            (Layout::Aos, Precision::F32) => {
                replay_job::<f32, AosEnsemble<f32>>(spec, shape, &mut acc)
            }
            (Layout::Aos, Precision::F64) => {
                replay_job::<f64, AosEnsemble<f64>>(spec, shape, &mut acc)
            }
            (Layout::Soa, Precision::F32) => {
                replay_job::<f32, SoaEnsemble<f32>>(spec, shape, &mut acc)
            }
            (Layout::Soa, Precision::F64) => {
                replay_job::<f64, SoaEnsemble<f64>>(spec, shape, &mut acc)
            }
        }
    }
    let jobs_n = acc.jobs.max(1) as f64;
    let per_call = |real: &[f64], probe: &[f64]| {
        if real.is_empty() {
            crate::stats::mean(probe)
        } else {
            crate::stats::mean(real)
        }
    };
    let cell = workload.cell();
    let times = cell_times(cell, seed);
    let parts = parts_of_sweep(cell.scenario, times.sample_ns, times.push_ns);
    let tally = Pusher::<f32>::tally(&BorisPusher);
    let model_nsps = CpuModel::endeavour().nsps(
        cell.scenario,
        Layout::Soa,
        Precision::F32,
        Parallelization::OpenMp,
        1,
    );
    let m = |name, value, unit| LayerMetric { name, value, unit };
    let metrics = vec![
        m("bench.build_ensemble_ms", acc.build_ms / jobs_n, "ms"),
        m("bench.prepare_ms", acc.prepare_ms / jobs_n, "ms"),
        m(
            "particles.sort_ms",
            per_call(&acc.sort_ms, &acc.probe_sort_ms),
            "ms",
        ),
        m(
            "particles.sort_calls",
            acc.sort_ms.len() as f64 / jobs_n,
            "count",
        ),
        m(
            "particles.write_ensemble_ms",
            per_call(&acc.render_ms, &acc.probe_render_ms),
            "ms",
        ),
        m(
            "particles.write_ensemble_bytes",
            per_call(&acc.render_bytes, &acc.probe_render_bytes),
            "B",
        ),
        m(
            "particles.write_ensemble_calls",
            acc.render_ms.len() as f64 / jobs_n,
            "count",
        ),
        m(
            "particles.columns_ms",
            per_call(&acc.gather_ms, &acc.probe_gather_ms),
            "ms",
        ),
        m(
            "particles.columns_bytes",
            per_call(&acc.gather_bytes, &acc.probe_gather_bytes),
            "B",
        ),
        m(
            "particles.columns_calls",
            acc.gather_ms.len() as f64 / jobs_n,
            "count",
        ),
        m("fields.sample_ns", times.sample_ns, "ns"),
        m("boris.push_ns", times.push_ns, "ns"),
        m("boris.flops", tally.flop_equivalents(), "flop-computed"),
        m(
            "boris.bytes",
            tally.bytes_read(4) + tally.bytes_written(4),
            "B-computed",
        ),
        m("runtime.sweep_ns", times.sweep_ns, "ns"),
        m("runtime.reconcile_ratio", times.sweep_ns / parts, "ratio"),
        m("perfmodel.model_nsps", model_nsps, "ns-modeled"),
        m(
            "perfmodel.model_ratio",
            times.sweep_ns / model_nsps,
            "ratio",
        ),
    ];
    Replay {
        metrics,
        reply_render_ms: (!acc.reply_render_ms.is_empty())
            .then(|| crate::stats::mean(&acc.reply_render_ms)),
    }
}
