//! `perfbench`: the end-to-end and per-layer benchmark of `pic-serve`
//! and the bench-harness sweep. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --serve-bin PATH [--log-dir DIR]
//! ```
//!
//! Prints a human-readable summary, then, as the last line of stdout,
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 when an output check fails or the run cannot complete.

mod check;
mod client;
mod replay;
mod stats;
mod sweep;
mod workload;

use check::{check_dump, reference_dump, Digest};
use client::{Response, ServeProc, Terminal};
use pic_serve::JobSpec;
use stats::{mean, median, open_loop_due_ns, run_tail, Stamps};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use sweep::SweepSampler;
use workload::Workload;

/// Servers launched per run to time set-up; the last one is measured.
const SETUP_LAUNCHES: u64 = 5;

/// Longest wait for any single reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    log_dir: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut serve_bin = None;
    let mut log_dir = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--log-dir" => log_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        log_dir,
    })
}

/// One measured request and what came back.
struct Job {
    spec: JobSpec,
    stamps: Stamps,
    /// Refused at admission.
    shed: bool,
    terminal: Option<Terminal>,
    response_bytes: usize,
}

impl Job {
    fn completed(&self) -> Option<&Terminal> {
        self.terminal.as_ref().filter(|t| t.kind == "completed")
    }

    fn settled(&self) -> bool {
        self.shed || self.terminal.is_some()
    }
}

/// The jobs of one timed phase.
struct Phase {
    jobs: Vec<Job>,
    /// Due time of the first job.
    start: f64,
    /// Time spent in harness runs between jobs, outside the timed region.
    paused: f64,
    /// Per-job log lines (traced phases only).
    log: Vec<String>,
}

/// Applies one response line to the phase's jobs.
fn absorb(jobs: &mut [Job], at: f64, text: &str, log: Option<&mut Vec<String>>) {
    let index = |tag: Option<&str>| {
        tag.and_then(|t| t.strip_prefix('j'))
            .and_then(|i| i.parse::<usize>().ok())
            .filter(|&i| i < jobs.len())
    };
    match Response::parse(text) {
        Response::Accepted(tag) => {
            if let Some(i) = index(tag.as_deref()) {
                jobs[i].stamps.accepted = Some(at);
            }
        }
        Response::Rejected(tag) => {
            if let Some(i) = index(tag.as_deref()) {
                jobs[i].shed = true;
                jobs[i].stamps.done = Some(at);
            }
        }
        Response::Terminal(t) => {
            if let Some(i) = index(t.tag.as_deref()) {
                let job = &mut jobs[i];
                job.stamps.done = Some(at);
                job.response_bytes = text.len() + 1;
                if let Some(log) = log {
                    log.push(job_log_line(i, job, &t));
                }
                job.terminal = Some(t);
            }
        }
        Response::Stats | Response::Other => {}
    }
}

/// The per-job trace record: reported spans beside the observed latency.
fn job_log_line(i: usize, job: &Job, t: &Terminal) -> String {
    let latency = job.stamps.latency_ns().unwrap_or(0.0);
    let admit = job.stamps.admit_ns().unwrap_or(0.0);
    format!(
        "{{\"job\":{i},\"kind\":\"{}\",\"particles\":{},\"steps\":{},\"return_particles\":{},\
         \"cache_hit\":{},\"batch_size\":{},\"late_ms\":{},\"admit_us\":{},\"latency_ms\":{},\
         \"queue_wait_ms\":{},\"run_ms\":{},\"unreported_ms\":{},\"response_bytes\":{}}}",
        t.kind,
        job.spec.particles,
        job.spec.steps,
        job.spec.return_particles,
        t.cache_hit,
        t.batch_size,
        job.stamps.late_ns() / 1e6,
        admit / 1e3,
        latency / 1e6,
        t.queue_wait_ns / 1e6,
        t.run_ns / 1e6,
        (latency - admit - t.queue_wait_ns - t.run_ns) / 1e6,
        job.response_bytes,
    )
}

/// Runs one timed phase of `seconds` on `server`. A closed loop given a
/// `sweep` sampler runs it between jobs, paced over the phase; that
/// time is left out of the timed region and the next job is due after.
fn run_phase(
    server: &mut ServeProc,
    workload: Workload,
    seed: u64,
    stream: u64,
    seconds: f64,
    traced: bool,
    mut sweep: Option<&mut SweepSampler>,
) -> io::Result<Phase> {
    let mut jobs: Vec<Job> = Vec::new();
    let mut log = Vec::new();
    let budget = seconds * 1e9;
    let lost = || io::Error::other("pic-serve closed its output");
    let start = server.now();
    let mut paused = 0.0;
    match workload.open_rate() {
        None => {
            // Closed loop: the next job is due when the previous reply
            // arrives.
            let mut due = start;
            let count = workload.closed_count(seconds);
            for spec in workload
                .jobs(seed, stream)
                .take(count.unwrap_or(usize::MAX))
            {
                if count.is_none() && server.now() - start - paused >= budget {
                    break;
                }
                let i = jobs.len();
                let sent = server.submit(&format!("j{i}"), &spec)?;
                jobs.push(Job {
                    spec,
                    stamps: Stamps {
                        due,
                        sent,
                        ..Stamps::default()
                    },
                    shed: false,
                    terminal: None,
                    response_bytes: 0,
                });
                while !jobs[i].settled() {
                    let line = server.recv(REPLY_TIMEOUT).map_err(|_| lost())?;
                    absorb(&mut jobs, line.at, &line.text, traced.then_some(&mut log));
                }
                due = jobs[i].stamps.done.unwrap_or(due);
                if let Some(sampler) = sweep.as_deref_mut() {
                    let progress = match count {
                        Some(n) => (i + 1) as f64 / n as f64,
                        None => (server.now() - start - paused) / budget,
                    };
                    if sampler.behind(progress) {
                        let t = server.now();
                        sampler.run_once();
                        due = server.now();
                        paused += due - t;
                    }
                }
            }
        }
        Some(rate) => {
            // Open loop: job i is due at start + i / rate whatever the
            // server is doing; replies are absorbed while waiting.
            let count = (rate * seconds).floor().max(1.0) as usize;
            for (i, spec) in workload.jobs(seed, stream).take(count).enumerate() {
                let due = start + open_loop_due_ns(i, rate);
                loop {
                    let now = server.now();
                    if now >= due {
                        break;
                    }
                    match server.recv(Duration::from_nanos((due - now) as u64)) {
                        Ok(line) => {
                            absorb(&mut jobs, line.at, &line.text, traced.then_some(&mut log))
                        }
                        Err(true) => return Err(lost()),
                        Err(false) => {}
                    }
                }
                let sent = server.submit(&format!("j{i}"), &spec)?;
                jobs.push(Job {
                    spec,
                    stamps: Stamps {
                        due,
                        sent,
                        ..Stamps::default()
                    },
                    shed: false,
                    terminal: None,
                    response_bytes: 0,
                });
            }
        }
    }
    // Drain: every submitted job must settle.
    while !jobs.iter().all(Job::settled) {
        let line = server.recv(REPLY_TIMEOUT).map_err(|_| lost())?;
        absorb(&mut jobs, line.at, &line.text, traced.then_some(&mut log));
    }
    Ok(Phase {
        jobs,
        start,
        paused,
        log,
    })
}

/// End-to-end figures of one phase.
struct E2e {
    completed: usize,
    nsps: f64,
    jobs_per_s: f64,
    latencies_ms: Vec<f64>,
}

fn e2e(phase: &Phase) -> E2e {
    let done: Vec<&Job> = phase
        .jobs
        .iter()
        .filter(|j| j.completed().is_some())
        .collect();
    let end = done
        .iter()
        .filter_map(|j| j.stamps.done)
        .fold(phase.start, f64::max);
    let wall = end - phase.start - phase.paused;
    let work: f64 = done
        .iter()
        .map(|j| (j.spec.particles * j.spec.steps) as f64)
        .sum();
    E2e {
        completed: done.len(),
        nsps: wall / work,
        jobs_per_s: done.len() as f64 / (wall / 1e9),
        latencies_ms: done
            .iter()
            .filter_map(|j| j.stamps.latency_ns())
            .map(|ns| ns / 1e6)
            .collect(),
    }
}

/// Reported spans beside observed latency, over jobs that ran (a cache
/// hit reports the original run's `run_ns`, not its own).
struct Gap {
    fresh: usize,
    latency_ms: f64,
    admit_us: f64,
    queue_wait_ms: f64,
    run_ms: f64,
    unreported_ms: f64,
}

fn gap(phase: &Phase) -> Gap {
    let fresh: Vec<(&Job, &Terminal)> = phase
        .jobs
        .iter()
        .filter_map(|j| j.completed().map(|t| (j, t)))
        .filter(|(_, t)| !t.cache_hit)
        .collect();
    let col = |f: &dyn Fn(&Job, &Terminal) -> f64| -> f64 {
        mean(&fresh.iter().map(|(j, t)| f(j, t)).collect::<Vec<_>>())
    };
    let latency = |j: &Job| j.stamps.latency_ns().unwrap_or(0.0);
    let admit = |j: &Job| j.stamps.admit_ns().unwrap_or(0.0);
    Gap {
        fresh: fresh.len(),
        latency_ms: col(&|j, _| latency(j) / 1e6),
        admit_us: col(&|j, _| admit(j) / 1e3),
        queue_wait_ms: col(&|_, t| t.queue_wait_ns / 1e6),
        run_ms: col(&|_, t| t.run_ns / 1e6),
        unreported_ms: col(&|j, t| (latency(j) - admit(j) - t.queue_wait_ns - t.run_ns) / 1e6),
    }
}

/// Outcome of the output checks.
#[derive(Default)]
struct Verdict {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 10 {
            self.problems.push(why);
        }
    }

    /// Checks one job: it completed, integrated every step, and any dump
    /// it returned is the reference dump.
    fn check(
        &mut self,
        label: &str,
        spec: &JobSpec,
        outcome: Option<&Terminal>,
        refs: &mut HashMap<String, Digest>,
    ) {
        self.attempted += 1;
        let Some(t) = outcome else {
            return self.fail(format!("{label}: refused at admission"));
        };
        if t.kind != "completed" {
            return self.fail(format!("{label}: ended {}", t.kind));
        }
        if t.steps_done != spec.steps as u64 {
            return self.fail(format!("{label}: {} of {} steps", t.steps_done, spec.steps));
        }
        match (&t.dump, spec.return_particles) {
            (Some(got), true) => {
                let key = format!(
                    "{:?}/{:?}/{:?}/{}/{}/{}",
                    spec.scenario,
                    spec.layout,
                    spec.precision,
                    spec.particles,
                    spec.steps,
                    spec.seed
                );
                let expected = refs
                    .entry(key)
                    .or_insert_with(|| Digest::of(&reference_dump(spec)));
                if let Err(why) = check_dump(expected, got) {
                    self.fail(format!("{label}: {why}"));
                }
            }
            (None, true) => self.fail(format!("{label}: no dump returned")),
            (Some(_), false) => self.fail(format!("{label}: unrequested dump")),
            (None, false) => {}
        }
    }
}

/// The run's result: metrics in print order, plus the check verdict.
struct Report {
    verdict: Verdict,
    metrics: Vec<(String, f64, String)>,
    notes: Vec<String>,
}

fn run(args: &Args) -> io::Result<Report> {
    let w = args.workload;
    let base = Instant::now();
    let mut notes = Vec::new();

    // Set-up: launch → ready → warm-up, several times; keep the last.
    let mut setup_s = Vec::new();
    let mut kept = None;
    for launch in 0..SETUP_LAUNCHES {
        let t = Instant::now();
        let mut server = ServeProc::launch(&args.serve_bin, &w.server_args(), base)?;
        server.wait_ready(REPLY_TIMEOUT)?;
        server.run_closed("w", &w.warmup(args.seed), REPLY_TIMEOUT)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if launch + 1 < SETUP_LAUNCHES {
            server.shutdown(REPLY_TIMEOUT)?;
        } else {
            kept = Some(server);
        }
    }
    let mut server = kept.ok_or_else(|| io::Error::other("no server launched"))?;

    // Timed region(s). A traced run splits its time into an untraced
    // and a traced half so it can state the tracing overhead.
    let mut sweep = (!args.trace).then(|| SweepSampler::new(w));
    if let (Some(sampler), Some(_)) = (sweep.as_mut(), w.open_rate()) {
        while sampler.behind(0.5) {
            sampler.run_once();
        }
    }
    let phases = if args.trace {
        vec![
            run_phase(
                &mut server,
                w,
                args.seed,
                0,
                args.seconds / 2.0,
                false,
                None,
            )?,
            run_phase(&mut server, w, args.seed, 1, args.seconds / 2.0, true, None)?,
        ]
    } else {
        let phase = run_phase(
            &mut server,
            w,
            args.seed,
            0,
            args.seconds,
            false,
            sweep.as_mut(),
        )?;
        vec![phase]
    };

    // Output check of a workload whose measured jobs return no dump.
    let check_job = w.check_job(args.seed);
    let mut check_outcome = None;
    if let Some(spec) = &check_job {
        server.submit("check", spec)?;
        while check_outcome.is_none() {
            let line = server
                .recv(REPLY_TIMEOUT)
                .map_err(|_| io::Error::other("no reply to the check job"))?;
            match Response::parse(&line.text) {
                Response::Terminal(t) if t.tag.as_deref() == Some("check") => {
                    check_outcome = Some(Some(t))
                }
                Response::Rejected(Some(tag)) if tag == "check" => check_outcome = Some(None),
                _ => {}
            }
        }
    }
    let peak_rss_mb = server.peak_rss_mb();
    server.shutdown(REPLY_TIMEOUT)?;

    // Verify every output, outside the timed region.
    let mut verdict = Verdict::default();
    let mut refs = HashMap::new();
    for (p, phase) in phases.iter().enumerate() {
        for (i, job) in phase.jobs.iter().enumerate() {
            let outcome = if job.shed {
                None
            } else {
                job.terminal.as_ref()
            };
            verdict.check(&format!("phase {p} job {i}"), &job.spec, outcome, &mut refs);
        }
    }
    if let (Some(spec), Some(outcome)) = (&check_job, &check_outcome) {
        verdict.check("check job", spec, outcome.as_ref(), &mut refs);
    }

    let measured = phases.last().expect("at least one phase");
    let figures = e2e(measured);
    let g = gap(measured);
    let tail = run_tail(&figures.latencies_ms);
    notes.push(format!(
        "jobs: {} attempted, {} completed, {} failed (failed_frac {:.4})",
        verdict.attempted,
        figures.completed,
        verdict.failed,
        verdict.failed as f64 / verdict.attempted.max(1) as f64
    ));
    if let Some(t) = tail {
        notes.push(format!(
            "latency tail: p{} = {:.3} ms over {} samples, median of {} window(s) with {}+ beyond",
            t.level, t.value, t.samples, t.windows, t.beyond
        ));
    }
    notes.push(format!(
        "where a fresh job's time goes ({} jobs, means): observed {:.3} ms = admit {:.3} ms \
         + reported queue_wait {:.3} ms + reported run {:.3} ms + unreported {:.3} ms",
        g.fresh,
        g.latency_ms,
        g.admit_us / 1e3,
        g.queue_wait_ms,
        g.run_ms,
        g.unreported_ms
    ));

    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &str| {
        metrics.push((name.to_string(), value, unit.to_string()))
    };
    if !args.trace {
        put("e2e_nsps", figures.nsps, "ns");
        put("latency_p50_ms", median(&figures.latencies_ms), "ms");
        put("latency_tail_ms", tail.map_or(f64::NAN, |t| t.value), "ms");
        put("jobs_per_s", figures.jobs_per_s, "1/s");
        let sweep = sweep.take().expect("untraced runs sample the sweep");
        put("sweep_nsps", sweep.finish(), "ns");
        put("setup_s", median(&setup_s), "s");
        put("peak_rss_mb", peak_rss_mb.unwrap_or(f64::NAN), "MiB");
    } else {
        let traced = &phases[1];
        let done: Vec<&Terminal> = traced.jobs.iter().filter_map(Job::completed).collect();
        let hits = done.iter().filter(|t| t.cache_hit).count();
        let count = done.len().max(1) as f64;
        put("serve.admit_us", g.admit_us, "us");
        put("serve.reported_queue_wait_ms", g.queue_wait_ms, "ms");
        put("serve.reported_run_ms", g.run_ms, "ms");
        put("serve.unreported_ms", g.unreported_ms, "ms");
        put("serve.cache_hit_ratio", hits as f64 / count, "ratio");
        put(
            "serve.batch_size_mean",
            done.iter().map(|t| t.batch_size).sum::<f64>() / count,
            "count",
        );
        put(
            "serve.response_bytes",
            mean(
                &traced
                    .jobs
                    .iter()
                    .map(|j| j.response_bytes as f64)
                    .collect::<Vec<_>>(),
            ),
            "B",
        );
        put(
            "client.late_ms",
            mean(
                &traced
                    .jobs
                    .iter()
                    .map(|j| j.stamps.late_ns() / 1e6)
                    .collect::<Vec<_>>(),
            ),
            "ms",
        );
        // Replay the first fresh specs of the traced stream.
        let mut fresh: Vec<JobSpec> = Vec::new();
        for job in &traced.jobs {
            if !fresh.contains(&job.spec) {
                fresh.push(job.spec.clone());
            }
        }
        let layers = replay::replay(w, args.seed, &fresh);
        for layer in layers.metrics {
            put(layer.name, layer.value, layer.unit);
        }
        if let Some(ms) = layers.reply_render_ms {
            notes.push(format!(
                "render between sweep and reply (final write_ensemble or merge_segments), \
                 mean per replayed job: {ms:.3} ms, beside serve.unreported_ms {:.3} ms",
                g.unreported_ms
            ));
        }
        put(
            "trace.overhead",
            figures.nsps / e2e(&phases[0]).nsps,
            "ratio",
        );
        if let Some(dir) = &args.log_dir {
            std::fs::create_dir_all(dir)?;
            let path = dir.join(format!("{}-seed{}.jobs.jsonl", w.name(), args.seed));
            std::fs::write(&path, traced.log.join("\n") + "\n")?;
            notes.push(format!("per-job trace written to {}", path.display()));
        }
    }
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            verdict.fail(format!("metric {name} is not a finite number"));
        }
    }
    Ok(Report {
        verdict,
        metrics,
        notes,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(1);
        }
    };
    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for problem in &report.verdict.problems {
        println!("# CHECK FAILED: {problem}");
    }
    let mut body = String::new();
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        println!("{name:<32} {value:>16.6} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    let correct = report.verdict.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        report.verdict.attempted, report.verdict.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
