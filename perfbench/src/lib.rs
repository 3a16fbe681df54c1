//! End-to-end and per-layer benchmark of the EdgeReasoning simulator.
//!
//! One process runs one workload (see [`workloads`]) on one thread. A
//! workload's input is cut into equal parts, and one timed call simulates
//! one part:
//!
//! 1. **Set-up** — configs, engines, trace sources, plan-cache warm-up and
//!    the fleet capacity probe are built [`FIRST_SETUP_SAMPLES`] times
//!    before the first timed call and once more after every pass;
//!    `setup_s` is the fastest of these set-ups.
//! 2. **Timed calls** — passes over every part repeat for the requested
//!    seconds. `wall_s` is the host time of one pass, summed over the
//!    parts from each part's fastest call, and `sim_req_per_s` the
//!    simulated requests offered per host second of it. The fastest call
//!    is taken because other work on the machine only ever slows a call
//!    down; on a shared host whose speed drifts in phases of seconds,
//!    short calls repeated across the whole run catch every part in a
//!    fast phase.
//! 3. **Correctness gate** (outside the timed region) — every call's
//!    report must pass the conservation auditor and repeat the first
//!    call's bitwise digest for its part; a run at [`DEFAULT_SEED`] must
//!    match the digest frozen in `digests.txt` and fire the mechanisms the
//!    workload exists to exercise. Any failure counts against `pass_rate`.
//! 4. **Traced run** (`--trace 1`) — each part is called untraced, then
//!    traced; spans around each public call give per-layer seconds, the
//!    reports give exact per-layer counts, and unit-cost probes
//!    ([`probes`]) give ns per call, so count × ns/call estimates each
//!    layer's time.

pub mod digest;
pub mod layers;
pub mod probes;
pub mod trace;
pub mod workloads;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use layers::Layers;
use trace::Tracer;
use workloads::{Counts, FleetStorm, PaperSweep, SessionsAgent, Workload};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["sessions_agent", "fleet_storm", "paper_sweep"];

/// The seed whose report digests are frozen in `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Shortest timed set-up sample: faster set-ups are timed in batches.
pub const SETUP_SAMPLE: Duration = Duration::from_millis(1);
/// Set-up samples taken before the first timed call; one more is taken
/// after every pass over the parts.
pub const FIRST_SETUP_SAMPLES: usize = 5;

/// Frozen `workload digest` lines.
const FROZEN: &str = include_str!("../digests.txt");

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("sim_req_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_rate", "frac"),
    ("paper_latency_mape_pct", "%"),
    ("paper_accuracy_mae_pp", "pp"),
];

/// Per-layer metrics (`--trace 1`), with units. Every workload emits every
/// metric; a layer the workload does not reach, or whose count its reports
/// do not expose, reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("kernels.lowerings", "count"),
    ("kernels.ns_per_lowering", "ns"),
    ("gpu.ns_per_phase", "ns"),
    ("plan_cache.lookups", "count"),
    ("plan_cache.hit_rate", "frac"),
    ("plan_cache.ns_per_hit", "ns"),
    ("engine.prefill_phases", "count"),
    ("engine.decode_base_phases", "count"),
    ("engine.decode_ctx_phases", "count"),
    ("engine.preemptions", "count"),
    ("engine.recompute_frac", "frac"),
    ("engine.ns_per_phase", "ns"),
    ("stepper.avg_batch", "count"),
    ("stepper.steps", "count"),
    ("stepper.ns_per_step", "ns"),
    ("des.offered", "count"),
    ("des.completed", "count"),
    ("des.shed", "count"),
    ("des.failed", "count"),
    ("des.retries", "count"),
    ("des.ns_per_request", "ns"),
    ("arrivals.ns_per_arrival", "ns"),
    ("sketch.records", "count"),
    ("sketch.ns_per_record", "ns"),
    ("prefix_cache.lookups", "count"),
    ("prefix_cache.hit_rate", "frac"),
    ("prefix_cache.inserted_blocks", "count"),
    ("prefix_cache.evicted_blocks", "count"),
    ("prefix_cache.ns_per_acquire", "ns"),
    ("workloads.gen_s", "s"),
    ("router.hedges_fired", "count"),
    ("router.hedge_wins", "count"),
    ("router.requeues", "count"),
    ("router.breaker_trips", "count"),
    ("router.useful_frac", "frac"),
    ("evaluate.s", "s"),
    ("evaluate.ns_per_question", "ns"),
    ("study.s", "s"),
    ("rig.s", "s"),
    ("fit.fits", "count"),
    ("fit.ns_per_fit", "ns"),
    ("fit.s", "s"),
    ("planner.s", "s"),
    ("audit.s", "s"),
    ("simulate.s", "s"),
    ("attrib.explained_frac", "frac"),
    ("attrib.trace_overhead_frac", "frac"),
    ("host.ref_loop_s", "s"),
];

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Seconds of timed calls (at least one call always runs).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Result of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Every simulate call passed every check.
    pub correct: bool,
    /// Simulate calls made (timed calls plus the default-seed gate).
    pub attempted: u64,
    /// Calls that returned `Err`, failed an audit or changed digest, plus
    /// one if the default seed's run missed its frozen digest or left a
    /// mechanism unexercised.
    pub failed: u64,
    /// End-to-end or per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Digest of the run seed's report.
    pub digest: u64,
    /// Exact per-layer counts of the run seed's report.
    pub counts: Counts,
    /// Human-readable lines: failures, digests, diagnostics.
    pub log: Vec<String>,
}

impl Summary {
    /// The value of metric `name`, if reported.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result as one JSON object: `correct`, `attempted`, `failed` and
    /// `metrics` (name -> value and unit).
    #[must_use]
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints the shortest representation that round-trips.
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of `xs` (mean of the middle pair for even lengths; 0 if empty).
#[must_use]
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// The digest frozen for `workload` at [`DEFAULT_SEED`].
#[must_use]
pub fn frozen_digest(workload: &str) -> Option<u64> {
    FROZEN.lines().find_map(|line| {
        let mut it = line.split_whitespace();
        (it.next() == Some(workload))
            .then(|| it.next().and_then(|h| u64::from_str_radix(h, 16).ok()))
            .flatten()
    })
}

/// Peak resident set of this process, MB (`VmHWM`), if the platform
/// reports it.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs one benchmark.
///
/// # Errors
///
/// An unknown workload, or a set-up that could not be built.
pub fn run(o: &Options) -> Result<Summary, String> {
    match o.workload.as_str() {
        "sessions_agent" => drive::<SessionsAgent>(o),
        "fleet_storm" => drive::<FleetStorm>(o),
        "paper_sweep" => drive::<PaperSweep>(o),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

/// Checks of the simulate calls, outside the timed region.
struct Gate<'a> {
    attempted: u64,
    failed: u64,
    log: &'a mut Vec<String>,
}

impl Gate<'_> {
    /// Records one call; returns its digest when it produced a report.
    fn check<W: Workload>(
        &mut self,
        w: &W,
        res: &Result<W::Report, String>,
        expect: Option<u64>,
        what: &str,
    ) -> Option<u64> {
        self.attempted += 1;
        let r = match res {
            Ok(r) => r,
            Err(e) => {
                self.failed += 1;
                self.log
                    .push(format!("FAIL {what}: simulate returned Err: {e}"));
                return None;
            }
        };
        let digest = w.digest(r);
        let mut problems = w.audit(r);
        if let Some(want) = expect {
            if digest != want {
                problems.push(format!("digest {digest:016x} != first call's {want:016x}"));
            }
        }
        if !problems.is_empty() {
            self.failed += 1;
            self.log
                .push(format!("FAIL {what}: {}", problems.join("; ")));
        }
        Some(digest)
    }

    /// Checks the default seed's whole run: its digest must match the
    /// frozen one and the mechanisms the workload exists to exercise must
    /// fire. A failure counts as one failed call.
    fn check_default<W: Workload>(&mut self, w: &W, parts: &[W::Report], frozen: u64) {
        let mut problems = w.unfired(parts);
        let digest = w.run_digest(parts);
        if digest != frozen {
            problems.push(format!("digest {digest:016x} != frozen {frozen:016x}"));
        }
        if !problems.is_empty() {
            self.failed += 1;
            self.log.push(format!(
                "FAIL default seed {DEFAULT_SEED}: {}",
                problems.join("; ")
            ));
        }
    }
}

/// Times repeated set-ups of one workload. Set-ups are timed in batches
/// of at least [`SETUP_SAMPLE`] each, so the clock's resolution does not
/// swamp sub-microsecond set-ups.
struct SetupClock {
    seed: u64,
    batch: u32,
    samples: Vec<f64>,
}

impl SetupClock {
    /// Builds the workload cold once, sizes the batch from a second build
    /// and takes the first samples; returns a build and the clock. Each
    /// timed build is dropped before the next one starts.
    fn start<W: Workload>(seed: u64) -> Result<(W, Self), String> {
        drop(W::setup(seed)?);
        let t0 = Instant::now();
        drop(W::setup(seed)?);
        let once = t0.elapsed().as_secs_f64().max(1e-9);
        let mut clock = Self {
            seed,
            batch: (SETUP_SAMPLE.as_secs_f64() / once).clamp(1.0, 100_000.0) as u32,
            samples: Vec::new(),
        };
        for _ in 0..FIRST_SETUP_SAMPLES {
            clock.sample::<W>()?;
        }
        Ok((W::setup(seed)?, clock))
    }

    /// Times one batch of set-ups.
    fn sample<W: Workload>(&mut self) -> Result<(), String> {
        let t0 = Instant::now();
        for _ in 0..self.batch {
            drop(W::setup(self.seed)?);
        }
        self.samples
            .push(t0.elapsed().as_secs_f64() / f64::from(self.batch));
        Ok(())
    }
}

/// The smallest of `xs` (infinite if empty).
fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Host seconds and spans of the timed calls, and each part's first
/// report.
struct Calls<R> {
    /// Untraced call seconds, one list per part.
    walls: Vec<Vec<f64>>,
    /// Traced call seconds, one list per part.
    traced_walls: Vec<Vec<f64>>,
    /// One tracer per traced pass over all parts.
    tracers: Vec<Tracer>,
    /// Digest and report of each part's first successful call: every
    /// later call on the part must repeat the digest bit for bit.
    first: Vec<Option<(u64, R)>>,
}

/// Makes passes over every part until `o.seconds` have passed (at least
/// one pass), timing one more batch of set-ups after each pass. A traced
/// run calls each part untraced, then traced into the pass's tracer.
/// Every call is checked outside its timed region.
fn timed_calls<W: Workload>(
    w: &W,
    o: &Options,
    gate: &mut Gate<'_>,
    setup: &mut SetupClock,
) -> Result<Calls<W::Report>, String> {
    let parts = w.parts();
    let budget = Duration::from_secs_f64(o.seconds);
    let started = Instant::now();
    let mut c = Calls {
        walls: vec![Vec::new(); parts],
        traced_walls: vec![Vec::new(); parts],
        tracers: Vec::new(),
        first: (0..parts).map(|_| None).collect(),
    };
    for pass in 0.. {
        let mut pass_tracer = if o.trace { Tracer::on() } else { Tracer::off() };
        for part in 0..parts {
            for traced in [false, true] {
                if traced && !o.trace {
                    continue;
                }
                let input = w.input(part);
                let mut off = Tracer::off();
                let t = if traced { &mut pass_tracer } else { &mut off };
                let t0 = Instant::now();
                let res = w.run(input, t);
                let wall = t0.elapsed().as_secs_f64();
                let expect = c.first[part].as_ref().map(|(d, _)| *d);
                let what = format!("seed {} pass {pass} part {part}", o.seed);
                let digest = t.span("audit.s", |_| gate.check(w, &res, expect, &what));
                if traced {
                    c.traced_walls[part].push(wall);
                } else {
                    c.walls[part].push(wall);
                }
                if let (Some(d), Ok(r), None) = (digest, res, &c.first[part]) {
                    c.first[part] = Some((d, r));
                }
            }
        }
        if o.trace {
            c.tracers.push(pass_tracer);
        }
        setup.sample::<W>()?;
        if started.elapsed() >= budget {
            break;
        }
    }
    Ok(c)
}

/// Host seconds of one pass over all parts: the sum, over parts, of each
/// part's fastest call.
fn pass_seconds(walls: &[Vec<f64>]) -> f64 {
    walls.iter().map(|w| fastest(w)).sum()
}

/// Host seconds of one pass over all parts: the sum, over parts, of each
/// part's median call.
fn pass_median_seconds(walls: &[Vec<f64>]) -> f64 {
    walls.iter().map(|w| median(&mut w.clone())).sum()
}

fn drive<W: Layers>(o: &Options) -> Result<Summary, String> {
    let frozen = frozen_digest(&o.workload)
        .ok_or_else(|| format!("no frozen digest for {} in digests.txt", o.workload))?;
    let mut log = Vec::new();
    let ref_loop_s = probes::ref_loop_s();
    log.push(format!("host.ref_loop_s {ref_loop_s:.4} (diagnostic only)"));
    let (w, mut setup) = SetupClock::start::<W>(o.seed)?;

    let mut gate = Gate {
        attempted: 0,
        failed: 0,
        log: &mut log,
    };
    let calls = timed_calls(&w, o, &mut gate, &mut setup)?;
    let setup_s = fastest(&setup.samples);
    let peak_rss = peak_rss_mb().unwrap_or(0.0);
    let parts: Vec<W::Report> = calls
        .first
        .into_iter()
        .map(|f| f.map(|(_, r)| r))
        .collect::<Option<_>>()
        .ok_or("a part had no successful simulate call")?;
    if o.seed == DEFAULT_SEED {
        gate.check_default(&w, &parts, frozen);
    } else {
        // Re-run the default seed outside the timed region.
        let d = W::setup(DEFAULT_SEED)?;
        let mut reports = Vec::new();
        for part in 0..d.parts() {
            let res = d.run(d.input(part), &mut Tracer::off());
            let what = format!("default seed {DEFAULT_SEED} part {part}");
            gate.check(&d, &res, None, &what);
            reports.extend(res.ok());
        }
        if reports.len() == d.parts() {
            gate.check_default(&d, &reports, frozen);
        }
    }
    let (attempted, failed) = (gate.attempted, gate.failed);
    let digest = w.run_digest(&parts);
    let mut counts = Counts::default();
    for r in &parts {
        counts.absorb(&w.counts(r));
    }
    let offered: u64 = parts.iter().map(|r| w.offered(r)).sum();
    log.push(format!("digest seed {} {digest:016x}", o.seed));
    let wall_s = pass_seconds(&calls.walls);
    let passes = calls.walls.iter().map(Vec::len).min().unwrap_or(0);
    log.push(format!(
        "{passes} passes over {} parts, {offered} simulated requests per pass; \
         pass seconds from fastest calls {wall_s:.6}, from median calls {:.6}",
        parts.len(),
        pass_median_seconds(&calls.walls),
    ));

    let mut metrics = Vec::new();
    if o.trace {
        let layer = w.layer(&counts);
        let mut span = |name: &str| {
            let mut xs: Vec<f64> = calls.tracers.iter().map(|t| t.seconds(name)).collect();
            median(&mut xs)
        };
        let mut values = layers::metrics(&counts, &layer, &mut span);
        values.push((
            "attrib.trace_overhead_frac",
            pass_seconds(&calls.traced_walls) / wall_s - 1.0,
        ));
        values.push(("host.ref_loop_s", ref_loop_s));
        for (name, unit) in PER_LAYER {
            let value = values.iter().find(|(n, _)| *n == name).map_or(0.0, |v| v.1);
            metrics.push(Metric { name, value, unit });
        }
        if let Some(t) = calls.tracers.last() {
            let path = format!(".bench_out/trace_{}_seed{}.json", o.workload, o.seed);
            let written = std::fs::create_dir_all(".bench_out")
                .and_then(|()| std::fs::write(&path, t.chrome_json()));
            log.push(match written {
                Ok(()) => format!("spans written to {path}"),
                Err(e) => format!("spans not written to {path}: {e}"),
            });
        }
    } else {
        let fidelity = w.fidelity(o.seed, &parts)?;
        let error_rate = failed as f64 / attempted as f64;
        let values = [
            wall_s,
            offered as f64 / wall_s,
            setup_s,
            peak_rss,
            1.0 - error_rate,
            fidelity.latency_mape_pct,
            fidelity.accuracy_mae_pp,
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            metrics.push(Metric { name, value, unit });
        }
        log.push(format!(
            "error_rate {error_rate} ({failed} of {attempted} calls failed a check)"
        ));
    }
    Ok(Summary {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        digest,
        counts,
        log,
    })
}
