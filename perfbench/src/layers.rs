//! Per-layer metrics of the traced run, and closing the loop: each
//! layer's exact (or, where a report does not expose it, estimated) count
//! times its probed unit cost, summed and compared with the simulate span.

use edgereasoning_engine::arrivals::ArrivalProcess;
use edgereasoning_kernels::arch::ModelId;

use crate::probes::{self, Phase, PhaseCosts};
use crate::workloads::{
    Counts, Fidelity, FleetStorm, PaperSeed, PaperSweep, SessionsAgent, Workload, MODEL, PREC,
};

/// Unit costs of one workload's layers and the counts they multiply.
/// A cost of 0 means the layer was not probed for this workload.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    /// Plan-cache miss path (lowering, roofline) and hit path.
    pub phase: PhaseCosts,
    /// `InferenceEngine::run`, ns per costed phase (paper sweep only: the
    /// serving workloads' phases are inside the stepper probe).
    pub ns_per_engine_phase: f64,
    /// `BatchStepper` admit/step, ns per step.
    pub ns_per_step: f64,
    /// Stepper steps of the run (exact where the engine counts them).
    pub steps: f64,
    /// `ArrivalGen::next_arrival`, ns per arrival.
    pub ns_per_arrival: f64,
    /// Arrivals drawn inside the simulator.
    pub arrivals: f64,
    /// `DdSketch::record`, ns per record.
    pub ns_per_record: f64,
    /// `PrefixCache::acquire` + `release`, ns per pair.
    pub ns_per_acquire: f64,
    /// Prefix-cache acquisitions (exact where the report counts them).
    pub prefix_ops: f64,
    /// Latency-model fit pair, ns.
    pub ns_per_fit: f64,
    /// Question samples evaluated in total, and inside the `evaluate.s`
    /// spans (which price them).
    pub questions: (f64, f64),
}

/// Unit-cost probes and paper fidelity for each workload.
pub trait Layers: Workload {
    /// Probes this workload's layers on its own shapes.
    fn layer(&self, c: &Counts) -> Layer;

    /// Paper fidelity of this run's seed (the paper sweep reads its own
    /// parts' reports; the other workloads run one sweep outside the timed
    /// region).
    ///
    /// # Errors
    ///
    /// A sweep that could not be built.
    fn fidelity(&self, seed: u64, _parts: &[Self::Report]) -> Result<Fidelity, String> {
        let sweep = PaperSweep::setup(seed)?;
        Ok(sweep.fidelity(&sweep.run_parts()?))
    }
}

/// Decode contexts a request of `(prompt, output)` tokens passes through,
/// sampled every `stride` tokens.
fn decode_phases(prompt: usize, output: usize, batches: &[usize], stride: usize) -> Vec<Phase> {
    let mut v = vec![Phase::Prefill(prompt)];
    for &b in batches {
        v.push(Phase::Base(b));
        v.extend(
            (prompt..prompt + output)
                .step_by(stride)
                .map(|ctx| Phase::Ctx(b, ctx + 1)),
        );
    }
    v
}

/// The run's mean admitted group, the stepper probe's admission size.
fn group(c: &Counts) -> usize {
    c.avg_batch.round().max(1.0) as usize
}

impl Layers for SessionsAgent {
    fn layer(&self, c: &Counts) -> Layer {
        // The run's own trace: its first turns' shapes and prefixes.
        let head: Vec<_> = self
            .mixes()
            .iter()
            .flat_map(|m| m.generate())
            .take(20_000)
            .collect();
        let n = head.len().max(1);
        let prompt = head.iter().map(|t| t.prompt_tokens).sum::<usize>() / n;
        let output = head.iter().map(|t| t.output_tokens).sum::<usize>() / n;
        let prefixes: Vec<Vec<u64>> = head.into_iter().map(|t| t.prefix).collect();
        let batch = Self::MAX_BATCH;
        Layer {
            phase: probes::phase_costs(
                &decode_phases(prompt, output, &[1, batch], 32),
                MODEL,
                PREC,
            ),
            ns_per_step: probes::stepper(prompt, output, group(c), batch, 64).0,
            steps: c.engine.decode_base_phases as f64,
            ns_per_record: probes::sketch(),
            ns_per_acquire: probes::prefix_replay(Self::engine_config(), &prefixes),
            prefix_ops: c.prefix_lookups as f64,
            ..Layer::default()
        }
    }
}

impl Layers for FleetStorm {
    fn layer(&self, c: &Counts) -> Layer {
        let (p, o) = Self::TOKENS;
        let batch = Self::MAX_BATCH;
        let (ns_per_step, steps_per_request) = probes::stepper(p, o, group(c), batch, 64);
        // ClusterReport exposes neither engine nor prefix-cache counters:
        // estimate them from the queries admitted (completions, hedge
        // clones, requeues), at the probe's steps per query and one prefix
        // acquire per admitted group.
        let admissions = (c.completed + c.hedges_fired + c.requeues) as f64;
        let shared: Vec<Vec<u64>> =
            vec![self.cluster().shared_prefix.clone().unwrap_or_default(); 4096];
        Layer {
            phase: probes::phase_costs(&decode_phases(p, o, &[1, batch], 16), MODEL, PREC),
            ns_per_step,
            steps: steps_per_request * admissions,
            ns_per_arrival: probes::arrivals(
                ArrivalProcess::PoissonLegacy,
                self.config().arrival_qps,
            ),
            arrivals: c.offered as f64,
            ns_per_record: probes::sketch(),
            ns_per_acquire: probes::prefix_replay(self.cluster().engine.clone(), &shared),
            prefix_ops: admissions / group(c) as f64,
            ..Layer::default()
        }
    }
}

impl Layers for PaperSweep {
    fn layer(&self, c: &Counts) -> Layer {
        let lengths: Vec<Phase> = (1..=64).map(|k| Phase::Prefill(k * 64)).collect();
        let mut phases = decode_phases(512, 512, &[1], 48);
        phases.extend(lengths);
        Layer {
            phase: probes::phase_costs(&phases, ModelId::Dsr1Qwen1_5b, PREC),
            ns_per_engine_phase: probes::engine_phase(ModelId::Dsr1Qwen1_5b, 512, 512),
            ns_per_fit: probes::latency_fit(ModelId::Dsr1Qwen1_5b),
            questions: (c.questions.0 as f64, c.questions.1 as f64),
            ..Layer::default()
        }
    }

    fn fidelity(&self, _seed: u64, parts: &[PaperSeed]) -> Result<Fidelity, String> {
        Ok(PaperSweep::fidelity(self, parts))
    }
}

/// Per-layer metrics from exact counts, unit costs and span seconds
/// (`span(name)` is the median over traced calls).
pub fn metrics(
    c: &Counts,
    l: &Layer,
    span: &mut impl FnMut(&str) -> f64,
) -> Vec<(&'static str, f64)> {
    let e = &c.engine;
    let lookups = e.cache_hits + e.cache_misses;
    let misses = e.cache_misses as f64;
    let phases = (e.prefill_phases + e.decode_base_phases + e.decode_ctx_phases) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let simulate = span("simulate");
    let gen_s = span("workloads.gen_s");
    let evaluate_s = span("evaluate.s");
    let planner_s = span("planner.s");
    let ns_per_question = ratio(evaluate_s * 1e9, l.questions.1);
    let fit_s = c.latency_fits as f64 * l.ns_per_fit * 1e-9;
    let estimated_ns = misses * (l.phase.ns_per_lowering + l.phase.ns_per_roofline)
        + l.steps * l.ns_per_step
        + (phases - misses).max(0.0) * l.ns_per_engine_phase
        + l.arrivals * l.ns_per_arrival
        + c.sketch_records as f64 * l.ns_per_record
        + l.prefix_ops * l.ns_per_acquire
        + l.questions.0 * ns_per_question;
    let explained = estimated_ns * 1e-9 + fit_s + gen_s + planner_s;
    let prefix_blocks = (c.prefix_hit_blocks + c.prefix_miss_blocks) as f64;
    let useful = c.completed as f64;
    vec![
        ("kernels.lowerings", misses),
        ("kernels.ns_per_lowering", l.phase.ns_per_lowering),
        ("gpu.ns_per_phase", l.phase.ns_per_roofline),
        ("plan_cache.lookups", lookups as f64),
        ("plan_cache.hit_rate", e.hit_rate()),
        ("plan_cache.ns_per_hit", l.phase.ns_per_hit),
        ("engine.prefill_phases", e.prefill_phases as f64),
        ("engine.decode_base_phases", e.decode_base_phases as f64),
        ("engine.decode_ctx_phases", e.decode_ctx_phases as f64),
        ("engine.preemptions", e.preemptions as f64),
        (
            "engine.recompute_frac",
            ratio(e.recomputed_tokens as f64, c.tokens),
        ),
        ("engine.ns_per_phase", l.ns_per_engine_phase),
        ("stepper.avg_batch", c.avg_batch),
        ("stepper.steps", l.steps),
        ("stepper.ns_per_step", l.ns_per_step),
        ("des.offered", c.offered as f64),
        ("des.completed", c.completed as f64),
        ("des.shed", c.shed as f64),
        ("des.failed", c.failed as f64),
        ("des.retries", c.retries as f64),
        // `des.offered` reads 0 on the paper sweep, which has no DES.
        (
            "des.ns_per_request",
            ratio(simulate * 1e9, c.offered as f64),
        ),
        ("arrivals.ns_per_arrival", l.ns_per_arrival),
        ("sketch.records", c.sketch_records as f64),
        ("sketch.ns_per_record", l.ns_per_record),
        ("prefix_cache.lookups", c.prefix_lookups as f64),
        (
            "prefix_cache.hit_rate",
            ratio(c.prefix_hit_blocks as f64, prefix_blocks),
        ),
        ("prefix_cache.inserted_blocks", c.prefix_inserted as f64),
        ("prefix_cache.evicted_blocks", c.prefix_evicted as f64),
        ("prefix_cache.ns_per_acquire", l.ns_per_acquire),
        ("workloads.gen_s", gen_s),
        ("router.hedges_fired", c.hedges_fired as f64),
        ("router.hedge_wins", c.hedge_wins as f64),
        ("router.requeues", c.requeues as f64),
        ("router.breaker_trips", c.breaker_trips as f64),
        (
            "router.useful_frac",
            if c.hedges_fired + c.requeues + c.breaker_trips > 0 {
                ratio(useful, useful + (c.hedges_fired + c.requeues) as f64)
            } else {
                0.0
            },
        ),
        ("evaluate.s", evaluate_s),
        ("evaluate.ns_per_question", ns_per_question),
        ("study.s", span("study.s")),
        ("rig.s", span("rig.s")),
        ("fit.fits", c.latency_fits as f64),
        ("fit.ns_per_fit", l.ns_per_fit),
        ("fit.s", fit_s),
        ("planner.s", planner_s),
        ("audit.s", span("audit.s")),
        ("simulate.s", simulate),
        ("attrib.explained_frac", ratio(explained, simulate)),
    ]
}
