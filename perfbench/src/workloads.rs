//! The three benchmark workloads.
//!
//! Each workload builds its configs, engines and trace sources from the
//! run seed in [`Workload::setup`], and hands the simulator only those in
//! [`Workload::run`], the timed call. Simulated traffic is an open loop in
//! *simulated* time: the arrival schedule is fixed by the seed and the
//! simulator models queueing and lateness. On the host each run is a
//! batch job, so its cost is host time at a stated input size.
//!
//! A workload's input is cut into equal parts, each with its own seed
//! lane (a slice of the request stream, a block of sessions, a sweep
//! seed), and one timed call simulates one part. Short calls let the
//! benchmark repeat every part many times within a run, so each part's
//! fastest call is seen even on a host whose speed drifts.

use edgereasoning_core::planner::{ConfigPoint, Planner};
use edgereasoning_core::rig::{CellReport, MapeReport, Rig, RigConfig};
use edgereasoning_core::study::{Study, StudyCell, StudyReport};
use edgereasoning_engine::cluster::{
    simulate_cluster, BreakerConfig, ClusterConfig, ClusterReport, CrashConfig,
};
use edgereasoning_engine::engine::{EngineConfig, InferenceEngine};
use edgereasoning_engine::plan_cache::EngineCounters;
use edgereasoning_engine::serving::{AdmissionConfig, Priority, PriorityMix, ServingConfig};
use edgereasoning_engine::session::{
    simulate_serving_sessions, SessionConfig, SessionReport, SessionRequest,
};
use edgereasoning_engine::{audit_cluster, audit_serving};
use edgereasoning_kernels::arch::ModelId;
use edgereasoning_kernels::dtype::Precision;
use edgereasoning_models::anchors;
use edgereasoning_models::evaluate::{evaluate, EvalOptions, EvalResult};
use edgereasoning_soc::faults::{DomainConfig, DomainKind};
use edgereasoning_soc::runtime::item_seed;
use edgereasoning_workloads::prompt::PromptConfig;
use edgereasoning_workloads::session::{SessionGen, SessionMixConfig, SessionTurn};
use edgereasoning_workloads::suite::Benchmark;

use crate::digest::Digest;
use crate::trace::Tracer;

/// Model and precision of every serving workload.
pub const MODEL: ModelId = ModelId::Dsr1Qwen1_5b;
/// Weight precision of every serving workload.
pub const PREC: Precision = Precision::Fp16;

/// Seed lanes: each input a workload draws gets its own stream.
const LANE_ENGINE: u64 = 1;
const LANE_ARRIVALS: u64 = 2;
const LANE_TRACE: u64 = 3;
const LANE_WARMUP: u64 = 4;
const LANE_PAPER: u64 = 16;

/// One seed per part, drawn from the run seed's `lane`.
fn part_seeds(seed: u64, lane: u64, parts: usize) -> Vec<u64> {
    let base = item_seed(seed, lane);
    (0..parts as u64).map(|k| item_seed(base, k)).collect()
}

/// A benchmark workload: inputs built from a seed and cut into parts, one
/// timed simulator call per part, and the checks and per-layer counts read
/// from each part's report.
pub trait Workload: Sized {
    /// Fresh per-call state built outside the timed region (engine clones,
    /// lazy trace generators, the part's seed).
    type Input;
    /// What the timed call returns for one part.
    type Report;

    /// Builds configs, engines and trace sources from `seed`.
    ///
    /// # Errors
    ///
    /// A description of what could not be built.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Parts the input is cut into.
    fn parts(&self) -> usize;

    /// Fresh state for one timed call on `part`.
    fn input(&self, part: usize) -> Self::Input;

    /// The timed call: hands one part's inputs to the simulator.
    ///
    /// # Errors
    ///
    /// The simulator's error, as text.
    fn run(&self, input: Self::Input, t: &mut Tracer) -> Result<Self::Report, String>;

    /// Bitwise digest of every report field.
    fn digest(&self, r: &Self::Report) -> u64;

    /// Simulated requests offered (generations, for the paper sweep).
    fn offered(&self, r: &Self::Report) -> u64;

    /// Conservation-auditor violations (empty = clean).
    fn audit(&self, r: &Self::Report) -> Vec<String>;

    /// Mechanisms this workload exists to exercise that fired in none of
    /// the parts' reports.
    fn unfired(&self, parts: &[Self::Report]) -> Vec<String>;

    /// Exact per-layer counts read from the report.
    fn counts(&self, r: &Self::Report) -> Counts;

    /// Runs every part once, in order, untraced.
    ///
    /// # Errors
    ///
    /// The first part the simulator rejected.
    fn run_parts(&self) -> Result<Vec<Self::Report>, String> {
        (0..self.parts())
            .map(|k| self.run(self.input(k), &mut Tracer::off()))
            .collect()
    }

    /// Digest of a whole run: the parts' digests, in order.
    fn run_digest(&self, parts: &[Self::Report]) -> u64 {
        let mut d = Digest::default();
        for r in parts {
            d.u64(self.digest(r));
        }
        d.finish()
    }
}

/// Exact per-layer counts of one run. A layer a workload's reports do not
/// expose reads 0.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Engine counters (plan cache and phases), when the reports carry
    /// them.
    pub engine: EngineCounters,
    /// Generated tokens (denominator of `engine.recompute_frac`).
    pub tokens: f64,
    /// Mean admitted batch.
    pub avg_batch: f64,
    /// Requests offered / completed / shed / failed / retried.
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests dropped after their retries.
    pub failed: u64,
    /// Retry attempts.
    pub retries: u64,
    /// Telemetry sketch records.
    pub sketch_records: u64,
    /// Prefix-cache counters.
    pub prefix_lookups: u64,
    /// Prefix-cache blocks served from the tree.
    pub prefix_hit_blocks: u64,
    /// Prefix-cache blocks looked up but not resident.
    pub prefix_miss_blocks: u64,
    /// Prefix-cache blocks inserted.
    pub prefix_inserted: u64,
    /// Prefix-cache blocks evicted.
    pub prefix_evicted: u64,
    /// Router counters.
    pub hedges_fired: u64,
    /// Hedge clones that delivered the completion.
    pub hedge_wins: u64,
    /// Crash-voided plus partition-voided requeues.
    pub requeues: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Latency-model fits (prefill + decode pairs) run by the sweep.
    pub latency_fits: u64,
    /// Question samples evaluated in total, and by the benchmark's own
    /// `evaluate` calls (the rest run inside the study driver).
    pub questions: (u64, u64),
}

impl Counts {
    /// Adds another part's counts. `avg_batch` becomes the mean over the
    /// parts weighted by requests offered.
    pub fn absorb(&mut self, o: &Counts) {
        let offered = self.offered + o.offered;
        if offered > 0 {
            self.avg_batch = (self.avg_batch * self.offered as f64
                + o.avg_batch * o.offered as f64)
                / offered as f64;
        }
        self.engine.absorb(&o.engine);
        self.tokens += o.tokens;
        self.offered = offered;
        self.completed += o.completed;
        self.shed += o.shed;
        self.failed += o.failed;
        self.retries += o.retries;
        self.sketch_records += o.sketch_records;
        self.prefix_lookups += o.prefix_lookups;
        self.prefix_hit_blocks += o.prefix_hit_blocks;
        self.prefix_miss_blocks += o.prefix_miss_blocks;
        self.prefix_inserted += o.prefix_inserted;
        self.prefix_evicted += o.prefix_evicted;
        self.hedges_fired += o.hedges_fired;
        self.hedge_wins += o.hedge_wins;
        self.requeues += o.requeues;
        self.breaker_trips += o.breaker_trips;
        self.latency_fits += o.latency_fits;
        self.questions.0 += o.questions.0;
        self.questions.1 += o.questions.1;
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// --------------------------------------------------------------- sessions

/// `sessions_agent`: multi-turn agent sessions with growing contexts
/// through the radix prefix cache.
#[derive(Debug, Clone)]
pub struct SessionsAgent {
    engine: InferenceEngine,
    mixes: Vec<SessionMixConfig>,
    cfg: SessionConfig,
}

/// Report of one `sessions_agent` run plus the turns the benchmark pulled.
#[derive(Debug, Clone)]
pub struct SessionRun {
    /// The simulator's report.
    pub report: SessionReport,
    /// Engine counters after the run.
    pub counters: EngineCounters,
    /// Turns the benchmark's closure handed to the simulator.
    pub pulled: usize,
}

impl SessionsAgent {
    /// Sessions per part (≈ 7 turns each).
    pub const PART_SESSIONS: usize = 700;
    /// Parts per pass: each is an independent trace.
    pub const PARTS: usize = 6;
    /// Each part runs against `1 / KV_SCALE` of the default KV budget (see
    /// [`SessionsAgent::engine_config`]).
    pub const KV_SCALE: f64 = 20.0;
    /// Session start rate, sessions per simulated second.
    pub const SESSION_QPS: f64 = 0.11;
    /// Maximum concurrently batched sequences.
    pub const MAX_BATCH: usize = 8;
    const DEADLINE_S: f64 = 120.0;

    /// The vLLM profile with its KV budget (memory left after the
    /// weights) cut to `1 / KV_SCALE`: a part's sessions fill the prefix
    /// cache and then evict from it in the same proportion as
    /// `KV_SCALE × PART_SESSIONS` (14 000) sessions against the default
    /// budget.
    #[must_use]
    pub fn engine_config() -> EngineConfig {
        let mut cfg = EngineConfig::vllm();
        let dram = cfg.soc.gpu.dram_capacity as f64;
        let weights = MODEL.arch().weight_bytes(PREC) as f64;
        let kv = cfg.memory_budget_frac * dram - weights;
        cfg.memory_budget_frac = (weights + kv / Self::KV_SCALE) / dram;
        cfg
    }

    /// The session mix of each part.
    #[must_use]
    pub fn mixes(&self) -> &[SessionMixConfig] {
        &self.mixes
    }
}

/// The simulator's request for one generated turn.
fn request(turn: SessionTurn) -> SessionRequest {
    SessionRequest {
        arrival_s: turn.arrival_s,
        prompt_tokens: turn.prompt_tokens,
        output_tokens: turn.output_tokens,
        prefix: turn.prefix,
    }
}

impl Workload for SessionsAgent {
    type Input = (InferenceEngine, SessionGen);
    type Report = SessionRun;

    fn setup(seed: u64) -> Result<Self, String> {
        let mixes = part_seeds(seed, LANE_TRACE, Self::PARTS)
            .into_iter()
            .map(|s| {
                let mix =
                    SessionMixConfig::session_heavy(Self::SESSION_QPS, Self::PART_SESSIONS, s);
                mix.validate().map(|()| mix)
            })
            .collect::<Result<_, _>>()?;
        let cfg = SessionConfig::new(Self::MAX_BATCH)
            .with_deadline(Self::DEADLINE_S)
            .with_prefix_caching(true);
        cfg.validate()?;
        let mut engine = InferenceEngine::new(Self::engine_config(), item_seed(seed, LANE_ENGINE));
        // A warm-up part of its own fills the plan cache, so each timed
        // part runs on a warm engine, as a slice of one long stream would;
        // the prefix cache lives in the simulate call and starts empty in
        // every part.
        let mut warm = SessionMixConfig::session_heavy(
            Self::SESSION_QPS,
            Self::PART_SESSIONS,
            item_seed(seed, LANE_WARMUP),
        )
        .generate();
        simulate_serving_sessions(&mut engine, MODEL, PREC, &cfg, || warm.next().map(request))
            .map_err(err)?;
        engine.reset_counters();
        Ok(Self { engine, mixes, cfg })
    }

    fn parts(&self) -> usize {
        self.mixes.len()
    }

    fn input(&self, part: usize) -> Self::Input {
        (self.engine.clone(), self.mixes[part].generate())
    }

    fn run(
        &self,
        (mut engine, mut turns): Self::Input,
        t: &mut Tracer,
    ) -> Result<SessionRun, String> {
        let mut pulled = 0usize;
        let report = t
            .span("simulate", |t| {
                simulate_serving_sessions(&mut engine, MODEL, PREC, &self.cfg, || {
                    let turn = t.timed("workloads.gen_s", || turns.next())?;
                    pulled += 1;
                    Some(request(turn))
                })
            })
            .map_err(err)?;
        Ok(SessionRun {
            report,
            counters: engine.counters(),
            pulled,
        })
    }

    fn digest(&self, r: &SessionRun) -> u64 {
        Digest::default()
            .session(&r.report)
            .counters(&r.counters)
            .usize(r.pulled)
            .finish()
    }

    fn offered(&self, r: &SessionRun) -> u64 {
        r.report.offered as u64
    }

    fn audit(&self, r: &SessionRun) -> Vec<String> {
        // The serving ledger must conserve the turns the benchmark itself
        // handed over, not the simulator's own offered count.
        let mut ledger = ServingConfig::new(1.0, Self::MAX_BATCH, r.pulled.max(1), 1, 1);
        ledger.deadline_s = self.cfg.deadline_s;
        let mut v = audit_serving(&ledger, &r.report.serving);
        if r.report.offered != r.pulled {
            v.push(format!(
                "simulator offered {} turns, benchmark pulled {}",
                r.report.offered, r.pulled
            ));
        }
        let p = r.report.prefix;
        if p.evicted_blocks > p.inserted_blocks {
            v.push(format!(
                "prefix cache evicted {} blocks but inserted only {}",
                p.evicted_blocks, p.inserted_blocks
            ));
        }
        if r.report.cached_prompt_tokens > r.report.admitted_prompt_tokens {
            v.push("cached prompt tokens exceed admitted prompt tokens".into());
        }
        v
    }

    fn unfired(&self, parts: &[SessionRun]) -> Vec<String> {
        let mut v = Vec::new();
        if parts.iter().all(|r| r.report.prefix.evicted_blocks == 0) {
            v.push("prefix cache never evicted (write path not exercised)".into());
        }
        v
    }

    fn counts(&self, r: &SessionRun) -> Counts {
        let s = &r.report.serving;
        let p = r.report.prefix;
        Counts {
            engine: r.counters,
            tokens: s.total_tokens,
            avg_batch: s.avg_batch,
            offered: r.report.offered as u64,
            completed: s.completed as u64,
            shed: s.shed_queries as u64,
            failed: s.failed_queries as u64,
            retries: s.retries as u64,
            // Latency, queue wait and time-to-first-token per completion.
            sketch_records: 3 * s.completed as u64,
            prefix_lookups: p.lookups,
            prefix_hit_blocks: p.hit_blocks,
            prefix_miss_blocks: p.miss_blocks,
            prefix_inserted: p.inserted_blocks,
            prefix_evicted: p.evicted_blocks,
            ..Counts::default()
        }
    }
}

// ------------------------------------------------------------------ fleet

/// `fleet_storm`: a three-replica fleet above capacity in failure weather.
#[derive(Debug, Clone)]
pub struct FleetStorm {
    cluster: ClusterConfig,
    cfg: ServingConfig,
    seeds: Vec<u64>,
}

impl FleetStorm {
    /// Requests per pass, over all parts.
    pub const QUERIES: usize = 300_000;
    /// Parts per pass: each is an independent stream of
    /// `QUERIES / PARTS` requests in its own failure weather.
    pub const PARTS: usize = 10;
    /// Replicas in the fleet.
    pub const REPLICAS: usize = 3;
    /// Offered load as a multiple of the probed capacity.
    pub const OVERLOAD: f64 = 1.5;
    /// Maximum batch per replica.
    pub const MAX_BATCH: usize = 8;
    /// Prompt and output tokens per request.
    pub const TOKENS: (usize, usize) = (128, 96);
    /// Shared system-prompt length, in KV blocks.
    pub const PREFIX_BLOCKS: u64 = 6;
    const DEADLINE_S: f64 = 8.0;
    const PROBE_QUERIES: usize = 400;
    const HEDGE_FACTOR: f64 = 0.5;

    /// The serving config of one part.
    #[must_use]
    pub fn config(&self) -> &ServingConfig {
        &self.cfg
    }

    /// The fleet config of the run.
    #[must_use]
    pub fn cluster(&self) -> &ClusterConfig {
        &self.cluster
    }

    /// Fleet topology with every robustness mechanism on.
    fn storm(seed: u64, horizon_s: f64) -> ClusterConfig {
        let prefix = (0..Self::PREFIX_BLOCKS)
            .map(|b| item_seed(seed ^ 0x5157, b))
            .collect();
        ClusterConfig::new(Self::REPLICAS, EngineConfig::vllm())
            .with_shared_prefix(prefix)
            .with_breaker(BreakerConfig {
                cooldown_s: 4.0,
                ..BreakerConfig::edge_default()
            })
            .with_crashes(CrashConfig {
                mtbf_s: 600.0,
                mttr_s: 20.0,
                cold_start_s: 5.0,
            })
            .with_domains(vec![
                DomainConfig {
                    crash_mtbf_s: 1800.0,
                    crash_mttr_s: 10.0,
                    ..DomainConfig::quiet(DomainKind::Power, (0..Self::REPLICAS).collect())
                },
                DomainConfig {
                    event_mtbf_s: 120.0,
                    event_duration_s: 5.0,
                    ..DomainConfig::quiet(DomainKind::Network, vec![0])
                },
            ])
            .with_hedging(Self::HEDGE_FACTOR)
            .with_horizon(horizon_s)
    }

    fn serving(qps: f64, queries: usize) -> ServingConfig {
        ServingConfig::new(
            qps,
            Self::MAX_BATCH,
            queries,
            Self::TOKENS.0,
            Self::TOKENS.1,
        )
    }
}

impl Workload for FleetStorm {
    type Input = u64;
    type Report = ClusterReport;

    fn setup(seed: u64) -> Result<Self, String> {
        // Capacity probe: a saturating stream on the calm fleet; the
        // achieved rate is the service ceiling.
        let probe_cfg = Self::serving(40.0, Self::PROBE_QUERIES).with_queue_capacity(usize::MAX);
        let calm = ClusterConfig::new(Self::REPLICAS, EngineConfig::vllm());
        let probe = simulate_cluster(&calm, MODEL, PREC, &probe_cfg, item_seed(seed, LANE_ENGINE))
            .map_err(err)?;
        let capacity_qps = probe.fleet.achieved_qps;
        if !(capacity_qps.is_finite() && capacity_qps > 0.0) {
            return Err(format!(
                "capacity probe produced no throughput: {capacity_qps}"
            ));
        }
        let qps = Self::OVERLOAD * capacity_qps;
        let mix = PriorityMix {
            interactive: 0.2,
            batch: 0.5,
        };
        let admission = AdmissionConfig::priority(mix, item_seed(seed, LANE_TRACE))
            .with_rate(Priority::Batch, 0.5 * capacity_qps, 8.0)
            .with_rate(Priority::Background, 0.15 * capacity_qps, 4.0)
            .with_age_target(Priority::Background, 2.0)
            .with_age_target(Priority::Batch, 6.0);
        let queries = Self::QUERIES / Self::PARTS;
        let cfg = Self::serving(qps, queries)
            .with_deadline(Self::DEADLINE_S)
            .with_queue_capacity(6 * Self::MAX_BATCH)
            .with_retries(2, 0.5)
            .with_admission(admission);
        cfg.validate().map_err(err)?;
        // Weather must cover the whole simulated span of the stream.
        let horizon_s = 1.5 * queries as f64 / qps;
        let cluster = Self::storm(seed, horizon_s);
        cluster.validate()?;
        Ok(Self {
            cluster,
            cfg,
            seeds: part_seeds(seed, LANE_ARRIVALS, Self::PARTS),
        })
    }

    fn parts(&self) -> usize {
        self.seeds.len()
    }

    fn input(&self, part: usize) -> u64 {
        self.seeds[part]
    }

    fn run(&self, seed: u64, t: &mut Tracer) -> Result<ClusterReport, String> {
        t.span("simulate", |_| {
            simulate_cluster(&self.cluster, MODEL, PREC, &self.cfg, seed)
        })
        .map_err(err)
    }

    fn digest(&self, r: &ClusterReport) -> u64 {
        Digest::default().cluster(r).finish()
    }

    fn offered(&self, _: &ClusterReport) -> u64 {
        self.cfg.queries as u64
    }

    fn audit(&self, r: &ClusterReport) -> Vec<String> {
        audit_cluster(&self.cfg, &self.cluster, r)
    }

    fn unfired(&self, parts: &[ClusterReport]) -> Vec<String> {
        let sum = |f: fn(&ClusterReport) -> usize| parts.iter().map(f).sum::<usize>();
        let mut v = Vec::new();
        if sum(|r| r.hedges_fired) == 0 {
            v.push("no hedge fired".into());
        }
        if sum(|r| r.breaker_trips) == 0 {
            v.push("no breaker tripped".into());
        }
        if sum(|r| r.crash_lost + r.partition_voided) == 0 {
            v.push("no crash or partition requeued work".into());
        }
        v
    }

    fn counts(&self, r: &ClusterReport) -> Counts {
        let f = &r.fleet;
        Counts {
            tokens: f.total_tokens,
            avg_batch: f.avg_batch,
            offered: self.cfg.queries as u64,
            completed: f.completed as u64,
            shed: f.shed_queries as u64,
            failed: f.failed_queries as u64,
            retries: f.retries as u64,
            // Fleet and per-replica accumulators each record latency and
            // queue wait per completion.
            sketch_records: 4 * f.completed as u64,
            hedges_fired: r.hedges_fired as u64,
            hedge_wins: r.hedge_wins as u64,
            requeues: (r.crash_lost + r.partition_voided) as u64,
            breaker_trips: r.breaker_trips as u64,
            ..Counts::default()
        }
    }
}

// ------------------------------------------------------------------ paper

/// `paper_sweep`: the paper's characterization path over several seeds.
#[derive(Debug, Clone)]
pub struct PaperSweep {
    seeds: Vec<u64>,
    study_cells: Vec<StudyCell>,
    eval_cells: Vec<(ModelId, Precision, PromptConfig)>,
}

/// Everything one seed of the sweep produced.
#[derive(Debug, Clone)]
pub struct PaperSeed {
    /// Figs. 6–8 MMLU-Redux cells through the study driver.
    pub study: StudyReport,
    /// Table XII full-MMLU evaluations, in `eval_cells` order.
    pub evals: Vec<EvalResult>,
    /// Per DSR1 model: fitted latency at fixed points and hold-out MAPE.
    pub latency: Vec<([f64; 4], MapeReport)>,
    /// Counters of the characterization rig.
    pub rig_counters: EngineCounters,
    /// Latency and cost Pareto frontiers.
    pub frontiers: (Vec<ConfigPoint>, Vec<ConfigPoint>),
}

/// Paper-fidelity of a sweep: simulated cells against the paper's rows.
/// In-sample, because the anchors were used for calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fidelity {
    /// Mean absolute percentage error of cell latency, percent.
    pub latency_mape_pct: f64,
    /// Mean absolute accuracy error, percentage points.
    pub accuracy_mae_pp: f64,
}

impl PaperSweep {
    /// Sweep seeds per run, one part each.
    pub const SEEDS: u64 = 2;
    /// Hold-out questions per latency validation.
    const HOLDOUT: usize = 50;
    /// Points at which the fitted latency models are sampled for the digest.
    const FIT_POINTS: [(usize, usize); 4] = [(64, 32), (512, 256), (1024, 1024), (4096, 512)];

    /// The Figs. 6–8 MMLU-Redux cells, as the `fig06_07_08` bin runs them.
    fn study_cells() -> Vec<StudyCell> {
        let bench = Benchmark::MmluRedux;
        let mut out = Vec::new();
        for model in ModelId::DSR1 {
            for config in PromptConfig::REASONING_SWEEP {
                out.push(StudyCell::new(model, Precision::Fp16, bench, config));
            }
            out.push(StudyCell::new(
                model,
                Precision::W4A16,
                bench,
                PromptConfig::Base,
            ));
        }
        for config in [
            PromptConfig::Base,
            PromptConfig::Soft(128),
            PromptConfig::Soft(256),
            PromptConfig::Hard(128),
            PromptConfig::Hard(256),
        ] {
            out.push(StudyCell::new(
                ModelId::L1Max,
                Precision::Fp16,
                bench,
                config,
            ));
        }
        for model in [
            ModelId::Qwen25_7bIt,
            ModelId::Gemma7bIt,
            ModelId::Llama31_8bIt,
            ModelId::Qwen25_1_5bIt,
            ModelId::Qwen25_14bIt,
        ] {
            out.push(StudyCell::new(
                model,
                Precision::Fp16,
                bench,
                PromptConfig::Direct,
            ));
        }
        out
    }

    /// The Table XII full-MMLU cells, as the `table12` bin runs them.
    fn eval_cells() -> Vec<(ModelId, Precision, PromptConfig)> {
        let mut out = Vec::new();
        for model in ModelId::DSR1 {
            for prec in Precision::ALL {
                for config in [
                    PromptConfig::Base,
                    PromptConfig::Hard(128),
                    PromptConfig::Hard(256),
                ] {
                    out.push((model, prec, config));
                }
            }
        }
        out
    }

    fn run_seed(&self, seed: u64, t: &mut Tracer) -> PaperSeed {
        let opts = EvalOptions::default()
            .with_seed(item_seed(seed, 1))
            .with_threads(1);
        let study = t.span("study.s", |_| {
            Study::new(RigConfig::default().with_seed(item_seed(seed, 2)))
                .with_threads(1)
                .run(&self.study_cells, opts)
        });
        let evals = t.span("evaluate.s", |_| {
            self.eval_cells
                .iter()
                .map(|&(m, p, c)| evaluate(m, p, Benchmark::Mmlu, c, opts))
                .collect()
        });
        let mut rig = Rig::new(RigConfig::default().with_seed(item_seed(seed, 3)));
        let latency = t.span("rig.s", |_| {
            ModelId::DSR1
                .iter()
                .map(|&m| {
                    let fitted = rig.characterize_latency(m, Precision::Fp16);
                    let mape = rig.validate_latency(m, Precision::Fp16, Self::HOLDOUT);
                    (Self::FIT_POINTS.map(|(i, o)| fitted.predict(i, o)), mape)
                })
                .collect()
        });
        let frontiers = t.span("planner.s", |_| {
            let planner = Planner::new(study.reports.iter().map(point).collect());
            let latency: Vec<ConfigPoint> =
                planner.regimes().into_iter().map(|(_, _, p)| p).collect();
            let cost = planner.cost_frontier().into_iter().copied().collect();
            (latency, cost)
        });
        PaperSeed {
            study,
            evals,
            latency,
            rig_counters: rig.engine_mut().counters(),
            frontiers,
        }
    }

    /// Simulated cells against the paper's rows, averaged over seeds.
    #[must_use]
    pub fn fidelity(&self, seeds: &[PaperSeed]) -> Fidelity {
        let (mut lat_err, mut lat_n, mut acc_err, mut acc_n) = (0.0, 0usize, 0.0, 0usize);
        for s in seeds {
            for r in &s.study.reports {
                let Some(row) = anchors::find(r.model, r.bench, r.config, r.precision) else {
                    continue;
                };
                acc_err += (r.eval.accuracy_pct - row.acc_pct).abs();
                acc_n += 1;
                if let Some(l) = row.avg_latency_s {
                    lat_err += (r.avg_latency_s / l - 1.0).abs() * 100.0;
                    lat_n += 1;
                }
            }
            for (&(m, p, c), e) in self.eval_cells.iter().zip(&s.evals) {
                if let Some(row) = anchors::find(m, Benchmark::Mmlu, c, p) {
                    acc_err += (e.accuracy_pct - row.acc_pct).abs();
                    acc_n += 1;
                }
            }
        }
        Fidelity {
            latency_mape_pct: lat_err / lat_n.max(1) as f64,
            accuracy_mae_pp: acc_err / acc_n.max(1) as f64,
        }
    }

    fn engine_counters(seeds: &[PaperSeed]) -> EngineCounters {
        let mut c = EngineCounters::default();
        for s in seeds {
            c.absorb(&s.study.counters);
            c.absorb(&s.rig_counters);
        }
        c
    }
}

fn point(r: &CellReport) -> ConfigPoint {
    ConfigPoint {
        model: r.model,
        precision: r.precision,
        config: r.config,
        parallel: 1,
        accuracy_pct: r.eval.accuracy_pct,
        latency_s: r.avg_latency_s,
        cost_per_mtok: r.cost.energy,
        avg_tokens: r.eval.avg_tokens_per_seq,
    }
}

impl Workload for PaperSweep {
    type Input = u64;
    type Report = PaperSeed;

    fn setup(seed: u64) -> Result<Self, String> {
        Ok(Self {
            seeds: (0..Self::SEEDS)
                .map(|k| item_seed(seed ^ LANE_PAPER, k))
                .collect(),
            study_cells: Self::study_cells(),
            eval_cells: Self::eval_cells(),
        })
    }

    fn parts(&self) -> usize {
        self.seeds.len()
    }

    fn input(&self, part: usize) -> u64 {
        self.seeds[part]
    }

    fn run(&self, seed: u64, t: &mut Tracer) -> Result<PaperSeed, String> {
        Ok(t.span("simulate", |t| self.run_seed(seed, t)))
    }

    fn digest(&self, s: &PaperSeed) -> u64 {
        let mut d = Digest::default();
        for r in &s.study.reports {
            d.cell(r);
        }
        d.counters(&s.study.counters);
        for e in &s.evals {
            d.eval(e);
        }
        for (fit, mape) in &s.latency {
            for &x in fit {
                d.f64(x);
            }
            d.mape(mape);
        }
        d.counters(&s.rig_counters);
        for p in s.frontiers.0.iter().chain(&s.frontiers.1) {
            d.point(p);
        }
        d.finish()
    }

    fn offered(&self, s: &PaperSeed) -> u64 {
        // Engine generations (one prefill phase each) plus behavioural
        // question samples evaluated.
        let engine = Self::engine_counters(std::slice::from_ref(s)).prefill_phases;
        let questions = s
            .study
            .reports
            .iter()
            .map(|r| r.eval.n_questions)
            .sum::<usize>()
            + s.evals.iter().map(|e| e.n_questions).sum::<usize>();
        engine + questions as u64
    }

    fn audit(&self, s: &PaperSeed) -> Vec<String> {
        let mut v = Vec::new();
        if s.study.reports.len() != self.study_cells.len() {
            v.push("study returned a report per cell".into());
        }
        for r in &s.study.reports {
            if !(r.avg_latency_s.is_finite() && r.avg_latency_s > 0.0) {
                v.push(format!(
                    "{} {}: latency {}",
                    r.model,
                    r.config.label(),
                    r.avg_latency_s
                ));
            }
            if !(0.0..=100.0).contains(&r.eval.accuracy_pct) {
                v.push(format!(
                    "{} {}: accuracy {}",
                    r.model,
                    r.config.label(),
                    r.eval.accuracy_pct
                ));
            }
        }
        for (_, mape) in &s.latency {
            if !(mape.total_pct.is_finite() && mape.total_pct < 20.0) {
                v.push(format!("latency model hold-out MAPE {}", mape.total_pct));
            }
        }
        if s.frontiers.0.is_empty() || s.frontiers.1.is_empty() {
            v.push("planner produced an empty frontier".into());
        }
        v
    }

    fn unfired(&self, seeds: &[PaperSeed]) -> Vec<String> {
        let mut v = Vec::new();
        if Self::engine_counters(seeds).cache_misses == 0 {
            v.push("no kernel lowering ran (plan cache never missed)".into());
        }
        v
    }

    fn counts(&self, s: &PaperSeed) -> Counts {
        let direct: usize = s.evals.iter().map(|e| e.n_questions).sum();
        let in_study: usize = s.study.reports.iter().map(|r| r.eval.n_questions).sum();
        Counts {
            questions: ((direct + in_study) as u64, direct as u64),
            engine: Self::engine_counters(std::slice::from_ref(s)),
            latency_fits: (self.study_cells.len() + ModelId::DSR1.len()) as u64,
            ..Counts::default()
        }
    }
}
