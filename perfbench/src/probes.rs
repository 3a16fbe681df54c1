//! Unit-cost probes: each calls one layer's public function on the
//! workload's own shapes and reports host nanoseconds per call.
//!
//! A probe's ns/call times the layer's exact count from the traced run
//! estimates the layer's share of the simulate span; see
//! [`crate::layers::metrics`].

use std::hint::black_box;
use std::time::Instant;

use edgereasoning_core::latency::{DecodeLatencyModel, LatencySample, PrefillLatencyModel};
use edgereasoning_core::rig::{Rig, RigConfig};
use edgereasoning_engine::arrivals::{ArrivalGen, ArrivalProcess};
use edgereasoning_engine::engine::{EngineConfig, InferenceEngine};
use edgereasoning_engine::kv_cache::KvCacheManager;
use edgereasoning_engine::plan_cache::{PhaseKey, PhaseKind, PhasePlanCache};
use edgereasoning_engine::prefix_cache::PrefixCache;
use edgereasoning_engine::request::GenerationRequest;
use edgereasoning_engine::stepper::BatchStepper;
use edgereasoning_kernels::arch::ModelId;
use edgereasoning_kernels::dtype::Precision;
use edgereasoning_kernels::phases::{
    build_decode_attn_into, build_decode_base_into, build_prefill_into, KernelPlan,
};
use edgereasoning_soc::gpu::Gpu;
use edgereasoning_soc::rng::Rng;
use edgereasoning_soc::stats::sketch::DdSketch;

use crate::median;

/// Timed batches per probe; the probe reports their median.
const REPS: usize = 7;

/// Median ns/call over [`REPS`] timed batches, after one warm-up batch.
/// `batch` runs a batch and returns how many calls it made.
pub fn ns_per_call(mut batch: impl FnMut() -> u64) -> f64 {
    batch();
    let mut per = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        let calls = batch();
        per.push(t0.elapsed().as_nanos() as f64 / calls.max(1) as f64);
    }
    median(&mut per)
}

/// One phase lowering, with its shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Phase {
    /// Prefill of a prompt of this many tokens.
    Prefill(usize),
    /// Context-independent decode step at this batch.
    Base(usize),
    /// Decode attention at (batch, context).
    Ctx(usize, usize),
}

impl Phase {
    fn lower(self, plan: &mut KernelPlan, model: ModelId, prec: Precision) {
        let arch = model.arch();
        match self {
            Phase::Prefill(seq) => build_prefill_into(plan, &arch, prec, 1, seq),
            Phase::Base(batch) => build_decode_base_into(plan, &arch, prec, batch),
            Phase::Ctx(batch, ctx) => build_decode_attn_into(plan, &arch, prec, batch, ctx),
        }
    }

    fn key(self, model: ModelId, prec: Precision, gpu_fp: u64) -> PhaseKey {
        let (kind, batch, shape) = match self {
            Phase::Prefill(seq) => (PhaseKind::Prefill, 1, seq),
            Phase::Base(batch) => (PhaseKind::DecodeBase, batch, 0),
            Phase::Ctx(batch, ctx) => (PhaseKind::DecodeCtx, batch, ctx),
        };
        PhaseKey {
            arch_fp: model.arch().fingerprint(),
            gpu_fp,
            precision: prec,
            kind,
            batch,
            shape,
        }
    }
}

/// Costs of the plan-cache miss path and the hit path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseCosts {
    /// `build_*_into`: kernel lowering, ns per phase.
    pub ns_per_lowering: f64,
    /// `Gpu::run_phase_deterministic`: roofline, ns per phase.
    pub ns_per_roofline: f64,
    /// `PhasePlanCache::get` on a resident key (hashed path), ns.
    pub ns_per_hit: f64,
}

/// Lowers, rooflines and looks up `phases` of `model` at `prec`.
#[must_use]
pub fn phase_costs(phases: &[Phase], model: ModelId, prec: Precision) -> PhaseCosts {
    let cfg = EngineConfig::vllm();
    let gpu = Gpu::new(cfg.soc.gpu.clone(), cfg.mode, 0);
    let calib = model.arch().calib;
    let mut plan = KernelPlan::new();
    let ns_per_lowering = ns_per_call(|| {
        for _ in 0..20 {
            for &p in phases {
                plan.clear();
                p.lower(&mut plan, model, prec);
                black_box(plan.len());
            }
        }
        20 * phases.len() as u64
    });
    let plans: Vec<(Phase, KernelPlan)> = phases
        .iter()
        .map(|&p| {
            let mut plan = KernelPlan::new();
            p.lower(&mut plan, model, prec);
            (p, plan)
        })
        .collect();
    let exec = |p: Phase, plan: &KernelPlan| {
        let c = if matches!(p, Phase::Prefill(_)) {
            calib.prefill
        } else {
            calib.decode
        };
        gpu.run_phase_deterministic(plan.kernels().iter(), &c)
    };
    let ns_per_roofline = ns_per_call(|| {
        for (p, plan) in &plans {
            black_box(exec(*p, plan));
        }
        plans.len() as u64
    });
    let mut cache = PhasePlanCache::new();
    let keys: Vec<PhaseKey> = plans
        .iter()
        .map(|(p, plan)| {
            let key = p.key(model, prec, gpu.config_fingerprint());
            cache.insert(key, exec(*p, plan));
            key
        })
        .collect();
    let ns_per_hit = ns_per_call(|| {
        for _ in 0..200 {
            for k in &keys {
                black_box(cache.get(black_box(k)));
            }
        }
        200 * keys.len() as u64
    });
    PhaseCosts {
        ns_per_lowering,
        ns_per_roofline,
        ns_per_hit,
    }
}

/// `BatchStepper::admit`/`step` on a warm engine, admitting groups of
/// `group` requests of `(prompt, output)` tokens whenever `cap` live
/// queries leave room, the way a loaded continuous batcher does, until
/// `requests` groups ran. Returns ns per step and steps per request.
///
/// # Panics
///
/// Panics if the shape does not fit the device (a benchmark bug).
#[must_use]
pub fn stepper(
    prompt: usize,
    output: usize,
    group: usize,
    cap: usize,
    requests: usize,
) -> (f64, f64) {
    let mut engine = InferenceEngine::new(EngineConfig::vllm(), 7);
    let group = group.clamp(1, cap.max(1));
    let req = GenerationRequest::new(prompt, output).with_batch(group);
    let mut cycle = || {
        let mut st = BatchStepper::new(&engine, crate::workloads::MODEL, crate::workloads::PREC)
            .expect("probe model fits");
        let (mut admitted, mut steps) = (0usize, 0u64);
        while admitted < requests || st.is_busy() {
            while admitted < requests && st.live_queries() + group <= cap {
                let now = st.clock_s();
                st.admit(&mut engine, now, &req).expect("probe shape fits");
                admitted += 1;
            }
            black_box(st.step(&mut engine).expect("probe step runs"));
            steps += 1;
        }
        steps
    };
    let steps_per_request = cycle() as f64 / (requests * group) as f64;
    (ns_per_call(&mut cycle), steps_per_request)
}

/// `ArrivalGen::next_arrival` for `process` at `qps`.
#[must_use]
pub fn arrivals(process: ArrivalProcess, qps: f64) -> f64 {
    let mut gen = ArrivalGen::new(process, qps, 11);
    ns_per_call(|| {
        for _ in 0..100_000 {
            black_box(gen.next_arrival());
        }
        100_000
    })
}

/// `DdSketch::record` on latency-like values spanning four decades.
#[must_use]
pub fn sketch() -> f64 {
    let mut rng = Rng::seed_from_u64(13);
    let values: Vec<f64> = (0..4096)
        .map(|_| 10f64.powf(4.0 * rng.next_f64() - 1.0))
        .collect();
    let mut sk = DdSketch::new(0.01);
    ns_per_call(|| {
        for _ in 0..25 {
            for &x in &values {
                sk.record(black_box(x));
            }
        }
        25 * values.len() as u64
    })
}

/// `PrefixCache::acquire` + `release` replaying `prefixes` in order
/// against the KV budget of an engine built from `cfg`; ns per
/// acquire/release pair.
///
/// # Panics
///
/// Panics if the model's weights exceed the device (a benchmark bug).
#[must_use]
pub fn prefix_replay(cfg: EngineConfig, prefixes: &[Vec<u64>]) -> f64 {
    let engine = InferenceEngine::new(cfg, 0);
    let model = crate::workloads::MODEL;
    let budget = engine
        .kv_budget_bytes(model, crate::workloads::PREC)
        .expect("model fits");
    let arch = model.arch();
    let fresh = || {
        let kv = KvCacheManager::new(&arch, budget, engine.config().kv_block_tokens)
            .expect("kv budget is valid");
        (kv, PrefixCache::new())
    };
    // Warm once, then time whole replays (each from an empty tree).
    ns_per_call(|| {
        let (mut kv, mut tree) = fresh();
        for sigs in prefixes {
            let got = tree.acquire(&mut kv, sigs, 1);
            if let Some(h) = got.handle {
                tree.release(h, 1);
            }
        }
        black_box(tree.resident_blocks());
        prefixes.len() as u64
    })
}

/// `PrefillLatencyModel::fit` + `DecodeLatencyModel::fit` on the rig's
/// own characterization sweep of `model`; ns per pair of fits.
///
/// # Panics
///
/// Panics if a sweep point does not fit the device (a benchmark bug).
#[must_use]
pub fn latency_fit(model: ModelId) -> f64 {
    let mut rig = Rig::new(RigConfig::default());
    let lengths: Vec<usize> = (1..=64).map(|k| k * 64).collect();
    let prefill: Vec<(usize, f64)> = rig
        .sweep_prefill(model, Precision::Fp16, &lengths)
        .into_iter()
        .map(|(i, p)| (i, p.latency_s))
        .collect();
    let outputs = [32usize, 64, 128, 256, 512, 1024];
    let mut decode = Vec::new();
    for i in [64usize, 128, 256, 512, 1024, 2048] {
        for (o, p) in rig.sweep_decode(model, Precision::Fp16, i, &outputs) {
            decode.push(LatencySample {
                input_tokens: i,
                output_tokens: o,
                latency_s: p.latency_s,
            });
        }
    }
    ns_per_call(|| {
        for _ in 0..20 {
            black_box(PrefillLatencyModel::fit(black_box(&prefill)));
            black_box(DecodeLatencyModel::fit(black_box(&decode)));
        }
        20
    })
}

/// `InferenceEngine::run` on a warm engine; ns per phase costed (the
/// plan-cache hit path plus the seeded perturbation and bookkeeping).
///
/// # Panics
///
/// Panics if the request does not fit the device (a benchmark bug).
#[must_use]
pub fn engine_phase(model: ModelId, prompt: usize, output: usize) -> f64 {
    let mut engine = InferenceEngine::new(EngineConfig::vllm(), 5);
    let req = GenerationRequest::new(prompt, output);
    ns_per_call(|| {
        let before = engine.counters();
        for _ in 0..10 {
            black_box(engine.run(model, Precision::Fp16, &req).expect("fits"));
        }
        let after = engine.counters();
        (after.prefill_phases + after.decode_base_phases + after.decode_ctx_phases)
            - (before.prefill_phases + before.decode_base_phases + before.decode_ctx_phases)
    })
}

/// A fixed integer loop: host speed, recorded as a diagnostic only.
#[must_use]
pub fn ref_loop_s() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t0.elapsed().as_secs_f64()
}
