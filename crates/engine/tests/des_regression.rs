//! Regression suite for the discrete-event serving core (PR6).
//!
//! The DES rewrite of the continuous scheduler must be a pure data-structure
//! change: every decision, RNG draw and float operation in the same order as
//! the retired per-boundary-scan loop. These tests pin that contract by
//! comparing reports — whose `PartialEq` is *bitwise* on every float field —
//! across the three implementations:
//!
//! * `simulate_serving_continuous` (production: the fleet loop run as a
//!   quiet one-replica fleet),
//! * `simulate_serving_continuous_reference` (the pre-DES loop, verbatim),
//! * `simulate_serving` (the static gang scheduler, the drained oracle).

use edgereasoning_engine::engine::{EngineConfig, OomPolicy};
use edgereasoning_engine::{
    simulate_cluster, simulate_serving, simulate_serving_continuous,
    simulate_serving_continuous_reference, simulate_serving_sessions, simulate_serving_traffic,
    uniform_session_trace, ArrivalProcess, ClusterConfig, InferenceEngine, ServingConfig,
    SessionConfig,
};
use edgereasoning_kernels::arch::ModelId;
use edgereasoning_kernels::dtype::Precision;

fn engine() -> InferenceEngine {
    InferenceEngine::new(EngineConfig::vllm(), 3)
}

/// An engine config whose KV budget fits one sequence end to end but not
/// several (mirrors the serving unit tests).
fn pressured(policy: OomPolicy, kv_tokens: u64) -> EngineConfig {
    let mut config = EngineConfig::vllm().with_oom_policy(policy);
    let arch = ModelId::Dsr1Qwen1_5b.arch();
    let budget = arch.weight_bytes(Precision::Fp16) + kv_tokens * arch.kv_bytes_per_token();
    config.memory_budget_frac = budget as f64 / config.soc.gpu.dram_capacity as f64;
    config
}

fn assert_des_matches_reference(cfg: &ServingConfig, mk: impl Fn() -> InferenceEngine, seed: u64) {
    let mut de = mk();
    let des =
        simulate_serving_continuous(&mut de, ModelId::Dsr1Qwen1_5b, Precision::Fp16, cfg, seed)
            .expect("des runs");
    let mut re = mk();
    let reference = simulate_serving_continuous_reference(
        &mut re,
        ModelId::Dsr1Qwen1_5b,
        Precision::Fp16,
        cfg,
        seed,
    )
    .expect("reference runs");
    assert_eq!(
        des, reference,
        "DES report must be bit-identical to the pre-DES loop (seed {seed}, cfg {cfg:?})"
    );
}

#[test]
fn des_matches_reference_when_drained() {
    // Arrivals spaced far past service time: every admission hits an empty
    // stepper. This is also the regime where both equal the static oracle.
    let cfg = ServingConfig::new(1e-4, 8, 24, 128, 128);
    for seed in [1, 7, 42] {
        assert_des_matches_reference(&cfg, engine, seed);
    }
}

#[test]
fn des_matches_reference_under_load() {
    // Saturating load: continuous admission joins running batches at decode
    // boundaries, exercising mixed-context steps and the drain-snap clock.
    let cfg = ServingConfig::new(2.0, 8, 60, 128, 128);
    for seed in [1, 9, 42] {
        assert_des_matches_reference(&cfg, engine, seed);
    }
}

#[test]
fn des_matches_reference_with_deadline_shedding() {
    // Overload against a single-slot server with an SLO: the deadline pass
    // must shed the same queries at the same boundaries.
    let cfg = ServingConfig::new(2.0, 1, 40, 128, 128).with_deadline(10.0);
    assert_des_matches_reference(&cfg, engine, 5);
}

#[test]
fn des_matches_reference_with_bounded_queue() {
    // Capacity shedding drops the newest waiting queries; the seq-merge cut
    // must pick exactly the entries the legacy `waiting[capacity..]` did.
    let cfg = ServingConfig::new(4.0, 1, 40, 128, 128).with_queue_capacity(2);
    assert_des_matches_reference(&cfg, engine, 5);
}

#[test]
fn des_matches_reference_under_oom_retries_and_degradation() {
    // FailFast OOM pressure with retries, backoff and the degradation
    // ladder: exercises requeue (admission-Err), fail_all (step-Err) and
    // the deferred/wakeup machinery end to end.
    let cfg = ServingConfig::new(2.0, 8, 40, 128, 128)
        .with_retries(3, 1.0)
        .with_degradation(true);
    for seed in [5, 11] {
        assert_des_matches_reference(
            &cfg,
            || InferenceEngine::new(pressured(OomPolicy::FailFast, 1600), 3),
            seed,
        );
    }
}

#[test]
fn des_matches_reference_under_preemption_pressure() {
    let cfg = ServingConfig::new(2.0, 8, 40, 128, 128);
    assert_des_matches_reference(
        &cfg,
        || InferenceEngine::new(pressured(OomPolicy::PreemptRecompute, 1600), 3),
        5,
    );
}

#[test]
fn des_matches_reference_with_all_queries_failing() {
    // Zero completions: NaN percentiles must still compare equal (bitwise
    // report equality treats NaN == NaN).
    let cfg = ServingConfig::new(2.0, 4, 10, 128, 128);
    assert_des_matches_reference(
        &cfg,
        || InferenceEngine::new(pressured(OomPolicy::FailFast, 64), 3),
        5,
    );
}

#[test]
fn one_replica_no_crash_fleet_is_the_continuous_scheduler() {
    // The DES fleet loop with one replica, no crash windows and hedging
    // off must collapse to exactly the single-device continuous schedule.
    let cfg = ServingConfig::new(1.5, 8, 40, 128, 128)
        .with_deadline(60.0)
        .with_retries(2, 1.0);
    for seed in [3, 8] {
        let fleet = simulate_cluster(
            &ClusterConfig::new(1, EngineConfig::vllm()),
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &cfg,
            seed,
        )
        .expect("fleet runs");
        let mut e = InferenceEngine::new(EngineConfig::vllm(), seed);
        let single =
            simulate_serving_continuous(&mut e, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, seed)
                .expect("single runs");
        assert_eq!(fleet.fleet, single, "seed {seed}");
        assert_eq!(fleet.replicas[0], single, "seed {seed}");
    }
}

#[test]
fn single_device_browns_out_like_the_one_replica_fleet() {
    // A 400 J battery with no recharge path drains mid-run: the device
    // browns out, voids its in-flight work and never comes back. The
    // single-device entry point must honour the outage exactly as the
    // one-replica fleet does (same report, same governor counters)
    // instead of serving on an empty battery.
    use edgereasoning_soc::thermal::{BatteryConfig, GovernanceConfig};
    let gov = GovernanceConfig::default()
        .with_trip(10_000.0, 9_000.0)
        .with_battery(BatteryConfig {
            capacity_j: 400.0,
            ..BatteryConfig::default()
        });
    let engine_cfg = EngineConfig::vllm().with_governance(gov);
    let cfg = ServingConfig::new(0.5, 8, 40, 128, 128);
    for seed in 0..5u64 {
        let fleet = simulate_cluster(
            &ClusterConfig::new(1, engine_cfg.clone()),
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &cfg,
            seed,
        )
        .expect("fleet runs");
        assert_eq!(fleet.brownout_events, 1, "seed {seed}: the battery drains");
        let mut e = InferenceEngine::new(engine_cfg.clone(), seed);
        let single =
            simulate_serving_continuous(&mut e, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, seed)
                .expect("single runs");
        assert!(single.completed < cfg.queries, "seed {seed}: {single:?}");
        assert_eq!(fleet.fleet, single, "seed {seed}");
        assert_eq!(fleet.governance, e.governance_stats(), "seed {seed}");
    }
}

#[test]
fn drained_des_matches_static_oracle() {
    let cfg = ServingConfig::new(1e-4, 8, 24, 128, 128);
    let mut se = engine();
    let rs = simulate_serving(&mut se, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, 7)
        .expect("static runs");
    let mut ce = engine();
    let rc = simulate_serving_continuous(&mut ce, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, 7)
        .expect("continuous runs");
    assert_eq!(
        rs, rc,
        "drained DES continuous must equal the static oracle"
    );
}

#[test]
fn cache_disabled_session_loop_matches_continuous_when_drained() {
    // The session-aware loop (PR7) with prefix caching off, replaying the
    // legacy Poisson trace, must be the continuous/DES scheduler bit for
    // bit in the drained regime — whether the cache is switched off by
    // config or starved by all-empty signatures.
    let cfg = ServingConfig::new(1e-4, 8, 24, 128, 128);
    for seed in [1, 7, 42] {
        let mut ce = engine();
        let want = simulate_serving_continuous(
            &mut ce,
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &cfg,
            seed,
        )
        .expect("continuous runs");
        for scfg in [
            SessionConfig::new(8).with_prefix_caching(false),
            SessionConfig::new(8), // caching on, but the trace has no signatures
        ] {
            let mut se = engine();
            let mut it = uniform_session_trace(&cfg, seed).into_iter();
            let got = simulate_serving_sessions(
                &mut se,
                ModelId::Dsr1Qwen1_5b,
                Precision::Fp16,
                &scfg,
                || it.next(),
            )
            .expect("session loop runs");
            assert_eq!(
                got.serving, want,
                "seed {seed}: idle prefix cache must be invisible"
            );
            assert_eq!(got.cached_prompt_tokens, 0, "seed {seed}");
        }
    }
}

#[test]
fn legacy_traffic_entry_point_is_the_continuous_scheduler() {
    // `simulate_serving_traffic` with the legacy process is the same
    // function as `simulate_serving_continuous`, bit for bit.
    let cfg = ServingConfig::new(2.0, 8, 40, 128, 128).with_deadline(30.0);
    let mut a = engine();
    let ra = simulate_serving_continuous(&mut a, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, 9)
        .expect("runs");
    let mut b = engine();
    let rb = simulate_serving_traffic(
        &mut b,
        ModelId::Dsr1Qwen1_5b,
        Precision::Fp16,
        &cfg,
        ArrivalProcess::PoissonLegacy,
        9,
    )
    .expect("runs");
    assert_eq!(ra, rb);
}

#[test]
fn traffic_processes_are_deterministic_and_distinct() {
    let cfg = ServingConfig::new(2.0, 8, 40, 128, 128).with_deadline(30.0);
    let run = |process: ArrivalProcess| {
        let mut e = engine();
        simulate_serving_traffic(
            &mut e,
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &cfg,
            process,
            9,
        )
        .expect("runs")
    };
    let processes = [
        ArrivalProcess::Poisson,
        ArrivalProcess::Diurnal {
            period_s: 60.0,
            amplitude: 0.8,
        },
        ArrivalProcess::FlashCrowd {
            burst_mult: 8.0,
            mean_calm_s: 20.0,
            mean_burst_s: 4.0,
        },
    ];
    for p in processes {
        assert_eq!(run(p), run(p), "{p} must be run-to-run deterministic");
    }
    // Different processes reshape the offered load enough to change the
    // report (same seed, same mean rate).
    assert_ne!(run(processes[0]), run(processes[1]));
    assert_ne!(run(processes[0]), run(processes[2]));
}
