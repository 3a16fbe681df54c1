//! Frozen golden digests of the serving simulators.
//!
//! Each cell runs one entry point on a fixed (config, seed) pair and folds
//! every field of the resulting report into a 64-bit FNV-1a hash, floats
//! by their bit pattern. The expected hashes live in
//! `golden_digests.txt` and were generated once from the code before the
//! single-device and fleet event loops were merged; they must never be
//! regenerated by a change that touches an event loop. A mismatch means a
//! decision, an RNG draw or a float operation moved.
//!
//! The cells cover every knob family of the continuous scheduler (load,
//! queue capacity, deadlines, FailFast OOM with retries and degradation,
//! preempt-recompute, an all-failing device, priority and FIFO admission,
//! thermal governance), the three non-legacy arrival processes, the static
//! gang scheduler, 1- and 3-replica fleets (quiet, weather plus hedging,
//! failure domains plus breakers) and the session loop with its prefix
//! cache on and off. Single-device battery cells are deliberately absent:
//! the single-device loop used to ignore brown-outs.
//!
//! To print the current digests (one `name hash` line per cell):
//! `GOLDEN_DIGESTS_PRINT=1 cargo test --release -p edgereasoning-engine
//! --test golden_digests -- --nocapture`.

use edgereasoning_engine::cluster::BreakerConfig;
use edgereasoning_engine::engine::{EngineConfig, OomPolicy};
use edgereasoning_engine::serving::ClassBreakdown;
use edgereasoning_engine::{
    simulate_cluster, simulate_serving, simulate_serving_continuous, simulate_serving_sessions,
    simulate_serving_traffic, uniform_session_trace, AdmissionConfig, ArrivalProcess,
    ClusterConfig, ClusterReport, CrashConfig, InferenceEngine, PrefixCacheStats, Priority,
    PriorityMix, ServingConfig, ServingReport, SessionConfig, SessionReport,
};
use edgereasoning_kernels::arch::ModelId;
use edgereasoning_kernels::dtype::Precision;
use edgereasoning_soc::faults::{DomainConfig, DomainKind};
use edgereasoning_soc::spec::PowerMode;
use edgereasoning_soc::thermal::{
    BatteryConfig, GovernanceConfig, GovernanceStats, RechargeProfile, ThermalConfig,
};

const MODEL: ModelId = ModelId::Dsr1Qwen1_5b;
const PREC: Precision = Precision::Fp16;

/// FNV-1a accumulator over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) -> &mut Self {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn usize(&mut self, x: usize) -> &mut Self {
        self.u64(x as u64)
    }

    fn f64(&mut self, x: f64) -> &mut Self {
        self.u64(x.to_bits())
    }

    fn serving(&mut self, r: &ServingReport) -> &mut Self {
        self.usize(r.completed)
            .f64(r.achieved_qps)
            .f64(r.avg_latency_s)
            .f64(r.p50_latency_s)
            .f64(r.p95_latency_s)
            .f64(r.avg_batch)
            .f64(r.energy_per_query_j)
            .f64(r.wall_s)
            .f64(r.total_tokens)
            .usize(r.failed_queries)
            .usize(r.shed_queries)
            .usize(r.retries)
            .usize(r.preemptions)
            .usize(r.deadline_misses)
            .f64(r.deadline_miss_rate)
            .f64(r.p99_latency_s)
            .f64(r.degraded_s)
            .f64(r.slo_attainment)
            .f64(r.avg_queue_wait_s)
            .f64(r.p99_queue_wait_s)
    }

    fn governance(&mut self, g: Option<&GovernanceStats>) -> &mut Self {
        match g {
            Some(g) => self
                .u64(1)
                .f64(g.time_above_trip_s)
                .f64(g.peak_temp_c)
                .u64(g.throttle_steps)
                .u64(g.brownouts)
                .f64(g.energy_drawn_j),
            None => self.u64(0),
        }
    }

    fn classes(&mut self, c: &ClassBreakdown) -> &mut Self {
        for k in &c.classes {
            self.usize(k.offered)
                .usize(k.completed)
                .usize(k.shed)
                .usize(k.failed)
                .usize(k.deadline_misses)
                .f64(k.slo_attainment)
                .f64(k.avg_latency_s)
                .f64(k.energy_j)
                .f64(k.goodput_qps);
        }
        self
    }

    fn cluster(&mut self, r: &ClusterReport) -> &mut Self {
        self.serving(&r.fleet).usize(r.replicas.len());
        for rep in &r.replicas {
            self.serving(rep);
        }
        self.f64(r.availability)
            .usize(r.crash_events)
            .usize(r.crash_lost)
            .usize(r.crash_recovered)
            .usize(r.hedges_fired)
            .usize(r.hedge_wins)
            .f64(r.hedge_energy_j)
            .usize(r.brownout_events)
            .governance(r.governance.as_ref())
            .usize(r.partition_events)
            .usize(r.partition_voided)
            .usize(r.breaker_trips)
            .usize(r.breaker_rejoins)
            .f64(r.fleet_energy_j)
            .usize(r.replica_energy_j.len());
        for &e in &r.replica_energy_j {
            self.f64(e);
        }
        match &r.classes {
            Some(c) => self.u64(1).classes(c),
            None => self.u64(0),
        }
    }

    fn prefix(&mut self, s: &PrefixCacheStats) -> &mut Self {
        self.u64(s.lookups)
            .u64(s.hit_blocks)
            .u64(s.miss_blocks)
            .u64(s.inserted_blocks)
            .u64(s.evicted_blocks)
    }

    fn session(&mut self, r: &SessionReport) -> &mut Self {
        self.serving(&r.serving)
            .usize(r.offered)
            .f64(r.avg_ttft_s)
            .f64(r.p99_ttft_s)
            .f64(r.goodput_qps)
            .u64(r.admitted_prompt_tokens)
            .u64(r.cached_prompt_tokens)
            .f64(r.prefix_hit_rate)
            .prefix(&r.prefix)
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A KV budget that fits one sequence end to end but not several.
fn pressured(policy: OomPolicy, kv_tokens: u64) -> EngineConfig {
    let mut config = EngineConfig::vllm().with_oom_policy(policy);
    let arch = MODEL.arch();
    let budget = arch.weight_bytes(PREC) + kv_tokens * arch.kv_bytes_per_token();
    config.memory_budget_frac = budget as f64 / config.soc.gpu.dram_capacity as f64;
    config
}

/// A fanless enclosure (tau = 12 s) tripping at 40 °C, in power mode `mode`.
fn governed(mode: PowerMode) -> EngineConfig {
    let gov = GovernanceConfig {
        thermal: ThermalConfig {
            c_j_per_c: 8.6,
            ..ThermalConfig::default()
        },
        ..GovernanceConfig::default()
    }
    .with_trip(40.0, 36.0);
    let mut config = EngineConfig::vllm().with_governance(gov);
    config.mode = mode;
    config
}

fn crashy(mtbf_s: f64) -> CrashConfig {
    CrashConfig {
        mtbf_s,
        mttr_s: 10.0,
        cold_start_s: 5.0,
    }
}

/// Continuous single-device run: the flat report plus the engine's own
/// governance counters.
fn single(engine: &EngineConfig, engine_seed: u64, cfg: &ServingConfig, seed: u64) -> u64 {
    let mut e = InferenceEngine::new(engine.clone(), engine_seed);
    let r = simulate_serving_continuous(&mut e, MODEL, PREC, cfg, seed).expect("runs");
    Digest::new()
        .serving(&r)
        .governance(e.governance_stats().as_ref())
        .finish()
}

fn fleet(cluster: &ClusterConfig, cfg: &ServingConfig, seed: u64) -> u64 {
    let r = simulate_cluster(cluster, MODEL, PREC, cfg, seed).expect("runs");
    Digest::new().cluster(&r).finish()
}

/// Every golden cell as `(name, digest)`.
fn cells() -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    let vllm = EngineConfig::vllm();

    // The DES regression suite's cells (engine seed 3, as there).
    let des: [(&str, EngineConfig, ServingConfig, &[u64]); 7] = [
        (
            "drained",
            vllm.clone(),
            ServingConfig::new(1e-4, 8, 24, 128, 128),
            &[1, 7, 42],
        ),
        (
            "load",
            vllm.clone(),
            ServingConfig::new(2.0, 8, 60, 128, 128),
            &[1, 9, 42],
        ),
        (
            "deadline",
            vllm.clone(),
            ServingConfig::new(2.0, 1, 40, 128, 128).with_deadline(10.0),
            &[5],
        ),
        (
            "capacity",
            vllm.clone(),
            ServingConfig::new(4.0, 1, 40, 128, 128).with_queue_capacity(2),
            &[5],
        ),
        (
            "oom_retry_degrade",
            pressured(OomPolicy::FailFast, 1600),
            ServingConfig::new(2.0, 8, 40, 128, 128)
                .with_retries(3, 1.0)
                .with_degradation(true),
            &[5, 11],
        ),
        (
            "preempt",
            pressured(OomPolicy::PreemptRecompute, 1600),
            ServingConfig::new(2.0, 8, 40, 128, 128),
            &[5],
        ),
        (
            "all_fail",
            pressured(OomPolicy::FailFast, 64),
            ServingConfig::new(2.0, 4, 10, 128, 128),
            &[5],
        ),
    ];
    for (name, engine, cfg, seeds) in &des {
        for &seed in *seeds {
            out.push((format!("des/{name}/s{seed}"), single(engine, 3, cfg, seed)));
        }
    }
    let one_rep = ServingConfig::new(1.5, 8, 40, 128, 128)
        .with_deadline(60.0)
        .with_retries(2, 1.0);
    for seed in [3u64, 8] {
        out.push((
            format!("des/one_replica/fleet/s{seed}"),
            fleet(&ClusterConfig::new(1, vllm.clone()), &one_rep, seed),
        ));
        out.push((
            format!("des/one_replica/single/s{seed}"),
            single(&vllm, seed, &one_rep, seed),
        ));
    }

    // Knob families: single device and the quiet one-replica fleet, with
    // engine seed = run seed.
    let edge_prio = AdmissionConfig::priority(PriorityMix::EDGE_MIX, 5)
        .with_rate(Priority::Background, 0.5, 2.0)
        .with_age_target(Priority::Batch, 5.0);
    let families: [(&str, EngineConfig, ServingConfig); 10] = [
        (
            "saturating",
            vllm.clone(),
            ServingConfig::new(3.0, 8, 60, 128, 128),
        ),
        (
            "queue_capacity",
            vllm.clone(),
            ServingConfig::new(4.0, 2, 40, 128, 128).with_queue_capacity(3),
        ),
        (
            "deadline",
            vllm.clone(),
            ServingConfig::new(2.0, 4, 40, 128, 128).with_deadline(15.0),
        ),
        (
            "failfast_retry_degrade",
            pressured(OomPolicy::FailFast, 1600),
            ServingConfig::new(2.0, 8, 40, 128, 128)
                .with_retries(2, 0.5)
                .with_degradation(true),
        ),
        (
            "preempt",
            pressured(OomPolicy::PreemptRecompute, 1600),
            ServingConfig::new(2.0, 8, 40, 128, 128),
        ),
        (
            "all_fail",
            pressured(OomPolicy::FailFast, 64),
            ServingConfig::new(2.0, 4, 10, 128, 128).with_retries(1, 0.5),
        ),
        (
            "priority",
            vllm.clone(),
            ServingConfig::new(6.0, 8, 80, 128, 96)
                .with_deadline(20.0)
                .with_admission(edge_prio),
        ),
        (
            "fifo",
            vllm.clone(),
            ServingConfig::new(4.0, 8, 60, 128, 96)
                .with_deadline(30.0)
                .with_retries(2, 1.0)
                .with_admission(AdmissionConfig::fifo(PriorityMix::EDGE_MIX, 99)),
        ),
        (
            "thermal_w15",
            governed(PowerMode::W15),
            ServingConfig::new(2.5, 8, 40, 128, 128)
                .with_deadline(60.0)
                .with_retries(2, 0.5),
        ),
        (
            "thermal_maxn",
            governed(PowerMode::MaxN),
            ServingConfig::new(2.5, 8, 40, 128, 128)
                .with_deadline(60.0)
                .with_retries(2, 0.5),
        ),
    ];
    for (name, engine, cfg) in &families {
        for seed in 1u64..=4 {
            out.push((
                format!("family/{name}/single/s{seed}"),
                single(engine, seed, cfg, seed),
            ));
            out.push((
                format!("family/{name}/fleet/s{seed}"),
                fleet(&ClusterConfig::new(1, engine.clone()), cfg, seed),
            ));
        }
    }

    // The three non-legacy arrival processes, untagged and under priority
    // admission.
    let processes = [
        ("poisson", ArrivalProcess::Poisson),
        (
            "diurnal",
            ArrivalProcess::Diurnal {
                period_s: 60.0,
                amplitude: 0.8,
            },
        ),
        (
            "flash",
            ArrivalProcess::FlashCrowd {
                burst_mult: 8.0,
                mean_calm_s: 20.0,
                mean_burst_s: 4.0,
            },
        ),
    ];
    let plain = ServingConfig::new(2.0, 8, 40, 128, 128).with_deadline(30.0);
    let tagged = ServingConfig::new(4.0, 8, 60, 128, 96)
        .with_deadline(20.0)
        .with_retries(1, 0.5)
        .with_admission(AdmissionConfig::priority(PriorityMix::EDGE_MIX, 3));
    for (name, process) in processes {
        for (variant, cfg) in [("plain", &plain), ("priority", &tagged)] {
            for seed in [9u64, 10] {
                let mut e = InferenceEngine::new(vllm.clone(), seed);
                let r = simulate_serving_traffic(&mut e, MODEL, PREC, cfg, process, seed)
                    .expect("runs");
                out.push((
                    format!("traffic/{name}/{variant}/s{seed}"),
                    Digest::new().serving(&r).finish(),
                ));
            }
        }
    }

    // The static gang scheduler.
    let statics: [(&str, EngineConfig, ServingConfig); 6] = [
        (
            "drained",
            vllm.clone(),
            ServingConfig::new(1e-4, 8, 24, 128, 128),
        ),
        (
            "load",
            vllm.clone(),
            ServingConfig::new(2.0, 8, 60, 128, 128),
        ),
        (
            "deadline",
            vllm.clone(),
            ServingConfig::new(2.0, 1, 40, 128, 128).with_deadline(10.0),
        ),
        (
            "capacity",
            vllm.clone(),
            ServingConfig::new(4.0, 1, 40, 128, 128).with_queue_capacity(2),
        ),
        (
            "failfast_retry_degrade",
            pressured(OomPolicy::FailFast, 1600),
            ServingConfig::new(2.0, 8, 40, 128, 128)
                .with_retries(3, 1.0)
                .with_degradation(true),
        ),
        (
            "preempt",
            pressured(OomPolicy::PreemptRecompute, 1600),
            ServingConfig::new(2.0, 8, 40, 128, 128),
        ),
    ];
    for (name, engine, cfg) in &statics {
        for seed in [5u64, 7] {
            let mut e = InferenceEngine::new(engine.clone(), seed);
            let r = simulate_serving(&mut e, MODEL, PREC, cfg, seed).expect("runs");
            out.push((
                format!("static/{name}/s{seed}"),
                Digest::new().serving(&r).finish(),
            ));
        }
    }

    // Fleets of 1 and 3 replicas: quiet, weather plus hedging, failure
    // domains plus breakers.
    let fleet_cfg = ServingConfig::new(2.0, 8, 60, 128, 128)
        .with_deadline(90.0)
        .with_retries(3, 0.5);
    for n in [1usize, 3] {
        let members: Vec<usize> = (0..n).collect();
        let quiet = ClusterConfig::new(n, vllm.clone());
        let weather = quiet
            .clone()
            .with_fault_intensity(1.0)
            .with_crashes(crashy(60.0))
            .with_hedging(3.0);
        let domains = quiet
            .clone()
            .with_domains(vec![
                DomainConfig {
                    crash_mtbf_s: 25.0,
                    crash_mttr_s: 6.0,
                    ..DomainConfig::quiet(DomainKind::Power, members.clone())
                },
                DomainConfig {
                    event_mtbf_s: 15.0,
                    event_duration_s: 5.0,
                    ..DomainConfig::quiet(DomainKind::Network, vec![0])
                },
            ])
            .with_breaker(BreakerConfig::edge_default());
        for (name, cluster) in [
            ("quiet", &quiet),
            ("weather_hedge", &weather),
            ("domains_breakers", &domains),
        ] {
            for seed in [7u64, 11] {
                out.push((
                    format!("cluster/{n}/{name}/s{seed}"),
                    fleet(cluster, &fleet_cfg, seed),
                ));
            }
        }
        let prio = fleet_cfg.with_admission(AdmissionConfig::priority(PriorityMix::EDGE_MIX, 2));
        out.push((
            format!("cluster/{n}/weather_priority/s7"),
            fleet(&weather, &prio, 7),
        ));
    }
    let prefixed = ClusterConfig::new(2, vllm.clone())
        .with_shared_prefix((0..7).map(|b| 0xfee_d000 + b).collect())
        .with_hedging(2.0);
    out.push((
        "cluster/2/shared_prefix/s5".into(),
        fleet(&prefixed, &fleet_cfg, 5),
    ));
    // A fleet battery (the fleet loop has always honoured brown-outs).
    let battery = GovernanceConfig::default()
        .with_trip(10_000.0, 9_000.0)
        .with_battery(BatteryConfig {
            capacity_j: 150.0,
            recharge: RechargeProfile::Constant { watts: 5.0 },
            ..BatteryConfig::default()
        });
    out.push((
        "cluster/1/battery/s7".into(),
        fleet(
            &ClusterConfig::new(1, vllm.clone().with_governance(battery)),
            &ServingConfig::new(2.0, 8, 40, 128, 128).with_retries(3, 0.5),
            7,
        ),
    ));

    // The session loop, prefix cache on and off, over a uniform trace and
    // a template-prefixed one.
    let trace_cfg = ServingConfig::new(2.0, 8, 60, 128, 128);
    for seed in [1u64, 7] {
        let uniform = uniform_session_trace(&trace_cfg, seed);
        let mut templated = uniform.clone();
        for (i, r) in templated.iter_mut().enumerate() {
            r.prefix = (0..6).map(|b| 0xab00 + b).collect();
            r.prefix.push(0x1_0000 + i as u64);
        }
        for (trace_name, trace) in [("uniform", &uniform), ("template", &templated)] {
            for cache in [false, true] {
                let scfg = SessionConfig::new(8)
                    .with_deadline(60.0)
                    .with_prefix_caching(cache);
                let mut e = InferenceEngine::new(vllm.clone(), seed);
                let mut it = trace.iter().cloned();
                let r = simulate_serving_sessions(&mut e, MODEL, PREC, &scfg, || it.next())
                    .expect("runs");
                out.push((
                    format!("session/{trace_name}/cache_{cache}/s{seed}"),
                    Digest::new().session(&r).finish(),
                ));
            }
        }
    }
    out
}

#[test]
fn golden_digests_are_unchanged() {
    let got = cells();
    if std::env::var_os("GOLDEN_DIGESTS_PRINT").is_some() {
        for (name, d) in &got {
            println!("{name} {d:016x}");
        }
        return;
    }
    let want: Vec<(&str, &str)> = include_str!("golden_digests.txt")
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .collect();
    assert_eq!(
        want.len(),
        got.len(),
        "golden table and cell list differ in length"
    );
    let mut bad = Vec::new();
    for ((wn, wd), (gn, gd)) in want.iter().zip(&got) {
        assert_eq!(*wn, gn.as_str(), "cell order/name mismatch");
        if *wd != format!("{gd:016x}") {
            bad.push(format!("{gn}: want {wd}, got {gd:016x}"));
        }
    }
    assert!(bad.is_empty(), "golden digests moved:\n{}", bad.join("\n"));
}
