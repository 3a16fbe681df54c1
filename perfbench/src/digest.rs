//! Bitwise digests of simulator reports.
//!
//! Every field of every report the benchmark receives is folded into a
//! 64-bit FNV-1a hash, floats by their bit pattern, so any change to any
//! simulated output changes the digest. Fields are listed explicitly (not
//! hashed through `Debug`) so a report that gains a field keeps its digest.

use edgereasoning_core::planner::ConfigPoint;
use edgereasoning_core::rig::{CellReport, MapeReport};
use edgereasoning_engine::cluster::ClusterReport;
use edgereasoning_engine::plan_cache::EngineCounters;
use edgereasoning_engine::prefix_cache::PrefixCacheStats;
use edgereasoning_engine::serving::{ClassBreakdown, ServingReport};
use edgereasoning_engine::session::SessionReport;
use edgereasoning_models::evaluate::EvalResult;

/// FNV-1a accumulator over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word.
    pub fn u64(&mut self, x: u64) -> &mut Self {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds a count.
    pub fn usize(&mut self, x: usize) -> &mut Self {
        self.u64(x as u64)
    }

    /// Folds a float by its bit pattern.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.u64(x.to_bits())
    }

    /// Folds a label (length-prefixed, so concatenations differ).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.usize(s.len());
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
        self
    }

    /// The hash so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// Every field of a [`ServingReport`].
    pub fn serving(&mut self, r: &ServingReport) -> &mut Self {
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

    /// Every field of a [`PrefixCacheStats`].
    pub fn prefix(&mut self, s: &PrefixCacheStats) -> &mut Self {
        self.u64(s.lookups)
            .u64(s.hit_blocks)
            .u64(s.miss_blocks)
            .u64(s.inserted_blocks)
            .u64(s.evicted_blocks)
    }

    /// Every field of a [`SessionReport`].
    pub fn session(&mut self, r: &SessionReport) -> &mut Self {
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

    /// Every field of a [`ClassBreakdown`].
    pub fn classes(&mut self, c: &ClassBreakdown) -> &mut Self {
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

    /// Every field of a [`ClusterReport`], optional sections behind a
    /// presence word.
    pub fn cluster(&mut self, r: &ClusterReport) -> &mut Self {
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
            .usize(r.brownout_events);
        match &r.governance {
            Some(g) => self
                .u64(1)
                .f64(g.time_above_trip_s)
                .f64(g.peak_temp_c)
                .u64(g.throttle_steps)
                .u64(g.brownouts)
                .f64(g.energy_drawn_j),
            None => self.u64(0),
        };
        self.usize(r.partition_events)
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

    /// Every field of [`EngineCounters`].
    pub fn counters(&mut self, c: &EngineCounters) -> &mut Self {
        self.u64(c.cache_hits)
            .u64(c.cache_misses)
            .usize(c.cache_entries)
            .u64(c.prefill_phases)
            .u64(c.decode_base_phases)
            .u64(c.decode_ctx_phases)
            .u64(c.preemptions)
            .u64(c.recomputed_tokens)
            .u64(c.throttled_phases)
            .u64(c.stalls)
    }

    /// Every field of an [`EvalResult`].
    pub fn eval(&mut self, e: &EvalResult) -> &mut Self {
        self.usize(e.n_questions)
            .f64(e.accuracy_pct)
            .f64(e.avg_tokens_per_seq)
            .f64(e.avg_max_tokens)
            .f64(e.avg_prompt_tokens)
            .f64(e.unanswered_frac)
    }

    /// Every field of a [`CellReport`].
    pub fn cell(&mut self, r: &CellReport) -> &mut Self {
        self.str(&format!(
            "{:?}/{:?}/{:?}/{:?}",
            r.model, r.precision, r.bench, r.config
        ))
        .eval(&r.eval)
        .f64(r.avg_latency_s)
        .f64(r.avg_energy_j)
        .f64(r.cost.energy)
        .f64(r.cost.hardware)
    }

    /// Every field of a [`MapeReport`].
    pub fn mape(&mut self, m: &MapeReport) -> &mut Self {
        self.f64(m.prefill_pct).f64(m.decode_pct).f64(m.total_pct)
    }

    /// Every field of a planner [`ConfigPoint`].
    pub fn point(&mut self, p: &ConfigPoint) -> &mut Self {
        self.str(&format!("{:?}/{:?}/{:?}", p.model, p.precision, p.config))
            .usize(p.parallel)
            .f64(p.accuracy_pct)
            .f64(p.latency_s)
            .f64(p.cost_per_mtok)
            .f64(p.avg_tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_hash_by_bit_pattern() {
        let h = |x: f64| Digest::default().f64(x).finish();
        assert_ne!(h(0.0), h(-0.0));
        assert_eq!(h(f64::NAN), h(f64::NAN));
        assert_ne!(Digest::default().str("ab").str("c").finish(), {
            Digest::default().str("a").str("bc").finish()
        });
    }
}
