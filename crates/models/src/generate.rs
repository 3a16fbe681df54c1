//! Per-question answer simulation (the stochastic "model under test").

use edgereasoning_kernels::arch::ModelId;
use edgereasoning_kernels::dtype::Precision;
use edgereasoning_soc::rng::Rng;
use edgereasoning_workloads::prompt::PromptConfig;
use edgereasoning_workloads::question::Question;
use edgereasoning_workloads::suite::Benchmark;
use serde::{Deserialize, Serialize};

use crate::accuracy::{effective_law, AccuracyLaw};
use crate::profile::{output_profile, OutputLenProfile};

/// The answer a sample produced, reduced to vote-equivalence classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AnswerKey {
    /// The correct answer.
    Correct,
    /// The question's attractor distractor (systematic wrong answer shared
    /// across samples — what lets voting lock onto a wrong consensus).
    Trap,
    /// Some other wrong answer (id distinguishes vote buckets).
    Other(u32),
    /// No parseable answer (truncated mid-reasoning).
    None,
}

/// One sampled generation for one question.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnswerSample {
    /// Tokens actually emitted (after any hard truncation).
    pub tokens: f64,
    /// Whether generation completed naturally within the budget.
    pub completed: bool,
    /// The produced answer class.
    pub answer: AnswerKey,
}

impl AnswerSample {
    /// Whether this sample alone would be graded correct.
    pub fn is_correct(&self) -> bool {
        self.answer == AnswerKey::Correct
    }
}

/// Precomputed evaluation context for one (model, precision, benchmark,
/// config) cell — build once, sample many questions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalContext {
    /// Model under test.
    pub model: ModelId,
    /// Weight precision.
    pub precision: Precision,
    /// Benchmark being evaluated.
    pub bench: Benchmark,
    /// Prompting configuration.
    pub config: PromptConfig,
    /// Accuracy law with benchmark/quant skill adjustments folded in.
    pub law: AccuracyLaw,
    /// Output-length profile.
    pub profile: OutputLenProfile,
}

impl EvalContext {
    /// Builds the context for a cell.
    pub fn new(
        model: ModelId,
        precision: Precision,
        bench: Benchmark,
        config: PromptConfig,
    ) -> Self {
        Self {
            model,
            precision,
            bench,
            config,
            law: effective_law(model, bench, precision),
            profile: output_profile(model, bench, config, precision),
        }
    }

    /// Samples one generation for `q`.
    pub fn sample(&self, rng: &mut Rng, q: &Question) -> AnswerSample {
        let (tokens, completed) = self.profile.sample_emitted(rng);
        // Truncated generations usually lose the final answer.
        let answered = completed || rng.chance(self.law.salvage);
        if !answered {
            return AnswerSample {
                tokens,
                completed,
                answer: AnswerKey::None,
            };
        }
        let p_solve = self.law.solve_prob(tokens, q.difficulty);
        let answer = if rng.chance(p_solve) {
            AnswerKey::Correct
        } else if rng.chance(q.trap_mass()) {
            AnswerKey::Trap
        } else {
            match q.choices {
                // Failed multiple choice: pick among all options uniformly
                // (the guess floor); `Other` ids index the wrong options.
                Some(n) => {
                    let pick = rng.range_usize(n as usize);
                    if pick == 0 {
                        AnswerKey::Correct
                    } else {
                        AnswerKey::Other(pick as u32)
                    }
                }
                // Failed exact-match answers are effectively unique.
                None => AnswerKey::Other(rng.next_u64() as u32),
            }
        };
        AnswerSample {
            tokens,
            completed,
            answer,
        }
    }
}

/// Majority vote over parallel samples (the paper's §V-E aggregation).
/// `None` answers never receive votes; ties break toward the earliest
/// sample, mirroring a first-seen argmax. Returns `AnswerKey::None` when
/// no sample produced an answer.
///
/// Counts each answer at its first occurrence with a linear scan: `k` is
/// small (the studies vote over at most 32 samples), so this beats
/// hashing, and it allocates nothing.
pub fn majority_vote(samples: &[AnswerSample]) -> AnswerKey {
    let mut best = AnswerKey::None;
    let mut best_votes = 0;
    for (i, s) in samples.iter().enumerate() {
        // An answer first seen here has at most `len - i` votes; a tie
        // keeps the earlier winner.
        if best_votes >= samples.len() - i {
            break;
        }
        if s.answer == AnswerKey::None || samples[..i].iter().any(|p| p.answer == s.answer) {
            continue;
        }
        let votes = samples[i..].iter().filter(|p| p.answer == s.answer).count();
        if votes > best_votes {
            best = s.answer;
            best_votes = votes;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn question(difficulty: f64) -> Question {
        Question {
            idx: 0,
            difficulty,
            choices: Some(4),
            trap_strength: 0.3,
            prompt_tokens: 100,
        }
    }

    fn ctx(config: PromptConfig) -> EvalContext {
        EvalContext::new(
            ModelId::Dsr1Llama8b,
            Precision::Fp16,
            Benchmark::MmluRedux,
            config,
        )
    }

    #[test]
    fn easy_questions_are_usually_solved() {
        let c = ctx(PromptConfig::Base);
        let mut rng = Rng::seed_from_u64(1);
        let q = question(-4.0);
        let correct = (0..1000)
            .filter(|_| c.sample(&mut rng, &q).is_correct())
            .count();
        assert!(correct > 900, "easy question solved {correct}/1000");
    }

    #[test]
    fn impossible_questions_hit_the_guess_floor() {
        let c = ctx(PromptConfig::Base);
        let mut rng = Rng::seed_from_u64(2);
        let q = question(12.0);
        let correct = (0..4000)
            .filter(|_| c.sample(&mut rng, &q).is_correct())
            .count();
        let rate = correct as f64 / 4000.0;
        // Guess floor = (1 - trap) / 4 = 0.175.
        assert!((rate - 0.175).abs() < 0.03, "guess rate {rate}");
    }

    #[test]
    fn truncated_samples_lose_their_answer() {
        let c = ctx(PromptConfig::Hard(128));
        let mut rng = Rng::seed_from_u64(3);
        let q = question(0.0);
        let mut truncated_unanswered = 0;
        let mut truncated = 0;
        for _ in 0..4000 {
            let s = c.sample(&mut rng, &q);
            if !s.completed {
                truncated += 1;
                if s.answer == AnswerKey::None {
                    truncated_unanswered += 1;
                }
            }
        }
        assert!(truncated > 250, "hard-128 must truncate often: {truncated}");
        let frac = truncated_unanswered as f64 / truncated as f64;
        assert!((frac - 0.9).abs() < 0.05, "salvage rate off: {frac}");
    }

    #[test]
    fn majority_vote_amplifies_a_plurality() {
        use AnswerKey::*;
        let mk = |answer| AnswerSample {
            tokens: 100.0,
            completed: true,
            answer,
        };
        assert_eq!(
            majority_vote(&[mk(Correct), mk(Trap), mk(Correct), mk(Other(1))]),
            Correct
        );
        assert_eq!(majority_vote(&[mk(None), mk(None)]), None);
        // Tie breaks toward the earlier sample.
        assert_eq!(majority_vote(&[mk(Trap), mk(Correct)]), Trap);
    }

    /// The map-based vote `majority_vote` replaced: count per answer with
    /// its first index, most votes wins, a tie goes to the earliest.
    fn majority_vote_by_map(samples: &[AnswerSample]) -> AnswerKey {
        use std::collections::HashMap;
        let mut counts: HashMap<AnswerKey, (usize, usize)> = HashMap::new();
        for (i, s) in samples.iter().enumerate() {
            if s.answer == AnswerKey::None {
                continue;
            }
            counts.entry(s.answer).or_insert((0, i)).0 += 1;
        }
        counts
            .into_iter()
            .max_by(|a, b| a.1 .0.cmp(&b.1 .0).then(b.1 .1.cmp(&a.1 .1)))
            .map(|(k, _)| k)
            .unwrap_or(AnswerKey::None)
    }

    #[test]
    fn majority_vote_matches_the_map_reference() {
        let mut rng = Rng::seed_from_u64(6);
        for _ in 0..20_000 {
            let k = 1 + rng.range_usize(64);
            // Few buckets so that ties and `None`s are common.
            let buckets = 1 + rng.range_usize(6);
            let samples: Vec<_> = (0..k)
                .map(|_| AnswerSample {
                    tokens: 100.0,
                    completed: true,
                    answer: match rng.range_usize(buckets + 1) {
                        0 => AnswerKey::None,
                        1 => AnswerKey::Correct,
                        2 => AnswerKey::Trap,
                        n => AnswerKey::Other(n as u32),
                    },
                })
                .collect();
            assert_eq!(
                majority_vote(&samples),
                majority_vote_by_map(&samples),
                "{samples:?}"
            );
        }
        assert_eq!(majority_vote(&[]), AnswerKey::None);
    }

    #[test]
    fn voting_improves_accuracy_on_mid_difficulty_questions() {
        let c = ctx(PromptConfig::Hard(128));
        let mut rng = Rng::seed_from_u64(4);
        let q = question(-0.5);
        let single = (0..2000)
            .filter(|_| c.sample(&mut rng, &q).is_correct())
            .count() as f64
            / 2000.0;
        let voted = (0..2000)
            .filter(|_| {
                let samples: Vec<_> = (0..8).map(|_| c.sample(&mut rng, &q)).collect();
                majority_vote(&samples) == AnswerKey::Correct
            })
            .count() as f64
            / 2000.0;
        assert!(
            voted > single + 0.05,
            "8-way voting should amplify: single {single:.3}, voted {voted:.3}"
        );
    }

    #[test]
    fn exact_match_failures_never_guess_right() {
        let c = EvalContext::new(
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            Benchmark::Aime2024,
            PromptConfig::Base,
        );
        let mut rng = Rng::seed_from_u64(5);
        let q = Question {
            idx: 0,
            difficulty: 30.0,
            choices: None,
            trap_strength: 0.2,
            prompt_tokens: 150,
        };
        let correct = (0..2000)
            .filter(|_| c.sample(&mut rng, &q).is_correct())
            .count();
        assert_eq!(correct, 0, "exact match has no guess floor");
    }
}
