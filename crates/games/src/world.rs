//! Synthetic stimulus worlds — the ground truth the games play over.
//!
//! Real deployments show players images, audio clips and scanned pages; a
//! reproducible simulation needs stimuli whose *true* descriptions are
//! known so label precision can be scored exactly. [`WorldConfig`]
//! controls the shape; each game crate module derives its own world type
//! from the shared machinery here:
//!
//! * every stimulus gets a handful of true concepts drawn from a shared
//!   Zipf [`Vocabulary`] (popular concepts appear in many stimuli, like
//!   "sky" does in photos);
//! * concept weights within a stimulus are geometric, so there is a clear
//!   modal label plus a tail — matching the agreement dynamics the ESP
//!   Game reports (most pairs match on an "obvious" label first).

use hc_core::Label;
use hc_crowd::{LabelDistribution, Vocabulary};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Shape parameters shared by all game worlds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorldConfig {
    /// Number of stimuli (images/clips/secrets).
    pub stimuli: usize,
    /// Global vocabulary size.
    pub vocabulary: usize,
    /// Zipf exponent of concept popularity.
    pub zipf_exponent: f64,
    /// Minimum true concepts per stimulus.
    pub concepts_min: usize,
    /// Maximum true concepts per stimulus.
    pub concepts_max: usize,
    /// Geometric decay of concept weights within a stimulus (in `(0, 1)`;
    /// smaller = more dominant modal label).
    pub weight_decay: f64,
}

impl WorldConfig {
    /// A small world for unit tests and doc examples.
    #[must_use]
    pub fn small() -> Self {
        WorldConfig {
            stimuli: 50,
            vocabulary: 300,
            zipf_exponent: 1.05,
            concepts_min: 3,
            concepts_max: 6,
            weight_decay: 0.55,
        }
    }

    /// The default experiment-scale world.
    #[must_use]
    pub fn standard() -> Self {
        WorldConfig {
            stimuli: 2_000,
            vocabulary: 5_000,
            zipf_exponent: 1.05,
            concepts_min: 3,
            concepts_max: 8,
            weight_decay: 0.55,
        }
    }

    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns an error string describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.stimuli == 0 {
            return Err("stimuli must be > 0".into());
        }
        if self.vocabulary < self.concepts_max.max(1) {
            return Err("vocabulary must cover concepts_max".into());
        }
        if self.concepts_min == 0 || self.concepts_min > self.concepts_max {
            return Err("need 0 < concepts_min <= concepts_max".into());
        }
        if !(0.0..1.0).contains(&self.weight_decay) || self.weight_decay <= 0.0 {
            return Err("weight_decay must be in (0, 1)".into());
        }
        Ok(())
    }
}

/// Draws one stimulus's ground-truth label distribution: `k` distinct
/// Zipf-popular concepts with geometrically decaying weights.
pub fn sample_stimulus_truth<R: Rng + ?Sized>(
    config: &WorldConfig,
    vocab: &Vocabulary,
    rng: &mut R,
) -> LabelDistribution {
    let k = if config.concepts_max > config.concepts_min {
        rng.gen_range(config.concepts_min..=config.concepts_max)
    } else {
        config.concepts_min
    };
    let mut chosen: Vec<Label> = Vec::with_capacity(k);
    // Rejection-sample distinct concepts; fall back to uniform draws if the
    // Zipf head keeps colliding.
    let mut attempts = 0;
    while chosen.len() < k {
        let l = if attempts < 20 * k {
            vocab.sample(rng)
        } else {
            vocab.sample_uniform(rng)
        };
        attempts += 1;
        if !chosen.contains(&l) {
            chosen.push(l);
        }
    }
    let pairs = chosen
        .into_iter()
        .enumerate()
        .map(|(i, l)| (l, config.weight_decay.powi(i as i32)))
        .collect();
    LabelDistribution::new(pairs).expect("constructed weights are valid") // hc-analyze: allow(P1): decayed weights are positive and finite
}

/// The generic world: one truth distribution per stimulus, plus the shared
/// vocabulary. Game-specific worlds wrap this.
#[derive(Debug, Clone)]
pub struct BaseWorld {
    /// The shared vocabulary.
    pub vocabulary: Vocabulary,
    /// Per-stimulus ground truth, indexed by stimulus id.
    pub truths: Vec<LabelDistribution>,
}

impl BaseWorld {
    /// Generates a world from a validated config.
    ///
    /// # Panics
    ///
    /// Panics when the config is invalid (experiment setup error).
    pub fn generate<R: Rng + ?Sized>(config: &WorldConfig, rng: &mut R) -> Self {
        config.validate().expect("world config must be valid"); // hc-analyze: allow(P1): documented # Panics contract for invalid configs
        let vocabulary = Vocabulary::new(config.vocabulary, config.zipf_exponent);
        let truths = (0..config.stimuli)
            .map(|_| sample_stimulus_truth(config, &vocabulary, rng))
            .collect();
        BaseWorld { vocabulary, truths }
    }

    /// Number of stimuli.
    #[must_use]
    pub fn len(&self) -> usize {
        self.truths.len()
    }

    /// `true` when the world has no stimuli.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.truths.is_empty()
    }

    /// Ground truth of one stimulus.
    #[must_use]
    pub fn truth(&self, stimulus: usize) -> Option<&LabelDistribution> {
        self.truths.get(stimulus)
    }

    /// Whether `label` is a true description of `stimulus` — the precision
    /// oracle every quality experiment scores against.
    #[must_use]
    pub fn is_correct(&self, stimulus: usize, label: &Label) -> bool {
        self.truth(stimulus).is_some_and(|t| t.contains(label))
    }
}

/// `correct / total` of a `(correct, total)` precision count; 1.0 when
/// nothing was verified.
pub(crate) fn precision_rate((correct, total): (usize, usize)) -> f64 {
    if total == 0 {
        1.0
    } else {
        correct as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(2024)
    }

    #[test]
    fn config_validation() {
        assert!(WorldConfig::small().validate().is_ok());
        assert!(WorldConfig::standard().validate().is_ok());
        let mut bad = WorldConfig::small();
        bad.stimuli = 0;
        assert!(bad.validate().is_err());
        let mut bad = WorldConfig::small();
        bad.concepts_min = 0;
        assert!(bad.validate().is_err());
        let mut bad = WorldConfig::small();
        bad.concepts_min = 9;
        assert!(bad.validate().is_err());
        let mut bad = WorldConfig::small();
        bad.weight_decay = 1.0;
        assert!(bad.validate().is_err());
        let mut bad = WorldConfig::small();
        bad.vocabulary = 2;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn stimulus_truths_have_requested_shape() {
        let cfg = WorldConfig::small();
        let world = BaseWorld::generate(&cfg, &mut rng());
        assert_eq!(world.len(), 50);
        for truth in &world.truths {
            assert!((3..=6).contains(&truth.len()));
            // Labels are distinct.
            let mut labels: Vec<&Label> = truth.labels().iter().collect();
            labels.sort();
            labels.dedup();
            assert_eq!(labels.len(), truth.len());
        }
    }

    #[test]
    fn modal_label_dominates() {
        let cfg = WorldConfig::small();
        let world = BaseWorld::generate(&cfg, &mut rng());
        for truth in &world.truths {
            let top = truth.top().clone();
            let top_p = truth.pmf_of(&top);
            for l in truth.labels() {
                assert!(truth.pmf_of(l) <= top_p + 1e-12);
            }
            // Geometric decay 0.55 over ≥3 concepts ⇒ modal ≥ ~40%.
            assert!(top_p > 0.35, "modal p {top_p}");
        }
    }

    #[test]
    fn correctness_oracle() {
        let cfg = WorldConfig::small();
        let world = BaseWorld::generate(&cfg, &mut rng());
        let truth = world.truth(0).unwrap();
        let known = truth.labels()[0].clone();
        assert!(world.is_correct(0, &known));
        assert!(!world.is_correct(0, &Label::new("zqzq")));
        assert!(!world.is_correct(999, &known));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = WorldConfig::small();
        let a = BaseWorld::generate(&cfg, &mut rng());
        let b = BaseWorld::generate(&cfg, &mut rng());
        for (x, y) in a.truths.iter().zip(&b.truths) {
            assert_eq!(x.labels(), y.labels());
        }
    }

    #[test]
    fn degenerate_concept_range() {
        let mut cfg = WorldConfig::small();
        cfg.concepts_min = 4;
        cfg.concepts_max = 4;
        let world = BaseWorld::generate(&cfg, &mut rng());
        assert!(world.truths.iter().all(|t| t.len() == 4));
    }
}
