//! Verbosity — inversion-problem collection of commonsense facts.
//!
//! The describer ("narrator") holds a secret word and sends templated
//! clues — "it is a kind of ___", "it is used for ___" — while the
//! guesser tries to say the word. A correct guess certifies every clue as
//! a commonsense fact about the secret. Information accumulates: each
//! additional clue narrows the guesser's candidate space, so guess
//! probability rises with hints seen — the dynamic this module models
//! explicitly.

use crate::params::SessionParams;
use crate::round::{
    play_session, session_span, PlannedRound, PlayedRound, Round, RoundSource, Table,
};
use crate::world::{BaseWorld, WorldConfig};
use hc_core::prelude::*;
use hc_crowd::{LabelDistribution, PlayerProfile, Population};
use rand::Rng;

/// Maximum hints the narrator sends per round.
const MAX_HINTS: usize = 6;

/// Guesses allowed per hint received.
const GUESSES_PER_HINT: usize = 2;

/// The sentence templates the deployed Verbosity offered its narrators —
/// each clue is a template slot filled with an object word, so the
/// harvested facts come out *typed* ("milk — kind-of → drink").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Relation {
    /// "it is a kind of ___"
    KindOf,
    /// "it is used for ___"
    UsedFor,
    /// "it contains ___"
    Contains,
    /// "it looks like ___"
    LooksLike,
    /// "it is the opposite of ___"
    OppositeOf,
    /// "it is found at/in ___"
    FoundAt,
}

impl Relation {
    /// All templates, in the deployed game's menu order.
    pub const ALL: [Relation; 6] = [
        Relation::KindOf,
        Relation::UsedFor,
        Relation::Contains,
        Relation::LooksLike,
        Relation::OppositeOf,
        Relation::FoundAt,
    ];

    /// The token that prefixes clue labels ("kindof w42").
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Relation::KindOf => "kindof",
            Relation::UsedFor => "usedfor",
            // Tokens must survive label normalization (which strips a
            // trailing "-s"), so "contains" is spelled without it.
            Relation::Contains => "contain",
            Relation::LooksLike => "lookslike",
            Relation::OppositeOf => "oppositeof",
            Relation::FoundAt => "foundat",
        }
    }

    /// Parses a token back into a relation.
    #[must_use]
    pub fn from_token(token: &str) -> Option<Relation> {
        Relation::ALL.iter().copied().find(|r| r.token() == token)
    }

    /// Human-readable sentence template.
    #[must_use]
    pub fn template(self) -> &'static str {
        match self {
            Relation::KindOf => "it is a kind of ___",
            Relation::UsedFor => "it is used for ___",
            Relation::Contains => "it contains ___",
            Relation::LooksLike => "it looks like ___",
            Relation::OppositeOf => "it is the opposite of ___",
            Relation::FoundAt => "it is found at ___",
        }
    }
}

/// Builds the clue label encoding `(relation, object)`.
#[must_use]
pub fn fact_label(relation: Relation, object: &Label) -> Label {
    Label::new(&format!("{} {}", relation.token(), object.as_str()))
}

/// Parses a clue label back into `(relation, object)`; `None` when the
/// label does not carry a template prefix (free-form clue).
#[must_use]
pub fn parse_fact(clue: &Label) -> Option<(Relation, Label)> {
    let mut parts = clue.as_str().splitn(2, ' ');
    let relation = Relation::from_token(parts.next()?)?;
    let object = parts.next()?;
    if object.is_empty() {
        return None;
    }
    Some((relation, Label::new(object)))
}

/// The Verbosity world: each task has a secret word and a pool of true
/// *typed* facts about it (template + object).
#[derive(Debug, Clone)]
pub struct VerbosityWorld {
    /// Per-task secret words.
    secrets: Vec<Label>,
    /// Object words underlying the facts (shared Zipf vocabulary).
    objects: BaseWorld,
    /// Per-task typed-fact distributions (what a narrator can truthfully
    /// say, with weights mirroring the objects' salience).
    facts: Vec<LabelDistribution>,
}

impl VerbosityWorld {
    /// Generates a world: secrets are distinct words; each secret's facts
    /// are its stimulus-truth objects wrapped in deterministic sentence
    /// templates.
    pub fn generate<R: Rng + ?Sized>(config: &WorldConfig, rng: &mut R) -> Self {
        let objects = BaseWorld::generate(config, rng);
        let secrets: Vec<Label> = (0..config.stimuli)
            .map(|i| Label::new(&format!("secret{i}")))
            .collect();
        let facts = objects
            .truths
            .iter()
            .map(|truth| {
                let pairs: Vec<(Label, f64)> = truth
                    .labels()
                    .iter()
                    .map(|obj| {
                        let relation = Relation::ALL[rng.gen_range(0..Relation::ALL.len())];
                        (fact_label(relation, obj), truth.pmf_of(obj))
                    })
                    .collect();
                LabelDistribution::new(pairs).expect("truth weights are valid") // hc-analyze: allow(P1): pmf values are valid non-negative weights
            })
            .collect();
        VerbosityWorld {
            secrets,
            objects,
            facts,
        }
    }

    /// Number of secrets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.secrets.len()
    }

    /// `true` when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.secrets.is_empty()
    }

    /// Registers every secret as a platform task.
    pub fn register_tasks(&self, platform: &mut Platform) -> Vec<TaskId> {
        (0..self.secrets.len())
            .map(|i| platform.add_task(Stimulus::TextSnippet(format!("secret-{i}"))))
            .collect()
    }

    /// The secret behind a task.
    #[must_use]
    pub fn secret_for_task(&self, task: TaskId) -> Option<&Label> {
        self.secrets.get(task.raw() as usize)
    }

    /// The true typed facts a narrator can state about a task's secret.
    #[must_use]
    pub fn facts_for_task(&self, task: TaskId) -> Option<&LabelDistribution> {
        self.facts.get(task.raw() as usize)
    }

    /// Whether `(secret, clue)` is a true fact in this world.
    #[must_use]
    pub fn is_true_fact(&self, task: TaskId, clue: &Label) -> bool {
        self.facts_for_task(task).is_some_and(|f| f.contains(clue))
    }

    /// What a round on `task` needs: its secret and the true facts a
    /// narrator can state about it.
    pub(crate) fn round_truth(&self, task: TaskId) -> Option<(Label, &LabelDistribution)> {
        Some((
            self.secret_for_task(task)?.clone(),
            self.facts_for_task(task)?,
        ))
    }

    /// Precision of the platform's verified facts against this world.
    /// Returns `(correct, total)`.
    #[must_use]
    pub(crate) fn verified_precision(&self, platform: &Platform) -> (usize, usize) {
        let verified = platform.verified_labels();
        let correct = verified
            .iter()
            .filter(|v| self.is_true_fact(v.task, &v.label))
            .count();
        (correct, verified.len())
    }

    /// The shared vocabulary.
    #[must_use]
    pub fn vocabulary(&self) -> &hc_crowd::Vocabulary {
        &self.objects.vocabulary
    }

    /// The guesser's candidate distribution after `hints_seen` true hints:
    /// the secret's weight grows `1 - decay^hints`, the rest is spread
    /// over `n_distractors` random-but-fixed distractor words.
    #[must_use]
    pub fn guess_candidates(
        &self,
        task: TaskId,
        hints_seen: usize,
        n_distractors: usize,
    ) -> Option<LabelDistribution> {
        let secret = self.secret_for_task(task)?;
        let p_secret = 1.0 - 0.45_f64.powi(hints_seen as i32);
        let p_secret = p_secret.clamp(0.02, 0.98);
        let mut pairs = vec![(secret.clone(), p_secret)];
        let n = n_distractors.max(1);
        for d in 0..n {
            // Deterministic distractors per task keep candidates stable.
            pairs.push((
                Label::new(&format!("distract{}x{d}", task.raw())),
                (1.0 - p_secret) / n as f64,
            ));
        }
        LabelDistribution::new(pairs).ok()
    }
}

/// Drives one Verbosity session: the *left* player narrates, the *right*
/// player guesses (callers alternate roles between sessions, as the
/// deployed game alternates between rounds).
pub fn play_verbosity_session<R: Rng + ?Sized>(
    platform: &mut Platform,
    world: &VerbosityWorld,
    population: &mut Population,
    params: SessionParams,
    rng: &mut R,
) -> SessionTranscript {
    let session = params.open(platform.config().session);
    let (pn, pg) = population
        .get_pair_mut(params.left(), params.right())
        .expect("players exist and are distinct"); // hc-analyze: allow(P1): callers pass two distinct registered ids
    let table = Table::new(world, session, [pn, pg], platform.score_rule());
    let mut source = RoundSource::platform(platform, &params.seats, false);
    let transcript = play_session(
        table,
        &mut source,
        rng,
        VerbosityWorld::round_truth,
        verbosity_round,
    );
    platform.record_session(&transcript);
    session_span("verbosity.session", &transcript);
    transcript
}

/// One inversion-problem round, the left seat narrating: the Verbosity
/// round engine of serial and sharded sessions. The narrator sends up to
/// [`MAX_HINTS`] hints, each followed by [`GUESSES_PER_HINT`] guesses
/// informed by the hints so far; a correct guess certifies every hint as
/// a fact.
pub(crate) fn verbosity_round<R: Rng + ?Sized>(
    table: &mut Table<'_, VerbosityWorld, [&mut PlayerProfile; 2]>,
    planned: PlannedRound,
    (secret, facts): (Label, &LabelDistribution),
    now: SimTime,
    rng: &mut R,
) -> Round {
    let task = planned.task;
    let limit = table.time_limit();
    let mut round = InversionRound::new(task, secret, limit);
    let deadline = now + limit;
    let world = table.world;
    let [pn, pg] = &mut table.profiles;
    let empty_taboo = TabooList::new();
    let mut cursor = now;
    let mut hints_sent = 0usize;
    let mut end = deadline;
    let mut matched = false;

    'round: while hints_sent < MAX_HINTS {
        // Narrator sends one hint.
        let hint = pn
            .behavior
            .next_answer(facts, world.vocabulary(), &empty_taboo, rng);
        cursor += pn.response.sample(hint.as_text(), rng);
        if cursor > deadline {
            break 'round;
        }
        match round.submit(Seat::Left, hint, cursor) {
            SubmitOutcome::BothPassed => {
                end = cursor;
                break 'round;
            }
            SubmitOutcome::RoundOver => {
                break 'round;
            }
            _ => {}
        }
        hints_sent += 1;

        // Guesser responds with a few attempts informed by the hints.
        let Some(candidates) = world.guess_candidates(task, hints_sent, 8) else {
            break 'round;
        };
        for _ in 0..GUESSES_PER_HINT {
            let guess = pg
                .behavior
                .guess(&candidates, world.vocabulary(), pg.skill, rng);
            cursor += pg.response.sample(guess.as_text(), rng);
            if cursor > deadline {
                break 'round;
            }
            match round.submit(Seat::Right, guess, cursor) {
                SubmitOutcome::Matched(_) => {
                    matched = true;
                    end = cursor;
                    break 'round;
                }
                SubmitOutcome::BothPassed => {
                    end = cursor;
                    break 'round;
                }
                SubmitOutcome::RoundOver => {
                    break 'round;
                }
                _ => {}
            }
        }
    }

    let end = end.min(deadline);
    let result = round.finish(end);
    let facts_out = result.validated_facts();
    let candidate_outputs = facts_out.len() as u32;
    let [narrator, guesser] = table.seats();
    let agreements = facts_out
        .into_iter()
        .map(|(_, clue)| (clue, narrator, guesser))
        .collect();
    let duration = result.duration;
    let points = table.score(matched, duration);
    (
        RoundRecord {
            template: TemplateKind::InversionProblem,
            task,
            matched,
            candidate_outputs,
            duration,
            points,
        },
        PlayedRound {
            task,
            agreements,
            recording: None,
        },
        end,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_crowd::{ArchetypeMix, PopulationBuilder};
    use rand::SeedableRng;

    fn setup(skill: f64) -> (Platform, VerbosityWorld, Population, rand::rngs::StdRng) {
        let mut r = rand::rngs::StdRng::seed_from_u64(707);
        let world = VerbosityWorld::generate(&WorldConfig::small(), &mut r);
        let mut platform = Platform::new(PlatformConfig {
            gold_injection_rate: 0.0,
            ..PlatformConfig::default()
        })
        .unwrap();
        world.register_tasks(&mut platform);
        let pop = PopulationBuilder::new(2)
            .mix(ArchetypeMix::all_honest())
            .skill_range(skill, skill + 0.01)
            .build(&mut r);
        platform.register_player();
        platform.register_player();
        (platform, world, pop, r)
    }

    #[test]
    fn skilled_guessers_recover_secrets_and_validate_facts() {
        let (mut platform, world, mut pop, mut r) = setup(0.85);
        let t = play_verbosity_session(
            &mut platform,
            &world,
            &mut pop,
            SessionParams::pair(
                PlayerId::new(0),
                PlayerId::new(1),
                SessionId::new(0),
                SimTime::ZERO,
            ),
            &mut r,
        );
        assert!(t.rounds() > 0);
        assert!(t.match_rate() > 0.4, "match rate {}", t.match_rate());
        let verified = platform.verified_labels();
        assert!(!verified.is_empty(), "no facts validated");
        // Honest narrators only state true facts.
        let correct = verified
            .iter()
            .filter(|v| world.is_true_fact(v.task, &v.label))
            .count();
        assert_eq!(correct, verified.len());
    }

    #[test]
    fn unskilled_guessers_do_worse() {
        let run = |skill: f64| {
            let (mut platform, world, mut pop, mut r) = setup(skill);
            let mut matched = 0;
            let mut rounds = 0;
            for s in 0..6 {
                let t = play_verbosity_session(
                    &mut platform,
                    &world,
                    &mut pop,
                    SessionParams::pair(
                        PlayerId::new(0),
                        PlayerId::new(1),
                        SessionId::new(s),
                        SimTime::from_secs(s * 1000),
                    ),
                    &mut r,
                );
                matched += t.matched_count();
                rounds += t.rounds();
            }
            matched as f64 / rounds.max(1) as f64
        };
        let high = run(0.95);
        let low = run(0.15);
        assert!(high > low, "skill must help: high {high} low {low}");
    }

    #[test]
    fn candidate_distribution_sharpens_with_hints() {
        let mut r = rand::rngs::StdRng::seed_from_u64(3);
        let world = VerbosityWorld::generate(&WorldConfig::small(), &mut r);
        let task = TaskId::new(0);
        let secret = world.secret_for_task(task).unwrap().clone();
        let p1 = world.guess_candidates(task, 1, 8).unwrap().pmf_of(&secret);
        let p4 = world.guess_candidates(task, 4, 8).unwrap().pmf_of(&secret);
        assert!(p4 > p1, "more hints must concentrate mass: {p1} -> {p4}");
        assert!(p1 > 0.0 && p4 < 1.0);
        assert!(world.guess_candidates(TaskId::new(9999), 1, 8).is_none());
    }

    #[test]
    fn secrets_never_leak_into_validated_facts() {
        let (mut platform, world, mut pop, mut r) = setup(0.9);
        for s in 0..4 {
            play_verbosity_session(
                &mut platform,
                &world,
                &mut pop,
                SessionParams::pair(
                    PlayerId::new(0),
                    PlayerId::new(1),
                    SessionId::new(s),
                    SimTime::from_secs(s * 1000),
                ),
                &mut r,
            );
        }
        for v in platform.verified_labels() {
            let secret = world.secret_for_task(v.task).unwrap();
            assert_ne!(&v.label, secret, "secret leaked as its own fact");
        }
    }

    #[test]
    fn world_accessors() {
        let mut r = rand::rngs::StdRng::seed_from_u64(4);
        let world = VerbosityWorld::generate(&WorldConfig::small(), &mut r);
        assert_eq!(world.len(), 50);
        assert!(!world.is_empty());
        assert!(world.secret_for_task(TaskId::new(0)).is_some());
        assert!(world.secret_for_task(TaskId::new(999)).is_none());
        assert!(world.facts_for_task(TaskId::new(0)).is_some());
    }

    #[test]
    fn fact_labels_round_trip_through_parsing() {
        for relation in Relation::ALL {
            let obj = Label::new("warm milk");
            let fact = fact_label(relation, &obj);
            let (r, o) = parse_fact(&fact).expect("parses");
            assert_eq!(r, relation);
            assert_eq!(o, obj);
            assert!(!relation.template().is_empty());
        }
        assert_eq!(Relation::from_token("kindof"), Some(Relation::KindOf));
        assert_eq!(Relation::from_token("nonsense"), None);
        assert_eq!(parse_fact(&Label::new("freeform clue words")), None);
        assert_eq!(parse_fact(&Label::new("kindof")), None);
    }

    #[test]
    fn world_facts_are_all_typed_and_parseable() {
        let mut r = rand::rngs::StdRng::seed_from_u64(5);
        let world = VerbosityWorld::generate(&WorldConfig::small(), &mut r);
        for i in 0..world.len() {
            let facts = world.facts_for_task(TaskId::new(i as u64)).unwrap();
            for clue in facts.labels() {
                let (_, obj) =
                    parse_fact(clue).unwrap_or_else(|| panic!("untyped world fact {clue}"));
                assert!(!obj.is_empty());
            }
        }
    }

    #[test]
    fn validated_facts_stay_typed_through_the_pipeline() {
        let (mut platform, world, mut pop, mut r) = setup(0.9);
        for s in 0..4 {
            play_verbosity_session(
                &mut platform,
                &world,
                &mut pop,
                SessionParams::pair(
                    PlayerId::new(0),
                    PlayerId::new(1),
                    SessionId::new(s),
                    SimTime::from_secs(s * 1000),
                ),
                &mut r,
            );
        }
        let verified = platform.verified_labels();
        assert!(!verified.is_empty());
        // Honest narrators emit template clues, so every verified fact
        // parses back into (relation, object).
        for v in verified {
            assert!(
                parse_fact(&v.label).is_some(),
                "verified fact lost its template: {}",
                v.label
            );
        }
    }
}
