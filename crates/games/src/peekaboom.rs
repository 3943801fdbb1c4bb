//! Peekaboom — inversion-problem object location.
//!
//! "Boom" sees an image and a word (e.g. an ESP-verified label) and
//! reveals small circular-ish patches of the image; "Peek" sees only the
//! revealed patches and must guess the word. A correct guess proves the
//! revealed area depicts the object, so the union of reveals localizes it
//! — the output the deployed game shipped to vision researchers. Quality
//! is scored as intersection-over-union between the revealed union and
//! the true object box.

use crate::params::SessionParams;
use crate::round::{play_session, PlayedRound, RoundSource, Table};
use crate::world::WorldConfig;
use hc_core::prelude::*;
use hc_crowd::{LabelDistribution, Population, Vocabulary};
use rand::Rng;

/// Canvas size reveals live on.
pub const CANVAS_W: u32 = 640;
/// Canvas height.
pub const CANVAS_H: u32 = 480;

/// Reveal patch edge length.
const PATCH: u32 = 80;

/// Maximum reveals per round.
const MAX_REVEALS: usize = 8;

/// Guesses per reveal.
const GUESSES_PER_REVEAL: usize = 2;

/// One Peekaboom stimulus: an object with a name and a true bounding box.
#[derive(Debug, Clone, PartialEq)]
pub struct BoomObject {
    /// The word Peek must guess.
    pub word: Label,
    /// Ground-truth object box.
    pub bbox: Region,
}

/// The Peekaboom world.
#[derive(Debug, Clone)]
pub struct PeekaboomWorld {
    objects: Vec<BoomObject>,
    vocabulary: Vocabulary,
}

impl PeekaboomWorld {
    /// Generates `config.stimuli` objects with random boxes on the canvas.
    pub fn generate<R: Rng + ?Sized>(config: &WorldConfig, rng: &mut R) -> Self {
        let vocabulary = Vocabulary::new(config.vocabulary, config.zipf_exponent);
        let objects = (0..config.stimuli)
            .map(|_| {
                let w = rng.gen_range(60..240u32);
                let h = rng.gen_range(60..200u32);
                let x = rng.gen_range(0..CANVAS_W - w);
                let y = rng.gen_range(0..CANVAS_H - h);
                BoomObject {
                    word: vocabulary.sample(rng),
                    bbox: Region::new(x, y, w, h),
                }
            })
            .collect();
        PeekaboomWorld {
            objects,
            vocabulary,
        }
    }

    /// Number of objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// `true` when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Registers every object as a platform task.
    pub fn register_tasks(&self, platform: &mut Platform) -> Vec<TaskId> {
        (0..self.objects.len())
            .map(|i| platform.add_task(Stimulus::Image(i as u64)))
            .collect()
    }

    /// The object behind a task.
    #[must_use]
    pub fn object_for_task(&self, task: TaskId) -> Option<&BoomObject> {
        self.objects.get(task.raw() as usize)
    }

    /// The shared vocabulary.
    #[must_use]
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocabulary
    }

    /// Samples a reveal patch roughly centred on the object (Boom knows
    /// where it is) with jitter scaled by `(1 - skill)`.
    pub fn sample_reveal<R: Rng + ?Sized>(
        &self,
        object: &BoomObject,
        skill: f64,
        rng: &mut R,
    ) -> Region {
        let cx = object.bbox.x + object.bbox.w / 2;
        let cy = object.bbox.y + object.bbox.h / 2;
        let spread = (1.0 - skill.clamp(0.0, 1.0)) * 150.0 + 20.0;
        let jx = (hc_sim::dist::standard_normal(rng) * spread) as i64;
        let jy = (hc_sim::dist::standard_normal(rng) * spread) as i64;
        let x = (i64::from(cx) + jx - i64::from(PATCH / 2)).clamp(0, i64::from(CANVAS_W - PATCH))
            as u32;
        let y = (i64::from(cy) + jy - i64::from(PATCH / 2)).clamp(0, i64::from(CANVAS_H - PATCH))
            as u32;
        Region::new(x, y, PATCH, PATCH)
    }

    /// How much of the object the reveals have uncovered, in `[0, 1]`
    /// (sum of per-reveal intersections over the object area, capped —
    /// a cheap, monotone coverage proxy).
    #[must_use]
    pub fn coverage(object: &BoomObject, reveals: &[Region]) -> f64 {
        let total: u64 = reveals
            .iter()
            .filter_map(|r| r.intersect(&object.bbox))
            .map(|r| r.area())
            .sum();
        (total as f64 / object.bbox.area().max(1) as f64).min(1.0)
    }
}

/// Outcome of one Peekaboom session beyond the transcript: the localized
/// regions and their IoU against truth.
#[derive(Debug, Clone, Default)]
pub struct PeekaboomOutputs {
    /// `(task, revealed union, IoU vs truth)` per successful round.
    pub locations: Vec<(TaskId, Region, f64)>,
}

impl PeekaboomOutputs {
    /// Mean IoU over successful rounds (0 when none).
    #[must_use]
    pub fn mean_iou(&self) -> f64 {
        if self.locations.is_empty() {
            return 0.0;
        }
        self.locations.iter().map(|(_, _, iou)| iou).sum::<f64>() / self.locations.len() as f64
    }
}

/// Drives one Peekaboom session (left seat = Boom, right = Peek).
pub fn play_peekaboom_session<R: Rng + ?Sized>(
    platform: &mut Platform,
    world: &PeekaboomWorld,
    population: &mut Population,
    params: SessionParams,
    rng: &mut R,
) -> (SessionTranscript, PeekaboomOutputs) {
    let [boom, peek] = params.seats;
    let session = params.open(platform.config().session);
    let (pb, pp) = population
        .get_pair_mut(boom, peek)
        .expect("players exist and are distinct"); // hc-analyze: allow(P1): callers pass two distinct registered ids
    let table = Table::new(world, session, [pb, pp], platform.score_rule());
    let mut outputs = PeekaboomOutputs::default();
    let mut source = RoundSource::platform(platform, &params.seats, false);
    let transcript = play_session(
        table,
        &mut source,
        rng,
        |world, task| world.object_for_task(task).cloned(),
        |table, planned, object, now, rng| {
            let task = planned.task;
            let limit = table.time_limit();
            let mut round = InversionRound::new(task, object.word.clone(), limit);
            let deadline = now + limit;
            let [pb, pp] = &mut table.profiles;
            let mut cursor = now;
            let mut reveals: Vec<Region> = Vec::new();
            let mut end = deadline;
            let mut matched = false;

            'round: for _ in 0..MAX_REVEALS {
                let reveal = world.sample_reveal(&object, pb.skill, rng);
                let latency = pb.response.sample(None, rng);
                cursor += latency;
                if cursor > deadline {
                    break 'round;
                }
                if matches!(
                    round.submit(Seat::Left, Answer::Region(reveal), cursor),
                    SubmitOutcome::RoundOver
                ) {
                    break 'round;
                }
                reveals.push(reveal);

                // Peek's guess quality scales with how much object is visible.
                let coverage = PeekaboomWorld::coverage(&object, &reveals);
                let p_word = (0.05 + 0.9 * coverage).clamp(0.0, 0.98);
                let candidates = LabelDistribution::new(vec![
                    (object.word.clone(), p_word.max(0.01)),
                    (
                        Label::new(&format!("noise{}a", task.raw())),
                        (1.0 - p_word) / 2.0 + 1e-9,
                    ),
                    (
                        Label::new(&format!("noise{}b", task.raw())),
                        (1.0 - p_word) / 2.0 + 1e-9,
                    ),
                ])
                .expect("valid candidate weights"); // hc-analyze: allow(P1): candidate weights are positive by construction
                for _ in 0..GUESSES_PER_REVEAL {
                    let guess = pp
                        .behavior
                        .guess(&candidates, world.vocabulary(), pp.skill, rng);
                    cursor += pp.response.sample(guess.as_text(), rng);
                    if cursor > deadline {
                        break 'round;
                    }
                    match round.submit(Seat::Right, guess, cursor) {
                        SubmitOutcome::Matched(_) => {
                            matched = true;
                            end = cursor;
                            break 'round;
                        }
                        SubmitOutcome::RoundOver => break 'round,
                        _ => {}
                    }
                }
            }

            let result = round.finish(end.min(deadline));
            let mut agreements = Vec::new();
            if let Some(region) = result.revealed_region() {
                let iou = region.iou(&object.bbox);
                outputs.locations.push((task, region, iou));
                // The localized word is a verified association for the image.
                agreements.push((object.word, boom, peek));
            }
            let duration = result.duration;
            let points = table.score(matched, duration);
            let record = RoundRecord {
                template: TemplateKind::InversionProblem,
                task,
                matched,
                candidate_outputs: u32::from(matched),
                duration,
                points,
            };
            let effects = PlayedRound {
                task,
                agreements,
                recording: None,
            };
            (record, effects, end.min(deadline))
        },
    );
    platform.record_session(&transcript);
    (transcript, outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_crowd::{ArchetypeMix, PopulationBuilder};
    use rand::SeedableRng;

    fn setup(skill: f64) -> (Platform, PeekaboomWorld, Population, rand::rngs::StdRng) {
        let mut r = rand::rngs::StdRng::seed_from_u64(808);
        let world = PeekaboomWorld::generate(&WorldConfig::small(), &mut r);
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
    fn skilled_pairs_localize_objects() {
        let (mut platform, world, mut pop, mut r) = setup(0.9);
        let (t, out) = play_peekaboom_session(
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
        assert!(!out.locations.is_empty(), "no objects localized");
        assert!(out.mean_iou() > 0.1, "mean IoU {}", out.mean_iou());
        for (_, region, iou) in &out.locations {
            assert!(region.area() > 0);
            assert!((0.0..=1.0).contains(iou));
        }
    }

    #[test]
    fn reveals_concentrate_on_the_object_with_skill() {
        let mut r = rand::rngs::StdRng::seed_from_u64(2);
        let world = PeekaboomWorld::generate(&WorldConfig::small(), &mut r);
        let object = world.object_for_task(TaskId::new(0)).unwrap();
        let hits = |skill: f64, r: &mut rand::rngs::StdRng| {
            (0..300)
                .filter(|_| {
                    world
                        .sample_reveal(object, skill, r)
                        .intersect(&object.bbox)
                        .is_some()
                })
                .count()
        };
        let skilled = hits(0.95, &mut r);
        let clumsy = hits(0.0, &mut r);
        assert!(skilled > clumsy, "skilled {skilled} clumsy {clumsy}");
    }

    #[test]
    fn coverage_is_monotone_and_bounded() {
        let object = BoomObject {
            word: Label::new("car"),
            bbox: Region::new(100, 100, 100, 100),
        };
        let r1 = Region::new(100, 100, 50, 100);
        let r2 = Region::new(150, 100, 50, 100);
        let c1 = PeekaboomWorld::coverage(&object, &[r1]);
        let c2 = PeekaboomWorld::coverage(&object, &[r1, r2]);
        assert!((c1 - 0.5).abs() < 1e-12);
        assert!((c2 - 1.0).abs() < 1e-12);
        assert!(c2 >= c1);
        let far = Region::new(500, 400, 50, 50);
        assert_eq!(PeekaboomWorld::coverage(&object, &[far]), 0.0);
    }

    #[test]
    fn reveals_stay_on_canvas() {
        let mut r = rand::rngs::StdRng::seed_from_u64(5);
        let world = PeekaboomWorld::generate(&WorldConfig::small(), &mut r);
        let object = world.object_for_task(TaskId::new(1)).unwrap();
        for _ in 0..500 {
            let patch = world.sample_reveal(object, 0.0, &mut r);
            assert!(patch.x + patch.w <= CANVAS_W);
            assert!(patch.y + patch.h <= CANVAS_H);
        }
    }

    #[test]
    fn world_accessors() {
        let mut r = rand::rngs::StdRng::seed_from_u64(6);
        let world = PeekaboomWorld::generate(&WorldConfig::small(), &mut r);
        assert_eq!(world.len(), 50);
        assert!(!world.is_empty());
        assert!(world.object_for_task(TaskId::new(0)).is_some());
        assert!(world.object_for_task(TaskId::new(999)).is_none());
        let empty = PeekaboomOutputs::default();
        assert_eq!(empty.mean_iou(), 0.0);
    }
}
