//! Experiment F8 — input-agreement robustness vs clip confusability.
//!
//! TagATune's verdict mechanism only verifies tags when players can tell
//! same from different through descriptions alone. As clips become more
//! confusable (shared vocabulary concepts), wrong "same" verdicts rise
//! and the validated-tag yield falls — the input-agreement analogue of
//! ESP's taboo saturation. We sweep the world's vocabulary size (smaller
//! vocabulary ⇒ more support overlap between random clips) and report
//! verdict success and tag yield.

use hc_bench::{f1, f3, seed_from_args, Table};
use hc_core::prelude::*;
use hc_crowd::{ArchetypeMix, PopulationBuilder};
use hc_games::{tagatune::play_tagatune_session, SessionParams, TagATuneWorld, WorldConfig};
use hc_sim::RngFactory;
use serde::Serialize;

const PLAYERS: usize = 20;
const SESSIONS: u64 = 120;

#[derive(Serialize)]
struct Row {
    vocabulary: usize,
    mean_overlap: f64,
    verdict_success: f64,
    tags_per_session: f64,
    tag_precision: f64,
}

fn main() {
    let seed = seed_from_args();
    let factory = RngFactory::new(seed);
    let mut table = Table::new(
        "F8 — TagATune verdict success vs clip confusability",
        &[
            "vocab",
            "overlap",
            "verdict ok",
            "tags/session",
            "tag precision",
        ],
    );

    for vocab in [30usize, 100, 400, 2_000] {
        let mut rng = factory.indexed_stream("f8", vocab as u64);
        let mut cfg = WorldConfig::standard();
        cfg.stimuli = 300;
        cfg.vocabulary = vocab;
        let world = TagATuneWorld::generate(&cfg, &mut rng);

        // Mean pairwise support overlap over a sample of clip pairs.
        let mean_overlap = {
            let mut total = 0.0;
            let n = 300;
            for i in 0..n {
                let a = world.truth_for_task(TaskId::new(i % 300)).unwrap();
                let b = world
                    .truth_for_task(TaskId::new((i * 7 + 13) % 300))
                    .unwrap();
                total += a.support_overlap(b);
            }
            total / n as f64
        };

        let mut platform = Platform::new(PlatformConfig {
            gold_injection_rate: 0.0,
            ..PlatformConfig::default()
        })
        .expect("valid config");
        world.register_tasks(&mut platform);
        let mut pop = PopulationBuilder::new(PLAYERS)
            .mix(ArchetypeMix::all_honest())
            .skill_range(0.85, 0.95)
            .build(&mut rng);
        for _ in 0..PLAYERS {
            platform.register_player();
        }
        let mut matched = 0usize;
        let mut rounds = 0usize;
        for s in 0..SESSIONS {
            let a = PlayerId::new((2 * s) % PLAYERS as u64);
            let mut b = PlayerId::new((2 * s + 1 + s / PLAYERS as u64) % PLAYERS as u64);
            if a == b {
                b = PlayerId::new((b.raw() + 1) % PLAYERS as u64);
            }
            let t = play_tagatune_session(
                &mut platform,
                &world,
                &mut pop,
                SessionParams::pair(a, b, SessionId::new(s), SimTime::from_secs(s * 1_000)),
                0.5,
                &mut rng,
            );
            matched += t.matched_count();
            rounds += t.rounds();
        }
        let verified = platform.verified_labels();
        let correct = verified
            .iter()
            .filter(|v| world.is_correct(v.task, &v.label))
            .count();
        let row = Row {
            vocabulary: vocab,
            mean_overlap,
            verdict_success: matched as f64 / rounds.max(1) as f64,
            tags_per_session: verified.len() as f64 / SESSIONS as f64,
            tag_precision: if verified.is_empty() {
                1.0
            } else {
                correct as f64 / verified.len() as f64
            },
        };
        table.row(
            &[
                vocab.to_string(),
                f3(mean_overlap),
                f3(row.verdict_success),
                f1(row.tags_per_session),
                f3(row.tag_precision),
            ],
            &row,
        );
    }
    table.print();
    println!("\nexpected shape: verdict success and tag yield rise as the vocabulary grows (clips become distinguishable)");
}
