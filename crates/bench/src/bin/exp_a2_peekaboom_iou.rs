//! Ablation A2 — Peekaboom localization quality vs Boom skill.
//!
//! Peekaboom's product is object *locations*: the union of reveals that
//! let Peek guess the word. Location quality (IoU against the true box)
//! depends on how precisely Boom clicks — this ablation sweeps Boom's
//! skill and reports localization IoU, guess success, and reveals needed,
//! regenerating the quality/efficiency trade the deployed game tuned its
//! reveal-size around.

use hc_bench::{f1, f3, seed_from_args, Table};
use hc_core::prelude::*;
use hc_crowd::{ArchetypeMix, PopulationBuilder};
use hc_games::{peekaboom::play_peekaboom_session, PeekaboomWorld, SessionParams, WorldConfig};
use hc_sim::RngFactory;
use serde::Serialize;

const SESSIONS: u64 = 40;

#[derive(Serialize)]
struct Row {
    boom_skill: f64,
    mean_iou: f64,
    localizations: usize,
    match_rate: f64,
    secs_per_round: f64,
}

fn main() {
    let seed = seed_from_args();
    let factory = RngFactory::new(seed);
    let mut table = Table::new(
        "A2 — Peekaboom localization IoU vs Boom skill",
        &[
            "boom skill",
            "mean IoU",
            "localized",
            "match rate",
            "secs/round",
        ],
    );

    for (si, skill) in [0.1f64, 0.3, 0.5, 0.7, 0.9].iter().enumerate() {
        let mut rng = factory.indexed_stream("a2", si as u64);
        let mut cfg = WorldConfig::standard();
        cfg.stimuli = 1_000;
        let world = PeekaboomWorld::generate(&cfg, &mut rng);
        let mut platform = Platform::new(PlatformConfig {
            gold_injection_rate: 0.0,
            ..PlatformConfig::default()
        })
        .expect("valid config");
        world.register_tasks(&mut platform);
        let mut pop = PopulationBuilder::new(2)
            .mix(ArchetypeMix::all_honest())
            .skill_range(*skill, (*skill + 0.01).min(1.0))
            .build(&mut rng);
        platform.register_player();
        platform.register_player();

        let mut ious = Vec::new();
        let mut matched = 0usize;
        let mut rounds = 0usize;
        let mut secs = 0.0;
        for s in 0..SESSIONS {
            let (t, out) = play_peekaboom_session(
                &mut platform,
                &world,
                &mut pop,
                SessionParams::pair(
                    PlayerId::new(0),
                    PlayerId::new(1),
                    SessionId::new(s),
                    SimTime::from_secs(s * 1_000),
                ),
                &mut rng,
            );
            matched += t.matched_count();
            rounds += t.rounds();
            secs += t.duration().as_secs_f64();
            ious.extend(out.locations.iter().map(|(_, _, iou)| *iou));
        }
        let mean_iou = if ious.is_empty() {
            0.0
        } else {
            ious.iter().sum::<f64>() / ious.len() as f64
        };
        let row = Row {
            boom_skill: *skill,
            mean_iou,
            localizations: ious.len(),
            match_rate: matched as f64 / rounds.max(1) as f64,
            secs_per_round: secs / rounds.max(1) as f64,
        };
        table.row(
            &[
                f1(*skill),
                f3(mean_iou),
                ious.len().to_string(),
                f3(row.match_rate),
                f1(row.secs_per_round),
            ],
            &row,
        );
    }
    table.print();
    println!("\nexpected shape: localization IoU and guess success both rise with Boom's skill — precise reveals both locate the object better AND let Peek guess faster");
}
