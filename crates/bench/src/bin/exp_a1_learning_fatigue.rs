//! Ablation A1 — practice and fatigue dynamics.
//!
//! The paper's skill-ladder mechanic exists because players improve with
//! practice; long sittings also fatigue them. This ablation plays a fixed
//! pair through a marathon of Verbosity sessions under three skill
//! models — static, practice-only, practice+fatigue — and tracks the
//! per-session guess success rate, regenerating the learning curve the
//! deployed games' level systems are built around.

use hc_bench::{f3, seed_from_args, Table};
use hc_core::prelude::*;
use hc_crowd::{ArchetypeMix, PopulationBuilder, SkillDynamics, SkillState};
use hc_games::{verbosity::play_verbosity_session, SessionParams, VerbosityWorld, WorldConfig};
use hc_sim::RngFactory;
use serde::Serialize;

const SESSIONS: u64 = 40;
const BASE_SKILL: f64 = 0.45;

#[derive(Serialize)]
struct Row {
    model: String,
    session_block: u64,
    match_rate: f64,
    secs_per_round: f64,
    effective_skill: f64,
}

fn main() {
    let seed = seed_from_args();
    let factory = RngFactory::new(seed);
    let mut table = Table::new(
        "A1 — guess success over a marathon sitting (practice vs fatigue)",
        &[
            "model",
            "sessions",
            "match rate",
            "secs/round",
            "eff. skill",
        ],
    );

    let models: [(&str, SkillDynamics); 3] = [
        ("static", SkillDynamics::none()),
        (
            "practice",
            SkillDynamics {
                learning_gain: 0.6,
                learning_tau_rounds: 120.0,
                fatigue_onset_mins: f64::INFINITY,
                fatigue_slope_per_min: 0.0,
                fatigue_floor: 1.0,
            },
        ),
        (
            "practice+fatigue",
            SkillDynamics {
                learning_gain: 0.6,
                learning_tau_rounds: 120.0,
                fatigue_onset_mins: 45.0,
                fatigue_slope_per_min: 0.01,
                fatigue_floor: 0.4,
            },
        ),
    ];

    for (mi, (name, dynamics)) in models.iter().enumerate() {
        let mut rng = factory.indexed_stream("a1", mi as u64);
        let mut cfg = WorldConfig::standard();
        cfg.stimuli = 1_500;
        let world = VerbosityWorld::generate(&cfg, &mut rng);
        let mut platform = Platform::new(PlatformConfig {
            gold_injection_rate: 0.0,
            ..PlatformConfig::default()
        })
        .expect("valid config");
        world.register_tasks(&mut platform);
        let mut pop = PopulationBuilder::new(2)
            .mix(ArchetypeMix::all_honest())
            .skill_range(BASE_SKILL, BASE_SKILL + 0.01)
            .build(&mut rng);
        platform.register_player();
        platform.register_player();

        // One continuous marathon sitting: fatigue never resets.
        let mut state = SkillState::default();
        let mut block_matched = 0usize;
        let mut block_rounds = 0usize;
        let mut block_secs = 0.0f64;
        let mut clock = SimTime::ZERO;
        for s in 0..SESSIONS {
            // Apply the dynamics to the guesser's skill before the session.
            let effective =
                dynamics.effective_skill(BASE_SKILL, state.lifetime_rounds, state.sitting_minutes);
            pop.get_mut(PlayerId::new(1)).expect("guesser exists").skill = effective;
            let t = play_verbosity_session(
                &mut platform,
                &world,
                &mut pop,
                SessionParams::pair(PlayerId::new(0), PlayerId::new(1), SessionId::new(s), clock),
                &mut rng,
            );
            clock = t.ended + SimDuration::from_secs(5);
            state.advance(t.rounds() as u64, t.duration().as_mins_f64());
            block_matched += t.matched_count();
            block_rounds += t.rounds();
            block_secs += t.duration().as_secs_f64();
            // Report in blocks of 10 sessions.
            if (s + 1) % 10 == 0 {
                let row = Row {
                    model: (*name).to_string(),
                    session_block: s + 1,
                    match_rate: block_matched as f64 / block_rounds.max(1) as f64,
                    secs_per_round: block_secs / block_rounds.max(1) as f64,
                    effective_skill: effective,
                };
                table.row(
                    &[
                        (*name).to_string(),
                        format!("{}-{}", s + 1 - 9, s + 1),
                        f3(row.match_rate),
                        f3(row.secs_per_round),
                        f3(row.effective_skill),
                    ],
                    &row,
                );
                block_matched = 0;
                block_rounds = 0;
                block_secs = 0.0;
            }
        }
    }
    table.print();
    println!("\nexpected shape: skilled guessers answer FASTER — secs/round falls with practice and rises again under fatigue; the static model stays flat");
}
