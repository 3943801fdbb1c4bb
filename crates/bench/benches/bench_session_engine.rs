//! Micro-benchmark: one full ESP session through the round state machine,
//! verification pipeline and platform bookkeeping — the unit of work the
//! campaign simulator repeats hundreds of thousands of times.
//!
//! Both callers of the shared ESP round engine are timed: the serial
//! session (`esp/full_session`, tasks picked from and effects applied to
//! the platform between rounds) and the sharded engine's planned session
//! (`esp/planned_session`, `EspShardGame::play` on a hub-planned
//! `SessionJob`; each iteration clones the planned job, since play
//! consumes it).

use criterion::{criterion_group, criterion_main, Criterion};
use hc_core::prelude::*;
use hc_crowd::{ArchetypeMix, PopulationBuilder};
use hc_games::shard::{EspShardGame, SessionJob, ShardGame};
use hc_games::{esp::play_esp_session, EspWorld, SessionParams, WorldConfig};
use hc_sim::SimRng;
use rand::SeedableRng;
use std::hint::black_box;

fn platform() -> Platform {
    Platform::new(PlatformConfig {
        gold_injection_rate: 0.0,
        ..PlatformConfig::default()
    })
    .unwrap()
}

fn bench_session(c: &mut Criterion) {
    c.bench_function("esp/full_session", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let world = EspWorld::generate(&WorldConfig::small(), &mut rng);
        let mut platform = platform();
        world.register_tasks(&mut platform);
        let mut pop = PopulationBuilder::new(2)
            .mix(ArchetypeMix::all_honest())
            .build(&mut rng);
        platform.register_player();
        platform.register_player();
        let mut sid = 0u64;
        let mut t0 = 0u64;
        b.iter(|| {
            sid += 1;
            t0 += 1_000;
            black_box(play_esp_session(
                &mut platform,
                &world,
                &mut pop,
                SessionParams::pair(
                    PlayerId::new(0),
                    PlayerId::new(1),
                    SessionId::new(sid),
                    SimTime::from_secs(t0),
                ),
                &mut rng,
            ))
        });
    });
}

fn bench_planned_session(c: &mut Criterion) {
    c.bench_function("esp/planned_session", |b| {
        let mut rng = SimRng::seed_from_u64(11);
        let game = EspShardGame::generate(&WorldConfig::small(), &mut rng);
        let mut platform = platform();
        game.register(&mut platform);
        let pop = PopulationBuilder::new(2)
            .mix(ArchetypeMix::all_honest())
            .build(&mut rng);
        platform.register_player();
        platform.register_player();
        let seats = [PlayerId::new(0), PlayerId::new(1)];
        let rounds = game.plan_live(&mut platform, seats, &mut rng);
        let cfg = platform.config().session;
        let rule = platform.score_rule();
        let mut sid = 0u64;
        b.iter(|| {
            sid += 1;
            let mut job = SessionJob {
                sid: SessionId::new(sid),
                start: SimTime::from_secs(sid * 1_000),
                seats,
                solo: false,
                profiles: pop.players().to_vec(),
                rounds: rounds.clone(),
            };
            black_box(game.play(&mut job, cfg, rule, &mut rng))
        });
    });
}

criterion_group!(benches, bench_session, bench_planned_session);
criterion_main!(benches);
