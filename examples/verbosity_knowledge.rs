//! Harvesting commonsense facts with Verbosity.
//!
//! Runs inversion-problem sessions where narrators describe secret words
//! and guessers reconstruct them; every hint that enabled a correct guess
//! becomes a `(secret, fact)` pair — the commonsense knowledge base the
//! deployed Verbosity built.
//!
//! ```text
//! cargo run --release --example verbosity_knowledge
//! ```

use human_computation::prelude::*;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1979);
    let mut cfg = WorldConfig::standard();
    cfg.stimuli = 500;
    let world = VerbosityWorld::generate(&cfg, &mut rng);

    let mut platform = Platform::new(PlatformConfig {
        gold_injection_rate: 0.0,
        ..PlatformConfig::default()
    })
    .expect("valid config");
    world.register_tasks(&mut platform);

    const PLAYERS: usize = 20;
    let mut population = PopulationBuilder::new(PLAYERS)
        .mix(ArchetypeMix::realistic())
        .skill_range(0.7, 0.95)
        .build(&mut rng);
    for _ in 0..PLAYERS {
        platform.register_player();
    }

    // Alternate narrator/guesser roles across sessions, as the deployed
    // game alternated within a session.
    let mut matched = 0usize;
    let mut rounds = 0usize;
    for s in 0..60u64 {
        let a = PlayerId::new((2 * s) % PLAYERS as u64);
        let mut b = PlayerId::new((2 * s + 1 + s / PLAYERS as u64) % PLAYERS as u64);
        if a == b {
            b = PlayerId::new((b.raw() + 1) % PLAYERS as u64);
        }
        let (narrator, guesser) = if s % 2 == 0 { (a, b) } else { (b, a) };
        let t = play_verbosity_session(
            &mut platform,
            &world,
            &mut population,
            SessionParams::pair(
                narrator,
                guesser,
                SessionId::new(s),
                SimTime::from_secs(s * 1_000),
            ),
            &mut rng,
        );
        matched += t.matched_count();
        rounds += t.rounds();
    }

    println!(
        "played {rounds} rounds; guessers recovered the secret in {matched} ({:.1}%)",
        matched as f64 / rounds.max(1) as f64 * 100.0
    );

    let facts = platform.verified_labels();
    let correct = facts
        .iter()
        .filter(|v| world.is_true_fact(v.task, &v.label))
        .count();
    println!(
        "knowledge base: {} facts collected, {:.1}% verifiably true",
        facts.len(),
        correct as f64 / facts.len().max(1) as f64 * 100.0
    );

    println!("\nsample facts (typed, via the game's sentence templates):");
    for v in facts.iter().take(10) {
        let secret = world.secret_for_task(v.task).expect("registered task");
        match human_computation::games::verbosity::parse_fact(&v.label) {
            Some((relation, object)) => println!(
                "  {secret} —{}→ {object}   ({})",
                relation.token(),
                relation.template()
            ),
            None => println!("  {secret} -> \"{}\" (free-form)", v.label.as_str()),
        }
    }

    // Relation mix of the harvested knowledge base.
    let mut by_relation = std::collections::HashMap::new();
    for v in facts {
        if let Some((r, _)) = human_computation::games::verbosity::parse_fact(&v.label) {
            *by_relation.entry(r.token()).or_insert(0usize) += 1;
        }
    }
    println!("\nfacts per template: {by_relation:?}");

    println!("\nGWAP metrics: {}", platform.metrics());
}
