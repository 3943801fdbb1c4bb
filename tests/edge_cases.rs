//! Edge-case and failure-injection tests: degenerate configurations must
//! degrade gracefully, never panic or hang.

use human_computation::prelude::*;
use rand::SeedableRng;

#[test]
fn campaign_with_zero_horizon_does_nothing() {
    let mut config = EspCampaignConfig::small();
    config.horizon = SimTime::ZERO;
    let mut campaign = EspCampaign::new(config, 1);
    let report = campaign.run();
    assert_eq!(report.live_sessions, 0);
    assert_eq!(report.metrics.total_outputs, 0);
}

#[test]
fn campaign_with_one_player_only_meets_replay_bots() {
    let mut config = EspCampaignConfig::small();
    config.players = 1;
    config.horizon = SimTime::from_secs(1800);
    let mut campaign = EspCampaign::new(config, 2);
    let report = campaign.run();
    assert_eq!(report.live_sessions, 0, "nobody to pair with");
    // With no recordings either, replay sessions still run (seeding mode)
    // but cannot verify anything against a prior human.
    assert_eq!(report.precision.1, 0);
}

#[test]
fn session_with_exhausted_task_queue_ends_cleanly() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut cfg = WorldConfig::small();
    cfg.stimuli = 1; // one image only
    let world = EspWorld::generate(&cfg, &mut rng);
    let mut platform = Platform::new(PlatformConfig {
        gold_injection_rate: 0.0,
        ..PlatformConfig::default()
    })
    .unwrap();
    world.register_tasks(&mut platform);
    let mut pop = PopulationBuilder::new(2)
        .mix(ArchetypeMix::all_honest())
        .build(&mut rng);
    platform.register_player();
    platform.register_player();
    let t = play_esp_session(
        &mut platform,
        &world,
        &mut pop,
        SessionParams::pair(
            PlayerId::new(0),
            PlayerId::new(1),
            SessionId::new(0),
            SimTime::ZERO,
        ),
        &mut rng,
    );
    assert_eq!(t.rounds(), 1, "one task, one round, clean stop");
}

#[test]
fn tiny_session_budgets_are_respected() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let world = EspWorld::generate(&WorldConfig::small(), &mut rng);
    let mut platform = Platform::new(PlatformConfig {
        gold_injection_rate: 0.0,
        session: SessionConfig {
            max_rounds: 1,
            session_time_limit: SimDuration::from_secs(5),
            round_time_limit: SimDuration::from_secs(5),
            ..SessionConfig::default()
        },
        ..PlatformConfig::default()
    })
    .unwrap();
    world.register_tasks(&mut platform);
    let mut pop = PopulationBuilder::new(2)
        .mix(ArchetypeMix::all_honest())
        .build(&mut rng);
    platform.register_player();
    platform.register_player();
    let t = play_esp_session(
        &mut platform,
        &world,
        &mut pop,
        SessionParams::pair(
            PlayerId::new(0),
            PlayerId::new(1),
            SessionId::new(0),
            SimTime::ZERO,
        ),
        &mut rng,
    );
    assert!(t.rounds() <= 1);
}

#[test]
fn completion_threshold_drains_the_world() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut cfg = WorldConfig::small();
    cfg.stimuli = 10;
    let world = EspWorld::generate(&cfg, &mut rng);
    let mut platform = Platform::new(PlatformConfig {
        gold_injection_rate: 0.0,
        task_completion_threshold: 1,
        ..PlatformConfig::default()
    })
    .unwrap();
    world.register_tasks(&mut platform);
    let mut pop = PopulationBuilder::new(2)
        .mix(ArchetypeMix::all_honest())
        .build(&mut rng);
    platform.register_player();
    platform.register_player();
    for s in 0..20u64 {
        play_esp_session(
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
        if platform.tasks().completed_count() == 10 {
            break;
        }
    }
    assert_eq!(platform.tasks().completed_count(), 10, "world should drain");
    // Once drained, sessions end immediately with zero rounds.
    let t = play_esp_session(
        &mut platform,
        &world,
        &mut pop,
        SessionParams::pair(
            PlayerId::new(0),
            PlayerId::new(1),
            SessionId::new(999),
            SimTime::from_secs(10_000_000),
        ),
        &mut rng,
    );
    assert_eq!(t.rounds(), 0);
}

#[test]
fn empty_recaptcha_corpus_is_a_noop_service() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let corpus = ScannedCorpus::generate(0, 0.0, 1.0, &mut rng);
    let mut service = ReCaptcha::new(
        corpus,
        OcrEngine::commercial(),
        ReCaptchaConfig::default(),
        &mut rng,
    );
    assert!(service.issue(&mut rng).is_none());
    let mut pipeline = DigitizationPipeline::new(
        service,
        HumanReader::typical(),
        0.0,
        OcrEngine::commercial(),
    );
    assert_eq!(pipeline.run(1_000, &mut rng), 0);
}

#[test]
fn all_spammer_crowd_verifies_almost_nothing_true() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let world = EspWorld::generate(&WorldConfig::small(), &mut rng);
    let mut platform = Platform::new(PlatformConfig {
        gold_injection_rate: 0.0,
        ..PlatformConfig::default()
    })
    .unwrap();
    world.register_tasks(&mut platform);
    let mix = ArchetypeMix::custom().with(
        Behavior::spammer([Label::new("spam1"), Label::new("spam2")]),
        1.0,
    );
    let mut pop = PopulationBuilder::new(2).mix(mix).build(&mut rng);
    platform.register_player();
    platform.register_player();
    play_esp_session(
        &mut platform,
        &world,
        &mut pop,
        SessionParams::pair(
            PlayerId::new(0),
            PlayerId::new(1),
            SessionId::new(0),
            SimTime::ZERO,
        ),
        &mut rng,
    );
    // Spammers agree with each other constantly — but never truthfully.
    let (correct, total) = world.verified_precision(&platform);
    assert_eq!(correct, 0, "spam labels are never true ({total} verified)");
}

#[test]
fn matchin_with_one_image_cannot_form_pairs() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let mut cfg = WorldConfig::small();
    cfg.stimuli = 1;
    let world = MatchinWorld::generate(&cfg, &mut rng);
    let mut platform = Platform::new(PlatformConfig::default()).unwrap();
    let mut pop = PopulationBuilder::new(2)
        .mix(ArchetypeMix::all_honest())
        .build(&mut rng);
    platform.register_player();
    platform.register_player();
    let mut ranking = BradleyTerryRanking::new(1);
    let t = play_matchin_session(
        &mut platform,
        &world,
        &mut pop,
        SessionParams::pair(
            PlayerId::new(0),
            PlayerId::new(1),
            SessionId::new(0),
            SimTime::ZERO,
        ),
        &mut ranking,
        &mut rng,
    );
    assert_eq!(t.rounds(), 0, "needs >= 2 images");
    assert_eq!(ranking.comparisons(), 0.0);
}

#[test]
fn generic_campaign_with_zero_players_is_empty() {
    use human_computation::games::{Campaign, CampaignConfig, TagATuneDriver};
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let driver = TagATuneDriver::generate(&WorldConfig::small(), 0.5, &mut rng);
    let mut config = CampaignConfig::small();
    config.players = 0;
    let report = Campaign::new(driver, config, 9).run();
    assert_eq!(report.sessions, 0);
    assert_eq!(report.verified, 0);
}
