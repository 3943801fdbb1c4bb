//! Regression: the `hc-obs` counters the [`ContributionLedger`] and the
//! [`Matchmaker`] mirror into a trace must equal their own totals exactly,
//! so `hc-bench trace summary` can report throughput, ALP and the replay
//! share live without re-running the experiment.

use hc_core::{ContributionLedger, Matchmaker, MatchmakerConfig, PlayerId};
use hc_obs::RecordData;
use hc_sim::{SimDuration, SimTime};
use rand::SeedableRng;

#[test]
fn ledger_totals_equal_trace_counters() {
    let mut expected_play_ticks = 0u64;
    let (ledger, trace) = hc_obs::record_scope(0, || {
        let mut ledger = ContributionLedger::new();
        for i in 0..10u64 {
            let time = SimDuration::from_mins(10 + i);
            expected_play_ticks += time.ticks();
            ledger.record_play(PlayerId::new(i % 4), time);
        }
        ledger.record_outputs(123);
        ledger.record_outputs(77);
        ledger
    });
    assert_eq!(
        trace.metrics.counter("metrics.outputs"),
        ledger.total_outputs()
    );
    assert_eq!(
        trace.metrics.counter("metrics.players"),
        ledger.player_count()
    );
    assert_eq!(
        trace.metrics.counter("metrics.play_us"),
        expected_play_ticks
    );
    // Human-hours derived from the counter match the ledger's own sum.
    let hours_from_counter = trace.metrics.counter("metrics.play_us") as f64 / 3_600_000_000.0;
    assert!((hours_from_counter - ledger.total_human_hours()).abs() < 1e-9);
}

#[test]
fn no_counters_without_a_recording_scope() {
    // Emitting outside a scope is a no-op; a later scope must start empty.
    let mut outside = ContributionLedger::new();
    outside.record_play(PlayerId::new(9), SimDuration::from_mins(5));
    outside.record_outputs(42);
    let (_, trace) = hc_obs::record_scope(0, || {});
    assert_eq!(trace.metrics.counter("metrics.outputs"), 0);
    assert_eq!(trace.metrics.counter("metrics.play_us"), 0);
    assert!(trace.records.is_empty());
}

#[test]
fn pairing_telemetry_is_emitted_once_per_outcome() {
    let (mm, trace) = hc_obs::record_scope(0, || {
        let mut mm = Matchmaker::new(MatchmakerConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        // Bursts of quick arrivals pair live; the long gaps between bursts
        // strand a waiter past the fallback threshold.
        let mut now = SimTime::ZERO;
        for i in 0..60u64 {
            now += SimDuration::from_secs(if i % 3 == 0 { 15 } else { 2 });
            mm.take_timed_out(now);
            mm.on_arrival(now, PlayerId::new(i % 9), &mut rng);
        }
        mm.take_timed_out(SimTime::from_secs(1_000));
        mm
    });
    let stats = mm.pool().stats();
    assert!(stats.live_pairs > 0 && stats.replay_pairs > 0, "{stats:?}");
    assert_eq!(trace.metrics.counter("core.pairs_live"), stats.live_pairs);
    assert_eq!(
        trace.metrics.counter("core.pairs_replay"),
        stats.replay_pairs
    );
    let waits = trace
        .metrics
        .histogram("core.pair_wait_secs")
        .expect("wait histogram recorded");
    assert_eq!(waits.count, mm.pool().wait_stats().count());
    let events = |wanted: &str| {
        trace
            .records
            .iter()
            .filter(|r| matches!(&r.data, RecordData::Event { name, .. } if name == wanted))
            .count() as u64
    };
    assert_eq!(events("pair"), stats.live_pairs);
    assert_eq!(events("replay_fallback"), stats.replay_pairs);
}
