//! The wait pool: random matching with the replay-bot fallback.
//!
//! [`BucketPool`] is the one implementation of the paper's random matching
//! in the tree: an arrival is paired with a uniformly random eligible waiter
//! (one `gen_range` draw; strict rematch avoidance optional), and a waiter
//! who crosses the bot-fallback threshold is swept out for a replay bot.
//! The serial engines reach it through [`Matchmaker`](crate::Matchmaker),
//! a thin hub-side wrapper that adds the pairing telemetry; the sharded
//! engine owns one pool per skill tier.
//!
//! In a sharded run the wait pool is partitioned by a **deterministic skill
//! tier** ([`BucketLayout`], a pure function of the player's profile, never
//! of the shard layout), each bucket is owned by one shard
//! (`bucket % shards`), and pairing runs inside the shard window on worker
//! threads. Only matched pairs and replay-fallback spillover reduce through
//! the hub, via the key-ordered exchange.
//!
//! Two properties make this byte-identical at any `--shards×--threads`:
//!
//! 1. A bucket's pairing outcome depends only on its own arrival
//!    subsequence (delivered in `(time, player)` exchange-key order) and its
//!    own counter-indexed RNG stream — never on which shard hosts it.
//! 2. Replay-fallback sweeps fire at the bucket's own deadline windows
//!    ([`BucketPool::next_deadline`] feeds the shard wake), so sweep timing
//!    is a pure function of pool contents, not of co-scheduled shard work.
//!
//! `tests/bucket_props.rs` pins the pool against a minimal in-test oracle of
//! the pairing procedure and the sharded reduction against a serial run.
//!
//! This type is shard-reachable: it must not emit `hc-obs` telemetry (worker
//! threads carry no collector, so emissions would vary with `--threads`) and
//! every RNG it consumes must come from an indexed stream (analyzer rule R1).

use crate::id::PlayerId;
use crate::matchmaker::{MatchDecision, MatchmakerConfig, MatchmakerStats};
use hc_collect::DetMap;
use hc_sim::{OnlineStats, SimDuration, SimTime};
use rand::Rng;

/// Number of skill tiers a campaign partitions its wait pool into.
///
/// This is a **semantic** parameter (it narrows who can pair with whom), so
/// it must never be derived from the shard count: the same population must
/// produce the same pairings at any layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketLayout {
    buckets: u32,
}

impl BucketLayout {
    /// Creates a layout with `buckets` skill tiers (clamped to at least 1).
    #[must_use]
    pub fn new(buckets: u32) -> Self {
        BucketLayout {
            buckets: buckets.max(1),
        }
    }

    /// Number of buckets.
    #[must_use]
    pub fn buckets(&self) -> u32 {
        self.buckets
    }

    /// Maps a skill in `[0, 1]` to its tier — a pure function of the
    /// profile, shared by every shard layout.
    #[must_use]
    pub fn bucket_of(&self, skill: f64) -> u32 {
        let s = if skill.is_finite() {
            skill.clamp(0.0, 1.0)
        } else {
            0.5
        };
        // `s == 1.0` would index one past the end; clamp into range.
        ((s * f64::from(self.buckets)) as u32).min(self.buckets - 1)
    }
}

/// A wait pool: the whole population's for a serial engine (inside
/// [`Matchmaker`](crate::Matchmaker)), one skill tier's for a sharded one.
///
/// # Examples
///
/// ```
/// use hc_core::bucket::BucketPool;
/// use hc_core::prelude::*;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut pool = BucketPool::new(MatchmakerConfig::default());
/// assert_eq!(
///     pool.on_arrival(SimTime::ZERO, PlayerId::new(1), &mut rng),
///     MatchDecision::Queued
/// );
/// assert_eq!(
///     pool.on_arrival(SimTime::from_secs(2), PlayerId::new(2), &mut rng),
///     MatchDecision::Paired {
///         partner: PlayerId::new(1),
///         waited: SimDuration::from_secs(2),
///     }
/// );
/// assert_eq!(pool.stats().live_pairs, pool.wait_stats().count());
/// ```
#[derive(Debug, Clone)]
pub struct BucketPool {
    waiting: Vec<(SimTime, PlayerId)>,
    // Buckets hold arbitrary id subsets, so rematch bookkeeping uses the
    // deterministic map rather than a dense per-id store.
    last_partner: DetMap<u64, PlayerId>,
    config: MatchmakerConfig,
    stats: MatchmakerStats,
    wait_stats: OnlineStats,
}

impl BucketPool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new(config: MatchmakerConfig) -> Self {
        Self::with_capacity(config, 0)
    }

    /// Creates an empty pool with room for `capacity` waiters, so the
    /// steady-state arrival path never grows the wait vector or the
    /// rematch map.
    #[must_use]
    pub fn with_capacity(config: MatchmakerConfig, capacity: usize) -> Self {
        BucketPool {
            waiting: Vec::with_capacity(capacity),
            last_partner: DetMap::with_capacity(capacity),
            config,
            stats: MatchmakerStats::default(),
            wait_stats: OnlineStats::new(),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &MatchmakerConfig {
        &self.config
    }

    /// Handles an arriving player: pairs with a uniformly random eligible
    /// waiter or queues them.
    ///
    /// Eligible waiters are everyone except the player themself and — under
    /// strict rematch avoidance — their previous partner. A player whose
    /// only possible partner is their last one queues instead; the
    /// replay-bot fallback rescues them if nobody else shows up. The draw is
    /// one `gen_range` over the eligible count, and the k-th candidate is
    /// re-found in place, so the arrival path allocates nothing.
    pub fn on_arrival<R: Rng + ?Sized>(
        &mut self,
        now: SimTime,
        player: PlayerId,
        rng: &mut R,
    ) -> MatchDecision {
        let last = self.last_partner.get(&player.raw()).copied();
        let eligible = |candidate: PlayerId| {
            candidate != player && !(self.config.avoid_rematch && Some(candidate) == last)
        };
        let count = self.waiting.iter().filter(|&&(_, c)| eligible(c)).count();
        if count == 0 {
            self.waiting.push((now, player));
            return MatchDecision::Queued;
        }
        let k = rng.gen_range(0..count);
        let pick = self
            .waiting
            .iter()
            .enumerate()
            .filter(|&(_, &(_, c))| eligible(c))
            .nth(k)
            .map(|(i, _)| i)
            .unwrap_or_default();
        let (entered, partner) = self.waiting.swap_remove(pick);
        let waited = now.saturating_since(entered);
        self.wait_stats.push(waited.as_secs_f64());
        self.last_partner.insert(player.raw(), partner);
        self.last_partner.insert(partner.raw(), player);
        self.stats.live_pairs += 1;
        MatchDecision::Paired { partner, waited }
    }

    /// The one timeout sweep, behind [`Self::take_timed_out_into`] and
    /// `Matchmaker::take_timed_out`: calls `timed_out(player, waited)` for
    /// each removed player in queue order. Survivors keep their order.
    pub(crate) fn sweep_timed_out(
        &mut self,
        now: SimTime,
        mut timed_out: impl FnMut(PlayerId, SimDuration),
    ) -> usize {
        let threshold = self.config.bot_fallback_wait;
        let before = self.waiting.len();
        let mut write = 0;
        for read in 0..before {
            let (entered, player) = self.waiting[read];
            let waited = now.saturating_since(entered);
            if waited >= threshold {
                self.wait_stats.push(waited.as_secs_f64());
                self.stats.replay_pairs += 1;
                timed_out(player, waited);
            } else {
                self.waiting[write] = (entered, player);
                write += 1;
            }
        }
        self.waiting.truncate(write);
        before - write
    }

    /// The timeout sweep into caller-owned scratch: removes every player
    /// whose wait has reached the bot-fallback threshold as of `now` and
    /// appends them to `out` in queue order (steady-state sweeps allocate
    /// nothing); returns how many timed out. The caller pairs each with a
    /// replay bot.
    pub fn take_timed_out_into(&mut self, now: SimTime, out: &mut Vec<PlayerId>) -> usize {
        self.sweep_timed_out(now, |player, _| out.push(player))
    }

    /// Removes a queued player who quit before pairing (every entry they
    /// hold). Returns `true` if they were waiting.
    pub fn abandon(&mut self, player: PlayerId) -> bool {
        let before = self.waiting.len();
        self.waiting.retain(|&(_, p)| p != player);
        let removed = self.waiting.len() != before;
        if removed {
            self.stats.abandonments += 1;
        }
        removed
    }

    /// Drains the entire pool (end-of-run abandonment), appending the
    /// stranded players to `out` in queue order and counting each as an
    /// abandonment.
    pub fn abandon_all_into(&mut self, out: &mut Vec<PlayerId>) -> usize {
        let n = self.waiting.len();
        self.stats.abandonments += n as u64;
        out.extend(self.waiting.drain(..).map(|(_, p)| p));
        n
    }

    /// The earliest instant any current waiter crosses the bot-fallback
    /// threshold. Feeding this into the shard wake guarantees the sweep
    /// window is a pure function of pool contents (layout-invariant).
    #[must_use]
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.waiting
            .iter()
            .map(|&(entered, _)| entered + self.config.bot_fallback_wait)
            .min()
    }

    /// Number of players currently waiting.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.waiting.len()
    }

    /// Pairing statistics so far.
    #[must_use]
    pub fn stats(&self) -> MatchmakerStats {
        self.stats
    }

    /// Waiting-time statistics (seconds) over all resolved waits.
    #[must_use]
    pub fn wait_stats(&self) -> &OnlineStats {
        &self.wait_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn bucket_of_is_a_pure_clamped_tier() {
        let layout = BucketLayout::new(4);
        assert_eq!(layout.bucket_of(0.0), 0);
        assert_eq!(layout.bucket_of(0.26), 1);
        assert_eq!(layout.bucket_of(0.99), 3);
        assert_eq!(layout.bucket_of(1.0), 3);
        assert_eq!(layout.bucket_of(f64::NAN), 2);
        assert_eq!(BucketLayout::new(0).buckets(), 1);
        assert_eq!(BucketLayout::new(1).bucket_of(0.9), 0);
    }

    #[test]
    fn rematch_avoidance_queues_a_returning_pair() {
        for avoid_rematch in [true, false] {
            let mut r = rng();
            let mut pool = BucketPool::new(MatchmakerConfig {
                avoid_rematch,
                ..MatchmakerConfig::default()
            });
            pool.on_arrival(t(0), PlayerId::new(1), &mut r);
            pool.on_arrival(t(0), PlayerId::new(2), &mut r);
            pool.on_arrival(t(1), PlayerId::new(1), &mut r);
            let again = pool.on_arrival(t(2), PlayerId::new(2), &mut r);
            if avoid_rematch {
                assert_eq!(again, MatchDecision::Queued);
                // A third player pairs with either waiter.
                assert!(matches!(
                    pool.on_arrival(t(3), PlayerId::new(3), &mut r),
                    MatchDecision::Paired { .. }
                ));
                assert_eq!(pool.queue_len(), 1);
            } else {
                assert!(
                    matches!(again, MatchDecision::Paired { partner, .. } if partner == PlayerId::new(1))
                );
            }
        }
    }

    #[test]
    fn timeout_sweep_is_in_queue_order_and_reports_waits() {
        let cfg = MatchmakerConfig {
            bot_fallback_wait: SimDuration::from_secs(10),
            avoid_rematch: false,
        };
        let mut pool = BucketPool::new(cfg);
        let mut r = rng();
        pool.on_arrival(t(0), PlayerId::new(1), &mut r);
        pool.on_arrival(t(1), PlayerId::new(1), &mut r); // re-queue, self-pair refused
        pool.on_arrival(t(5), PlayerId::new(1), &mut r);
        let mut out = Vec::new();
        assert_eq!(pool.take_timed_out_into(t(9), &mut out), 0);
        let mut waits = Vec::new();
        assert_eq!(pool.sweep_timed_out(t(11), |p, w| waits.push((p, w))), 2);
        assert_eq!(
            waits,
            vec![
                (PlayerId::new(1), SimDuration::from_secs(11)),
                (PlayerId::new(1), SimDuration::from_secs(10)),
            ]
        );
        assert_eq!(pool.queue_len(), 1);
        assert_eq!(pool.next_deadline(), Some(t(15)));
        assert!((pool.stats().replay_share() - 1.0).abs() < 1e-12);
        assert_eq!(pool.take_timed_out_into(t(15), &mut out), 1);
        assert_eq!(out, vec![PlayerId::new(1)]);
        assert_eq!(pool.next_deadline(), None);
    }

    #[test]
    fn abandonment_removes_the_player() {
        let mut r = rng();
        let mut pool = BucketPool::new(MatchmakerConfig::default());
        pool.on_arrival(t(0), PlayerId::new(1), &mut r);
        pool.on_arrival(t(1), PlayerId::new(1), &mut r); // self-pair refused
        assert!(pool.abandon(PlayerId::new(1)), "both entries go");
        assert!(!pool.abandon(PlayerId::new(1)));
        assert_eq!(pool.queue_len(), 0);
        pool.on_arrival(t(2), PlayerId::new(2), &mut r);
        let mut out = Vec::new();
        assert_eq!(pool.abandon_all_into(&mut out), 1);
        assert_eq!(out, vec![PlayerId::new(2)]);
        assert_eq!(pool.stats().abandonments, 2);
    }

    #[test]
    fn random_pairing_spreads_partners() {
        let mut r = rng();
        let mut pool = BucketPool::new(MatchmakerConfig {
            avoid_rematch: false,
            ..MatchmakerConfig::default()
        });
        // Refill a pool of 10 waiters 200 times and count partner diversity.
        let mut drawn = std::collections::BTreeSet::new();
        for trial in 0..200u64 {
            for i in 0..10 {
                pool.on_arrival(t(trial), PlayerId::new(100 + i), &mut r);
            }
            for i in 0..10 {
                let arrival = PlayerId::new(200 + trial * 10 + i);
                if let MatchDecision::Paired { partner, .. } =
                    pool.on_arrival(t(trial), arrival, &mut r)
                {
                    drawn.insert(partner);
                }
            }
        }
        assert!(drawn.len() >= 9, "partners drawn: {}", drawn.len());
    }
}
