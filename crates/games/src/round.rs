//! The round engine shared by serial and sharded sessions.
//!
//! Each game has one round function (ESP live and solo in
//! [`crate::esp`], Verbosity in [`crate::verbosity`]): from the task,
//! its taboo list or recording and the world's truth it plays a round
//! and returns the round's record, its platform effects
//! ([`PlayedRound`]) and its end time. `play_session` strings rounds
//! from a `RoundSource`: a **serial** session picks each task from the
//! [`Platform`] as the round starts and applies its effects at once; a
//! **sharded** session walks the hub-planned rounds of its `SessionJob`
//! and collects the effects for the hub. The round bodies are reachable
//! from shard workers, so they emit no telemetry and draw only from the
//! RNG they are handed.

use hc_core::prelude::*;
use rand::Rng;

/// Pause between rounds within a session (the next stimulus loads).
pub(crate) const INTER_ROUND_GAP: SimDuration = SimDuration::from_secs(2);

/// One round to play: the task, plus what the platform knew about it
/// when the round was picked.
#[derive(Debug, Clone)]
pub struct PlannedRound {
    /// Task to play.
    pub task: TaskId,
    /// Taboo list frozen at pick time.
    pub taboo: TabooList,
    /// Replay recording for solo sessions (`None` live or unseeded).
    pub recording: Option<RecordedRound>,
}

/// Platform effects of one played round, applied in play order.
#[derive(Debug)]
pub struct PlayedRound {
    /// The round's task.
    pub task: TaskId,
    /// Agreements to ingest, in submission order.
    pub agreements: Vec<(Label, PlayerId, PlayerId)>,
    /// Left-seat trace recorded for future replay bots.
    pub recording: Option<RecordedRound>,
}

/// Applies one played round to the platform: its agreements in
/// submission order, then its replay recording.
pub(crate) fn apply_round(platform: &mut Platform, round: PlayedRound) {
    for (label, a, b) in round.agreements {
        let _ = platform.ingest_agreement(round.task, label, a, b);
    }
    if let Some(recording) = round.recording {
        platform.replay_mut().record(recording);
    }
}

/// Where a session's rounds come from, and where their effects go.
#[derive(Debug)]
pub(crate) enum RoundSource<'a> {
    /// Serial play: each round's task is picked from the platform as the
    /// round starts, and its effects apply as soon as it ends.
    Platform {
        platform: &'a mut Platform,
        players: &'a [PlayerId],
        /// Sample a replay recording for each round (solo sessions).
        recordings: bool,
    },
    /// Sharded play: the hub planned the rounds; their effects are
    /// collected in play order for the hub to apply.
    Planned {
        rounds: std::vec::IntoIter<PlannedRound>,
        played: Vec<PlayedRound>,
    },
}

impl<'a> RoundSource<'a> {
    /// Serial rounds for `players` (one id for a solo session).
    pub(crate) fn platform(
        platform: &'a mut Platform,
        players: &'a [PlayerId],
        recordings: bool,
    ) -> Self {
        RoundSource::Platform {
            platform,
            players,
            recordings,
        }
    }

    /// Hub-planned rounds, consumed by value.
    pub(crate) fn planned(rounds: Vec<PlannedRound>) -> Self {
        RoundSource::Planned {
            played: Vec::with_capacity(rounds.len()),
            rounds: rounds.into_iter(),
        }
    }

    /// The next round and what `lookup` finds for its task in the game's
    /// world, or `None` when the session must end: no task is left, or
    /// the world does not know it. A platform pick draws in a fixed
    /// order: task pick, served mark, taboo, lookup, replay sample.
    pub(crate) fn next<T, R: Rng + ?Sized>(
        &mut self,
        lookup: impl FnOnce(TaskId) -> Option<T>,
        rng: &mut R,
    ) -> Option<(PlannedRound, T)> {
        match self {
            RoundSource::Platform {
                platform,
                players,
                recordings,
            } => {
                let task = platform.next_task_for(players, rng)?;
                platform.record_served(task, players);
                let taboo = platform.taboo_for(task);
                let found = lookup(task)?;
                let recording = recordings
                    .then(|| platform.replay().sample(task, rng).cloned())
                    .flatten();
                let round = PlannedRound {
                    task,
                    taboo,
                    recording,
                };
                Some((round, found))
            }
            RoundSource::Planned { rounds, .. } => {
                let round = rounds.next()?;
                let found = lookup(round.task)?;
                Some((round, found))
            }
        }
    }

    fn finish(&mut self, round: PlayedRound) {
        match self {
            RoundSource::Platform { platform, .. } => apply_round(platform, round),
            RoundSource::Planned { played, .. } => played.push(round),
        }
    }

    /// The collected effects of planned rounds (empty for serial play,
    /// whose effects are already applied).
    pub(crate) fn into_played(self) -> Vec<PlayedRound> {
        match self {
            RoundSource::Planned { played, .. } => played,
            RoundSource::Platform { .. } => Vec::new(),
        }
    }
}

/// One session at the table: the world, the open session, the seated
/// profiles (`P`: both seats', or a solo player's), their streaks, and
/// the left seat's replay trace, reused from round to round.
pub(crate) struct Table<'w, W, P> {
    pub(crate) world: &'w W,
    pub(crate) session: Session,
    pub(crate) profiles: P,
    pub(crate) streaks: [u32; 2],
    pub(crate) trace: Vec<(SimDuration, Label)>,
    pub(crate) rule: ScoreRule,
}

impl<'w, W, P> Table<'w, W, P> {
    /// Seats `profiles` at `session`, scoring by `rule`.
    pub(crate) fn new(world: &'w W, session: Session, profiles: P, rule: ScoreRule) -> Self {
        Table {
            world,
            session,
            profiles,
            streaks: [0; 2],
            trace: Vec::new(),
            rule,
        }
    }

    /// The seated players, `[left, right]`.
    pub(crate) fn seats(&self) -> [PlayerId; 2] {
        self.session.players()
    }

    /// A round's time limit.
    pub(crate) fn time_limit(&self) -> SimDuration {
        self.session.config().round_time_limit
    }

    /// Both seats' points for a round, advancing their streaks.
    pub(crate) fn score(&mut self, matched: bool, duration: SimDuration) -> [u32; 2] {
        let rule = self.rule;
        self.streaks
            .each_mut()
            .map(|s| score(rule, matched, duration, s))
    }
}

/// Plays rounds from `source` until the session's round or time budget,
/// or the source, runs out. `lookup` finds a task's truth in the world;
/// `round` is the game's round function, returning the round's record,
/// effects and end time. The next round starts [`INTER_ROUND_GAP`]
/// after the last one ends.
pub(crate) fn play_session<'w, W, P, T, R: Rng + ?Sized>(
    mut table: Table<'w, W, P>,
    source: &mut RoundSource<'_>,
    rng: &mut R,
    lookup: impl Fn(&'w W, TaskId) -> Option<T>,
    mut round: impl FnMut(&mut Table<'w, W, P>, PlannedRound, T, SimTime, &mut R) -> Round,
) -> SessionTranscript {
    let world = table.world;
    let mut now = table.session.started();
    while table.session.can_play_more(now) {
        let Some((planned, found)) = source.next(|task| lookup(world, task), rng) else {
            break;
        };
        let (record, played, end) = round(&mut table, planned, found, now, rng);
        source.finish(played);
        table.session.record_round(record);
        now = end + INTER_ROUND_GAP;
    }
    table.session.finish(now)
}

/// What a round function returns: the round's record, its platform
/// effects, and when it ended.
pub(crate) type Round = (RoundRecord, PlayedRound, SimTime);

/// The score of one round for a seat on `streak`, and the streak after
/// it: a match extends the streak, anything else resets it.
pub(crate) fn score(
    rule: ScoreRule,
    matched: bool,
    duration: SimDuration,
    streak: &mut u32,
) -> u32 {
    let points = rule.round_score(matched, duration.as_secs_f64(), *streak);
    *streak = if matched { *streak + 1 } else { 0 };
    points
}

/// Emits a serial session's `games` span (`name`, e.g. `esp.session`)
/// under a recording scope. Serial wrappers only: the shared round
/// engine stays silent.
pub(crate) fn session_span(name: &str, transcript: &SessionTranscript) {
    if hc_obs::active() {
        hc_obs::span(
            "games",
            name,
            transcript.started.ticks(),
            transcript.ended.ticks(),
            &[
                ("rounds", transcript.rounds().into()),
                ("matched", transcript.matched_count().into()),
            ],
        );
    }
}
