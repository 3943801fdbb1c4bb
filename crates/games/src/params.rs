//! The scheduling envelope shared by every `play_*_session` driver.
//!
//! Bundling who plays and when into one value keeps the driver
//! signatures short (the platform, world, population and RNG stay
//! separate because they are borrowed, not copied) and gives campaign
//! loops a single thing to thread through their event handlers.

use hc_core::prelude::*;

/// Who plays a session and when it starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionParams {
    /// The two seats. A solo (replay) session repeats the same id, which
    /// matches how [`Session`] records single-player transcripts.
    pub seats: [PlayerId; 2],
    /// Id the session is recorded under.
    pub session_id: SessionId,
    /// Simulation time of the first round.
    pub start: SimTime,
}

impl SessionParams {
    /// A live two-player session.
    #[must_use]
    pub fn pair(left: PlayerId, right: PlayerId, session_id: SessionId, start: SimTime) -> Self {
        SessionParams {
            seats: [left, right],
            session_id,
            start,
        }
    }

    /// A single-player (replay/bot) session.
    #[must_use]
    pub fn solo(player: PlayerId, session_id: SessionId, start: SimTime) -> Self {
        SessionParams {
            seats: [player, player],
            session_id,
            start,
        }
    }

    /// The left seat.
    #[must_use]
    pub fn left(&self) -> PlayerId {
        self.seats[0]
    }

    /// The right seat.
    #[must_use]
    pub fn right(&self) -> PlayerId {
        self.seats[1]
    }

    /// Opens the session these params describe.
    #[must_use]
    pub(crate) fn open(&self, config: SessionConfig) -> Session {
        Session::new(self.session_id, self.seats, self.start, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_and_solo_constructors() {
        let p = SessionParams::pair(
            PlayerId::new(1),
            PlayerId::new(2),
            SessionId::new(9),
            SimTime::from_secs(5),
        );
        assert_eq!(p.left(), PlayerId::new(1));
        assert_eq!(p.right(), PlayerId::new(2));
        let s = SessionParams::solo(PlayerId::new(3), SessionId::new(10), SimTime::ZERO);
        assert_eq!(s.left(), s.right());
        assert_eq!(p.open(SessionConfig::default()).players(), p.seats);
    }
}
