//! # hc-core — the human-computation platform library
//!
//! This crate implements the primary contribution of the target paper
//! ("Human Computation", DAC 2009): a platform for channelling human effort
//! — through games — into solving problems computers cannot yet solve. It
//! provides, as reusable library pieces, everything the paper's surveyed
//! systems share:
//!
//! * **The three GWAP templates** ([`templates`]) — *output-agreement*
//!   (ESP Game), *input-agreement* (TagATune), and *inversion-problem*
//!   (Verbosity/Peekaboom) — as explicit round state machines.
//! * **A session engine** ([`session`]) that strings rounds into timed
//!   games between two (possibly replayed) players.
//! * **Scoring mechanics** ([`scoring`]) the paper lists as the player
//!   retention levers: points, streak bonuses, skill levels, leaderboards.
//! * **Output verification** ([`verify`]) — random matching, taboo words,
//!   k-agreement repetition, and gold-answer player testing.
//! * **Anti-cheat** ([`anticheat`]) — reputation tracking, collusion and
//!   spam detection.
//! * **GWAP evaluation metrics** ([`metrics`]) — throughput, average
//!   lifetime play (ALP) and expected contribution, exactly as the paper
//!   defines them.
//! * **Platform orchestration** ([`platform`], [`matchmaker`], [`replay`])
//!   — job/task management, player pairing with a recorded-session
//!   fallback ("bot" partner) when the live population is thin.
//!
//! Concrete games (ESP, TagATune, Verbosity, Peekaboom, Matchin) live in
//! the `hc-games` crate; simulated players live in `hc-crowd`; this crate
//! is deliberately agnostic about *who* produces answers.
//!
//! ## Quick tour
//!
//! ```
//! use hc_core::prelude::*;
//!
//! // An output-agreement round (the ESP Game mechanic): two partners see
//! // the same image and score when their labels agree.
//! let task = TaskId::new(1);
//! let mut round = OutputAgreementRound::new(task, TabooList::default(), SimDuration::from_secs(150));
//! let t0 = SimTime::ZERO;
//! assert!(matches!(
//!     round.submit(Seat::Left, Answer::text("dog"), t0),
//!     SubmitOutcome::Accepted
//! ));
//! let outcome = round.submit(Seat::Right, Answer::text("Dog"), t0 + SimDuration::from_secs(3));
//! assert!(matches!(outcome, SubmitOutcome::Matched(_)));
//! let result = round.finish(t0 + SimDuration::from_secs(3));
//! assert_eq!(result.agreed_label.as_ref().map(|l| l.as_str()), Some("dog")); // normalized
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod answer;
pub mod anticheat;
pub mod bucket;
pub mod error;
pub mod id;
pub mod jobs;
pub mod matchmaker;
pub mod metrics;
pub mod platform;
pub mod replay;
pub mod scoring;
pub mod session;
pub mod task;
pub mod templates;
pub mod text;
pub mod verify;

pub use answer::{Answer, Label, Region, Verdict};
pub use bucket::{BucketLayout, BucketPool};
pub use error::{Error, Result};
pub use id::{JobId, PlayerId, RoundId, SessionId, TaskId};
pub use jobs::{Job, JobBook, JobGoal, JobState};
pub use matchmaker::{BatchMatcher, MatchDecision, Matchmaker, MatchmakerConfig, PairingPolicy};
pub use metrics::{ContributionLedger, GwapMetrics};
pub use platform::{Platform, PlatformConfig, VerifiedLabel};
pub use replay::{RecordedRound, RecordedSession, ReplayStore};
pub use scoring::{Leaderboard, ScoreRule, Scoreboard, SkillLevel};
pub use session::{RoundRecord, Session, SessionConfig, SessionTranscript};
pub use task::{Stimulus, Task, TaskQueue, TaskState};
pub use templates::input_agreement::{InputAgreementResult, InputAgreementRound};
pub use templates::inversion::{InversionResult, InversionRound, Role};
pub use templates::output_agreement::{OutputAgreementResult, OutputAgreementRound};
pub use templates::{Seat, SubmitOutcome, TemplateKind};
pub use verify::{AgreementTracker, GoldBank, GoldOutcome, TabooList};

/// Convenience re-exports covering the whole public surface.
pub mod prelude {
    pub use crate::answer::{Answer, Label, Region, Verdict};
    pub use crate::anticheat::{CheatAssessment, CheatDetector, Reputation};
    pub use crate::bucket::{BucketLayout, BucketPool};
    pub use crate::error::{Error, Result};
    pub use crate::id::{JobId, PlayerId, RoundId, SessionId, TaskId};
    pub use crate::jobs::{Job, JobBook, JobGoal, JobState};
    pub use crate::matchmaker::{
        BatchMatcher, MatchDecision, Matchmaker, MatchmakerConfig, PairingPolicy,
    };
    pub use crate::metrics::{ContributionLedger, GwapMetrics};
    pub use crate::platform::{Platform, PlatformConfig, VerifiedLabel};
    pub use crate::replay::{RecordedRound, RecordedSession, ReplayStore};
    pub use crate::scoring::{Leaderboard, ScoreRule, Scoreboard, SkillLevel};
    pub use crate::session::{RoundRecord, Session, SessionConfig, SessionTranscript};
    pub use crate::task::{Stimulus, Task, TaskQueue, TaskState};
    pub use crate::templates::input_agreement::{InputAgreementResult, InputAgreementRound};
    pub use crate::templates::inversion::{InversionResult, InversionRound, Role};
    pub use crate::templates::output_agreement::{OutputAgreementResult, OutputAgreementRound};
    pub use crate::templates::{Seat, SubmitOutcome, TemplateKind};
    pub use crate::text::{levenshtein, normalize_label, similarity};
    pub use crate::verify::{AgreementTracker, GoldBank, GoldOutcome, TabooList};
    pub use hc_sim::{SimDuration, SimTime};
}
