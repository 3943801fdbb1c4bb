//! # hc-games — the concrete Games With A Purpose
//!
//! The target paper surveys five deployed games, one (or two) per
//! template; this crate implements all of them on top of the `hc-core`
//! templates, driven by `hc-crowd` players over synthetic stimulus worlds:
//!
//! | Game | Template | Output |
//! |---|---|---|
//! | [`esp`] (ESP Game) | output-agreement | image labels |
//! | [`tagatune`] (TagATune) | input-agreement | audio-clip tags |
//! | [`verbosity`] (Verbosity) | inversion-problem | commonsense facts |
//! | [`peekaboom`] (Peekaboom) | inversion-problem | object locations |
//! | [`squigl`] (Squigl) | output-agreement | object segmentations |
//! | [`matchin`] (Matchin) | two-player preference | image ranking |
//!
//! [`world`] holds the synthetic ground truth each game plays over; every
//! game module exposes a `play_*_session` function (drive one session
//! between two seated players, feeding the [`Platform`](hc_core::Platform)
//! pipeline), whose rounds the sharded engine ([`shard`]) plays through
//! the same round engine. [`campaign`] is the one serial event loop
//! (arrivals, matchmaking, replay-bot fallback) — [`esp::EspCampaign`],
//! behind experiments T1 and F3–F6, runs on it.
//!
//! ## Example: one ESP session end to end
//!
//! ```
//! use hc_core::prelude::*;
//! use hc_crowd::{ArchetypeMix, PopulationBuilder};
//! use hc_games::esp::{play_esp_session, EspWorld};
//! use hc_games::params::SessionParams;
//! use hc_games::world::WorldConfig;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let world = EspWorld::generate(&WorldConfig::small(), &mut rng);
//! let mut platform = Platform::new(PlatformConfig::default()).unwrap();
//! world.register_tasks(&mut platform);
//!
//! let mut pop = PopulationBuilder::new(2)
//!     .mix(ArchetypeMix::all_honest())
//!     .build(&mut rng);
//! let (a, b) = (PlayerId::new(0), PlayerId::new(1));
//! let transcript = play_esp_session(
//!     &mut platform, &world, &mut pop,
//!     SessionParams::pair(a, b, SessionId::new(0), SimTime::ZERO),
//!     &mut rng,
//! );
//! assert!(transcript.rounds() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod esp;
pub mod matchin;
pub mod params;
pub mod peekaboom;
mod round;
pub mod shard;
pub mod squigl;
pub mod tagatune;
pub mod verbosity;
pub mod world;

pub use campaign::{
    Campaign, CampaignConfig, CampaignReport, SessionDriver, TagATuneDriver, VerbosityDriver,
};
pub use esp::{EspCampaign, EspCampaignConfig, EspCampaignReport, EspWorld};
pub use matchin::{play_matchin_session, BradleyTerryRanking, MatchinWorld};
pub use params::SessionParams;
pub use peekaboom::{play_peekaboom_session, PeekaboomWorld};
pub use shard::{
    EspShardGame, ShardGame, ShardedCampaign, ShardedCampaignConfig, ShardedCampaignReport,
    VerbosityShardGame,
};
pub use squigl::{play_squigl_session, SquiglWorld};
pub use tagatune::{play_tagatune_session, TagATuneWorld};
pub use verbosity::{fact_label, parse_fact, play_verbosity_session, Relation, VerbosityWorld};
pub use world::WorldConfig;
