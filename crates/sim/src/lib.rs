//! # hc-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate under every experiment in the
//! `human-computation` workspace. The systems surveyed by the target paper
//! ("Human Computation", DAC 2009) were deployed as live web services with
//! real players; reproducing their *behavioural* results does not require
//! HTTP plumbing, only a faithful model of **when** players arrive, **how
//! long** they stay, and **in what order** platform events fire. A
//! discrete-event simulation (DES) kernel provides exactly that, with two
//! properties a live deployment cannot offer:
//!
//! * **Determinism** — every run is a pure function of its seed, so every
//!   table and figure in `EXPERIMENTS.md` regenerates bit-identically.
//! * **Time compression** — months of simulated play complete in seconds,
//!   which is what makes lifetime-play (ALP) measurements tractable.
//!
//! ## Module map
//!
//! | Module | Contents |
//! |---|---|
//! | [`time`] | [`SimTime`]/[`SimDuration`] — microsecond-resolution virtual clock types |
//! | [`wheel`] | [`WheelQueue`] — the hierarchical timing-wheel event queue every campaign engine runs on |
//! | [`event`] | [`EventQueue`] — the binary-heap reference model the wheel is property-tested against |
//! | [`rng`] | [`RngFactory`] — deterministic derivation of independent RNG streams |
//! | [`dist`] | Distributions not in `rand` core: exponential, log-normal, Zipf, geometric, discrete |
//! | [`arrival`] | Poisson and diurnal arrival processes |
//! | [`stats`] | Online statistics: Welford mean/variance, histograms, percentiles, confidence intervals |
//! | [`par`] | Deterministic work-stealing replication pool: same bytes at any `--threads` |
//! | [`shard`] | Deterministic sharded single-run engine: lock-stepped windows + message exchange, same bytes at any `--shards`/`--threads` |
//! | [`timeseries`] | Rate and gauge series over fixed sim-time windows |
//!
//! ## Example
//!
//! ```
//! use hc_sim::prelude::*;
//!
//! // Deterministic two-stream simulation: arrivals + a measurement.
//! let factory = RngFactory::new(42);
//! let mut rng = factory.stream("arrivals");
//! let arrivals = PoissonProcess::new(2.0); // 2 events per simulated second
//! let mut queue: WheelQueue<&'static str> = WheelQueue::new();
//!
//! let mut t = SimTime::ZERO;
//! for _ in 0..10 {
//!     t = arrivals.next_after(t, &mut rng);
//!     queue.push(t, "player-arrival");
//! }
//! let mut stats = OnlineStats::new();
//! let mut last = SimTime::ZERO;
//! while let Some((when, _ev)) = queue.pop() {
//!     stats.push((when - last).as_secs_f64());
//!     last = when;
//! }
//! // Inter-arrival mean is ~1/rate.
//! assert!(stats.mean() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrival;
pub mod dist;
pub mod event;
pub mod par;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;
pub mod timeseries;
pub mod wheel;

pub use arrival::{ArrivalProcess, DiurnalProcess, PoissonProcess};
pub use dist::{Bernoulli, DiscreteDist, Exponential, Geometric, LogNormal, UniformRange, Zipf};
pub use event::EventQueue;
pub use par::{run_replications, run_seeded_replications, ReplicationError};
pub use rng::{RngFactory, SimRng};
pub use shard::{
    Addr, Control, HubDecision, Mailbox, ShardConfig, ShardError, ShardRunStats, ShardWorkload,
    WindowInfo,
};
pub use stats::{ConfidenceInterval, Histogram, OnlineStats, SampleSet};
pub use time::{SimDuration, SimTime};
pub use timeseries::{GaugeSeries, RateSeries};
pub use wheel::WheelQueue;

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::arrival::{ArrivalProcess, DiurnalProcess, PoissonProcess};
    pub use crate::dist::{
        Bernoulli, DiscreteDist, Exponential, Geometric, LogNormal, UniformRange, Zipf,
    };
    pub use crate::event::EventQueue;
    pub use crate::par::{run_replications, run_seeded_replications, ReplicationError};
    pub use crate::rng::{RngFactory, SimRng};
    pub use crate::shard::{
        Addr, Control, HubDecision, Mailbox, ShardConfig, ShardError, ShardRunStats, ShardWorkload,
        WindowInfo,
    };
    pub use crate::stats::{ConfidenceInterval, Histogram, OnlineStats, SampleSet};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::timeseries::{GaugeSeries, RateSeries};
    pub use crate::wheel::WheelQueue;
    pub use rand::Rng;
}
