//! The declarative side of the workload layer: what a scenario *is*,
//! independent of how it is lowered onto the driver.
//!
//! A [`WorkloadSpec`] names a deterministic seed, a set of synthetic
//! titles, and a list of [`Phase`]s. Each phase pairs an arrival
//! curve ([`Arrival`]) with a title-popularity model ([`Popularity`])
//! and a per-viewer behaviour ([`Behaviour`]). Nothing here touches
//! the runtime — specs are plain data, validated and lowered by
//! [`crate::compile`] (the scripts → runtime split modelled on
//! forester's tree-lang → simulation pipeline).

use netsim::SimDuration;

/// A complete declarative scenario: seed, title catalogue, phases.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Scenario name (used in compile errors and the agent dump).
    pub name: String,
    /// Master seed: same spec + same seed ⇒ identical compiled
    /// schedules, bit for bit.
    pub seed: u64,
    /// The synthetic titles viewers draw from.
    pub titles: Vec<TitleSpec>,
    /// The scenario's phases (validated against overlap at compile
    /// time when they contend for the same titles).
    pub phases: Vec<Phase>,
}

impl WorkloadSpec {
    /// An empty spec; add titles and phases fluently.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        WorkloadSpec {
            name: name.into(),
            seed,
            titles: Vec::new(),
            phases: Vec::new(),
        }
    }

    /// Adds a title to the catalogue.
    pub fn title(mut self, title: TitleSpec) -> Self {
        self.titles.push(title);
        self
    }

    /// Adds a phase.
    pub fn phase(mut self, phase: Phase) -> Self {
        self.phases.push(phase);
        self
    }
}

/// One synthetic title: compiled to `MovieSource::test_movie`
/// parameters (25 fps, `seconds * 25` frames).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TitleSpec {
    /// Directory title.
    pub name: String,
    /// Movie length in seconds.
    pub seconds: u64,
    /// Seed of the synthetic frame-size jitter (store-level
    /// consumers feed it to `MovieSource::test_movie`).
    pub seed: u64,
}

impl TitleSpec {
    /// A `seconds`-long synthetic title.
    pub fn new(name: impl Into<String>, seconds: u64, seed: u64) -> Self {
        TitleSpec {
            name: name.into(),
            seconds,
            seed,
        }
    }
}

/// One phase: an arrival curve, who watches what, and how they
/// behave once admitted.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Phase name (compile errors and the agent dump refer to it).
    pub name: String,
    /// When the phase's first arrival lands.
    pub start: SimDuration,
    /// The arrival curve.
    pub arrival: Arrival,
    /// Which title each arrival picks.
    pub popularity: Popularity,
    /// What each agent does after arriving.
    pub behaviour: Behaviour,
}

impl Phase {
    /// A phase starting at `start`.
    pub fn new(
        name: impl Into<String>,
        start: SimDuration,
        arrival: Arrival,
        popularity: Popularity,
        behaviour: Behaviour,
    ) -> Self {
        Phase {
            name: name.into(),
            start,
            arrival,
            popularity,
            behaviour,
        }
    }
}

/// When viewers arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// A flash crowd: `viewers` arrivals spaced `spacing` apart.
    Flash {
        /// Number of arrivals.
        viewers: usize,
        /// Inter-arrival gap.
        spacing: SimDuration,
    },
    /// A linear ramp: arrival density grows linearly from zero over
    /// `duration` until all `viewers` have arrived.
    Ramp {
        /// Number of arrivals.
        viewers: usize,
        /// Ramp length.
        duration: SimDuration,
    },
    /// A compressed diurnal curve: arrival rate follows one
    /// trough-peak-trough cosine cycle over `duration`, never
    /// dropping below `trough_pct` percent of the peak rate.
    Diurnal {
        /// Number of arrivals.
        viewers: usize,
        /// Length of the compressed "day".
        duration: SimDuration,
        /// Off-peak rate as a percentage of the peak rate (0–100).
        trough_pct: u32,
    },
    /// A closed-loop saturation probe: up to `max` arrivals spaced
    /// `spacing` apart, intended to be driven until the first
    /// admission refusal (the ported `streams sustained` benches).
    Saturate {
        /// Upper bound on arrivals.
        max: usize,
        /// Inter-arrival gap.
        spacing: SimDuration,
    },
}

impl Arrival {
    /// Number of agents this curve produces.
    pub(crate) fn count(&self) -> usize {
        match *self {
            Arrival::Flash { viewers, .. }
            | Arrival::Ramp { viewers, .. }
            | Arrival::Diurnal { viewers, .. } => viewers,
            Arrival::Saturate { max, .. } => max,
        }
    }

    /// Length of the arrival window.
    pub(crate) fn window(&self) -> SimDuration {
        match *self {
            Arrival::Flash { viewers, spacing }
            | Arrival::Saturate {
                max: viewers,
                spacing,
            } => SimDuration::from_micros(spacing.as_micros().saturating_mul(viewers as u64)),
            Arrival::Ramp { duration, .. } | Arrival::Diurnal { duration, .. } => duration,
        }
    }
}

/// Which title an arrival picks.
#[derive(Debug, Clone, PartialEq)]
pub enum Popularity {
    /// Everyone watches one title.
    Single(String),
    /// Arrivals walk this explicit cycle of titles, wrapping — the
    /// vehicle for porting hand-wired slot patterns byte-identically.
    Cycle(Vec<String>),
    /// Rank-`r` title drawn with probability ∝ 1/r^exponent over the
    /// spec's title list (catalogue order = popularity order).
    Zipf {
        /// Skew exponent (> 0; ~1 is the classic video-store skew).
        exponent: f64,
    },
}

/// The op mix of a channel-surfing VCR storm, in percent. The
/// remainder up to 100 resumes nominal playback (`Play { 100 }`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcrMix {
    /// Backward seek (rewind) probability.
    pub seek_back_pct: u32,
    /// Forward seek (skip-ahead) probability.
    pub seek_fwd_pct: u32,
    /// Fast-forward (`Play { 200 }`) probability.
    pub ff_pct: u32,
    /// Pause probability.
    pub pause_pct: u32,
}

impl VcrMix {
    /// Percentage points the mix assigns explicitly (must stay ≤ 100;
    /// the rest resumes nominal playback).
    pub(crate) fn sum(&self) -> u32 {
        self.seek_back_pct + self.seek_fwd_pct + self.ff_pct + self.pause_pct
    }

    /// A rewind-heavy channel-surfing mix.
    pub fn rewind_heavy() -> Self {
        VcrMix {
            seek_back_pct: 50,
            seek_fwd_pct: 15,
            ff_pct: 15,
            pause_pct: 10,
        }
    }
}

/// What one agent does after it arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Behaviour {
    /// Select the title and play it through.
    Watch,
    /// Record `frames` frames onto a fresh per-agent title (the mixed
    /// record+playback fleets).
    Record {
        /// Frames to capture.
        frames: u64,
    },
    /// Select, play, then fire `ops` VCR operations drawn from `mix`
    /// every `op_interval`, jumping `jump_frames` per seek; ends with
    /// a `Stop`.
    VcrStorm {
        /// Number of VCR operations per agent.
        ops: usize,
        /// The op mix.
        mix: VcrMix,
        /// Gap between consecutive VCR operations.
        op_interval: SimDuration,
        /// Seek width in frames.
        jump_frames: u64,
    },
}
