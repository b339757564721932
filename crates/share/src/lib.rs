//! `share` — stream sharing: leader/follower merge groups that turn a
//! flash crowd on one title into (nearly) one disk stream.
//!
//! The interval cache already keeps the blocks between two
//! close-spaced viewers resident, but every admitted viewer still
//! charges one full stream of disk bandwidth, so `streams_sustained`
//! is bounded by spindles. The VOD patching/piggybacking idea the
//! interval-cache design nods to closes that gap:
//!
//! - one **leader** per (movie, position band) is the only stream
//!   charged against disk-bandwidth admission;
//! - a **merged follower** joining within the merge window rides the
//!   leader's disk stream entirely from cache (the span between the
//!   trailing follower and the leader is *pinned* against eviction)
//!   and charges **zero** admission;
//! - a follower outside the window but inside the catch-up horizon is
//!   **fast-fed** at `catch_up_rate × bitrate`, charging only the
//!   delta bandwidth until it converges onto the leader, then merges;
//! - a viewer beyond the horizon becomes a new leader.
//!
//! [`ShareManager`] is pure bookkeeping on the sim clock: the stream
//! provider consults it on open, feeds it positions each pump, applies
//! the admission consequences through the store
//! (`open_stream_with_demand` / `recharge_stream` /
//! `set_pinned_ranges`), and journals every lifecycle step
//! (`merge_joined`, `fast_feed_started`/`_converged`,
//! `leader_promoted`, `group_split`).
//!
//! ```
//! use share::{JoinPlan, ShareConfig, ShareManager};
//! use store::MovieId;
//!
//! let share = ShareManager::new(ShareConfig::default());
//! let movie = MovieId(1);
//! // First viewer leads…
//! assert!(matches!(share.plan_join(movie), JoinPlan::Lead));
//! share.open_leader(1, movie);
//! // …the next viewer (starting at block 0, leader still at 0) merges.
//! match share.plan_join(movie) {
//!     JoinPlan::Merge { leader, .. } => share.open_merged(2, movie, leader),
//!     other => panic!("expected merge, got {other:?}"),
//! }
//! assert_eq!(share.shared_streams(), 1);
//! assert!(share.shares_movie(movie));
//! ```

#![warn(missing_docs)]

use journal::{kind, EventKind, Journal};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use store::MovieId;

/// Tuning knobs of the merge engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShareConfig {
    /// Master switch: when false every viewer leads its own group
    /// (sharing-off behaves exactly like the pre-sharing server).
    pub enabled: bool,
    /// A joiner within this many blocks of a leader merges instantly,
    /// served from the pinned cache span.
    pub merge_window_blocks: u64,
    /// A joiner within this many blocks (but past the merge window)
    /// fast-feeds until its gap shrinks to the merge window.
    pub catch_up_horizon_blocks: u64,
    /// Fast-feed playback rate, percent of nominal (the delta above
    /// 100 is what admission charges).
    pub catch_up_rate_pct: u32,
}

impl Default for ShareConfig {
    fn default() -> Self {
        ShareConfig {
            enabled: true,
            merge_window_blocks: 16,
            catch_up_horizon_blocks: 64,
            catch_up_rate_pct: 125,
        }
    }
}

impl ShareConfig {
    /// Sharing disabled: every viewer is its own leader.
    pub fn off() -> Self {
        ShareConfig {
            enabled: false,
            ..ShareConfig::default()
        }
    }
}

/// How a new viewer should be admitted, from [`ShareManager::plan_join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinPlan {
    /// No leader close enough: open normally, charge one full disk
    /// stream, lead a fresh group.
    Lead,
    /// Within the merge window of `leader`: open with zero admission
    /// demand and ride the pinned cache span.
    Merge {
        /// Stream id of the group's leader.
        leader: u32,
        /// Leader-to-joiner gap at decision time, in blocks.
        gap_blocks: u64,
    },
    /// Within the catch-up horizon of `leader`: open charging only
    /// the fast-feed delta, play at the catch-up rate, merge on
    /// convergence.
    FastFeed {
        /// Stream id of the group's leader.
        leader: u32,
        /// Leader-to-joiner gap at decision time, in blocks.
        gap_blocks: u64,
    },
}

/// A member's role within its group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Leader,
    Merged,
    FastFeed,
}

#[derive(Debug)]
struct Member {
    role: Role,
    position_block: u64,
}

#[derive(Debug)]
struct Group {
    movie: MovieId,
    leader: u32,
    members: HashMap<u32, Member>,
}

/// What happened to a group when a member stream went away, from
/// [`ShareManager::on_close`] / [`ShareManager::on_leader_departure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Departure {
    /// The stream was not in any group: nothing to do.
    NotShared,
    /// A follower left; the group (and its leader's charge) stands.
    FollowerLeft,
    /// The group's last member left; the group dissolved.
    GroupDissolved,
    /// The leader left and this follower must take over the disk
    /// stream: the caller re-charges it one full stream of admission.
    Promoted {
        /// The follower promoted to leader.
        new_leader: u32,
    },
}

/// Counter view over the manager's journal chain, one field per
/// lifecycle event kind ([`ShareManager::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShareStats {
    /// Followers merged straight into a group.
    pub merges: u64,
    /// Followers that started a fast-feed catch-up.
    pub fast_feeds: u64,
    /// Fast-feeds that converged and merged.
    pub conversions: u64,
    /// Followers promoted to leader.
    pub promotions: u64,
    /// Followers split out of their group.
    pub splits: u64,
}

struct ShareInner {
    groups: HashMap<u32, Group>,
    /// Stream → group id.
    group_of: HashMap<u32, u32>,
    next_group: u32,
    /// Every lifecycle step is recorded here under `actor`'s hash
    /// chain, and [`ShareManager::stats`] is counted from it: a
    /// standalone journal until [`ShareManager::attach_journal`] wires
    /// in the shared one.
    journal: Arc<Journal>,
    actor: String,
}

impl ShareInner {
    fn record(&self, kind: EventKind) {
        self.journal.record(&self.actor, kind);
    }

    /// Detaches `stream` from its group. Returns the departure
    /// outcome; on promotion the group is rewired to the new leader.
    fn detach(&mut self, stream: u32) -> Departure {
        let Some(gid) = self.group_of.remove(&stream) else {
            return Departure::NotShared;
        };
        let group = self.groups.get_mut(&gid).expect("group_of is consistent");
        let member = group.members.remove(&stream).expect("member of its group");
        if group.members.is_empty() {
            self.groups.remove(&gid);
            return Departure::GroupDissolved;
        }
        if member.role != Role::Leader {
            return Departure::FollowerLeft;
        }
        // The leader left: promote the nearest (highest-position)
        // follower — its pipeline is closest to the departed disk
        // stream, so the pinned span shrinks the least.
        let (&new_leader, _) = group
            .members
            .iter()
            .max_by_key(|(id, m)| (m.position_block, **id))
            .expect("non-empty after removal");
        group.leader = new_leader;
        let promoted = group.members.get_mut(&new_leader).expect("chosen above");
        promoted.role = Role::Leader;
        let movie = group.movie;
        let followers = (group.members.len() - 1) as u32;
        self.record(EventKind::LeaderPromoted {
            movie: movie.0,
            from: stream,
            to: new_leader,
            followers,
        });
        Departure::Promoted { new_leader }
    }

    fn new_group(&mut self, stream: u32, movie: MovieId, position_block: u64) {
        let gid = self.next_group;
        self.next_group += 1;
        let mut members = HashMap::new();
        members.insert(
            stream,
            Member {
                role: Role::Leader,
                position_block,
            },
        );
        self.groups.insert(
            gid,
            Group {
                movie,
                leader: stream,
                members,
            },
        );
        self.group_of.insert(stream, gid);
    }
}

/// The per-server merge engine: one instance beside each store.
pub struct ShareManager {
    config: ShareConfig,
    inner: Mutex<ShareInner>,
}

impl std::fmt::Debug for ShareManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ShareManager")
            .field("groups", &inner.groups.len())
            .field("streams", &inner.group_of.len())
            .finish_non_exhaustive()
    }
}

impl ShareManager {
    /// Creates a manager with `config`.
    pub fn new(config: ShareConfig) -> Self {
        ShareManager {
            config,
            inner: Mutex::new(ShareInner {
                groups: HashMap::new(),
                group_of: HashMap::new(),
                next_group: 0,
                journal: Arc::new(Journal::standalone()),
                actor: "share".to_string(),
            }),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> ShareConfig {
        self.config
    }

    /// Attaches an event journal: every lifecycle step from here on is
    /// recorded under `server`'s hash chain, and counted from there.
    pub fn attach_journal(&self, journal: Arc<Journal>, server: impl Into<String>) {
        let mut inner = self.inner.lock();
        inner.journal = journal;
        inner.actor = server.into();
    }

    /// Decides how a new viewer of `movie` (starting at block 0)
    /// should be admitted: merge behind the nearest leader, fast-feed
    /// toward one within the horizon, or lead a fresh group.
    pub fn plan_join(&self, movie: MovieId) -> JoinPlan {
        if !self.config.enabled {
            return JoinPlan::Lead;
        }
        let inner = self.inner.lock();
        // A new viewer starts at block 0, so its gap to a leader is
        // the leader's position; the nearest band wins.
        let nearest = inner
            .groups
            .values()
            .filter(|g| g.movie == movie)
            .map(|g| {
                let pos = g.members[&g.leader].position_block;
                (pos, g.leader)
            })
            .min();
        match nearest {
            Some((gap, leader)) if gap <= self.config.merge_window_blocks => JoinPlan::Merge {
                leader,
                gap_blocks: gap,
            },
            Some((gap, leader)) if gap <= self.config.catch_up_horizon_blocks => {
                JoinPlan::FastFeed {
                    leader,
                    gap_blocks: gap,
                }
            }
            _ => JoinPlan::Lead,
        }
    }

    /// The fast-feed delta demand for a movie of `bitrate_bps`:
    /// `(catch_up_rate − 100)% × bitrate` — the extra bandwidth the
    /// catch-up briefly draws on top of the leader's stream.
    pub fn fast_feed_delta_bps(&self, bitrate_bps: u64) -> u64 {
        let extra = u64::from(self.config.catch_up_rate_pct.saturating_sub(100));
        bitrate_bps.saturating_mul(extra) / 100
    }

    /// Registers `stream` as the leader of a fresh group.
    pub fn open_leader(&self, stream: u32, movie: MovieId) {
        if !self.config.enabled {
            return;
        }
        self.inner.lock().new_group(stream, movie, 0);
    }

    /// Registers `stream` as a merged follower of `leader`'s group.
    pub fn open_merged(&self, stream: u32, movie: MovieId, leader: u32) {
        let mut inner = self.inner.lock();
        let Some(&gid) = inner.group_of.get(&leader) else {
            // The leader vanished between plan and open: lead instead.
            inner.new_group(stream, movie, 0);
            return;
        };
        let group = inner.groups.get_mut(&gid).expect("group_of is consistent");
        let gap = group.members[&group.leader].position_block;
        group.members.insert(
            stream,
            Member {
                role: Role::Merged,
                position_block: 0,
            },
        );
        inner.group_of.insert(stream, gid);
        inner.record(EventKind::MergeJoined {
            movie: movie.0,
            leader,
            follower: stream,
            gap_blocks: gap,
        });
    }

    /// Registers `stream` as a fast-feeding follower of `leader`'s
    /// group, charged `delta_bps` for the catch-up.
    pub fn open_fast_feed(&self, stream: u32, movie: MovieId, leader: u32, delta_bps: u64) {
        let mut inner = self.inner.lock();
        let Some(&gid) = inner.group_of.get(&leader) else {
            inner.new_group(stream, movie, 0);
            return;
        };
        let group = inner.groups.get_mut(&gid).expect("group_of is consistent");
        let gap = group.members[&group.leader].position_block;
        group.members.insert(
            stream,
            Member {
                role: Role::FastFeed,
                position_block: 0,
            },
        );
        inner.group_of.insert(stream, gid);
        inner.record(EventKind::FastFeedStarted {
            movie: movie.0,
            leader,
            follower: stream,
            gap_blocks: gap,
            delta_bps,
        });
    }

    /// Updates a member's playback position (block index). Unknown
    /// streams are ignored.
    pub fn note_position(&self, stream: u32, block: u64) {
        let mut inner = self.inner.lock();
        let Some(&gid) = inner.group_of.get(&stream) else {
            return;
        };
        if let Some(group) = inner.groups.get_mut(&gid) {
            if let Some(member) = group.members.get_mut(&stream) {
                member.position_block = block;
            }
        }
    }

    /// A member's playback position (block index) as last noted;
    /// `None` for streams in no group.
    pub fn position_block(&self, stream: u32) -> Option<u64> {
        let inner = self.inner.lock();
        let gid = inner.group_of.get(&stream)?;
        let member = inner.groups.get(gid)?.members.get(&stream)?;
        Some(member.position_block)
    }

    /// Fast-feeding followers whose gap to their leader has shrunk to
    /// the merge window: the caller releases each one's delta
    /// reservation, resets its playback rate, and confirms with
    /// [`ShareManager::mark_converged`].
    pub fn converged_fast_feeds(&self) -> Vec<u32> {
        let inner = self.inner.lock();
        let mut done: Vec<u32> = inner
            .groups
            .values()
            .flat_map(|g| {
                let leader_pos = g.members[&g.leader].position_block;
                g.members
                    .iter()
                    .filter(move |(_, m)| {
                        m.role == Role::FastFeed
                            && leader_pos.saturating_sub(m.position_block)
                                <= self.config.merge_window_blocks
                    })
                    .map(|(id, _)| *id)
            })
            .collect();
        done.sort_unstable();
        done
    }

    /// Flips a fast-feeding follower to merged (after the caller
    /// released its delta reservation) and journals the convergence.
    pub fn mark_converged(&self, stream: u32) {
        let mut inner = self.inner.lock();
        let Some(&gid) = inner.group_of.get(&stream) else {
            return;
        };
        let Some(group) = inner.groups.get_mut(&gid) else {
            return;
        };
        let movie = group.movie;
        let Some(member) = group.members.get_mut(&stream) else {
            return;
        };
        if member.role != Role::FastFeed {
            return;
        }
        member.role = Role::Merged;
        inner.record(EventKind::FastFeedConverged {
            movie: movie.0,
            follower: stream,
        });
    }

    /// True when `stream` is a follower still catching up at the
    /// fast-feed rate.
    pub fn is_fast_feeding(&self, stream: u32) -> bool {
        let inner = self.inner.lock();
        inner
            .group_of
            .get(&stream)
            .and_then(|gid| inner.groups.get(gid))
            .and_then(|g| g.members.get(&stream))
            .is_some_and(|m| m.role == Role::FastFeed)
    }

    /// The follower that would be promoted if `stream` (a leader with
    /// followers) departed — the same choice
    /// [`ShareManager::on_close`] / [`ShareManager::on_leader_departure`]
    /// would make. Lets the caller charge the replacement disk stream
    /// *before* committing to the departure, refusing the trick op
    /// honestly when the replacement does not fit.
    pub fn promotion_candidate(&self, stream: u32) -> Option<u32> {
        let inner = self.inner.lock();
        let group = inner.groups.get(inner.group_of.get(&stream)?)?;
        if group.leader != stream || group.members.len() < 2 {
            return None;
        }
        group
            .members
            .iter()
            .filter(|(id, _)| **id != stream)
            .max_by_key(|(id, m)| (m.position_block, **id))
            .map(|(id, _)| *id)
    }

    /// True when `stream` belongs to a group but is not its leader.
    pub fn is_follower(&self, stream: u32) -> bool {
        let inner = self.inner.lock();
        inner
            .group_of
            .get(&stream)
            .and_then(|gid| inner.groups.get(gid))
            .is_some_and(|g| g.leader != stream)
    }

    /// True when `stream` leads a group with at least one follower.
    pub fn is_leader_with_followers(&self, stream: u32) -> bool {
        let inner = self.inner.lock();
        inner
            .group_of
            .get(&stream)
            .and_then(|gid| inner.groups.get(gid))
            .is_some_and(|g| g.leader == stream && g.members.len() > 1)
    }

    /// Removes a closing stream from its group. On
    /// [`Departure::Promoted`] the caller must re-charge the new
    /// leader one full disk stream (guaranteed to fit: the departed
    /// leader just released at least that much).
    pub fn on_close(&self, stream: u32) -> Departure {
        self.inner.lock().detach(stream)
    }

    /// A leader is about to seek/FF/pause out of its band: it leaves
    /// the group (keeping its own admission charge) and becomes a
    /// standalone group at `position_block`; the nearest follower is
    /// promoted. Non-leaders and non-members return
    /// [`Departure::NotShared`] untouched.
    pub fn on_leader_departure(&self, stream: u32, position_block: u64) -> Departure {
        let mut inner = self.inner.lock();
        let is_leader = inner
            .group_of
            .get(&stream)
            .and_then(|gid| inner.groups.get(gid))
            .is_some_and(|g| g.leader == stream && g.members.len() > 1);
        if !is_leader {
            return Departure::NotShared;
        }
        let outcome = inner.detach(stream);
        let movie = match outcome {
            Departure::Promoted { new_leader } => {
                let gid = inner.group_of[&new_leader];
                inner.groups[&gid].movie
            }
            _ => return outcome,
        };
        // The departed leader still streams (at full charge): it seeds
        // a fresh band future joiners can merge behind.
        inner.new_group(stream, movie, position_block);
        outcome
    }

    /// A follower seeks/pauses/changes speed out of its group — call
    /// *after* the store accepted its full re-admission. The follower
    /// becomes a standalone group at `position_block` (an eligible
    /// leader for future joiners) and the split is journaled.
    pub fn split_out(&self, stream: u32, position_block: u64) {
        let mut inner = self.inner.lock();
        let Some(&gid) = inner.group_of.get(&stream) else {
            return;
        };
        let movie = inner.groups[&gid].movie;
        inner.detach(stream);
        inner.new_group(stream, movie, position_block);
        inner.record(EventKind::GroupSplit {
            movie: movie.0,
            follower: stream,
        });
    }

    /// The cache spans to pin: for every group with a follower,
    /// `[trailing member position, leader position]` — exactly the
    /// blocks the followers still need from the leader's wake.
    pub fn pinned_ranges(&self) -> Vec<(MovieId, u64, u64)> {
        let inner = self.inner.lock();
        let mut ranges: Vec<(MovieId, u64, u64)> = inner
            .groups
            .values()
            .filter(|g| g.members.len() > 1)
            .map(|g| {
                let leader_pos = g.members[&g.leader].position_block;
                let trailing = g
                    .members
                    .values()
                    .map(|m| m.position_block)
                    .min()
                    .unwrap_or(leader_pos);
                (g.movie, trailing, leader_pos)
            })
            .collect();
        ranges.sort_unstable_by_key(|&(movie, lo, hi)| (movie.0, lo, hi));
        ranges
    }

    /// True when any group streams `movie` here — the routing
    /// tie-break: a server already streaming the title is the
    /// cheapest replica for the next viewer.
    pub fn shares_movie(&self, movie: MovieId) -> bool {
        self.inner.lock().groups.values().any(|g| g.movie == movie)
    }

    /// Sharing groups currently tracked.
    pub fn group_count(&self) -> usize {
        self.inner.lock().groups.len()
    }

    /// Streams riding a group without their own full disk stream
    /// (merged and fast-feeding followers).
    pub fn shared_streams(&self) -> usize {
        self.inner
            .lock()
            .groups
            .values()
            .map(|g| g.members.len() - 1)
            .sum()
    }

    /// Counter view derived from the journal chain (O(1) per field).
    pub fn stats(&self) -> ShareStats {
        let inner = self.inner.lock();
        let count = |tag| inner.journal.count_for(&inner.actor, tag);
        ShareStats {
            merges: count(kind::MERGE_JOINED),
            fast_feeds: count(kind::FAST_FEED_STARTED),
            conversions: count(kind::FAST_FEED_CONVERGED),
            promotions: count(kind::LEADER_PROMOTED),
            splits: count(kind::GROUP_SPLIT),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager() -> ShareManager {
        ShareManager::new(ShareConfig {
            enabled: true,
            merge_window_blocks: 4,
            catch_up_horizon_blocks: 10,
            catch_up_rate_pct: 150,
        })
    }

    #[test]
    fn join_plan_tiers_by_gap() {
        let share = manager();
        let movie = MovieId(1);
        assert_eq!(share.plan_join(movie), JoinPlan::Lead);
        share.open_leader(7, movie);
        // Leader at block 2: inside the merge window.
        share.note_position(7, 2);
        assert_eq!(
            share.plan_join(movie),
            JoinPlan::Merge {
                leader: 7,
                gap_blocks: 2
            }
        );
        // Leader at block 8: fast-feed territory.
        share.note_position(7, 8);
        assert_eq!(
            share.plan_join(movie),
            JoinPlan::FastFeed {
                leader: 7,
                gap_blocks: 8
            }
        );
        // Leader at block 30: too far, lead a new group.
        share.note_position(7, 30);
        assert_eq!(share.plan_join(movie), JoinPlan::Lead);
        // Another movie is always a fresh lead.
        assert_eq!(share.plan_join(MovieId(2)), JoinPlan::Lead);
    }

    #[test]
    fn disabled_always_leads() {
        let share = ShareManager::new(ShareConfig::off());
        let movie = MovieId(1);
        share.open_leader(1, movie);
        assert_eq!(share.plan_join(movie), JoinPlan::Lead);
        assert_eq!(share.group_count(), 0);
    }

    #[test]
    fn fast_feed_converges_when_gap_closes() {
        let share = manager();
        let movie = MovieId(1);
        share.open_leader(1, movie);
        share.note_position(1, 8);
        share.open_fast_feed(2, movie, 1, 1000);
        assert!(share.is_fast_feeding(2));
        assert!(share.converged_fast_feeds().is_empty());
        // The catch-up closes the gap to the window.
        share.note_position(2, 5);
        share.note_position(1, 9);
        assert_eq!(share.position_block(2), Some(5));
        assert_eq!(share.position_block(3), None, "in no group");
        assert_eq!(share.converged_fast_feeds(), vec![2]);
        share.mark_converged(2);
        assert!(share.converged_fast_feeds().is_empty());
        assert_eq!(share.stats().conversions, 1);
    }

    #[test]
    fn leader_close_promotes_nearest_follower() {
        let share = manager();
        let movie = MovieId(1);
        share.open_leader(1, movie);
        share.open_merged(2, movie, 1);
        share.open_merged(3, movie, 1);
        share.note_position(1, 10);
        share.note_position(2, 8);
        share.note_position(3, 6);
        assert_eq!(share.promotion_candidate(1), Some(2));
        assert_eq!(share.promotion_candidate(2), None, "not a leader");
        assert_eq!(share.on_close(1), Departure::Promoted { new_leader: 2 });
        assert!(share.is_leader_with_followers(2));
        assert!(share.is_follower(3));
        assert_eq!(share.stats().promotions, 1);
        // Closing a follower leaves the group standing…
        assert_eq!(share.on_close(3), Departure::FollowerLeft);
        // …and the last member dissolves it.
        assert_eq!(share.on_close(2), Departure::GroupDissolved);
        assert_eq!(share.group_count(), 0);
        assert_eq!(share.on_close(99), Departure::NotShared);
    }

    #[test]
    fn leader_departure_seeds_new_band_and_promotes() {
        let share = manager();
        let movie = MovieId(1);
        share.open_leader(1, movie);
        share.open_merged(2, movie, 1);
        share.note_position(1, 3);
        share.note_position(2, 1);
        let out = share.on_leader_departure(1, 40);
        assert_eq!(out, Departure::Promoted { new_leader: 2 });
        // Two groups now: the promoted follower's and the departed
        // leader's fresh band at block 40.
        assert_eq!(share.group_count(), 2);
        assert!(!share.is_follower(1));
        // A sole leader's trick op is not a departure.
        assert_eq!(share.on_leader_departure(2, 5), Departure::NotShared);
    }

    #[test]
    fn split_out_forms_standalone_group() {
        let share = manager();
        let movie = MovieId(1);
        share.open_leader(1, movie);
        share.open_merged(2, movie, 1);
        share.split_out(2, 25);
        assert_eq!(share.group_count(), 2);
        assert!(!share.is_follower(2));
        assert_eq!(share.shared_streams(), 0);
        assert_eq!(share.stats().splits, 1);
    }

    #[test]
    fn pinned_ranges_span_trailing_to_leader() {
        let share = manager();
        let movie = MovieId(1);
        share.open_leader(1, movie);
        share.open_merged(2, movie, 1);
        share.open_merged(3, movie, 1);
        share.note_position(1, 12);
        share.note_position(2, 9);
        share.note_position(3, 11);
        assert_eq!(share.pinned_ranges(), vec![(movie, 9, 12)]);
        // A lone leader pins nothing.
        share.open_leader(4, MovieId(2));
        assert_eq!(share.pinned_ranges().len(), 1);
    }

    #[test]
    fn journal_records_the_lifecycle() {
        let journal = Arc::new(Journal::new(Arc::new(netsim::VirtualClock::new())));
        let share = manager();
        share.attach_journal(Arc::clone(&journal), "node-1");
        let movie = MovieId(1);
        share.open_leader(1, movie);
        share.note_position(1, 8);
        share.open_fast_feed(2, movie, 1, 500);
        share.note_position(2, 6);
        share.mark_converged(2);
        share.open_merged(3, movie, 1);
        share.on_close(1);
        share.split_out(3, 9);
        journal.verify().expect("chain intact");
        assert_eq!(journal.count(journal::kind::FAST_FEED_STARTED), 1);
        assert_eq!(journal.count(journal::kind::FAST_FEED_CONVERGED), 1);
        assert_eq!(journal.count(journal::kind::MERGE_JOINED), 1);
        assert_eq!(journal.count(journal::kind::LEADER_PROMOTED), 1);
        assert_eq!(journal.count(journal::kind::GROUP_SPLIT), 1);
    }
}
