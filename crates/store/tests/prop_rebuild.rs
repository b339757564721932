//! Property tests of spindle-death rebuild: across arbitrary stripe
//! widths, dead-disk choices, and movie sizes, reconstruction
//! relocates exactly the lost blocks onto surviving disks (surviving
//! addresses byte-for-byte untouched — block content is derived
//! deterministically from `(movie, logical block)`, so address
//! identity is content identity), the rebuilt map stays a bijection,
//! and the allocator never hands out an address on a dead spindle.

use mtp::MovieSource;
use netsim::SimTime;
use proptest::prelude::*;
use std::collections::HashSet;
use store::{BlockAddr, BlockStore, CachePolicy, DiskParams, StoreConfig};

fn config(disks: usize, block_kib: u32) -> StoreConfig {
    StoreConfig {
        disks,
        block_size: block_kib * 1024,
        cache_blocks: 32,
        policy: CachePolicy::Lru,
        disk: DiskParams::default(),
        prefetch_depth: 4,
        readahead_blocks: 16,
        ..StoreConfig::default()
    }
}

/// Pumps the store along its own event clock until `done`.
fn pump_until(store: &BlockStore, mut now: SimTime, mut done: impl FnMut() -> bool) -> SimTime {
    let mut guard = 0;
    while !done() {
        if let Some(t) = store.next_event() {
            now = now.max(t);
        }
        store.pump(now);
        guard += 1;
        assert!(guard < 200_000, "store never reached the condition");
    }
    now
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rebuild over an arbitrary stripe geometry: lost blocks end up
    /// on live disks at fresh addresses, surviving blocks keep their
    /// exact pre-fault addresses (identical content), the map stays a
    /// bijection, and no address — rebuilt or otherwise — lives on
    /// the dead spindle.
    #[test]
    fn rebuild_restores_an_exact_bijection(
        disks in 2usize..7,
        dead_seed in 0usize..64,
        frames in 60u64..600,
        block_kib in 32u32..128,
    ) {
        let dead = dead_seed % disks;
        let store = BlockStore::new(config(disks, block_kib));
        let source = MovieSource::test_movie(frames, 7);
        let id = store.register_movie(&source);
        let layout = store.layout_of(id).expect("published movies stripe");
        let before: Vec<BlockAddr> = layout.blocks().map(|b| layout.locate(b)).collect();
        let expected_lost = before.iter().filter(|a| a.disk == dead).count() as u64;

        let lost = store.fail_disk(dead, SimTime::ZERO);
        prop_assert_eq!(lost, expected_lost);
        let reserve = (store.available_bps() / 2).max(1);
        store.begin_rebuild(reserve, SimTime::ZERO).expect("reservation fits an idle store");
        pump_until(&store, SimTime::ZERO, || !store.rebuild_active());
        prop_assert_eq!(store.lost_blocks_pending(), 0);

        let after = store.allocation_of(id).expect("materialized to a map");
        prop_assert_eq!(after.len(), before.len());
        let mut seen = HashSet::new();
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            prop_assert!(a.disk < disks);
            prop_assert!(a.disk != dead, "block {} on the dead spindle", i);
            prop_assert!(seen.insert(*a), "address {:?} mapped twice", a);
            if b.disk != dead {
                // Identical address ⇒ identical bytes: survivors are
                // untouched by the rebuild.
                prop_assert_eq!(a, b, "surviving block {} moved", i);
            }
        }
    }

    /// A second spindle dies while the first rebuild is still
    /// running (and again asks for a rebuild, as `World::fail_disk`
    /// does): its blocks — including already-relocated ones that
    /// landed on it, durable or still queued — join the running job.
    /// Afterwards nothing is left reserved, pending, or mapped onto
    /// either dead disk, and the map is still a bijection.
    #[test]
    fn second_spindle_death_joins_the_running_rebuild(
        disks in 3usize..7,
        first_seed in 0usize..64,
        second_seed in 1usize..64,
        frames in 60u64..600,
        block_kib in 32u32..128,
        pumps_between in 0usize..12,
    ) {
        let first = first_seed % disks;
        let second = (first + 1 + second_seed % (disks - 1)) % disks;
        let store = BlockStore::new(config(disks, block_kib));
        let id = store.register_movie(&MovieSource::test_movie(frames, 7));
        let blocks = store.layout_of(id).expect("published movies stripe").block_count();

        let mut now = SimTime::ZERO;
        store.fail_disk(first, now);
        let reserve = (store.available_bps() / 2).max(1);
        let job = store.begin_rebuild(reserve, now).expect("reservation fits an idle store");
        for _ in 0..pumps_between {
            if let Some(t) = store.next_event() {
                now = now.max(t);
            }
            store.pump(now);
        }
        store.fail_disk(second, now);
        let again = store
            .begin_rebuild((store.available_bps() / 2).max(1), now)
            .expect("fits, and a running rebuild is never refused");
        if store.rebuild_active() {
            prop_assert_eq!(store.stats().committed_bps, reserve, "a second reservation");
            prop_assert_eq!(again, job, "a second job");
        }
        pump_until(&store, now, || !store.rebuild_active());

        prop_assert_eq!(store.lost_blocks_pending(), 0);
        prop_assert_eq!(store.stats().committed_bps, 0, "a reservation leaked");
        let after = store.allocation_of(id).expect("materialized to a map");
        prop_assert_eq!(after.len() as u64, blocks);
        let mut seen = HashSet::new();
        for (i, a) in after.iter().enumerate() {
            prop_assert!(a.disk < disks);
            prop_assert!(a.disk != first && a.disk != second, "block {} on a dead spindle", i);
            prop_assert!(seen.insert(*a), "address {:?} mapped twice", a);
        }
    }

    /// After a spindle dies, every write path — recording, bulk
    /// import, post-fault registration — allocates only on survivors.
    #[test]
    fn allocator_never_hands_out_a_dead_spindle(
        disks in 2usize..6,
        dead_seed in 0usize..64,
        frames in 30u64..200,
    ) {
        let dead = dead_seed % disks;
        let store = BlockStore::new(config(disks, 64));
        store.fail_disk(dead, SimTime::ZERO);

        let rec_source = MovieSource::test_movie(frames, 11);
        let movie = store.open_recording(1, &rec_source).expect("idle store admits");
        let mut now = SimTime::ZERO;
        for frame in rec_source.frames() {
            store.append_frame(1, frame.size, now).unwrap();
            now += netsim::SimDuration::from_micros(rec_source.frame_interval_us());
        }
        store.seal_recording(1, now).unwrap();
        now = pump_until(&store, now, || store.recording_durable(1) == Some(true));
        store.finish_recording(1).unwrap();
        for addr in store.allocation_of(movie).expect("recorded movies map") {
            prop_assert_ne!(addr.disk, dead);
        }

        let imported = store.import_movie(&MovieSource::test_movie(frames, 13), now);
        for addr in store.allocation_of(imported).expect("imports map") {
            prop_assert_ne!(addr.disk, dead);
        }

        let registered = store.register_movie(&MovieSource::test_movie(frames, 17));
        for addr in store.allocation_of(registered).expect("post-fault registration maps") {
            prop_assert_ne!(addr.disk, dead);
        }
    }
}
