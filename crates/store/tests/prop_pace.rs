//! Property test of the one pace law behind both kinds of background
//! block job. Across random reservations, block sizes, stripe widths
//! and title lengths, a migration copy and a spindle rebuild — driven
//! only by the store's own `next_event` clock — never issue faster
//! than their reservation has paid for, never run more than the
//! issue window ahead of the platters, and are never woken before the
//! gate actually opens. A burst of viewers opened just before the job
//! fills the disk queues with prefetch reads, so the window — not only
//! the reservation — gets to bind.
//!
//! The bound is written here in its forward form (blocks the elapsed
//! time has paid for, plus the one that goes out at once); the store
//! computes the inverse (the instant the next block is paid for), so
//! the test is an independent statement of the law, not a copy of the
//! implementation.

use mtp::MovieSource;
use netsim::SimTime;
use proptest::prelude::*;
use store::{BlockStore, CachePolicy, StoreConfig};

/// The issue window of a paced job (`IMPORT_WINDOW` in the store).
const WINDOW: u64 = 8;

/// What the test can see of one job through the public counters.
struct Observed<'a> {
    /// Blocks the job has queued for write so far.
    issued: &'a dyn Fn() -> u64,
    /// Of those, how many have left the disk queues.
    durable: &'a dyn Fn() -> u64,
    /// The job has nothing left to issue or persist.
    done: &'a dyn Fn() -> bool,
}

/// Drives `store` along its own event clock until the job is done,
/// checking the pace law at the start and after every pump.
fn drive_checking_the_pace_law(
    store: &BlockStore,
    started: SimTime,
    reserve_bps: u64,
    job: Observed<'_>,
) -> Result<(), TestCaseError> {
    let block_bits = u128::from(store.config().block_size) * 8;
    let within_law = |now: SimTime| -> Result<(), TestCaseError> {
        let elapsed_us = u128::from(now.saturating_since(started).as_micros());
        let paid_for = (elapsed_us * u128::from(reserve_bps) / 1_000_000 / block_bits) as u64;
        let (issued, durable) = ((job.issued)(), (job.durable)());
        prop_assert!(
            issued <= paid_for + 1,
            "{} blocks out after {} us, the reservation covers {} + 1",
            issued,
            elapsed_us,
            paid_for
        );
        prop_assert!(
            issued - durable <= WINDOW,
            "{} blocks ahead of the platters",
            issued - durable
        );
        Ok(())
    };
    within_law(started)?;
    let mut now = started;
    let mut guard = 0;
    while !(job.done)() {
        let wake = store.next_event();
        prop_assert!(wake.is_some(), "an unfinished job asked for no wake-up");
        now = now.max(wake.unwrap());
        let issued_before = (job.issued)();
        let completed = store.pump(now);
        // The wake-up was for a disk completion or for the gate; one
        // for the gate that finds it still shut came too early.
        prop_assert!(
            completed > 0 || (job.issued)() > issued_before,
            "woken at {:?} with nothing complete and the gate shut",
            now
        );
        within_law(now)?;
        guard += 1;
        prop_assert!(guard < 200_000, "job never finished");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn copy_and_rebuild_obey_one_pace_law(
        disks in 2usize..6,
        block_kib in 16u32..256,
        frames in 60u64..600,
        reserve_permille in 1u64..1000,
        start_ms in 0u64..5_000,
        viewers in 0u32..6,
    ) {
        let config = StoreConfig {
            disks,
            block_size: block_kib * 1024,
            cache_blocks: 32,
            policy: CachePolicy::Lru,
            prefetch_depth: 32,
            readahead_blocks: 64,
            ..StoreConfig::default()
        };
        let source = MovieSource::test_movie(frames, 5);
        let started = SimTime::from_millis(start_ms);
        let open_viewers = |store: &BlockStore, title: &MovieSource| {
            let movie = store.register_movie(title);
            for viewer in 0..viewers {
                let _ = store.open_stream(viewer, movie, 100, started);
            }
        };

        // A migration copy beside the viewers.
        let store = BlockStore::new(config);
        open_viewers(&store, &MovieSource::test_movie(600, 9));
        let reserve = (store.available_bps() / 1000 * reserve_permille).max(1);
        let id = store.begin_import(&source, reserve, started).expect("fits beside the viewers");
        drive_checking_the_pace_law(&store, started, reserve, Observed {
            issued: &|| store.stats().blocks_imported,
            durable: &|| store.stats().disks.iter().map(|d| d.writes).sum(),
            done: &|| store.import_durable(id) == Some(true),
        })?;
        store.finish_import(id).expect("durable");

        // A rebuild of the same title after one spindle dies.
        let store = BlockStore::new(config);
        open_viewers(&store, &source);
        let lost = store.fail_disk(frames as usize % disks, started);
        let reserve = (store.available_bps() / 1000 * reserve_permille).max(1);
        store.begin_rebuild(reserve, started).expect("fits beside the viewers");
        drive_checking_the_pace_law(&store, started, reserve, Observed {
            issued: &|| lost - store.lost_blocks_pending(),
            durable: &|| store.rebuild_progress().map_or(lost, |(durable, _)| durable),
            done: &|| !store.rebuild_active(),
        })?;
    }
}
