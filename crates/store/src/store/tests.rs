//! Unit tests of the store through its public handle: playback,
//! recording, paced copies and rebuild on tiny configurations.

use super::*;
use std::collections::HashSet;

fn tiny_config() -> StoreConfig {
    StoreConfig {
        disks: 2,
        block_size: 64 * 1024,
        cache_blocks: 8,
        policy: CachePolicy::Lru,
        prefetch_depth: 2,
        ..StoreConfig::default()
    }
}

/// Pumps the store, advancing the stream's playback position to
/// whatever is ready (an eager consumer), until the whole movie
/// has been delivered.
fn drain(store: &BlockStore, stream: u32, frame_count: u64) {
    let mut now = SimTime::ZERO;
    let mut guard = 0;
    while store.frames_ready_through(stream) != Some(frame_count) {
        if let Some(t) = store.next_event() {
            now = now.max(t);
        }
        store.pump(now);
        store.note_position(stream, store.frames_ready_through(stream).unwrap_or(0));
        guard += 1;
        assert!(guard < 100_000, "store did not deliver the movie");
    }
}

#[test]
fn prefetch_delivers_blocks_over_time() {
    let store = BlockStore::new(tiny_config());
    let movie = MovieSource::test_movie(10, 3);
    let id = store.register_movie(&movie);
    store.open_stream(7, id, 100, SimTime::ZERO).unwrap();
    assert_eq!(store.frames_ready_through(7), Some(0));
    // Advance past the first completions.
    let t = store.next_event().expect("reads outstanding");
    store.pump(t);
    assert!(store.frames_ready_through(7).unwrap() > 0);
    drain(&store, 7, movie.frame_count);
}

#[test]
fn register_is_idempotent_per_movie() {
    let store = BlockStore::new(tiny_config());
    let movie = MovieSource::test_movie(5, 9);
    let a = store.register_movie(&movie);
    let b = store.register_movie(&movie);
    assert_eq!(a, b);
    let c = store.register_movie(&MovieSource::test_movie(5, 10));
    assert_ne!(a, c);
    // An edited frame rate is a different movie to the store:
    // admission must see the doubled bandwidth demand.
    let mut faster = MovieSource::test_movie(5, 9);
    faster.frame_rate *= 2;
    let d = store.register_movie(&faster);
    assert_ne!(a, d);
    assert!(store.bitrate_of(d).unwrap() > store.bitrate_of(a).unwrap());
}

#[test]
fn second_viewer_hits_cache() {
    let store = BlockStore::new(StoreConfig {
        cache_blocks: 64,
        ..tiny_config()
    });
    let movie = MovieSource::test_movie(10, 3);
    let id = store.register_movie(&movie);
    store.open_stream(1, id, 100, SimTime::ZERO).unwrap();
    drain(&store, 1, movie.frame_count);
    let misses_before = store.stats().cache.misses;
    // Same movie again: everything is resident.
    store
        .open_stream(2, id, 100, SimTime::from_secs(5))
        .unwrap();
    drain(&store, 2, movie.frame_count);
    let stats = store.stats();
    assert_eq!(
        stats.cache.misses, misses_before,
        "second viewer served from cache"
    );
    assert!(stats.cache.hits > 0);
}

#[test]
fn seek_repositions_pipeline() {
    let store = BlockStore::new(tiny_config());
    let movie = MovieSource::test_movie(60, 4);
    let id = store.register_movie(&movie);
    store.open_stream(3, id, 100, SimTime::ZERO).unwrap();
    store
        .seek_stream(3, movie.frame_count - 1, SimTime::ZERO)
        .unwrap();
    drain(&store, 3, movie.frame_count);
}

/// Pumps every due event, bounded, without advancing playback.
fn pump_quiet(store: &BlockStore, now: &mut SimTime) {
    for _ in 0..10_000 {
        let Some(t) = store.next_event() else { break };
        *now = (*now).max(t);
        store.pump(*now);
    }
}

/// Frames per block of `movie` on `store` (first frame whose
/// block index is 1).
fn frames_per_block(store: &BlockStore, movie: MovieId) -> u64 {
    (1..1_000_000)
        .find(|f| store.block_of_frame(movie, *f) == Some(1))
        .expect("movie spans more than one block")
}

#[test]
fn backward_hint_preloads_rewind_target() {
    for hints in [true, false] {
        let store = BlockStore::new(StoreConfig {
            cache_blocks: 256,
            prefetch_hints: hints,
            ..tiny_config()
        });
        let movie = MovieSource::test_movie(120, 6);
        let id = store.register_movie(&movie);
        store.open_stream(9, id, 100, SimTime::ZERO).unwrap();
        let fpb = frames_per_block(&store, id);
        let last_block = store.block_of_frame(id, movie.frame_count - 1).unwrap();
        let stride = (last_block / 4).max(1) as u32;
        let mid_block = last_block / 2;
        let mut now = SimTime::ZERO;
        // Seek to the middle with a backward hint: the sweep
        // pre-reads strided blocks behind the base.
        store
            .seek_stream_with_hint(9, mid_block * fpb, PrefetchHint::backward(stride), now)
            .unwrap();
        pump_quiet(&store, &mut now);
        // Rewind by one stride: with hints the target block is
        // cache-resident and delivery is immediate.
        let back_block = mid_block - u64::from(stride);
        store
            .seek_stream_with_hint(9, back_block * fpb, PrefetchHint::backward(stride), now)
            .unwrap();
        let ready = store.frames_ready_through(9).unwrap();
        if hints {
            assert!(
                ready > back_block * fpb,
                "swept block should deliver from cache instantly (ready {ready})"
            );
        } else {
            assert_eq!(
                ready,
                back_block * fpb,
                "without hints the rewind target still waits on disk"
            );
            assert_eq!(store.prefetch_hint(9), Some(PrefetchHint::default()));
        }
    }
}

#[test]
fn rewind_storm_hit_ratio_improves_with_hints() {
    let run = |hints: bool| -> (u64, f64) {
        let store = BlockStore::new(StoreConfig {
            cache_blocks: 512,
            prefetch_hints: hints,
            ..tiny_config()
        });
        let movie = MovieSource::test_movie(180, 6);
        let id = store.register_movie(&movie);
        store.open_stream(4, id, 100, SimTime::ZERO).unwrap();
        let fpb = frames_per_block(&store, id);
        let last_block = store.block_of_frame(id, movie.frame_count - 1).unwrap();
        let stride = (last_block / 12).max(2);
        let mut block = last_block - 1;
        let mut now = SimTime::ZERO;
        while block >= stride {
            store
                .seek_stream_with_hint(4, block * fpb, PrefetchHint::backward(stride as u32), now)
                .unwrap();
            pump_quiet(&store, &mut now);
            block -= stride;
        }
        let stats = store.stats();
        (stats.cache.hits, stats.service_hit_ratio())
    };
    let (hits_on, ratio_on) = run(true);
    let (hits_off, ratio_off) = run(false);
    assert!(
        hits_on > hits_off && ratio_on > ratio_off,
        "rewind storm must hit more with hints: {hits_on}/{ratio_on:.3} vs {hits_off}/{ratio_off:.3}"
    );
}

#[test]
fn forward_hint_widens_readahead_horizon() {
    let run = |stride: u32| -> u64 {
        let store = BlockStore::new(StoreConfig {
            cache_blocks: 512,
            ..tiny_config()
        });
        let movie = MovieSource::test_movie(240, 8);
        let id = store.register_movie(&movie);
        store.open_stream(2, id, 100, SimTime::ZERO).unwrap();
        store
            .set_prefetch_hint(2, PrefetchHint::forward(stride))
            .unwrap();
        let mut now = SimTime::ZERO;
        pump_quiet(&store, &mut now);
        store.stats().blocks_delivered
    };
    // Without advancing playback, fetches are bounded by the
    // horizon: a strided forward hint must widen it.
    assert!(run(4) > run(1));
}

#[test]
fn admission_rejects_over_capacity() {
    // One slow disk: a handful of streams exhausts it.
    let config = StoreConfig {
        disks: 1,
        disk: DiskParams {
            transfer_bytes_per_sec: 1_000_000,
            ..DiskParams::default()
        },
        ..tiny_config()
    };
    let store = BlockStore::new(config);
    let movie = MovieSource::test_movie(30, 5);
    let id = store.register_movie(&movie);
    let mut admitted = 0;
    let mut rejected = None;
    for stream in 0..64 {
        match store.open_stream(stream, id, 100, SimTime::ZERO) {
            Ok(()) => admitted += 1,
            Err(e) => {
                rejected = Some(e);
                break;
            }
        }
    }
    assert!(admitted >= 1, "at least one stream fits");
    let Some(StoreError::AdmissionRejected {
        demanded_bps,
        available_bps,
    }) = rejected
    else {
        panic!("expected a rejection, got {rejected:?}");
    };
    assert!(demanded_bps > available_bps);
    // Closing a stream frees its bandwidth for a newcomer.
    store.close_stream(0);
    store.open_stream(99, id, 100, SimTime::ZERO).unwrap();
}

#[test]
fn record_then_play_round_trips() {
    let store = BlockStore::new(tiny_config());
    let source = MovieSource::test_movie(10, 21);
    let movie = store.open_recording(5, &source).unwrap();
    let mut now = SimTime::ZERO;
    for frame in source.frames() {
        store.append_frame(5, frame.size, now).unwrap();
        now += netsim::SimDuration::from_micros(source.frame_interval_us());
    }
    store.seal_recording(5, now).unwrap();
    // Capture is over: the bandwidth is already released.
    let stats = store.stats();
    assert_eq!(stats.committed_bps, 0);
    assert_eq!(stats.frames_recorded, source.frame_count);
    assert!(stats.blocks_recorded > 0);
    // Drain the queued writes, then finalize.
    assert!(matches!(
        store.finish_recording(5),
        Err(StoreError::RecordingIncomplete(5))
    ));
    while store.recording_durable(5) != Some(true) {
        let t = store.next_event().expect("writes queued");
        now = now.max(t);
        store.pump(now);
    }
    let summary = store.finish_recording(5).unwrap();
    assert_eq!(summary.movie, movie);
    assert_eq!(summary.frame_count, source.frame_count);
    assert!(summary.bitrate_bps > 0);
    let alloc = store.allocation_of(movie).expect("recorded movies map");
    assert_eq!(alloc.len() as u64, summary.blocks);
    // Re-registering the matching source finds the recording, and
    // playback delivers every recorded frame back.
    assert_eq!(store.register_movie(&source), movie);
    store.open_stream(9, movie, 100, now).unwrap();
    drain(&store, 9, source.frame_count);
    let writes: u64 = store.stats().disks.iter().map(|d| d.writes).sum();
    assert_eq!(writes, summary.blocks);
}

#[test]
fn import_places_a_streamable_copy() {
    let store = BlockStore::new(tiny_config());
    let source = MovieSource::test_movie(6, 33);
    let movie = store.import_movie(&source, SimTime::ZERO);
    assert_eq!(store.import_movie(&source, SimTime::ZERO), movie);
    let alloc = store.allocation_of(movie).expect("imported movies map");
    assert!(!alloc.is_empty());
    assert_eq!(store.register_movie(&source), movie);
    store.open_stream(4, movie, 100, SimTime::ZERO).unwrap();
    drain(&store, 4, source.frame_count);
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
        assert!(guard < 100_000, "store never reached the condition");
    }
    now
}

#[test]
fn paced_import_reserves_bandwidth_and_takes_real_time() {
    let store = BlockStore::new(tiny_config());
    let source = MovieSource::test_movie(10, 41);
    let reserve = source.mean_bitrate_bps();
    let id = store.begin_import(&source, reserve, SimTime::ZERO).unwrap();
    assert_eq!(
        store.stats().committed_bps,
        reserve,
        "the copy charges the same admission capacity streams draw on"
    );
    assert_eq!(store.import_durable(id), Some(false));
    let done = pump_until(&store, SimTime::ZERO, || {
        store.import_durable(id) == Some(true)
    });
    // Pacing: copying at the movie's own bitrate takes on the
    // order of the movie's duration, not an instant.
    let floor = source.frame_count as f64 / f64::from(source.frame_rate) * 0.5;
    assert!(
        done.saturating_since(SimTime::ZERO).as_secs_f64() >= floor,
        "copy finished implausibly fast for its reservation"
    );
    let movie = store.finish_import(id).unwrap();
    assert_eq!(store.stats().committed_bps, 0, "reservation released");
    assert!(store.allocation_of(movie).is_some(), "block-mapped copy");
    // The copy is streamable: the matching source resolves to it.
    assert_eq!(store.register_movie(&source), movie);
    store.open_stream(4, movie, 100, done).unwrap();
    drain(&store, 4, source.frame_count);
}

#[test]
fn import_abort_releases_reservation_and_blocks() {
    let store = BlockStore::new(tiny_config());
    let source = MovieSource::test_movie(10, 42);
    let id = store
        .begin_import(&source, source.mean_bitrate_bps(), SimTime::ZERO)
        .unwrap();
    // Let a few blocks go out, then yank the copy (the migration's
    // target server was removed mid-flight).
    store.pump(SimTime::from_secs(2));
    assert!(store.stats().blocks_imported > 0, "copy underway");
    store.abort_import(id);
    let stats = store.stats();
    assert_eq!(stats.committed_bps, 0, "reservation released on abort");
    assert_eq!(stats.imports_active, 0);
    assert!(store.import_durable(id).is_none());
    // The freed blocks are reusable: a fresh copy completes.
    let id2 = store
        .begin_import(&source, source.mean_bitrate_bps(), SimTime::from_secs(2))
        .unwrap();
    pump_until(&store, SimTime::from_secs(2), || {
        store.import_durable(id2) == Some(true)
    });
    store.finish_import(id2).unwrap();
}

#[test]
fn import_of_a_resident_movie_completes_instantly() {
    let store = BlockStore::new(tiny_config());
    let source = MovieSource::test_movie(5, 43);
    let movie = store.register_movie(&source);
    let id = store
        .begin_import(&source, 1_000_000, SimTime::ZERO)
        .unwrap();
    assert_eq!(store.import_durable(id), Some(true));
    assert_eq!(store.stats().committed_bps, 0, "nothing reserved");
    assert_eq!(store.finish_import(id).unwrap(), movie);
}

#[test]
fn import_rejected_when_reservation_does_not_fit() {
    let config = StoreConfig {
        disks: 1,
        disk: DiskParams {
            transfer_bytes_per_sec: 150_000,
            ..DiskParams::default()
        },
        ..tiny_config()
    };
    let store = BlockStore::new(config);
    let published = MovieSource::test_movie(30, 5);
    let id = store.register_movie(&published);
    store.open_stream(1, id, 100, SimTime::ZERO).unwrap();
    let err = store
        .begin_import(&MovieSource::test_movie(30, 6), 1_000_000, SimTime::ZERO)
        .unwrap_err();
    assert!(matches!(err, StoreError::AdmissionRejected { .. }), "{err}");
    // Finishing early is refused, unknown ids are surfaced.
    assert!(matches!(
        store.finish_import(77),
        Err(StoreError::UnknownStream(77))
    ));
}

#[test]
fn abort_recording_frees_blocks_and_bandwidth() {
    let store = BlockStore::new(tiny_config());
    let source = MovieSource::test_movie(10, 8);
    store.open_recording(3, &source).unwrap();
    for frame in source.frames().take(100) {
        store.append_frame(3, frame.size, SimTime::ZERO).unwrap();
    }
    assert!(store.stats().committed_bps > 0);
    store.abort_recording(3);
    let stats = store.stats();
    assert_eq!(stats.committed_bps, 0);
    assert_eq!(stats.recordings_active, 0);
    assert!(store.recording_durable(3).is_none());
}

#[test]
fn recording_contends_with_playback_for_admission() {
    // Capacity fits roughly one nominal stream.
    let config = StoreConfig {
        disks: 1,
        disk: DiskParams {
            transfer_bytes_per_sec: 150_000,
            ..DiskParams::default()
        },
        ..tiny_config()
    };
    let store = BlockStore::new(config);
    let published = MovieSource::test_movie(30, 5);
    let id = store.register_movie(&published);
    let rec_source = MovieSource::test_movie(30, 6);
    store.open_recording(1, &rec_source).unwrap();
    // The recorder holds the bandwidth: the viewer is refused.
    let err = store.open_stream(2, id, 100, SimTime::ZERO).unwrap_err();
    assert!(matches!(err, StoreError::AdmissionRejected { .. }));
    // Sealing the recording releases it: the viewer fits again.
    store.seal_recording(1, SimTime::ZERO).unwrap();
    store.open_stream(2, id, 100, SimTime::ZERO).unwrap();
}

#[test]
fn shared_follower_opens_free_and_recharges_on_split() {
    // Capacity fits roughly one nominal stream.
    let config = StoreConfig {
        disks: 1,
        disk: DiskParams {
            transfer_bytes_per_sec: 150_000,
            ..DiskParams::default()
        },
        ..tiny_config()
    };
    let store = BlockStore::new(config);
    let movie = MovieSource::test_movie(30, 5);
    let id = store.register_movie(&movie);
    assert_eq!(store.find_movie(&movie), Some(id));
    assert_eq!(store.find_movie(&MovieSource::test_movie(30, 99)), None);
    store.open_stream(1, id, 100, SimTime::ZERO).unwrap();
    // The disk is full: a second plain open is refused…
    assert!(matches!(
        store.open_stream(2, id, 100, SimTime::ZERO),
        Err(StoreError::AdmissionRejected { .. })
    ));
    // …but a merged follower charges nothing and still opens.
    store
        .open_stream_with_demand(2, id, 100, 0, SimTime::ZERO)
        .unwrap();
    assert_eq!(store.stream_demand(2), None);
    assert_eq!(store.stats().open_streams, 2);
    // Splitting out needs real bandwidth — refused here, and the
    // stream stays open and uncharged.
    let full = store.demand_for(id, 100).unwrap();
    assert!(matches!(
        store.recharge_stream(2, full),
        Err(StoreError::AdmissionRejected { .. })
    ));
    assert_eq!(store.stream_demand(2), None);
    // Once the leader closes, the split fits.
    store.close_stream(1);
    store.recharge_stream(2, full).unwrap();
    assert_eq!(store.stream_demand(2), Some(full));
    // Convergence-style release keeps the stream but frees demand.
    store.recharge_stream(2, 0).unwrap();
    assert_eq!(store.stream_demand(2), None);
    assert_eq!(store.stats().open_streams, 1);
}

#[test]
fn disk_death_rebuild_relocates_lost_blocks() {
    let store = BlockStore::new(tiny_config());
    let journal = Arc::new(Journal::standalone());
    store.attach_journal(journal.clone(), "node-1");
    let movie = MovieSource::test_movie(600, 3);
    let id = store.register_movie(&movie);
    let before: Vec<BlockAddr> = {
        let l = store.layout_of(id).unwrap();
        l.blocks().map(|b| l.locate(b)).collect()
    };
    store.open_stream(1, id, 100, SimTime::ZERO).unwrap();
    let t = store.next_event().unwrap();
    store.pump(t);
    let lost = store.fail_disk(1, t);
    assert!(lost > 0, "a striped movie loses blocks with its spindle");
    assert_eq!(store.fail_disk(1, t), 0, "idempotent per disk");
    assert_eq!(store.failed_disks(), vec![1]);
    assert!(store.layout_of(id).is_none(), "layout materialized");
    assert_eq!(store.lost_blocks_pending(), lost);
    assert_eq!(
        store.stats().capacity_bps,
        tiny_config().capacity_bps() / 2,
        "capacity shrinks to the surviving disk's share"
    );
    let reserve = (store.available_bps() / 2).max(1);
    store.begin_rebuild(reserve, t).unwrap();
    assert!(store.rebuild_active());
    pump_until(&store, t, || !store.rebuild_active());
    assert_eq!(store.lost_blocks_pending(), 0);
    // Lost blocks relocated off the dead disk, survivors
    // untouched, and no address handed out twice.
    let after = store.allocation_of(id).unwrap();
    assert_eq!(after.len(), before.len());
    for (i, (b, a)) in before.iter().zip(&after).enumerate() {
        if b.disk == 1 {
            assert_ne!(a.disk, 1, "block {i} relocated off the dead disk");
        } else {
            assert_eq!(a, b, "surviving block {i} untouched");
        }
    }
    let distinct: HashSet<&BlockAddr> = after.iter().collect();
    assert_eq!(distinct.len(), after.len());
    // The reservation was released and the fault lifecycle is on
    // the (intact) hash chain.
    assert_eq!(store.stats().committed_bps, store.stream_demand(1).unwrap());
    journal.verify().unwrap();
    assert_eq!(journal.count(journal::kind::DISK_FAILED), 1);
    assert_eq!(journal.count(journal::kind::REBUILD_STARTED), 1);
    assert_eq!(journal.count(journal::kind::REBUILD_COMPLETED), 1);
    // The stalled viewer drains the whole movie from the rebuilt
    // layout.
    drain(&store, 1, movie.frame_count);
}

#[test]
fn write_paths_avoid_dead_spindles() {
    let store = BlockStore::new(tiny_config());
    store.fail_disk(0, SimTime::ZERO);
    let source = MovieSource::test_movie(10, 21);
    let movie = store.open_recording(5, &source).unwrap();
    let mut now = SimTime::ZERO;
    for frame in source.frames() {
        store.append_frame(5, frame.size, now).unwrap();
        now += netsim::SimDuration::from_micros(source.frame_interval_us());
    }
    store.seal_recording(5, now).unwrap();
    pump_until(&store, now, || store.recording_durable(5) == Some(true));
    store.finish_recording(5).unwrap();
    let rec_alloc = store.allocation_of(movie).unwrap();
    assert!(rec_alloc.iter().all(|a| a.disk != 0), "recording shuns it");
    let m2 = store.import_movie(&MovieSource::test_movie(6, 33), now);
    assert!(
        store.allocation_of(m2).unwrap().iter().all(|a| a.disk != 0),
        "bulk import shuns it"
    );
    let m3 = store.register_movie(&MovieSource::test_movie(8, 44));
    assert!(
        store.allocation_of(m3).unwrap().iter().all(|a| a.disk != 0),
        "post-fault registration shuns it"
    );
}

#[test]
fn speed_change_renegotiates_bandwidth() {
    let config = StoreConfig {
        disks: 1,
        disk: DiskParams {
            transfer_bytes_per_sec: 400_000,
            ..DiskParams::default()
        },
        ..tiny_config()
    };
    let store = BlockStore::new(config);
    let movie = MovieSource::test_movie(30, 6);
    let id = store.register_movie(&movie);
    store.open_stream(1, id, 100, SimTime::ZERO).unwrap();
    // A large speed-up may not fit on the slow disk.
    let err = store.set_speed(1, 400).unwrap_err();
    assert!(matches!(err, StoreError::AdmissionRejected { .. }));
    // The old commitment is intact: normal speed still accepted.
    store.set_speed(1, 100).unwrap();
}
