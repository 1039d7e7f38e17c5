//! The commit log's **commit path**: [`publish`](CommitLog::publish), the
//! one code that stamps the log or takes its readers.  (The guarantee it
//! keeps and the ordering it is one half of are in the parent module.)
//!
//! The log has **one committer at a time**: only the one non-speculative
//! thread commits to main memory — rank 0's batch of pending stores, or a
//! join that validates against main memory (a non-speculative joiner, or a
//! child promoted while that joiner waits); speculative joiners absorb.  So
//! the walk is written for one writer, and a debug build checks it:
//! `publish` panics ("two committers overlap") if another is under way.
//!
//! A publish is one walk over one batch of addresses its committer already
//! wrote to main memory, without any lock:
//!
//! * **Version reservation = epoch publish.**  The batch reserves its
//!   version with one `SeqCst` `fetch_add` on the log's epoch.  The RMW
//!   chain on the epoch word forms a release sequence, so a reader whose
//!   [`snapshot`](CommitLog::snapshot) observes epoch `>= v`
//!   synchronizes with committer `v`'s reservation — and the committer
//!   wrote its data words to main memory *before* calling `publish` —
//!   hence the reader's subsequent data loads see commit `v`'s values.
//!   Contrapositive: a reader that read *stale* data has a snapshot `< v`.
//! * **Stamp, then take, range by range.**  The sorted batch is walked one
//!   region at a time.  Each touched range's ring entry is stored first,
//!   then its dense slot is set to `v` by one release store (one committer:
//!   versions rise strictly, so the slot is below `v`;
//!   [`stamp_writes`](CommitLogStats::stamp_writes) counts the slots), and
//!   then the range's readers are taken (`readers.rs`) before the walk
//!   moves on.  Join-time validation reads the slot *after* the relevant
//!   commit's `publish` returned (the runtime's join ordering), so the slot
//!   is `>= v` and any reader with a stale snapshot `s < v` is flagged:
//!   missed conflicts stay structurally impossible.
//!
//! [`clear`](CommitLog::clear) is the one cold path; it runs between
//! runs, with the log's users quiesced, and the reader-registry spill sets
//! sit behind a lock of their own.

use std::sync::atomic::Ordering;
use std::time::Instant;

use super::readers::ReaderTake;
use super::ring::footprint_bit;
#[cfg(doc)]
use super::CommitLogStats;
use super::{CommitLog, CommitVersion, ReaderSet, LOCK_SAMPLE_LOG2};
use crate::memory::Addr;

/// Whether the batch reserving from epoch `nth` has its publication time
/// measured: one in `2^LOCK_SAMPLE_LOG2` is timed and its duration scaled
/// up, so the hot publish path pays the two clock reads only on a small
/// fraction of batches.
fn lock_time_sampled(nth: u64) -> bool {
    nth & ((1 << LOCK_SAMPLE_LOG2) - 1) == 0
}

impl CommitLog {
    /// Publish one batch of written addresses and take the readers of the
    /// ranges it stamps, in one walk: the log's one writer, for rank 0's
    /// pending stores and a join's commit alike.  The caller wrote the data
    /// words to main memory first.
    ///
    /// The batch is sorted and deduplicated in place — the walk allocates
    /// nothing — one version is reserved for all of it, and each range is
    /// stamped and then has its readers taken before the walk moves on.
    /// The take follows the version's reservation, which is all the
    /// missed-reader argument of the reader registry asks of it.  Returns
    /// the version and the readers taken, and leaves `batch` empty with its
    /// capacity kept; an empty batch records nothing.
    ///
    /// The take returns and clears every reader registered on a stamped
    /// range except the ranks `spare` keeps: a running logical predecessor
    /// of the writer, whose read this commit does not make stale, keeps its
    /// registration on exactly the ranges it was found on, so a later
    /// publish by a logically earlier writer still finds and dooms it.
    /// Clearing what is returned bounds registry staleness: a returned
    /// reader is doomed or no longer running, and a doomed reader
    /// re-registers when it retries or re-executes.  `spare` is asked once
    /// per tracked rank, and once per range for a spilled one; a `spare`
    /// that keeps every rank takes nobody and stamps what the commit stamps.
    ///
    /// With `skip_unread`, a range no reader could hold stale is not
    /// stamped: no rank is registered on it and nothing stamped it before.
    /// A reader holding a stale value of it registered before its snapshot,
    /// and that snapshot precedes this reservation, so the check — which
    /// follows the reservation — finds the registration, unless a take
    /// cleared it (every take here follows a stamp of its range) or the
    /// reader's buffer was returned (its read set is dead).  A reader that
    /// registers after the check snapshots at or above this version,
    /// synchronizes with the reservation, and reads the stored value.  The
    /// caller must therefore take readers only through `publish`.
    ///
    /// One publish at a time (the module docs): a debug build panics when
    /// a publish starts while another is under way.
    pub fn publish<F: FnMut(usize) -> bool>(
        &self,
        batch: &mut Vec<Addr>,
        skip_unread: bool,
        mut spare: F,
    ) -> (CommitVersion, ReaderSet) {
        // Relaxed: the guard checks that publishes never overlap, and adds
        // no ordering between them that could hide a missing one.
        #[cfg(debug_assertions)]
        if self.committing.swap(true, Ordering::Relaxed) {
            panic!("two committers overlap at epoch {}", self.epoch());
        }
        let mut take = ReaderTake::default();
        if batch.is_empty() {
            #[cfg(debug_assertions)]
            self.committing.store(false, Ordering::Relaxed);
            return (self.epoch(), take.into_set());
        }
        self.touch();
        // Ascending addresses put each region's addresses in one
        // contiguous run and equal ranges next to each other, so the
        // stamp walk can deduplicate by slot.
        batch.sort_unstable();
        batch.dedup();
        // Every batch reserves a version, counted or not: one in
        // `2^LOCK_SAMPLE_LOG2` of them is timed.
        let sample = lock_time_sampled(self.epoch.load(Ordering::Relaxed));
        let started = sample.then(Instant::now);
        let (version, stamped) = self.publish_run(batch, skip_unread, |local| {
            self.take_slot(local, &mut take, &mut spare)
        });
        // A batch that stamped nothing reserved a version but is no commit
        // batch: every batch counted stamps at least one range.
        if stamped > 0 {
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.stamped.fetch_add(stamped, Ordering::Relaxed);
        }
        if let Some(started) = started {
            self.lock_ns.fetch_add(
                (started.elapsed().as_nanos() as u64) << LOCK_SAMPLE_LOG2,
                Ordering::Relaxed,
            );
        }
        batch.clear();
        #[cfg(debug_assertions)]
        self.committing.store(false, Ordering::Relaxed);
        (version, take.into_set())
    }

    /// [`publish`](Self::publish) of `addrs` sparing every reader: what the
    /// benchmark's probes import.
    #[doc(hidden)]
    pub fn record<I: IntoIterator<Item = Addr>>(&self, addrs: I) -> CommitVersion {
        // A fn item, not a closure: one copy of the walk for every `I`.
        fn spare_every_reader(_: usize) -> bool {
            true
        }
        self.publish(&mut addrs.into_iter().collect(), false, spare_every_reader)
            .0
    }

    /// [`record`](Self::record) of one address: what the benchmark's
    /// probes import.
    #[doc(hidden)]
    pub fn record_word(&self, addr: Addr) -> CommitVersion {
        self.record([addr])
    }

    /// Publish one (sorted, deduplicated) batch.  Reserve-and-publish the
    /// version with one `SeqCst` `fetch_add`, then stamp each touched slot,
    /// one region's addresses at a time (see the module docs for why each
    /// step is sound) — skipping, when `skip_unread`, every slot
    /// nobody reads — and call `on_slot` with each slot right after its
    /// stamp.  Returns the version and the slots stamped.
    fn publish_run(
        &self,
        run: &[Addr],
        skip_unread: bool,
        mut on_slot: impl FnMut(usize),
    ) -> (CommitVersion, u64) {
        let version = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let mut stamped = 0u64;
        // Addresses ascend, so each region's addresses form one
        // contiguous subgroup, counted into the region's stamps.
        let mut start = 0;
        while start < run.len() {
            let region = self.region_of(run[start]);
            let mut end = start + 1;
            while end < run.len() && self.region_of(run[end]) == region {
                end += 1;
            }
            let group = &run[start..end];
            stamped += self.stamp_region_group(group, version, skip_unread, &mut on_slot);
            start = end;
        }
        (version, stamped)
    }

    /// Stamp one region's (sorted, deduplicated) addresses with `version`
    /// — but, when `skip_unread`, no slot nobody reads — calling
    /// `on_slot` with each slot once it is stamped; returns the number of
    /// distinct slots stamped.
    fn stamp_region_group(
        &self,
        group: &[Addr],
        version: CommitVersion,
        skip_unread: bool,
        on_slot: &mut impl FnMut(usize),
    ) -> u64 {
        // The window check, on the group's first address: one region, so
        // all of the group is inside or none of it is.
        let region_stamps = &self.region_stamps[self.region_index_of(group[0])];
        let mut stamped = 0u64;
        // Adjacent same-slot addresses accumulate one footprint (a coarse
        // range holds many words, each its own ring bit), so the flush
        // below publishes the whole slot's footprint in one ring merge
        // before the one dense store.
        let mut pending: Option<(usize, u64)> = None;
        let mut flush = |pending: &mut Option<(usize, u64)>| {
            let Some((local, footprint)) = pending.take() else {
                return 0;
            };
            if skip_unread && self.unread(local) {
                return 0;
            }
            // Ring first (see `ring_merge`), then the dense stamp.
            self.ring_merge(local, version, footprint);
            let slot = &self.dense[local];
            debug_assert!(
                slot.load(Ordering::Relaxed) < version,
                "slot {local} already carries version {version} or later"
            );
            slot.store(version, Ordering::Release);
            on_slot(local);
            1
        };
        for &addr in group {
            let local = self.slot_at(addr);
            match &mut pending {
                Some((l, footprint)) if *l == local => {
                    *footprint |= footprint_bit(addr);
                    continue;
                }
                _ => {}
            }
            stamped += flush(&mut pending);
            pending = Some((local, footprint_bit(addr)));
        }
        stamped += flush(&mut pending);
        if stamped > 0 {
            region_stamps.fetch_add(stamped, Ordering::Relaxed);
        }
        stamped
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU64;

    use super::*;
    use crate::commit_log::{
        publish_sparing_all, CommitLogConfig, LINE_GRAIN_LOG2, PAGE_GRAIN_LOG2, WORD_GRAIN_LOG2,
    };

    #[test]
    fn a_batch_publishes_one_version() {
        // A batch spanning two regions reserves one version from the one
        // epoch, and every range it touches carries it.
        let log = CommitLog::with_config(CommitLogConfig::default(), 1 << 16);
        assert_eq!(publish_sparing_all(&log, &[0]), 1);
        assert_eq!(publish_sparing_all(&log, &[8, 4096]), 2);
        assert_eq!(log.version_of(8), 2);
        assert_eq!(log.version_of(4096), 2);
        assert_eq!(log.snapshot(0), 2);
        assert_eq!(log.snapshot(4096), 2);
        assert_eq!(log.epoch(), 2);
        assert_eq!(log.commits(), 2);
        assert_eq!(log.stats().stamp_writes, 3);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "two committers")]
    fn a_publish_inside_a_publish_trips_the_one_committer_guard() {
        // The take asks `spare` about rank 2 while the outer publish is
        // under way, so the inner publish overlaps it: no threads needed.
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), 1 << 12);
        log.register_reader(8, 2);
        log.publish(&mut vec![8], false, |_| {
            log.publish(&mut vec![16], false, |_| true);
            true
        });
    }

    #[test]
    fn lock_free_snapshot_covers_the_data_not_the_stamp() {
        // A commit publishes the epoch *before* stamping, so
        // `version_of >= snapshot` does not hold transiently.  The
        // invariants are: a slot never exceeds a subsequently-sampled
        // epoch (the stamp's version was reserved from that epoch
        // first), slots are monotone, and once the committer is
        // quiescent every stamp has caught up exactly.
        let log = std::sync::Arc::new(CommitLog::with_config(CommitLogConfig::default(), 1 << 12));
        let stop = std::sync::Arc::new(AtomicU64::new(0));
        let writer = {
            let log = std::sync::Arc::clone(&log);
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                for _ in 0..20_000 {
                    publish_sparing_all(&log, &[8, 256, 1024]);
                }
                stop.store(1, Ordering::Release);
            })
        };
        let mut floor = [0u64; 3];
        while stop.load(Ordering::Acquire) == 0 {
            for (i, addr) in [8u64, 256, 1024].into_iter().enumerate() {
                let version = log.version_of(addr);
                assert!(version >= floor[i], "slots are monotone");
                floor[i] = version;
                assert!(
                    log.snapshot(addr) >= version,
                    "a stamp outran the epoch it was reserved from"
                );
            }
        }
        writer.join().unwrap();
        assert_eq!(log.commits(), 20_000);
        for addr in [8u64, 256, 1024] {
            assert_eq!(
                log.version_of(addr),
                log.snapshot(addr),
                "quiescent stamps catch up to the epoch"
            );
        }
    }

    #[test]
    fn lock_free_committers_racing_a_stale_reader_never_miss_a_conflict() {
        // At every grain, a committer hammers one region while a reader
        // registered before it holds its snapshot and probes it: the stale
        // snapshot is flagged once the first stamp lands, and no stamp
        // outruns the epoch it was reserved from.
        for grain in [WORD_GRAIN_LOG2, LINE_GRAIN_LOG2, PAGE_GRAIN_LOG2] {
            let log = std::sync::Arc::new(CommitLog::with_config(
                CommitLogConfig::default().grain_log2(grain),
                1 << 12,
            ));
            let stale = log.register_reader(8, 3);
            let committer = {
                let log = std::sync::Arc::clone(&log);
                std::thread::spawn(move || {
                    let mut last = 0;
                    for i in 0..4_000 {
                        let v = publish_sparing_all(&log, &[8 + (i % 2) * 16]);
                        assert!(v > last, "reservations are monotone");
                        last = v;
                    }
                })
            };
            while !committer.is_finished() {
                // The stamp first, then the epoch: see the test above.
                let version = log.version_of(8);
                assert!(log.snapshot(8) >= version, "a stamp outran its epoch");
                assert!(
                    version == 0 || log.written_after(8, stale),
                    "a stamp went back"
                );
            }
            committer.join().unwrap();
            assert!(
                log.written_after(8, stale),
                "stale reader slipped through a commit race at grain {grain}"
            );
            assert!(
                log.snapshot(8) >= log.version_of(8),
                "a stamp outran the epoch it was reserved from"
            );
        }
    }

    #[test]
    fn single_threaded_script_yields_pinned_versions_and_stats() {
        // The observable single-threaded semantics of the publish path,
        // pinned to literals: regions 0 and 1 share the one epoch, and a
        // batch spanning both publishes one version.
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), 1 << 13);
        let snap = log.register_reader(8, 3);
        assert_eq!(snap, 0);
        assert_eq!(
            publish_sparing_all(&log, &[8, 64, 4096]),
            1,
            "one version for both regions"
        );
        assert_eq!(publish_sparing_all(&log, &[8]), 2);
        assert_eq!(publish_sparing_all(&log, &[16]), 3);
        assert!(log.written_after(8, snap));
        assert_eq!(log.version_of(64), 1, "word grain: 64 is its own slot");
        assert_eq!(
            log.version_of(4096),
            1,
            "region 1 keeps the batch's version"
        );
        assert_eq!(log.snapshot(4096), 3, "region 1 snapshots the one epoch");
        let stats = log.stats();
        assert_eq!((stats.commits, stats.stamp_writes), (3, 5));
        assert!(
            log.registered_readers(8).contains(3),
            "the reader is still registered"
        );
    }

    #[test]
    fn identical_batches_stamp_strictly_fewer_ranges_at_coarser_grain() {
        // The deterministic form of the grain sweep's headline claim:
        // one 64-word batch costs 64 stamps at word grain, 8 at line
        // grain and 1 at page grain.  (The native sweep can't assert
        // this strictly — its batch structure depends on scheduling.)
        let batch: Vec<Addr> = (0..64u64).map(|i| i * 8).collect();
        let stamps_at = |grain_log2: u32| {
            let log =
                CommitLog::with_config(CommitLogConfig::default().grain_log2(grain_log2), 1 << 12);
            publish_sparing_all(&log, &batch);
            log.stats().stamp_writes
        };
        assert_eq!(stamps_at(WORD_GRAIN_LOG2), 64);
        assert_eq!(stamps_at(LINE_GRAIN_LOG2), 8);
        assert_eq!(stamps_at(PAGE_GRAIN_LOG2), 1);
    }

    #[test]
    fn a_publish_stamps_one_version_and_takes_each_ranges_readers() {
        // Word grain: 8, 16 and 24 are three ranges.  The batch arrives
        // unsorted and with a repeat, rank 2 read 8, rank 3 read 16 and
        // 40 (not published), and rank 3 is spared.
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), 1 << 12);
        let before = log.register_reader(8, 2);
        log.register_reader(16, 3);
        log.register_reader(40, 3);
        let mut batch = vec![24, 8, 16, 8];
        let (version, taken) = log.publish(&mut batch, false, |rank| rank == 3);
        assert!(batch.is_empty() && batch.capacity() >= 4, "emptied, kept");
        assert_eq!(version, before + 1);
        for addr in [8, 16, 24] {
            assert_eq!(log.version_of(addr), version);
        }
        assert_eq!(taken.ranks().collect::<Vec<_>>(), vec![2]);
        assert!(log.registered_readers(8).is_empty());
        assert!(log.registered_readers(16).contains(3), "spared");
        assert!(log.registered_readers(40).contains(3), "not published");
        let stats = log.stats();
        assert_eq!((stats.commits, stats.stamp_writes), (1, 3));
        // One address is one commit of one stamp; none records nothing.
        log.publish(&mut vec![8], false, |_| false);
        assert_eq!(
            log.publish(&mut Vec::new(), false, |_| false).0,
            version + 1
        );
        let stats = log.stats();
        assert_eq!((stats.commits, stats.stamp_writes), (2, 4));
    }

    #[test]
    fn a_publish_that_skips_unread_ranges_stamps_only_what_a_reader_may_hold() {
        // Word grain: 8 has a reader, 16 was stamped before (a take may
        // have cleared a reader there), 24 has neither and stays unstamped
        // — but the batch still reserves its version.
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), 1 << 12);
        log.register_reader(8, 2);
        publish_sparing_all(&log, &[16]);
        let (version, taken) = log.publish(&mut vec![24, 16, 8], true, |_| false);
        assert_eq!(log.epoch(), version);
        assert_eq!((log.version_of(8), log.version_of(16)), (version, version));
        assert_eq!(log.version_of(24), 0, "nobody could read it stale");
        assert!(taken.contains(2));
        let stats = log.stats();
        assert_eq!((stats.commits, stats.stamp_writes), (2, 3));
        // A batch nobody could read stale reserves a version, no commit.
        let (skipped, _) = log.publish(&mut vec![32], true, |_| false);
        assert_eq!((skipped, log.stats().commits), (version + 1, 2));
    }

    #[test]
    fn the_frozen_writers_publish_what_publish_publishes_and_take_no_reader() {
        // `record` and `record_word` against `publish` sparing every
        // reader, each on its own copy of one log: readers on 8 (rank 2)
        // and on the next region (rank 70, spilled), 16 stamped before.
        type Writer = fn(&CommitLog, &[Addr]) -> CommitVersion;
        let record: Writer = |log, addrs| log.record(addrs.iter().copied());
        let record_word: Writer = |log, addrs| log.record_word(addrs[0]);
        let rows: [(&str, &[Addr], Writer); 6] = [
            ("record, empty", &[], record),
            ("record, one read word", &[8], record),
            (
                "record, repeats over two regions",
                &[4096 + 8, 8, 16, 8, 24],
                record,
            ),
            ("record_word, a read word", &[8], record_word),
            ("record_word, unread", &[32], record_word),
            (
                "record_word, the spilled reader's",
                &[4096 + 8],
                record_word,
            ),
        ];
        let probed: [Addr; 5] = [8, 16, 24, 32, 4096 + 8];
        for grain in [WORD_GRAIN_LOG2, LINE_GRAIN_LOG2] {
            let build = || {
                let log =
                    CommitLog::with_config(CommitLogConfig::default().grain_log2(grain), 2 << 12);
                log.register_reader(8, 2);
                log.register_reader(4096 + 8, 70);
                publish_sparing_all(&log, &[16]);
                log
            };
            for (name, addrs, write) in rows {
                let (wrapped, published) = (build(), build());
                let before = published.stats();
                let version = write(&wrapped, addrs);
                let (expected, taken) = published.publish(&mut addrs.to_vec(), false, |_| true);
                assert_eq!(version, expected, "{name}, grain {grain}");
                assert!(taken.is_empty(), "{name}: the publish took a reader");
                for addr in probed {
                    assert_eq!(
                        wrapped.version_of(addr),
                        published.version_of(addr),
                        "{name}"
                    );
                }
                let (w, p) = (wrapped.stats(), published.stats());
                assert_eq!(
                    (
                        w.commits - before.commits,
                        w.stamp_writes - before.stamp_writes
                    ),
                    (
                        p.commits - before.commits,
                        p.stamp_writes - before.stamp_writes
                    ),
                    "{name}, grain {grain}"
                );
                assert!(wrapped.registered_readers(8).contains(2), "{name}");
                assert!(wrapped.registered_readers(4096 + 8).contains(70), "{name}");
                // What is left to take is what a real commit would take.
                let taken = wrapped.take_readers(probed);
                assert_eq!(
                    taken,
                    published.publish(&mut probed.to_vec(), false, |_| false).1
                );
                assert_eq!(taken.ranks().collect::<Vec<_>>(), vec![2, 70], "{name}");
            }
        }
    }

    #[test]
    fn lock_time_is_sampled_but_counters_are_exact() {
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), 1 << 12);
        for i in 0..32u64 {
            publish_sparing_all(&log, &[i * 8]);
        }
        // The counters are exact regardless of sampling.  (lock_ns is
        // not asserted non-zero: on coarse-resolution clocks a sampled
        // tens-of-ns critical section can legitimately register as 0.)
        assert_eq!(log.stats().commits, 32);
        assert_eq!(log.stats().stamp_writes, 32);
    }
}
