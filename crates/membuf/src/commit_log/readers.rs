//! The commit log's **reader registry**:
//! [`register_reader`](CommitLog::register_reader),
//! [`take_readers`](CommitLog::take_readers) and the [`ReaderSet`] they
//! trade in.
//!
//! Alongside each range's version the log keeps a *reader registry*: a
//! bitmask of the thread ids (ranks `1..=`[`MAX_TRACKED_READERS`]) whose
//! read sets currently cover the range, plus — since the rank cap was
//! lifted — a per-range **spill set** (a hash set behind the shard's
//! lock stripe, dashmap-style) holding the ranks beyond the bitmask
//! window.  A committing writer can
//! [`take_readers`](CommitLog::take_readers) of the ranges it just
//! stamped and doom exactly those threads (*targeted dooming*) instead of
//! squashing every logical successor; enumeration is complete at any
//! thread count, so the old cascade fallback for >63-rank sweeps is gone.
//!
//! Registration stays **off the slow-path lock**: a tracked reader ORs its
//! bit into the range's mask with a single atomic RMW and then
//! (re-)reads the shard epoch — a seqlock-style double-checked read,
//! since a snapshot sampled *before* the registration could let a racing
//! committer both miss the bit and stay below the snapshot.  With the
//! registration sequenced first (all four operations `SeqCst`), a
//! committer whose [`take_readers`](CommitLog::take_readers) misses the
//! bit must have published its epoch before the reader's snapshot, so
//! the reader's snapshot covers the commit and no conflict existed.  A
//! spilled (rank > 63) reader inserts into the spill set *under its
//! stripe lock* and sets the sticky spill-marker bit before re-reading
//! the epoch; the lock's release/acquire edges plus the `SeqCst` epoch
//! accesses give the same guarantee.  Hence:
//!
//! * **Missed reader ⇒ impossible** *to go uncorrected*: either the
//!   committer enumerates the reader (eager doom), or the reader's
//!   snapshot already covers the commit (no conflict) — and join-time
//!   version validation remains the oracle regardless, so eager dooming
//!   can never mask a genuine conflict.  For *what commits* it is an
//!   accelerator; for *termination* it is more than that: a running
//!   speculative thread polls its flags and nothing else, so a reader
//!   whose stale data keeps it looping never reaches the join that
//!   would validate it — the doom is what stops it.  That is why
//!   enumeration is complete at every rank (the spill sets) instead of
//!   best-effort past the bitmask.
//!   A regrain that re-indexes a range's registry slot can strand a
//!   registration on the old slot; the regrain's whole-region stamp
//!   guarantees that reader fails validation conservatively instead.
//! * **Stale reader ⇒ spurious doom only**: a bit left behind by a
//!   thread that already finished dooms whatever now runs on that rank;
//!   the doomed thread rolls back and re-executes — slower, never wrong.
//!   Staleness is bounded by clearing masks on enumeration and by the
//!   runtime unregistering a thread's reads when it is joined.

use std::sync::atomic::Ordering;

use super::{CommitLog, CommitVersion};
use crate::memory::Addr;

/// Highest thread rank the reader registry tracks in the per-range
/// bitmask; ranks beyond it land in the per-range spill set (enumeration
/// stays complete — the pre-PR5 cascade fallback is gone).
pub const MAX_TRACKED_READERS: usize = 63;

/// Registry bit marking "a reader beyond [`MAX_TRACKED_READERS`] is in
/// this range's spill set": enumeration must consult the spill map.
pub(super) const READER_SPILL_BIT: u64 = 1 << 63;

/// Registry bit of thread rank `rank` (0 = the non-speculative thread,
/// which never registers: it reads coherent main memory directly; ranks
/// past the bitmask window use the spill set, marked by
/// [`READER_SPILL_BIT`]).
fn reader_bit(rank: usize) -> u64 {
    match rank {
        0 => 0,
        r if r <= MAX_TRACKED_READERS => 1 << (r - 1),
        _ => READER_SPILL_BIT,
    }
}

/// The set of reader ranks enumerated from the registry for a batch of
/// ranges (see [`CommitLog::take_readers`]): a bitmask for ranks
/// `1..=`[`MAX_TRACKED_READERS`] plus an explicit (sorted) list of
/// spilled ranks beyond the window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReaderSet {
    bits: u64,
    /// Spilled ranks (> [`MAX_TRACKED_READERS`]), ascending, deduplicated.
    spilled: Vec<usize>,
}

impl ReaderSet {
    pub(super) fn from_parts(bits: u64, mut spilled: Vec<usize>) -> Self {
        spilled.sort_unstable();
        spilled.dedup();
        ReaderSet {
            bits: bits & !READER_SPILL_BIT,
            spilled,
        }
    }

    /// True when no reader is registered.
    pub fn is_empty(&self) -> bool {
        self.bits == 0 && self.spilled.is_empty()
    }

    /// Number of reader ranks in the set (tracked and spilled).
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize + self.spilled.len()
    }

    /// Whether `rank` is in the set.
    pub fn contains(&self, rank: usize) -> bool {
        if rank == 0 {
            return false;
        }
        if rank <= MAX_TRACKED_READERS {
            self.bits & (1 << (rank - 1)) != 0
        } else {
            self.spilled.binary_search(&rank).is_ok()
        }
    }

    /// The reader ranks, ascending: the bitmask window first, then the
    /// spilled ranks.
    pub fn ranks(&self) -> impl Iterator<Item = usize> + '_ {
        let mut bits = self.bits;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let tz = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(tz + 1)
        })
        .chain(self.spilled.iter().copied())
    }
}

impl CommitLog {
    /// Register thread `rank` as a reader of `addr`'s range and return the
    /// read snapshot to stamp the read-set entry with.
    ///
    /// This is the seqlock-style protocol of the module docs: the
    /// registration lands first (one `SeqCst` RMW for tracked ranks, a
    /// spill-set insert plus the sticky marker bit for ranks past the
    /// window — both off the slow-path lock) and the shard epoch is
    /// (re-)read *after* the registration is globally visible.  A
    /// committer whose [`take_readers`](Self::take_readers) misses the
    /// registration must therefore have published its epoch before this
    /// snapshot, so the snapshot covers the commit and the read is not
    /// stale.  Rank 0 (the non-speculative thread) registers nothing.
    pub fn register_reader(&self, addr: Addr, rank: usize) -> CommitVersion {
        let (shard_idx, local) = self.slot_of(addr);
        let shard = &self.shards[shard_idx];
        let bit = reader_bit(rank);
        if bit != 0 {
            self.touch();
            if bit == READER_SPILL_BIT {
                self.reader_spills.fetch_add(1, Ordering::Relaxed);
                shard
                    .readers_spill
                    .write()
                    .entry(local)
                    .or_default()
                    .insert(rank);
            }
            shard.readers[local].fetch_or(bit, Ordering::SeqCst);
        }
        shard.epoch.load(Ordering::SeqCst)
    }

    /// Remove thread `rank` from the reader registry of every range
    /// covering `addrs` (a joined thread's read set — committed or
    /// squashed, its registrations are dead and would only cause spurious
    /// dooms).  The spill marker stays sticky while other spilled ranks
    /// remain; it is cleared when the last one leaves.
    pub fn unregister_reader<I: IntoIterator<Item = Addr>>(&self, addrs: I, rank: usize) {
        let bit = reader_bit(rank);
        if bit == 0 {
            return;
        }
        let mut last: Option<(usize, usize)> = None;
        for addr in addrs {
            let slot = self.slot_of(addr);
            if last == Some(slot) {
                continue;
            }
            last = Some(slot);
            let (shard_idx, local) = slot;
            let shard = &self.shards[shard_idx];
            if bit == READER_SPILL_BIT {
                let mut spill = shard.readers_spill.write();
                if let Some(set) = spill.get_mut(&local) {
                    set.remove(&rank);
                    if set.is_empty() {
                        spill.remove(&local);
                        shard.readers[local].fetch_and(!bit, Ordering::SeqCst);
                    }
                }
            } else {
                shard.readers[local].fetch_and(!bit, Ordering::SeqCst);
            }
        }
    }

    /// Move the registrations for `addrs` from thread `from` to thread
    /// `to` — a speculative parent absorbing its child's read set inherits
    /// the child's dependences, so future commits to those ranges must
    /// doom the *parent* now.
    pub fn transfer_reader<I: IntoIterator<Item = Addr>>(&self, addrs: I, from: usize, to: usize) {
        let mut last: Option<Addr> = None;
        let grain = self.config.grain_log2;
        for addr in addrs {
            // Conservative dedup at the floor grain (same floor range ⇒
            // same slot at any live grain).
            let floor = addr >> grain;
            if last == Some(floor) {
                continue;
            }
            last = Some(floor);
            // (No snapshot needed: the entry keeps the child's.)
            let _ = self.register_reader(addr, to);
            self.unregister_reader([addr], from);
        }
    }

    /// Enumerate *and clear* the registered readers of every range
    /// covering `addrs` — called by a committing writer immediately after
    /// [`record`](Self::record), so the returned set is exactly the
    /// threads whose read sets overlap the just-stamped ranges (tracked
    /// bitmask ranks plus every spilled rank; enumeration is complete at
    /// any thread count).  Clearing on enumeration bounds registry
    /// staleness: the returned readers are about to be doomed and will
    /// re-register when they re-execute.
    pub fn take_readers<I: IntoIterator<Item = Addr>>(&self, addrs: I) -> ReaderSet {
        let mut bits = 0u64;
        let mut spilled: Vec<usize> = Vec::new();
        let mut last: Option<(usize, usize)> = None;
        for addr in addrs {
            let slot = self.slot_of(addr);
            if last == Some(slot) {
                continue;
            }
            last = Some(slot);
            let (shard_idx, local) = slot;
            let shard = &self.shards[shard_idx];
            // Fast path: an unread range stays a single load — but
            // it must be SeqCst, not relaxed, or it could miss a
            // registration that precedes this enumeration in the
            // SC order and break the missed-reader argument of the
            // module docs (a relaxed load participates in no SC
            // total order).
            if shard.readers[local].load(Ordering::SeqCst) != 0 {
                let taken = shard.readers[local].swap(0, Ordering::SeqCst);
                bits |= taken;
                if taken & READER_SPILL_BIT != 0 {
                    if let Some(set) = shard.readers_spill.write().remove(&local) {
                        spilled.extend(set);
                    }
                }
            }
        }
        ReaderSet::from_parts(bits, spilled)
    }

    /// The registered readers of `addr`'s range (tests and diagnostics;
    /// does not clear).
    pub fn registered_readers(&self, addr: Addr) -> ReaderSet {
        let (shard_idx, local) = self.slot_of(addr);
        let shard = &self.shards[shard_idx];
        let bits = shard.readers[local].load(Ordering::SeqCst);
        let spilled = if bits & READER_SPILL_BIT != 0 {
            shard
                .readers_spill
                .read()
                .get(&local)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default()
        } else {
            Vec::new()
        };
        ReaderSet::from_parts(bits, spilled)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU64;

    use super::*;
    use crate::commit_log::CommitLogConfig;

    #[test]
    fn reader_registry_roundtrip_register_take_unregister() {
        let log = CommitLog::with_config(CommitLogConfig::word_grain().shards(2), 256);
        // Registration returns a snapshot usable exactly like snapshot().
        let v = log.register_reader(8, 3);
        assert_eq!(v, log.snapshot(8));
        log.register_reader(8, 5);
        log.register_reader(16, 7); // different range, untouched below
        let set = log.registered_readers(8);
        assert!(set.contains(3) && set.contains(5) && !set.contains(7));
        assert_eq!(set.len(), 2);
        // Enumeration returns exactly the overlapping readers and clears.
        let taken = log.take_readers([8]);
        assert_eq!(taken.ranks().collect::<Vec<_>>(), vec![3, 5]);
        assert!(log.registered_readers(8).is_empty());
        assert!(
            log.registered_readers(16).contains(7),
            "disjoint range kept"
        );
        // Unregister removes a single rank without touching others.
        log.register_reader(16, 9);
        log.unregister_reader([16], 7);
        let set = log.registered_readers(16);
        assert!(!set.contains(7) && set.contains(9));
        // Rank 0 (non-speculative) never registers.
        log.register_reader(24, 0);
        assert!(log.registered_readers(24).is_empty());
    }

    #[test]
    fn reader_registry_tracks_ranges_not_words() {
        // At line grain two words of the same line share one reader mask,
        // and a commit to either word enumerates the reader.
        let log = CommitLog::with_config(CommitLogConfig::line_grain(), 1 << 12);
        log.register_reader(8, 2);
        assert!(log.registered_readers(56).contains(2), "same line");
        assert!(!log.registered_readers(64).contains(2), "next line");
        let taken = log.take_readers([48]);
        assert!(taken.contains(2));
    }

    #[test]
    fn reader_registry_spills_past_the_tracked_window() {
        // Ranks beyond the bitmask window land in the per-range spill
        // set and are still enumerated exactly — the pre-PR5 cascade
        // fallback for >63-thread sweeps is gone.
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), 1 << 12);
        log.register_reader(8, MAX_TRACKED_READERS);
        log.register_reader(8, MAX_TRACKED_READERS + 1);
        log.register_reader(8, 200);
        let set = log.take_readers([8]);
        assert!(set.contains(MAX_TRACKED_READERS));
        assert!(set.contains(MAX_TRACKED_READERS + 1));
        assert!(set.contains(200));
        assert_eq!(set.len(), 3);
        assert_eq!(
            set.ranks().collect::<Vec<_>>(),
            vec![MAX_TRACKED_READERS, MAX_TRACKED_READERS + 1, 200]
        );
        // Cleared on take, spill set included.
        assert!(log.take_readers([8]).is_empty());
        // Unregister removes a single spilled rank; the other survives.
        log.register_reader(16, 100);
        log.register_reader(16, 101);
        log.unregister_reader([16], 100);
        let set = log.registered_readers(16);
        assert!(!set.contains(100) && set.contains(101));
    }

    #[test]
    fn reader_spills_are_counted_in_stats() {
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), (1 << 20) + 8);
        log.register_reader(8, 1); // in-window: no spill
        assert_eq!(log.stats().reader_spills, 0);
        log.register_reader(8, MAX_TRACKED_READERS + 1);
        log.register_reader(1 << 20, 200); // another shard's spill map
        assert_eq!(log.stats().reader_spills, 2);
        log.clear();
        assert_eq!(log.stats().reader_spills, 0, "clear resets the counter");
    }

    #[test]
    fn reader_transfer_moves_the_dependence_to_the_parent() {
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), (1 << 20) + 8);
        log.register_reader(8, 4);
        log.register_reader(1 << 20, 4); // a far region
        log.register_reader(16, 99); // spilled rank transfers too
        log.transfer_reader([8, 1 << 20], 4, 2);
        for addr in [8u64, 1 << 20] {
            let set = log.registered_readers(addr);
            assert!(set.contains(2), "parent registered at {addr}");
            assert!(!set.contains(4), "child unregistered at {addr}");
        }
        log.transfer_reader([16], 99, 100);
        let set = log.registered_readers(16);
        assert!(set.contains(100) && !set.contains(99));
    }

    #[test]
    fn registered_reader_with_stale_snapshot_is_always_enumerated() {
        // The deterministic half of the seqlock argument: a reader whose
        // registration precedes a commit is enumerated by that commit's
        // take_readers — the "doom exactly the stale readers" contract.
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), 64);
        let snapshot = log.register_reader(8, 7);
        let version = log.record_word(8);
        assert!(version > snapshot, "the read is stale");
        let taken = log.take_readers([8]);
        assert!(taken.contains(7), "stale reader missed by enumeration");
        // A second enumeration finds nothing (cleared on take).
        assert!(log.take_readers([8]).is_empty());
    }

    #[test]
    fn concurrent_registration_and_enumeration_never_strands_a_stale_reader() {
        // Concurrent hammer of the protocol: after a commit, a reader is
        // either enumerated by some take_readers or its snapshot covers
        // the commit (no conflict) — a reader can never be both stale and
        // permanently invisible.  The reader thread checks its own half.
        // Rank 77 exercises the spill-set path of the same argument.
        // The committer runs until the reader has finished its quota, so
        // the two sides always genuinely interleave (a fixed iteration
        // count can finish before the reader thread is even scheduled
        // under parallel test load).
        for rank in [7usize, 77] {
            let log = std::sync::Arc::new(CommitLog::with_config(CommitLogConfig::default(), 64));
            let reader_done = std::sync::Arc::new(AtomicU64::new(0));
            let enumerated = std::sync::Arc::new(AtomicU64::new(0));
            let committer = {
                let log = std::sync::Arc::clone(&log);
                let reader_done = std::sync::Arc::clone(&reader_done);
                let enumerated = std::sync::Arc::clone(&enumerated);
                std::thread::spawn(move || {
                    while reader_done.load(Ordering::Acquire) == 0 {
                        log.record_word(8);
                        if log.take_readers([8]).contains(rank) {
                            enumerated.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            };
            let mut covered = 0u64;
            for _ in 0..2_000 {
                let snapshot = log.register_reader(8, rank);
                if log.version_of(8) <= snapshot {
                    // Snapshot covers every commit so far: a take_readers
                    // that missed this registration missed nothing stale.
                    covered += 1;
                }
            }
            reader_done.store(1, Ordering::Release);
            committer.join().unwrap();
            assert!(
                covered > 0 || enumerated.load(Ordering::Relaxed) > 0,
                "rank {rank}: reader neither covered nor ever enumerated"
            );
        }
    }
}
