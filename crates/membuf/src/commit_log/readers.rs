//! The commit log's **reader registry**:
//! [`register_reader`](CommitLog::register_reader), the take that
//! [`publish`](CommitLog::publish) runs on each range it stamps, and the
//! [`ReaderSet`] they trade in.
//!
//! Alongside each range's version the log keeps a *reader registry*: a
//! bitmask of the thread ids (ranks `1..=`[`MAX_TRACKED_READERS`]) whose
//! read sets currently cover the range, plus — since the rank cap was
//! lifted — a per-range **spill set** (a hash set behind the log's spill
//! lock) holding the ranks beyond the bitmask window.  A committing
//! writer's [`publish`](CommitLog::publish) takes the readers of each
//! range it stamps, and the writer dooms exactly those threads (*targeted
//! dooming*) instead of squashing every logical successor; enumeration is
//! complete at any thread count, so the old cascade fallback for >63-rank
//! sweeps is gone.
//!
//! Registration stays **off the slow-path lock**: a tracked reader ORs its
//! bit into the range's mask with a single atomic RMW and then
//! (re-)reads the log's epoch — a seqlock-style double-checked read,
//! since a snapshot sampled *before* the registration could let a racing
//! committer both miss the bit and stay below the snapshot.  With the
//! registration sequenced first (all four operations `SeqCst`), a
//! committer whose take misses the bit must have published its epoch
//! before the reader's snapshot, so the reader's snapshot covers the
//! commit and no conflict existed.  A
//! spilled (rank > 63) reader inserts into the spill set *under the
//! spill lock* and sets the sticky spill-marker bit before re-reading
//! the epoch; the lock's release/acquire edges plus the `SeqCst` epoch
//! accesses give the same guarantee.  A reader registers each range
//! **once**: a rank already in the range's mask (or spill set) skips the
//! RMW, because its registration is earlier in the `SeqCst` order than
//! the snapshot it now takes, and a take that clears it also returns the
//! rank — so a skipped RMW is never a missed reader.  Hence:
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
//! * **Stale reader ⇒ spurious doom only**: a bit left behind by a
//!   thread that already finished dooms whatever now runs on that rank;
//!   the doomed thread rolls back and re-executes — slower, never wrong.
//!   Staleness is bounded by clearing masks on enumeration and by the
//!   runtime unregistering, once and whatever the thread's fate, each
//!   range its buffer set a registration on, where the buffer is returned
//!   to its CPU — before the CPU is released, so no later task on that
//!   rank can lose a registration of its own to it.

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
/// ranges (see [`CommitLog::publish`]): a bitmask for ranks
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

/// What a take has gathered so far, range by range (see
/// [`CommitLog::publish`]).
#[derive(Default)]
pub(super) struct ReaderTake {
    /// Tracked ranks asked so far, and which of them are spared.
    asked: u64,
    spared: u64,
    /// Tracked ranks taken.
    bits: u64,
    /// Spilled ranks taken (one entry per range a rank was found on).
    spilled: Vec<usize>,
}

impl ReaderTake {
    pub(super) fn into_set(self) -> ReaderSet {
        ReaderSet::from_parts(self.bits, self.spilled)
    }
}

impl CommitLog {
    /// Register thread `rank` as a reader of `addr`'s range and return the
    /// read snapshot to stamp the read-set entry with.
    ///
    /// This is the seqlock-style protocol of the module docs: the
    /// registration lands first (one `SeqCst` RMW for tracked ranks, a
    /// spill-set insert plus the sticky marker bit for ranks past the
    /// window — both off the slow-path lock) and the epoch is
    /// (re-)read *after* the registration is globally visible.  A
    /// committer whose [`publish`](Self::publish) misses the
    /// registration must therefore have published its epoch before this
    /// snapshot, so the snapshot covers the commit and the read is not
    /// stale.  A rank whose bit the range's mask already holds (or, past
    /// the window, whose spill set already holds it) pays no RMW: that
    /// registration is earlier in the `SeqCst` order than this snapshot,
    /// and a take that clears it also returns the rank.  Rank 0 (the
    /// non-speculative thread) registers nothing.
    pub fn register_reader(&self, addr: Addr, rank: usize) -> CommitVersion {
        self.register(addr, rank).0
    }

    /// [`register_reader`](Self::register_reader), also saying whether this
    /// call set the registration (`false` when it was already there, or
    /// for rank 0) — what a buffer keeps to retire each range once.
    pub(crate) fn register(&self, addr: Addr, rank: usize) -> (CommitVersion, bool) {
        let local = self.slot_of(addr);
        let bit = reader_bit(rank);
        let set = match bit {
            0 => false,
            READER_SPILL_BIT => {
                self.touch();
                let inserted = self
                    .readers_spill
                    .write()
                    .entry(local)
                    .or_default()
                    .insert(rank);
                if inserted {
                    self.reader_spills.fetch_add(1, Ordering::Relaxed);
                    self.readers[local].fetch_or(bit, Ordering::SeqCst);
                }
                inserted
            }
            _ if self.readers[local].load(Ordering::SeqCst) & bit != 0 => false,
            _ => {
                self.touch();
                self.readers[local].fetch_or(bit, Ordering::SeqCst);
                true
            }
        };
        (self.epoch.load(Ordering::SeqCst), set)
    }

    /// Whether no read of slot `local`'s range can be stale: no rank is
    /// registered on it, and no commit ever stamped it (so no take ever
    /// cleared a registration there).  The mask load is `SeqCst`, after the
    /// publishing commit reserved its version, as a take's is; it
    /// synchronizes with any take that emptied the mask, so the stamp that
    /// take followed is visible to the version load.
    pub(super) fn unread(&self, local: usize) -> bool {
        self.readers[local].load(Ordering::SeqCst) == 0
            && self.dense[local].load(Ordering::Acquire) == 0
    }

    /// Remove thread `rank` from the reader registry of every range
    /// covering `addrs` (a finished thread's read set — committed, absorbed
    /// or squashed, its registrations are dead and would only cause
    /// spurious dooms).  The spill marker stays sticky while other spilled
    /// ranks remain; it is cleared when the last one leaves.
    pub fn unregister_reader<I: IntoIterator<Item = Addr>>(&self, addrs: I, rank: usize) {
        let bit = reader_bit(rank);
        if bit == 0 {
            return;
        }
        let mut last: Option<usize> = None;
        for addr in addrs {
            let local = self.slot_of(addr);
            if last == Some(local) {
                continue;
            }
            last = Some(local);
            if bit == READER_SPILL_BIT {
                let mut spill = self.readers_spill.write();
                if let Some(set) = spill.get_mut(&local) {
                    set.remove(&rank);
                    if set.is_empty() {
                        spill.remove(&local);
                        self.readers[local].fetch_and(!bit, Ordering::SeqCst);
                    }
                }
            } else {
                self.readers[local].fetch_and(!bit, Ordering::SeqCst);
            }
        }
    }

    /// Take the readers of every range covering `addrs` by
    /// [`publish`](Self::publish)'s rule with nobody spared, *without
    /// stamping the ranges*: what the benchmark's probes import, and
    /// nothing else may call.
    ///
    /// A take without a stamp breaks `publish`'s skip-unread argument.  A
    /// registration it clears leaves no stamp behind, so a later publish
    /// with `skip_unread` finds neither a reader nor a stamp on the range
    /// and skips it, while the reader may still hold a value read before
    /// that publish: a missed conflict.  The runtime takes readers only
    /// through `publish`, where every take follows its range's stamp.
    #[doc(hidden)]
    pub fn take_readers<I: IntoIterator<Item = Addr>>(&self, addrs: I) -> ReaderSet {
        let mut take = ReaderTake::default();
        let mut last: Option<usize> = None;
        for addr in addrs {
            let local = self.slot_of(addr);
            if last != Some(local) {
                last = Some(local);
                self.take_slot(local, &mut take, &mut |_| false);
            }
        }
        take.into_set()
    }

    /// Take the readers of one range (slot `local`, window-checked) into
    /// `take`: the per-range step of the publish walk, which takes each
    /// range right after stamping it (and of
    /// [`take_readers`](Self::take_readers)).
    ///
    /// The mask is read once and only bits of that read are cleared
    /// (`fetch_and`, not a swap): a bit set after the read is neither
    /// returned nor cleared, which is the missed-reader case of the module
    /// docs — its snapshot covers this commit — and a spared bit is never
    /// out of the mask, so no concurrent enumeration can miss it.  A spill
    /// set is filtered under the spill lock, and its marker bit is cleared
    /// under the same lock when the set empties, as in
    /// [`unregister_reader`](Self::unregister_reader).
    pub(super) fn take_slot<F: FnMut(usize) -> bool>(
        &self,
        local: usize,
        take: &mut ReaderTake,
        spare: &mut F,
    ) {
        // Fast path: an unread range stays a single load — but it must be
        // SeqCst, not relaxed, or it could miss a registration that
        // precedes this enumeration in the SC order and break the
        // missed-reader argument of the module docs (a relaxed load
        // participates in no SC total order).
        let seen = self.readers[local].load(Ordering::SeqCst);
        if seen == 0 {
            return;
        }
        let mut fresh = seen & !take.asked & !READER_SPILL_BIT;
        while fresh != 0 {
            let tz = fresh.trailing_zeros();
            fresh &= fresh - 1;
            if spare(tz as usize + 1) {
                take.spared |= 1 << tz;
            }
        }
        take.asked |= seen & !READER_SPILL_BIT;
        let mut keep = seen & take.spared;
        if seen & READER_SPILL_BIT != 0 {
            let mut spill = self.readers_spill.write();
            if let Some(set) = spill.get_mut(&local) {
                set.retain(|&rank| {
                    spare(rank) || {
                        take.spilled.push(rank);
                        false
                    }
                });
                if set.is_empty() {
                    spill.remove(&local);
                } else {
                    keep |= READER_SPILL_BIT;
                }
            }
            // Under the lock: a spilled registrant inserts before it sets
            // the marker.
            self.readers[local].fetch_and(!(seen & !keep), Ordering::SeqCst);
        } else if keep != seen {
            self.readers[local].fetch_and(!(seen & !keep), Ordering::SeqCst);
        }
        take.bits |= seen & !keep;
    }

    /// The registered readers of `addr`'s range (tests and diagnostics;
    /// does not clear).
    pub fn registered_readers(&self, addr: Addr) -> ReaderSet {
        let local = self.slot_of(addr);
        let bits = self.readers[local].load(Ordering::SeqCst);
        let spilled = if bits & READER_SPILL_BIT != 0 {
            self.readers_spill
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
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), 256);
        // Registration returns a snapshot usable exactly like snapshot().
        let v = log.register_reader(8, 3);
        assert_eq!(v, log.snapshot(8));
        log.register_reader(8, 5);
        log.register_reader(16, 7); // different range, untouched below
        let set = log.registered_readers(8);
        assert!(set.contains(3) && set.contains(5) && !set.contains(7));
        assert_eq!(set.len(), 2);
        // A publish takes exactly the overlapping readers and clears them.
        let taken = log.publish(&mut vec![8], false, |_| false).1;
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
    fn a_rank_registers_each_range_once_until_a_take_clears_it() {
        // Line grain: words 8 and 56 share a range.  A tracked rank and a
        // spilled one each set their registration once; a repeat pays no
        // RMW and counts no spill, and after a take the next read sets it
        // again.
        let log = CommitLog::with_config(CommitLogConfig::line_grain(), 1 << 12);
        for rank in [5, 90] {
            assert!(log.register(8, rank).1, "rank {rank}: first");
            assert!(!log.register(56, rank).1, "rank {rank}: same range");
            assert!(log.register(64, rank).1, "rank {rank}: next range");
        }
        assert_eq!(log.stats().reader_spills, 2);
        let taken = log.publish(&mut vec![8], false, |_| false).1;
        assert_eq!(taken.ranks().collect::<Vec<_>>(), vec![5, 90]);
        assert!(log.register(16, 5).1 && log.register(16, 90).1);
        assert!(!log.register(0, 0).1, "rank 0 registers nothing");
        assert_eq!(log.stats().reader_spills, 3);
    }

    #[test]
    fn reader_registry_tracks_ranges_not_words() {
        // At line grain two words of the same line share one reader mask,
        // and a commit to either word enumerates the reader.
        let log = CommitLog::with_config(CommitLogConfig::line_grain(), 1 << 12);
        log.register_reader(8, 2);
        assert!(log.registered_readers(56).contains(2), "same line");
        assert!(!log.registered_readers(64).contains(2), "next line");
        let taken = log.publish(&mut vec![48], false, |_| false).1;
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
        let set = log.publish(&mut vec![8], false, |_| false).1;
        assert!(set.contains(MAX_TRACKED_READERS));
        assert!(set.contains(MAX_TRACKED_READERS + 1));
        assert!(set.contains(200));
        assert_eq!(set.len(), 3);
        assert_eq!(
            set.ranks().collect::<Vec<_>>(),
            vec![MAX_TRACKED_READERS, MAX_TRACKED_READERS + 1, 200]
        );
        // Cleared on take, spill set included.
        assert!(log.publish(&mut vec![8], false, |_| false).1.is_empty());
        // Unregister removes a single spilled rank; the other survives.
        log.register_reader(16, 100);
        log.register_reader(16, 101);
        log.unregister_reader([16], 100);
        let set = log.registered_readers(16);
        assert!(!set.contains(100) && set.contains(101));
    }

    #[test]
    fn a_spared_reader_keeps_its_bit_where_it_was_found() {
        // Ranks 2 and 100 (spilled) are spared, 3 and 101 are not; rank 2
        // read word 8 only, so word 16 gains nothing.
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), 64);
        for (addr, rank) in [(8, 2), (8, 3), (8, 100), (8, 101), (16, 3)] {
            log.register_reader(addr, rank);
        }
        let mut asked = Vec::new();
        let (_, taken) = log.publish(&mut vec![8, 16], false, |rank| {
            asked.push(rank);
            rank == 2 || rank == 100
        });
        assert_eq!(taken.ranks().collect::<Vec<_>>(), vec![3, 101]);
        asked.sort_unstable();
        assert_eq!(asked, vec![2, 3, 100, 101], "each rank asked once");
        let kept = log.registered_readers(8);
        assert_eq!(kept.ranks().collect::<Vec<_>>(), vec![2, 100]);
        assert!(log.registered_readers(16).is_empty());
        // Nobody spared: the rest goes, spill marker included.
        let (_, rest) = log.publish(&mut vec![8], false, |_| false);
        assert_eq!(rest.ranks().collect::<Vec<_>>(), vec![2, 100]);
        assert_eq!(log.readers[log.slot_of(8)].load(Ordering::SeqCst), 0);
    }

    #[test]
    fn reader_spills_are_counted_in_stats() {
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), (1 << 20) + 8);
        log.register_reader(8, 1); // in-window: no spill
        assert_eq!(log.stats().reader_spills, 0);
        log.register_reader(8, MAX_TRACKED_READERS + 1);
        log.register_reader(1 << 20, 200); // another region's spill set
        assert_eq!(log.stats().reader_spills, 2);
        log.clear();
        assert_eq!(log.stats().reader_spills, 0, "clear resets the counter");
    }

    #[test]
    fn registered_reader_with_stale_snapshot_is_always_enumerated() {
        // The deterministic half of the seqlock argument: a reader whose
        // registration precedes a commit is taken by that commit's
        // publish — the "doom exactly the stale readers" contract.
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), 64);
        let snapshot = log.register_reader(8, 7);
        let (version, taken) = log.publish(&mut vec![8], false, |_| false);
        assert!(version > snapshot, "the read is stale");
        assert!(taken.contains(7), "stale reader missed by enumeration");
        // A second publish takes nothing (cleared on take).
        assert!(log.publish(&mut vec![8], false, |_| false).1.is_empty());
    }

    #[test]
    fn concurrent_registration_and_enumeration_never_strands_a_stale_reader() {
        // Concurrent hammer of the protocol: after a commit, a reader is
        // either taken by some publish or its snapshot covers
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
                        if log.publish(&mut vec![8], false, |_| false).1.contains(rank) {
                            enumerated.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            };
            let mut covered = 0u64;
            for _ in 0..2_000 {
                let snapshot = log.register_reader(8, rank);
                if log.version_of(8) <= snapshot {
                    // Snapshot covers every commit so far: a publish that
                    // missed this registration missed nothing stale.
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
