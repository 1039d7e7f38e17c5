//! Property-based tests of the buffering layer: the word-granular hash
//! map and the read/write-set buffer must behave exactly like simple
//! model implementations for arbitrary operation sequences.

use std::collections::HashMap;

use proptest::prelude::*;

use mutls_membuf::{
    AddressSpace, BufferConfig, BufferError, CommitLog, CommitLogConfig, GlobalBuffer,
    GlobalMemory, MainMemory, WordEntry, WordMap, LINE_GRAIN_LOG2, PAGE_GRAIN_LOG2, WORD_BYTES,
    WORD_GRAIN_LOG2,
};

/// Arbitrary word-aligned address within a small arena.
fn addr_strategy() -> impl Strategy<Value = u64> {
    (1u64..512).prop_map(|i| i * WORD_BYTES)
}

/// Arbitrary commit-log grain: word, cache line or page.
fn grain_strategy() -> impl Strategy<Value = u32> {
    (0u32..3).prop_map(|i| [WORD_GRAIN_LOG2, LINE_GRAIN_LOG2, PAGE_GRAIN_LOG2][i as usize])
}

/// A word-granular log — adjacent words are distinct ranges, which the
/// exactness properties below rely on.
fn word_log() -> CommitLog {
    CommitLog::with_config(CommitLogConfig::word_grain(), 1 << 12)
}

/// Reference model of a 16-slot, 4-overflow-entry [`WordMap`].
#[derive(Default)]
struct WordMapModel {
    entries: HashMap<u64, WordEntry>,
    /// Occupant of each direct-mapped slot.
    home: HashMap<u64, u64>,
    /// Addresses in their home slot, in insertion order.
    direct: Vec<u64>,
    /// Addresses in the overflow area, in insertion order.
    overflow: Vec<u64>,
    pending: bool,
}

impl WordMapModel {
    fn merge(&mut self, new: WordEntry) -> Result<(), BufferError> {
        let occupant = *self
            .home
            .entry((new.addr / WORD_BYTES) % 16)
            .or_insert(new.addr);
        if let Some(e) = self.entries.get_mut(&new.addr) {
            e.data = (e.data & !new.mask) | new.data;
            e.mask |= new.mask;
        } else if occupant == new.addr {
            self.direct.push(new.addr);
            self.entries.insert(new.addr, new);
        } else if self.overflow.len() == 4 {
            return Err(BufferError::OverflowFull);
        } else {
            self.overflow.push(new.addr);
            self.entries.insert(new.addr, new);
        }
        if occupant == new.addr {
            return Ok(());
        }
        self.pending = true;
        Err(BufferError::OverflowPending)
    }
}

/// Words the sized-access property plays on.
const SIZED_WORDS: u64 = 48;

/// What a thread's buffer is, told in bytes: the bytes it wrote, and for
/// every word it had to read from memory the eight bytes it found there.
#[derive(Default)]
struct ByteModel {
    written: HashMap<u64, u8>,
    first_read: HashMap<u64, [u8; 8]>,
    loads: u64,
    stores: u64,
}

impl ByteModel {
    fn check(addr: u64, size: u64) -> Result<(), BufferError> {
        if !matches!(size, 1 | 2 | 4 | 8) {
            return Err(BufferError::UnsupportedSize);
        }
        if !addr.is_multiple_of(size) {
            return Err(BufferError::Misaligned);
        }
        Ok(())
    }

    fn written_words(&self) -> std::collections::HashSet<u64> {
        self.written
            .keys()
            .map(|byte| byte & !(WORD_BYTES - 1))
            .collect()
    }

    /// `under` with the thread's own bytes of the word on top.
    fn overlay(&self, word_addr: u64, mut under: [u8; 8]) -> [u8; 8] {
        for (i, byte) in under.iter_mut().enumerate() {
            if let Some(&own) = self.written.get(&(word_addr + i as u64)) {
                *byte = own;
            }
        }
        under
    }

    fn load(&mut self, mem: &GlobalMemory, addr: u64, size: u64) -> Result<u64, BufferError> {
        self.loads += 1;
        Self::check(addr, size)?;
        let word_addr = addr & !(WORD_BYTES - 1);
        let fully_written = (0..WORD_BYTES).all(|i| self.written.contains_key(&(word_addr + i)));
        let under = if fully_written {
            [0; 8]
        } else {
            *self
                .first_read
                .entry(word_addr)
                .or_insert_with(|| mem.read_word(word_addr).to_le_bytes())
        };
        let word = self.overlay(word_addr, under);
        let mut value = [0u8; 8];
        let at = (addr - word_addr) as usize;
        value[..size as usize].copy_from_slice(&word[at..at + size as usize]);
        Ok(u64::from_le_bytes(value))
    }

    fn store(&mut self, addr: u64, value: u64, size: u64) -> Result<(), BufferError> {
        self.stores += 1;
        Self::check(addr, size)?;
        for (i, byte) in value
            .to_le_bytes()
            .into_iter()
            .take(size as usize)
            .enumerate()
        {
            self.written.insert(addr + i as u64, byte);
        }
        Ok(())
    }

    fn stats(&self) -> mutls_membuf::BufferStats {
        mutls_membuf::BufferStats {
            loads: self.loads,
            stores: self.stores,
            memory_loads: self.first_read.len() as u64,
            ..Default::default()
        }
    }
}

proptest! {
    /// The WordMap behaves like a model built from `HashMap`s through
    /// every operation of its API — partial-mask merges, version
    /// weakening/refreshing, clear-then-reuse — including hash conflicts
    /// that spill into the overflow area and fill it: 64 addresses share
    /// 16 slots and 4 overflow entries.
    #[test]
    fn wordmap_matches_hashmap_model(
        ops in proptest::collection::vec((0u32..16, 1u64..65, any::<u64>(), 0u64..8), 1..300)
    ) {
        const MASKS: [u64; 4] = [u64::MAX, 0xFF, 0xFFFF_0000, 0xFFFF_FFFF_0000_0000];
        let mut map = WordMap::new(16, 4);
        let mut model = WordMapModel::default();
        for (kind, word, value, version) in ops {
            let addr = word * WORD_BYTES;
            match kind {
                0 => {
                    map.clear();
                    model = WordMapModel::default();
                }
                1 | 2 => {
                    map.weaken_version(addr, version);
                    if let Some(e) = model.entries.get_mut(&addr) {
                        e.version = e.version.min(version);
                    }
                }
                3 | 4 => {
                    map.refresh_version(addr, version);
                    if let Some(e) = model.entries.get_mut(&addr) {
                        e.version = e.version.max(version);
                    }
                }
                _ => {
                    let mask = MASKS[(value % 4) as usize];
                    prop_assert_eq!(
                        map.merge_versioned(addr, value, mask, version),
                        model.merge(WordEntry { addr, data: value & mask, mask, version })
                    );
                }
            }
            prop_assert_eq!(map.len(), model.entries.len());
            prop_assert_eq!(map.overflow_len(), model.overflow.len());
            prop_assert_eq!(map.overflow_pending(), model.pending);
        }
        // Direct-mapped entries in insertion order, then the overflow area.
        let expected: Vec<WordEntry> = model
            .direct
            .iter()
            .chain(&model.overflow)
            .map(|addr| model.entries[addr])
            .collect();
        prop_assert_eq!(map.iter().collect::<Vec<_>>(), expected);
        for word in 1..65 {
            let addr = word * WORD_BYTES;
            prop_assert_eq!(map.get(addr), model.entries.get(&addr).copied());
        }
    }

    /// Speculative load/store through a GlobalBuffer followed by a commit
    /// is equivalent to applying the stores directly to memory, and loads
    /// always observe the thread's own writes.
    #[test]
    fn buffered_stores_commit_like_direct_stores(
        ops in proptest::collection::vec((addr_strategy(), any::<u64>(), any::<bool>()), 1..200)
    ) {
        let mem = GlobalMemory::new(1 << 16);
        let shadow = GlobalMemory::new(1 << 16);
        // Seed both memories identically.
        for i in 1..512u64 {
            mem.write_word(i * WORD_BYTES, i.wrapping_mul(0x9E37));
            shadow.write_word(i * WORD_BYTES, i.wrapping_mul(0x9E37));
        }
        let mut buf = GlobalBuffer::new(BufferConfig::default());
        let mut local: HashMap<u64, u64> = HashMap::new();
        for (addr, value, is_store) in ops {
            if is_store {
                buf.store(addr, value, WORD_BYTES).unwrap();
                shadow.write_word(addr, value);
                local.insert(addr, value);
            } else {
                let got = buf.load(&mem, addr, WORD_BYTES).unwrap();
                let want = local.get(&addr).copied().unwrap_or_else(|| mem.read_word(addr));
                prop_assert_eq!(got, want, "load at {:#x}", addr);
            }
        }
        // No interfering writes happened, so validation must succeed and the
        // commit must make main memory equal to the shadow memory.
        prop_assert!(buf.validate(&mem));
        buf.commit(&mem);
        for i in 1..512u64 {
            let a = i * WORD_BYTES;
            prop_assert_eq!(mem.read_word(a), shadow.read_word(a), "word {:#x}", a);
        }
    }

    /// One overlay rule: sized (1/2/4/8-byte and unsupported), aligned and
    /// misaligned loads and stores through `load_logged` / `store` — the
    /// inlined hit parts and their out-of-line `first_touch` /
    /// `first_store` — agree byte for byte with a plain byte-array model,
    /// refuse exactly the accesses the model refuses, with the same error,
    /// and leave `BufferStats` equal to the model's counts.  A word the
    /// thread has not fully written is read from memory once, at its first
    /// load (writes by others after that are not seen); a fully written one
    /// never is.
    #[test]
    fn sized_accesses_follow_a_byte_array_model(
        ops in proptest::collection::vec(
            (0u32..16, 0u64..(SIZED_WORDS * WORD_BYTES), 0u64..10, any::<u64>()),
            1..400,
        )
    ) {
        let mem = GlobalMemory::new(1 << 12);
        let base = mem.alloc::<u64>(SIZED_WORDS as usize).base_addr();
        let log = word_log();
        let mut buf = GlobalBuffer::new(BufferConfig::default());
        let mut model = ByteModel::default();
        for i in 0..SIZED_WORDS {
            mem.write_word(base + i * WORD_BYTES, i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        for (kind, offset, size, value) in ops {
            // Half of the accesses are aligned to their size on purpose.
            let (kind, align) = (kind / 2, kind % 2 == 0 && size > 0);
            let offset = if align { offset - offset % size.min(WORD_BYTES) } else { offset };
            let addr = base + offset;
            match kind {
                0..=2 => prop_assert_eq!(
                    buf.load_logged(&mem, Some(&log), addr, size),
                    model.load(&mem, addr, size),
                    "load of {} bytes at {:#x}", size, addr
                ),
                3..=5 => prop_assert_eq!(
                    buf.store(addr, value, size),
                    model.store(addr, value, size),
                    "store of {} bytes at {:#x}", size, addr
                ),
                // Somebody else's store to main memory.
                _ => mem.write_word(addr & !(WORD_BYTES - 1), value),
            }
            prop_assert_eq!(buf.stats(), model.stats());
            prop_assert_eq!(buf.read_set_len(), model.first_read.len());
            prop_assert_eq!(buf.write_set_len(), model.written_words().len());
        }
        // Every byte the thread sees, then every byte it publishes.
        for i in 0..SIZED_WORDS * WORD_BYTES {
            prop_assert_eq!(buf.load_logged(&mem, Some(&log), base + i, 1), model.load(&mem, base + i, 1));
        }
        // A commit leaves main memory alone wherever the thread wrote nothing.
        let word_addrs = (0..SIZED_WORDS).map(|i| base + i * WORD_BYTES);
        let before: Vec<u64> = word_addrs.clone().map(|a| mem.read_word(a)).collect();
        buf.commit(&mem);
        for (word_addr, under) in word_addrs.zip(before) {
            prop_assert_eq!(
                mem.read_word(word_addr).to_le_bytes(),
                model.overlay(word_addr, under.to_le_bytes()),
                "word {:#x}", word_addr
            );
        }
    }

    /// Validation fails exactly when main memory changed under an address
    /// in the read-set.
    #[test]
    fn validation_detects_interfering_writes(
        read_addr in addr_strategy(),
        write_addr in addr_strategy(),
        new_value in any::<u64>(),
    ) {
        let mem = GlobalMemory::new(1 << 16);
        let mut buf = GlobalBuffer::new(BufferConfig::default());
        let original = mem.read_word(read_addr);
        let _ = buf.load(&mem, read_addr, WORD_BYTES).unwrap();
        mem.write_word(write_addr, new_value);
        let expect_valid = write_addr != read_addr || new_value == original;
        prop_assert_eq!(buf.validate(&mem), expect_valid);
    }

    /// Commit-log validation round-trip: a buffer that read a set of
    /// addresses conflicts with a later commit batch iff the batch
    /// overlaps its read-set — disjoint address sets never conflict,
    /// overlapping write-after-read always flags (even for same-value
    /// ABA writes, which is what distinguishes version validation from
    /// value validation).
    #[test]
    fn commit_log_flags_exactly_the_overlapping_commits(
        reads in proptest::collection::vec(addr_strategy(), 1..32),
        commits in proptest::collection::vec(addr_strategy(), 0..32),
    ) {
        let reads: std::collections::HashSet<u64> = reads.into_iter().collect();
        let commits: std::collections::HashSet<u64> = commits.into_iter().collect();
        let mem = GlobalMemory::new(1 << 16);
        let log = word_log();
        let mut buf = GlobalBuffer::new(BufferConfig::default());
        for &addr in &reads {
            let _ = buf.load_logged(&mem, Some(&log), addr, WORD_BYTES).unwrap();
        }
        prop_assert!(buf.validate_against(&log), "no commit yet, must be valid");
        // One commit batch after every read; values unchanged (pure ABA).
        log.record(commits.iter().copied());
        let overlaps = commits.iter().any(|a| reads.contains(a));
        prop_assert_eq!(
            !buf.validate_against(&log),
            overlaps,
            "reads {:?} vs commits {:?}",
            reads,
            commits
        );
    }

    /// Absorb round-trip: after a parent absorbs a validated child,
    /// (a) every child write is visible through the parent's write-set
    /// (so later joiners validate against it), and (b) every child read
    /// keeps its snapshot version, so a commit that lands *after* the
    /// absorb still flags the parent at its own validation.
    #[test]
    fn absorb_roundtrips_child_writes_and_read_versions(
        child_reads in proptest::collection::vec(addr_strategy(), 1..24),
        child_writes in proptest::collection::vec((addr_strategy(), any::<u64>()), 1..24),
        late_commit in addr_strategy(),
    ) {
        let child_reads: std::collections::HashSet<u64> = child_reads.into_iter().collect();
        let mem = GlobalMemory::new(1 << 16);
        let log = word_log();
        let mut parent = GlobalBuffer::new(BufferConfig::default());
        let mut child = GlobalBuffer::new(BufferConfig::default());
        for &addr in &child_reads {
            let _ = child.load_logged(&mem, Some(&log), addr, WORD_BYTES).unwrap();
        }
        let mut last_written: HashMap<u64, u64> = HashMap::new();
        for &(addr, value) in &child_writes {
            child.store(addr, value, WORD_BYTES).unwrap();
            last_written.insert(addr, value);
        }
        parent.absorb(&child).unwrap();
        // (a) absorbed writes are visible through the parent.
        for (&addr, &value) in &last_written {
            prop_assert_eq!(parent.load(&mem, addr, WORD_BYTES).unwrap(), value);
        }
        prop_assert!(parent.validate_against(&log), "nothing committed yet");
        // (b) a commit after the absorb conflicts iff it overlaps one of
        // the child's reads.  All reads here happened before the child's
        // own writes, so even a read-modify-write address carries a
        // genuine dependence on the predecessor state.
        log.record_word(late_commit);
        let dependent = child_reads.contains(&late_commit);
        prop_assert_eq!(!parent.validate_against(&log), dependent);
    }

    /// Range-granular validation is one-sided at every grain and shard
    /// count: a commit overlapping a read at *word* level must always be
    /// flagged (no missed conflicts), and a commit disjoint from every
    /// read at *range* level must always validate (false sharing stays
    /// confined to shared ranges).
    #[test]
    fn range_grain_flags_conservatively_never_misses(
        grain_log2 in grain_strategy(),
        shards in (0u32..4).prop_map(|i| [1usize, 2, 8, 16][i as usize]),
        reads in proptest::collection::vec(addr_strategy(), 1..24),
        commits in proptest::collection::vec(addr_strategy(), 0..24),
    ) {
        let reads: std::collections::HashSet<u64> = reads.into_iter().collect();
        let commits: std::collections::HashSet<u64> = commits.into_iter().collect();
        let mem = GlobalMemory::new(1 << 16);
        let config = CommitLogConfig { grain_log2, shards, ..Default::default() };
        let log = CommitLog::with_config(config, 1 << 15);
        let mut buf = GlobalBuffer::new(BufferConfig::default());
        for &addr in &reads {
            let _ = buf.load_logged(&mem, Some(&log), addr, WORD_BYTES).unwrap();
        }
        prop_assert!(buf.validate_against(&log), "no commit yet, must be valid");
        log.record(commits.iter().copied());
        let word_overlap = commits.iter().any(|a| reads.contains(a));
        let range_overlap = commits
            .iter()
            .any(|c| reads.iter().any(|r| c >> grain_log2 == r >> grain_log2));
        let valid = buf.validate_against(&log);
        if word_overlap {
            prop_assert!(!valid, "missed a word-level conflict at grain {}", grain_log2);
        }
        if !range_overlap {
            prop_assert!(valid, "false sharing across range boundary at grain {}", grain_log2);
        }
    }

    /// Two words straddling a range edge never cross-conflict: the last
    /// word of range k-1 and the first word of range k are tracked
    /// independently at every grain and shard count.
    #[test]
    fn range_edge_straddlers_do_not_cross_conflict(
        grain_log2 in grain_strategy(),
        shards in (0u32..3).prop_map(|i| [1usize, 2, 8][i as usize]),
        k in 1u64..64,
    ) {
        let config = CommitLogConfig { grain_log2, shards, ..Default::default() };
        let log = CommitLog::with_config(config, 64 << grain_log2);
        let edge = k << grain_log2;
        let below = edge - WORD_BYTES; // last word of range k-1
        let above = edge;              // first word of range k
        let snap_below = log.snapshot(below);
        let snap_above = log.snapshot(above);
        log.record_word(below);
        prop_assert!(log.written_after(below, snap_below));
        prop_assert!(
            !log.written_after(above, log.snapshot(above)),
            "write below the edge flagged the range above (grain {grain_log2}, k {k})"
        );
        log.record_word(above);
        prop_assert!(log.written_after(above, snap_above));
    }

    /// The window rounds up to whole regions times shards — a capacity
    /// that ends mid-range still covers its last word, and a batch up to
    /// the window's last word keeps every stamp — and the first address
    /// past it is a caller's bug: it panics, naming the address.
    #[test]
    fn window_rounds_up_to_whole_regions_and_the_first_address_past_it_panics(
        grain_log2 in grain_strategy(),
        ranges in 1u64..16,
        offsets in proptest::collection::vec(0u64..32, 1..16),
    ) {
        let config = CommitLogConfig { grain_log2, shards: 4, ..Default::default() };
        let grain = 1u64 << grain_log2;
        // The capacity is not grain-aligned: the partial trailing range
        // must round up into the window.
        let capacity = ranges * grain - 1;
        let log = CommitLog::with_config(config, capacity);
        let stripe = 4u64 << log.region_log2();
        let window = capacity.div_ceil(stripe) * stripe;
        // A batch spread from the asked-for capacity to the window's end.
        let addrs: Vec<u64> = offsets
            .iter()
            .map(|o| (ranges * grain - WORD_BYTES + o * grain).min(window - WORD_BYTES))
            .collect();
        let snaps: Vec<u64> = addrs.iter().map(|&a| log.snapshot(a)).collect();
        log.record(addrs.iter().copied());
        for (&addr, &snap) in addrs.iter().zip(&snaps) {
            prop_assert!(log.written_after(addr, snap), "addr {addr:#x} lost its stamp");
            prop_assert!(log.version_of(addr) > 0);
        }
        let past = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| log.snapshot(window)));
        let message = past.expect_err("the first address past the window went through");
        let message = message.downcast_ref::<String>().expect("a formatted panic");
        prop_assert!(message.contains(&format!("{window:#x}")), "{}", message);
    }

    /// The global epoch is the max over the shard epochs: it bounds every
    /// per-address snapshot, and after any batch at least one address's
    /// snapshot equals it.
    #[test]
    fn global_epoch_is_the_max_over_shard_snapshots(
        shards in (0u32..3).prop_map(|i| [2usize, 4, 8][i as usize]),
        batches in proptest::collection::vec(
            proptest::collection::vec(addr_strategy(), 1..8), 1..8),
    ) {
        let config = CommitLogConfig { grain_log2: WORD_GRAIN_LOG2, shards, ..Default::default() };
        let log = CommitLog::with_config(config, 1 << 12);
        let mut touched: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut last_epoch = 0;
        for batch in &batches {
            log.record(batch.iter().copied());
            touched.extend(batch.iter().copied());
            let epoch = log.epoch();
            prop_assert!(epoch >= last_epoch, "global epoch went backwards");
            last_epoch = epoch;
        }
        let snapshots: Vec<u64> = touched.iter().map(|&a| log.snapshot(a)).collect();
        for &snap in &snapshots {
            prop_assert!(snap <= log.epoch(), "snapshot above the global max");
        }
        prop_assert!(
            snapshots.iter().any(|&s| s == log.epoch()),
            "no shard carries the max epoch"
        );
    }

    /// Targeted dooming is *surgical*: for arbitrary reader
    /// registrations and an arbitrary write batch, the enumerated doom
    /// set is always a **subset of the threads the old squash cascade
    /// would have discarded** (every registered — i.e. in-flight —
    /// speculative reader), and it contains exactly the readers whose
    /// registered ranges the batch overlaps: no bystander is ever
    /// doomed, no overlapping reader is ever missed, and a second
    /// enumeration finds nothing (cleared on take).
    #[test]
    fn doom_set_is_a_subset_of_the_cascades_victims(
        grain_log2 in grain_strategy(),
        shards in (0u32..3).prop_map(|i| [1usize, 4, 8][i as usize]),
        registrations in proptest::collection::vec(
            (1usize..17, addr_strategy()), 0..40),
        writes in proptest::collection::vec(addr_strategy(), 1..16),
    ) {
        let config = CommitLogConfig { grain_log2, shards, ..Default::default() };
        let log = CommitLog::with_config(config, 1 << 12);
        for (rank, addr) in &registrations {
            log.register_reader(*addr, *rank);
        }
        let cascade_victims: std::collections::HashSet<usize> =
            registrations.iter().map(|(rank, _)| *rank).collect();
        let overlapping: std::collections::HashSet<usize> = registrations
            .iter()
            .filter(|(_, addr)| {
                writes
                    .iter()
                    .any(|w| w >> grain_log2 == addr >> grain_log2)
            })
            .map(|(rank, _)| *rank)
            .collect();
        let doomed: std::collections::HashSet<usize> =
            log.take_readers(writes.iter().copied()).ranks().collect();
        prop_assert!(
            doomed.is_subset(&cascade_victims),
            "doomed a thread the cascade would not have squashed: {doomed:?} vs {cascade_victims:?}"
        );
        prop_assert_eq!(
            &doomed, &overlapping,
            "doom set is not exactly the overlapping readers"
        );
        // Cleared on enumeration: nothing left to doom twice.
        prop_assert!(log.take_readers(writes.iter().copied()).is_empty());
        // Disjoint registrations survive untouched.
        for (rank, addr) in &registrations {
            if !overlapping.contains(rank) {
                prop_assert!(
                    log.registered_readers(*addr).contains(*rank),
                    "bystander registration of rank {rank} was consumed"
                );
            }
        }
    }

    /// Regrain soundness: a coarsen/split (or any sequence of them)
    /// injected between the reads (`snapshot`) and `validate_against`
    /// never misses a true conflict — the PR 3 one-sided guarantee
    /// survives every regrain interleaving.  Regrains before the commit,
    /// after the commit, or on unrelated regions make no difference: a
    /// commit overlapping a read at word level is always flagged.
    #[test]
    fn regrain_between_read_and_validate_never_misses_a_conflict(
        floor_i in 0u32..2,
        initial_i in 0u32..3,
        shards in (0u32..3).prop_map(|i| [1usize, 2, 8][i as usize]),
        reads in proptest::collection::vec((1u64..2048).prop_map(|i| i * WORD_BYTES), 1..16),
        commits in proptest::collection::vec((1u64..2048).prop_map(|i| i * WORD_BYTES), 1..16),
        regrains_before in proptest::collection::vec((0u64..5, 0u32..3), 0..6),
        regrains_after in proptest::collection::vec((0u64..5, 0u32..3), 0..6),
    ) {
        let ladder = [WORD_GRAIN_LOG2, LINE_GRAIN_LOG2, PAGE_GRAIN_LOG2];
        let floor = ladder[floor_i as usize];
        let config = CommitLogConfig { grain_log2: floor, shards, ..Default::default() };
        // 2048 words = 16 KiB = four regions; regrains target regions 0..5
        // so a region nothing reads or writes is exercised too.
        let log = CommitLog::with_initial_grain(config, 5 << 12, ladder[initial_i as usize]);
        let mem = GlobalMemory::new(1 << 16);
        let reads: std::collections::HashSet<u64> = reads.into_iter().collect();
        let commits: std::collections::HashSet<u64> = commits.into_iter().collect();
        let mut buf = GlobalBuffer::new(BufferConfig::default());
        for &addr in &reads {
            let _ = buf.load_logged(&mem, Some(&log), addr, WORD_BYTES).unwrap();
        }
        for &(region, grain_i) in &regrains_before {
            log.regrain(region, ladder[grain_i as usize]);
        }
        log.record(commits.iter().copied());
        for &(region, grain_i) in &regrains_after {
            log.regrain(region, ladder[grain_i as usize]);
        }
        let word_overlap = commits.iter().any(|a| reads.contains(a));
        if word_overlap {
            prop_assert!(
                !buf.validate_against(&log),
                "missed a word-level conflict across regrains (floor {floor}, \
                 before {regrains_before:?}, after {regrains_after:?})"
            );
        }
        // And a regrained region conservatively invalidates its own
        // outstanding snapshots, so revalidation can only be *more*
        // conservative, never less: a read in a region whose grain
        // actually flipped (requests are clamped into [floor, region],
        // so compare against the *effective* initial grain) must fail.
        let initial = ladder[initial_i as usize]
            .clamp(floor, mutls_membuf::region_log2_for_grain(floor));
        if reads.iter().any(|&a| log.grain_of(a) != initial) {
            prop_assert!(!buf.validate_against(&log));
        }
    }

    /// Lock-free commit-path interleaving property (PR 7): N real
    /// committer threads CAS-publishing arbitrary mixes of disjoint and
    /// colliding slots, released together through a barrier.  Afterwards
    /// **every stamp is visible** (no lost update, whatever the
    /// interleaving), every shard epoch equals its reservation count
    /// (epochs are exact and monotone — `fetch_add` never skips or
    /// repeats), no slot exceeds the epoch it was reserved from, and the
    /// aggregate counters are exact.
    #[test]
    fn concurrent_disjoint_commits_never_lose_a_stamp(
        shards in (0u32..3).prop_map(|i| [1usize, 2, 4][i as usize]),
        batches in proptest::collection::vec(
            proptest::collection::vec(0u64..64, 1..8), 2..8),
    ) {
        let config = CommitLogConfig { grain_log2: WORD_GRAIN_LOG2, shards, ..Default::default() };
        // 64 word slots spread over `shards` regions: slot i lives in
        // region (i % shards), so every batch mixes shards and colliding
        // slots are common.  The capacity makes every region dense — the
        // property is about the CAS fast path.
        let log = std::sync::Arc::new(CommitLog::with_config(config, (shards as u64) << 12));
        let region_bytes = 1u64 << log.region_log2();
        let addr_of = |slot: u64| (slot % shards as u64) * region_bytes + (slot / shards as u64) * WORD_BYTES;
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(batches.len()));
        let handles: Vec<_> = batches
            .iter()
            .map(|batch| {
                let log = std::sync::Arc::clone(&log);
                let barrier = std::sync::Arc::clone(&barrier);
                let addrs: Vec<u64> = batch.iter().map(|&s| addr_of(s)).collect();
                std::thread::spawn(move || {
                    barrier.wait();
                    log.record(addrs.iter().copied())
                })
            })
            .collect();
        for h in handles {
            let version = h.join().unwrap();
            prop_assert!(version > 0, "a non-empty batch published no version");
        }
        // Every stamp visible: no interleaving loses an update.
        let mut touched: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for batch in &batches {
            for &slot in batch {
                touched.insert(addr_of(slot));
            }
        }
        for &addr in &touched {
            prop_assert!(log.version_of(addr) > 0, "slot {addr:#x} lost its stamp");
            prop_assert!(
                log.version_of(addr) <= log.snapshot(addr),
                "slot {addr:#x} outran its shard epoch"
            );
        }
        // Shard epochs are exact: one reservation per (batch, touched
        // shard) pair, so the epoch equals the number of batches whose
        // addresses hit the shard.
        for shard in 0..shards as u64 {
            let expected = batches
                .iter()
                .filter(|batch| batch.iter().any(|&s| s % shards as u64 == shard))
                .count() as u64;
            prop_assert_eq!(
                log.snapshot(shard * region_bytes),
                expected,
                "shard {} epoch drifted from its reservation count", shard
            );
        }
        prop_assert_eq!(log.commits(), batches.len() as u64);
    }

    /// MVCC conservatism sandwich (PR 8): for arbitrary grains, ring
    /// depths (including the depth-1 degeneration), bucket widths
    /// (including the one-version-per-bucket setting where small rings
    /// overflow constantly) and commit-batch interleavings, ring-probe
    /// validation is
    ///
    /// * never *more* conservative than full value-by-value comparison —
    ///   a commit overlapping a read at **word** level is always flagged
    ///   (values never change in this test, so value comparison flags
    ///   nothing: every flag mvcc must raise is exactly the structural
    ///   word overlap that version validation exists to catch, ABA
    ///   included), and
    /// * never *less* conservative than single-version validation — a
    ///   snapshot the single-version log dooms may precise-pass under
    ///   mvcc, but never the other way round: whenever the depth-1 twin
    ///   (identical stamp sequence) validates, the mvcc log validates
    ///   too, at every depth and under overflow.
    #[test]
    fn mvcc_is_sandwiched_between_value_and_single_version_validation(
        grain_log2 in grain_strategy(),
        shards in (0u32..3).prop_map(|i| [1usize, 2, 8][i as usize]),
        ring_depth in (0u32..3).prop_map(|i| [1u32, 2, 4][i as usize]),
        ring_bucket_log2 in (0u32..2).prop_map(|i| [0u32, 6][i as usize]),
        reads in proptest::collection::vec(addr_strategy(), 1..16),
        batches in proptest::collection::vec(
            proptest::collection::vec(addr_strategy(), 1..8), 1..6),
    ) {
        let reads: std::collections::HashSet<u64> = reads.into_iter().collect();
        let mem = GlobalMemory::new(1 << 16);
        let mvcc_config = CommitLogConfig {
            grain_log2, shards, ring_depth, ring_bucket_log2,
        };
        let single_config = CommitLogConfig { ring_depth: 1, ..mvcc_config };
        let mvcc_log = CommitLog::with_config(mvcc_config, 1 << 15);
        let single_log = CommitLog::with_config(single_config, 1 << 15);
        let mut mvcc_buf = GlobalBuffer::new(BufferConfig::default());
        let mut single_buf = GlobalBuffer::new(BufferConfig::default());
        for &addr in &reads {
            let _ = mvcc_buf.load_logged(&mem, Some(&mvcc_log), addr, WORD_BYTES).unwrap();
            let _ = single_buf.load_logged(&mem, Some(&single_log), addr, WORD_BYTES).unwrap();
        }
        // Identical stamp sequences on both logs, one version per batch.
        for batch in &batches {
            mvcc_log.record(batch.iter().copied());
            single_log.record(batch.iter().copied());
        }
        let mvcc_valid = mvcc_buf.validate_against(&mvcc_log);
        let single_valid = single_buf.validate_against(&single_log);
        let word_overlap = batches.iter().flatten().any(|a| reads.contains(a));
        if word_overlap {
            prop_assert!(
                !mvcc_valid,
                "missed a word-level conflict (depth {ring_depth}, bucket_log2 {ring_bucket_log2}, grain {grain_log2})"
            );
        }
        if single_valid {
            prop_assert!(
                mvcc_valid,
                "mvcc was stricter than single-version (depth {ring_depth}, bucket_log2 {ring_bucket_log2}, grain {grain_log2})"
            );
        }
        if ring_depth == 1 {
            // Depth-1 degeneration: exactly the legacy verdict.
            prop_assert_eq!(mvcc_valid, single_valid);
        }
    }

    /// Ring probes across regrain interleavings (PR 8): regrains injected
    /// before/after the commit batch truncate the rings conservatively —
    /// a word-level overlap is still always flagged, and a region whose
    /// grain actually flipped dooms its outstanding snapshots exactly as
    /// the single-version protocol does.
    #[test]
    fn mvcc_regrain_during_validate_never_misses_a_conflict(
        floor_i in 0u32..2,
        initial_i in 0u32..3,
        ring_depth in (0u32..3).prop_map(|i| [1u32, 2, 4][i as usize]),
        reads in proptest::collection::vec((1u64..2048).prop_map(|i| i * WORD_BYTES), 1..16),
        commits in proptest::collection::vec((1u64..2048).prop_map(|i| i * WORD_BYTES), 1..16),
        regrains_before in proptest::collection::vec((0u64..5, 0u32..3), 0..6),
        regrains_after in proptest::collection::vec((0u64..5, 0u32..3), 0..6),
    ) {
        let ladder = [WORD_GRAIN_LOG2, LINE_GRAIN_LOG2, PAGE_GRAIN_LOG2];
        let floor = ladder[floor_i as usize];
        let config = CommitLogConfig {
            grain_log2: floor,
            shards: 4,
            ring_depth,
            ring_bucket_log2: 0, // maximal ring churn: every version its own bucket
        };
        let log = CommitLog::with_initial_grain(config, 5 << 12, ladder[initial_i as usize]);
        let mem = GlobalMemory::new(1 << 16);
        let reads: std::collections::HashSet<u64> = reads.into_iter().collect();
        let commits: std::collections::HashSet<u64> = commits.into_iter().collect();
        let mut buf = GlobalBuffer::new(BufferConfig::default());
        for &addr in &reads {
            let _ = buf.load_logged(&mem, Some(&log), addr, WORD_BYTES).unwrap();
        }
        for &(region, grain_i) in &regrains_before {
            log.regrain(region, ladder[grain_i as usize]);
        }
        log.record(commits.iter().copied());
        for &(region, grain_i) in &regrains_after {
            log.regrain(region, ladder[grain_i as usize]);
        }
        if commits.iter().any(|a| reads.contains(a)) {
            prop_assert!(
                !buf.validate_against(&log),
                "ring probe missed a word-level conflict across regrains \
                 (floor {floor}, depth {ring_depth}, before {regrains_before:?}, \
                  after {regrains_after:?})"
            );
        }
        let initial = ladder[initial_i as usize]
            .clamp(floor, mutls_membuf::region_log2_for_grain(floor));
        if reads.iter().any(|&a| log.grain_of(a) != initial) {
            prop_assert!(!buf.validate_against(&log), "regrained region must doom its snapshots");
        }
    }

    /// Address-space registration: an address is contained iff it falls in
    /// a registered range that has not been unregistered.
    #[test]
    fn address_space_registration_model(
        ranges in proptest::collection::vec((1u64..2000, 1u64..64), 1..20),
        probe in 1u64..2100,
    ) {
        let mut space = AddressSpace::new();
        for (start, len) in &ranges {
            space.register(*start, *len);
        }
        let expected = ranges.iter().any(|(s, l)| probe >= *s && probe < s + l);
        prop_assert_eq!(space.contains(probe, 1), expected);
    }
}
