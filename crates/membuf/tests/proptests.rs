//! Property-based tests of the buffering layer: the word-granular hash
//! map and the read/write-set buffer must behave exactly like simple
//! model implementations for arbitrary operation sequences.

use std::collections::HashMap;

use proptest::prelude::*;

use mutls_membuf::{
    BufferConfig, BufferError, CommitLog, CommitLogConfig, GlobalBuffer, GlobalMemory, MainMemory,
    WordEntry, WordMap, LINE_GRAIN_LOG2, PAGE_GRAIN_LOG2, WORD_BYTES, WORD_GRAIN_LOG2,
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

/// A logical predecessor's commit of `addrs`, already in memory, that
/// dooms nobody: the log's publish walk with every reader spared.
fn publish_sparing_all(log: &CommitLog, addrs: impl IntoIterator<Item = u64>) -> u64 {
    log.publish(&mut addrs.into_iter().collect(), false, |_| true)
        .0
}

/// One word of the [`WordMapModel`]: its first read, if any, and the bytes
/// written over it.
#[derive(Default, Clone, Copy)]
struct ModelWord {
    read: Option<(u64, u64)>,
    data: u64,
    mask: u64,
}

/// Reference model of a 16-slot, 4-overflow-entry [`WordMap`].
#[derive(Default)]
struct WordMapModel {
    words: HashMap<u64, ModelWord>,
    /// Occupant of each direct-mapped slot.
    home: HashMap<u64, u64>,
    /// Addresses in their home slot, in insertion order.
    direct: Vec<u64>,
    /// Addresses in the overflow area, in insertion order.
    overflow: Vec<u64>,
    pending: bool,
}

impl WordMapModel {
    /// `addr`'s word, made room for: whether it sits in the overflow area,
    /// or `OverflowFull`.
    fn place(&mut self, addr: u64) -> Result<(&mut ModelWord, bool), BufferError> {
        let occupant = *self.home.entry((addr / WORD_BYTES) % 16).or_insert(addr);
        if !self.words.contains_key(&addr) {
            if occupant == addr {
                self.direct.push(addr);
            } else if self.overflow.len() == 4 {
                return Err(BufferError::OverflowFull);
            } else {
                self.overflow.push(addr);
            }
        }
        self.pending |= occupant != addr;
        Ok((self.words.entry(addr).or_default(), occupant != addr))
    }

    fn placed(spilled: bool) -> Result<(), BufferError> {
        if spilled {
            Err(BufferError::OverflowPending)
        } else {
            Ok(())
        }
    }

    fn read(&mut self, addr: u64, value: u64, version: u64) -> Result<(), BufferError> {
        let (word, spilled) = self.place(addr)?;
        // The first value, and the older version.
        let (_, kept) = word.read.get_or_insert((value, version));
        *kept = (*kept).min(version);
        Self::placed(spilled)
    }

    fn write(&mut self, addr: u64, value: u64, mask: u64) -> Result<(), BufferError> {
        let (word, spilled) = self.place(addr)?;
        word.data = (word.data & !mask) | (value & mask);
        word.mask |= mask;
        Self::placed(spilled)
    }

    /// A word as the map reports it: address, first read (value and
    /// version), the thread's view and its written-byte mask.
    fn view(addr: u64, word: &ModelWord) -> (u64, Option<(u64, u64)>, u64, u64) {
        let under = word.read.map_or(0, |(value, _)| value);
        let data = (under & !word.mask) | (word.data & word.mask);
        (addr, word.read, data, word.mask)
    }
}

fn entry_view(e: &WordEntry) -> (u64, Option<(u64, u64)>, u64, u64) {
    let read = e.has_read().then_some((e.read, e.version()));
    (e.addr, read, e.data, e.mask())
}

/// Words the sized-access property plays on.
const SIZED_WORDS: u64 = 48;

/// What a thread's buffer is, told in bytes: the bytes it wrote, and for
/// every word it had to read from memory the eight bytes it found there.
#[derive(Default)]
struct ByteModel {
    written: HashMap<u64, u8>,
    first_read: HashMap<u64, [u8; 8]>,
    /// Words somebody else committed to after the thread first read them.
    stale: std::collections::HashSet<u64>,
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
}

proptest! {
    /// The WordMap behaves like a model built from `HashMap`s through
    /// every operation of its API — reads (the first value and the oldest
    /// version kept), partial-mask writes to words read or not, version
    /// refreshing, clear-then-reuse —
    /// including hash conflicts that spill into the overflow area and fill
    /// it: 64 addresses share 16 slots and 4 overflow entries.
    #[test]
    fn wordmap_matches_hashmap_model(
        ops in proptest::collection::vec((0u32..16, 1u64..65, any::<u64>(), 0u64..8), 1..300)
    ) {
        const MASKS: [u64; 4] = [u64::MAX, 0xFF, 0xFFFF_0000, 0xFFFF_FFFF_0000_0000];
        let mut map = WordMap::new(16, 4);
        let mut model = WordMapModel::default();
        for (kind, word, value, version) in ops {
            let addr = word * WORD_BYTES;
            let read = model.words.get_mut(&addr).and_then(|w| w.read.as_mut());
            match kind {
                0 => {
                    map.clear();
                    model = WordMapModel::default();
                }
                1..=4 => {
                    map.refresh_version(addr, version);
                    if let Some((_, v)) = read {
                        *v = (*v).max(version);
                    }
                }
                5..=9 => prop_assert_eq!(
                    map.insert_word_versioned(addr, value, version),
                    model.read(addr, value, version)
                ),
                _ => {
                    let mask = MASKS[(value % 4) as usize];
                    prop_assert_eq!(map.merge(addr, value, mask), model.write(addr, value, mask));
                }
            }
            prop_assert_eq!(map.len(), model.words.len());
            prop_assert_eq!(map.reads(), model.words.values().filter(|w| w.read.is_some()).count());
            prop_assert_eq!(map.writes(), model.words.values().filter(|w| w.mask != 0).count());
            prop_assert_eq!(map.overflow_len(), model.overflow.len());
            prop_assert_eq!(map.overflow_pending(), model.pending);
        }
        // Direct-mapped entries in insertion order, then the overflow area.
        let expected: Vec<_> = model
            .direct
            .iter()
            .chain(&model.overflow)
            .map(|addr| WordMapModel::view(*addr, &model.words[addr]))
            .collect();
        prop_assert_eq!(map.iter().map(|e| entry_view(&e)).collect::<Vec<_>>(), expected);
        for word in 1..65 {
            let addr = word * WORD_BYTES;
            prop_assert_eq!(
                map.get(addr).map(|e| entry_view(&e)),
                model.words.get(&addr).map(|w| WordMapModel::view(addr, w))
            );
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
                let got = buf.load_logged(&mem, None, addr, WORD_BYTES).unwrap();
                let want = local.get(&addr).copied().unwrap_or_else(|| mem.read_word(addr));
                prop_assert_eq!(got, want, "load at {:#x}", addr);
            }
        }
        // No interfering writes happened, so validation must succeed and the
        // commit must make main memory equal to the shadow memory.
        prop_assert!(buf.validate_view(|a| mem.read_word(a)));
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
    /// and keep the read and write sets the model keeps.  A word the
    /// thread has not fully written is read from memory once, at its first
    /// load (commits by others after that are not seen); a fully written
    /// one never is.  And `validate_against` fails exactly when somebody
    /// committed to a word after the thread's first read of it — whatever
    /// the thread wrote over the word since.
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
                // Somebody else's commit to main memory.
                _ => {
                    let word_addr = addr & !(WORD_BYTES - 1);
                    mem.write_word(word_addr, value);
                    publish_sparing_all(&log, [word_addr]);
                    if model.first_read.contains_key(&word_addr) {
                        model.stale.insert(word_addr);
                    }
                }
            }
            prop_assert_eq!(buf.read_set_len(), model.first_read.len());
            prop_assert_eq!(buf.write_set_len(), model.written_words().len());
        }
        prop_assert_eq!(buf.validate_against(&log), model.stale.is_empty(), "{:?}", model.stale);
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
        let _ = buf.load_logged(&mem, None, read_addr, WORD_BYTES).unwrap();
        mem.write_word(write_addr, new_value);
        let expect_valid = write_addr != read_addr || new_value == original;
        prop_assert_eq!(buf.validate_view(|a| mem.read_word(a)), expect_valid);
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
        publish_sparing_all(&log, commits.iter().copied());
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
        parent.absorb(&child, &log).unwrap();
        // (a) absorbed writes are visible through the parent.
        for (&addr, &value) in &last_written {
            prop_assert_eq!(parent.load_logged(&mem, None, addr, WORD_BYTES).unwrap(), value);
        }
        prop_assert!(parent.validate_against(&log), "nothing committed yet");
        // (b) a commit after the absorb conflicts iff it overlaps one of
        // the child's reads.  All reads here happened before the child's
        // own writes, so even a read-modify-write address carries a
        // genuine dependence on the predecessor state.
        publish_sparing_all(&log, [late_commit]);
        let dependent = child_reads.contains(&late_commit);
        prop_assert_eq!(!parent.validate_against(&log), dependent);
    }

    /// Range-granular validation is one-sided at every grain: a commit overlapping a read at *word* level must always be
    /// flagged (no missed conflicts), and a commit disjoint from every
    /// read at *range* level must always validate (false sharing stays
    /// confined to shared ranges).
    #[test]
    fn range_grain_flags_conservatively_never_misses(
        grain_log2 in grain_strategy(),
        reads in proptest::collection::vec(addr_strategy(), 1..24),
        commits in proptest::collection::vec(addr_strategy(), 0..24),
    ) {
        let reads: std::collections::HashSet<u64> = reads.into_iter().collect();
        let commits: std::collections::HashSet<u64> = commits.into_iter().collect();
        let mem = GlobalMemory::new(1 << 16);
        let config = CommitLogConfig { grain_log2, ..Default::default() };
        let log = CommitLog::with_config(config, 1 << 15);
        let mut buf = GlobalBuffer::new(BufferConfig::default());
        for &addr in &reads {
            let _ = buf.load_logged(&mem, Some(&log), addr, WORD_BYTES).unwrap();
        }
        prop_assert!(buf.validate_against(&log), "no commit yet, must be valid");
        publish_sparing_all(&log, commits.iter().copied());
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
    /// independently at every grain.
    #[test]
    fn range_edge_straddlers_do_not_cross_conflict(
        grain_log2 in grain_strategy(),
        k in 1u64..64,
    ) {
        let config = CommitLogConfig { grain_log2, ..Default::default() };
        let log = CommitLog::with_config(config, 64 << grain_log2);
        let edge = k << grain_log2;
        let below = edge - WORD_BYTES; // last word of range k-1
        let above = edge;              // first word of range k
        let snap_below = log.snapshot(below);
        let snap_above = log.snapshot(above);
        publish_sparing_all(&log, [below]);
        prop_assert!(log.written_after(below, snap_below));
        prop_assert!(
            !log.written_after(above, log.snapshot(above)),
            "write below the edge flagged the range above (grain {grain_log2}, k {k})"
        );
        publish_sparing_all(&log, [above]);
        prop_assert!(log.written_after(above, snap_above));
    }

    /// The window rounds up to whole regions — a capacity
    /// that ends mid-range still covers its last word, and a batch up to
    /// the window's last word keeps every stamp — and the first address
    /// past it is a caller's bug: it panics, naming the address.
    #[test]
    fn window_rounds_up_to_whole_regions_and_the_first_address_past_it_panics(
        grain_log2 in grain_strategy(),
        ranges in 1u64..16,
        offsets in proptest::collection::vec(0u64..32, 1..16),
    ) {
        let config = CommitLogConfig { grain_log2, ..Default::default() };
        let grain = 1u64 << grain_log2;
        // The capacity is not grain-aligned: the partial trailing range
        // must round up into the window.
        let capacity = ranges * grain - 1;
        let log = CommitLog::with_config(config, capacity);
        let region = 1u64 << log.region_log2();
        let window = capacity.div_ceil(region) * region;
        // A batch spread from the asked-for capacity to the window's end.
        let addrs: Vec<u64> = offsets
            .iter()
            .map(|o| (ranges * grain - WORD_BYTES + o * grain).min(window - WORD_BYTES))
            .collect();
        let snaps: Vec<u64> = addrs.iter().map(|&a| log.snapshot(a)).collect();
        publish_sparing_all(&log, addrs.iter().copied());
        for (&addr, &snap) in addrs.iter().zip(&snaps) {
            prop_assert!(log.written_after(addr, snap), "addr {addr:#x} lost its stamp");
            prop_assert!(log.version_of(addr) > 0);
        }
        let past = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| log.snapshot(window)));
        let message = past.expect_err("the first address past the window went through");
        let message = message.downcast_ref::<String>().expect("a formatted panic");
        prop_assert!(message.contains(&format!("{window:#x}")), "{}", message);
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
        registrations in proptest::collection::vec(
            (1usize..17, addr_strategy()), 0..40),
        writes in proptest::collection::vec(addr_strategy(), 1..16),
    ) {
        let config = CommitLogConfig { grain_log2, ..Default::default() };
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
            log.publish(&mut writes.clone(), false, |_| false).1.ranks().collect();
        prop_assert!(
            doomed.is_subset(&cascade_victims),
            "doomed a thread the cascade would not have squashed: {doomed:?} vs {cascade_victims:?}"
        );
        prop_assert_eq!(
            &doomed, &overlapping,
            "doom set is not exactly the overlapping readers"
        );
        // Cleared on enumeration: nothing left to doom twice.
        prop_assert!(log.publish(&mut writes.clone(), false, |_| false).1.is_empty());
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

    /// MVCC conservatism sandwich (PR 8): for arbitrary grains, ring
    /// depths (including the depth-1 degeneration), commit-batch
    /// interleavings and strides (a batch committed once, or over a whole
    /// 64-version ring bucket, where small rings overflow constantly),
    /// ring-probe validation is
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
        ring_depth in (0u32..3).prop_map(|i| [1u32, 2, 4][i as usize]),
        stride in (0u32..2).prop_map(|i| [1u32, 64][i as usize]),
        reads in proptest::collection::vec(addr_strategy(), 1..16),
        batches in proptest::collection::vec(
            proptest::collection::vec(addr_strategy(), 1..8), 1..6),
    ) {
        let reads: std::collections::HashSet<u64> = reads.into_iter().collect();
        let mem = GlobalMemory::new(1 << 16);
        let mvcc_config = CommitLogConfig { grain_log2, ring_depth };
        let single_config = CommitLogConfig { ring_depth: 1, ..mvcc_config };
        let mvcc_log = CommitLog::with_config(mvcc_config, 1 << 15);
        let single_log = CommitLog::with_config(single_config, 1 << 15);
        let mut mvcc_buf = GlobalBuffer::new(BufferConfig::default());
        let mut single_buf = GlobalBuffer::new(BufferConfig::default());
        for &addr in &reads {
            let _ = mvcc_buf.load_logged(&mem, Some(&mvcc_log), addr, WORD_BYTES).unwrap();
            let _ = single_buf.load_logged(&mem, Some(&single_log), addr, WORD_BYTES).unwrap();
        }
        // Identical stamp sequences on both logs, `stride` versions per
        // batch.
        for batch in &batches {
            for _ in 0..stride {
                publish_sparing_all(&mvcc_log, batch.iter().copied());
                publish_sparing_all(&single_log, batch.iter().copied());
            }
        }
        let mvcc_valid = mvcc_buf.validate_against(&mvcc_log);
        let single_valid = single_buf.validate_against(&single_log);
        let word_overlap = batches.iter().flatten().any(|a| reads.contains(a));
        if word_overlap {
            prop_assert!(
                !mvcc_valid,
                "missed a word-level conflict (depth {ring_depth}, stride {stride}, grain {grain_log2})"
            );
        }
        if single_valid {
            prop_assert!(
                mvcc_valid,
                "mvcc was stricter than single-version (depth {ring_depth}, stride {stride}, grain {grain_log2})"
            );
        }
        if ring_depth == 1 {
            // Depth-1 degeneration: exactly the legacy verdict.
            prop_assert_eq!(mvcc_valid, single_valid);
        }
    }
}
