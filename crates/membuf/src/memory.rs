//! Word-addressable shared main memory.
//!
//! MUTLS buffers speculative accesses at WORD granularity (paper §IV-G2).
//! Because this reproduction cannot instrument arbitrary native loads and
//! stores the way the LLVM speculator pass does, shared program data lives
//! in a [`GlobalMemory`] arena and every access goes through the runtime —
//! which is exactly the situation the instrumented code produces (every
//! load/store becomes a `MUTLS_load_*`/`MUTLS_store_*` call).
//!
//! The arena stores data in relaxed [`AtomicU64`] words.  Non-speculative
//! writes racing with speculative reads are *by design* in TLS — the race
//! is what validation detects — and atomics make that race well defined.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::zeroed::ZeroedAtomics;

/// Byte address within the global address space.
pub type Addr = u64;

/// Size of the buffering granule in bytes (the paper's `WORD`).
pub const WORD_BYTES: u64 = 8;

/// Abstract interface to main memory as seen by the buffering layer.
///
/// [`GlobalBuffer::first_touch`](crate::GlobalBuffer::first_touch) and
/// [`GlobalBuffer::commit`](crate::GlobalBuffer::commit) are expressed
/// against this trait so tests can use small fake memories and the
/// simulator can substitute its own arena.
pub trait MainMemory: Sync {
    /// Read one aligned word starting at byte address `addr`.
    fn read_word(&self, addr: Addr) -> u64;
    /// Write one aligned word starting at byte address `addr`.
    fn write_word(&self, addr: Addr, value: u64);
    /// Write only the bytes of `value` selected by `mask` (one bit set per
    /// `0xFF` byte in the mark array) at aligned word address `addr`.
    fn write_word_masked(&self, addr: Addr, value: u64, mask: u64) {
        if mask == u64::MAX {
            self.write_word(addr, value);
        } else {
            let old = self.read_word(addr);
            self.write_word(addr, (old & !mask) | (value & mask));
        }
    }
    /// Total size of the memory in bytes.
    fn size_bytes(&self) -> u64;
}

/// Shared main-memory arena used by the native runtime and the workloads.
///
/// Addresses handed out by [`GlobalMemory::alloc`] start at
/// [`GlobalMemory::BASE_ADDR`] so that address `0` can keep its
/// conventional "null / empty slot" meaning inside [`crate::WordMap`].
pub struct GlobalMemory {
    words: ZeroedAtomics,
    /// Next free byte offset (bump allocation).
    next: AtomicU64,
}

impl GlobalMemory {
    /// First valid byte address handed out by the arena.
    pub const BASE_ADDR: Addr = WORD_BYTES;

    /// Create an arena able to hold `capacity_bytes` bytes of program data.
    ///
    /// The capacity is rounded up to a whole number of words.
    pub fn new(capacity_bytes: u64) -> Self {
        let usable = capacity_bytes + Self::BASE_ADDR;
        let nwords = usable.div_ceil(WORD_BYTES) as usize;
        GlobalMemory {
            // Zeroed, not written: a page of the arena is faulted in when
            // the program first touches it.
            words: ZeroedAtomics::new(nwords),
            next: AtomicU64::new(Self::BASE_ADDR),
        }
    }

    /// Allocate `count` elements of `T` (a plain word-compatible type),
    /// returning a typed pointer into the arena.
    ///
    /// Allocation is monotonic (no free); speculative threads are never
    /// allowed to allocate (paper §IV-G1), so all allocation happens on the
    /// non-speculative path before or between speculative regions.
    ///
    /// # Panics
    /// Panics if the arena capacity is exhausted.
    pub fn alloc<T: Word>(&self, count: usize) -> GPtr<T> {
        let bytes = (count as u64) * WORD_BYTES;
        let start = self.next.fetch_add(bytes, Ordering::Relaxed);
        assert!(
            start + bytes <= self.size_bytes(),
            "GlobalMemory arena exhausted: requested {bytes} bytes at {start}, capacity {}",
            self.size_bytes()
        );
        GPtr {
            base: start,
            len: count,
            _ty: PhantomData,
        }
    }

    /// Number of bytes currently allocated (including the reserved base).
    #[inline]
    pub fn allocated_bytes(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Read a typed element directly (non-speculative access path).
    pub fn get<T: Word>(&self, ptr: &GPtr<T>, index: usize) -> T {
        assert!(index < ptr.len, "index {index} out of bounds {}", ptr.len);
        T::from_word(self.read_word(ptr.addr_of(index)))
    }

    /// Write a typed element directly (non-speculative access path).
    pub fn set<T: Word>(&self, ptr: &GPtr<T>, index: usize, value: T) {
        assert!(index < ptr.len, "index {index} out of bounds {}", ptr.len);
        self.write_word(ptr.addr_of(index), value.to_word());
    }

    /// The arena cell holding the word at `addr`: the one index and the one
    /// bounds check every access path goes through.  `#[inline]`, so a
    /// caller in another crate gets both in its own loop (the speculative
    /// buffers and the simulator's recorder do) — unlike the [`MainMemory`]
    /// impl below, which stays a call on purpose: the sequential reference
    /// is measured through it.
    ///
    /// # Panics
    /// Panics if `addr` lies outside the arena.
    #[inline]
    pub fn word(&self, addr: Addr) -> &AtomicU64 {
        debug_assert_eq!(addr % WORD_BYTES, 0, "unaligned word address {addr:#x}");
        let idx = (addr / WORD_BYTES) as usize;
        assert!(
            idx < self.words.len(),
            "address {addr:#x} outside arena of {} bytes",
            self.size_bytes()
        );
        &self.words[idx]
    }
}

impl MainMemory for GlobalMemory {
    fn read_word(&self, addr: Addr) -> u64 {
        self.word(addr).load(Ordering::Relaxed)
    }

    fn write_word(&self, addr: Addr, value: u64) {
        self.word(addr).store(value, Ordering::Relaxed);
    }

    fn size_bytes(&self) -> u64 {
        (self.words.len() as u64) * WORD_BYTES
    }
}

/// Typed pointer to a contiguous array of word-sized elements inside a
/// [`GlobalMemory`] arena.
///
/// A `GPtr` is plain data: copying it does not duplicate the underlying
/// storage, and it can be freely sent across speculative threads because
/// all actual accesses are mediated by the runtime.
#[derive(Debug)]
pub struct GPtr<T> {
    base: Addr,
    len: usize,
    _ty: PhantomData<fn() -> T>,
}

impl<T> Clone for GPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for GPtr<T> {}

impl<T: Word> GPtr<T> {
    /// Byte address of element `index`.
    pub fn addr_of(&self, index: usize) -> Addr {
        self.base + (index as u64) * WORD_BYTES
    }

    /// First byte address covered by this allocation.
    pub fn base_addr(&self) -> Addr {
        self.base
    }

    /// Number of elements in the allocation.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the allocation is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte address one past the end of the allocation.
    pub fn end_addr(&self) -> Addr {
        self.base + (self.len as u64) * WORD_BYTES
    }

    /// Reinterpret a sub-range `[offset, offset+len)` as its own pointer.
    ///
    /// # Panics
    /// Panics if the sub-range does not fit in the allocation.
    pub fn slice(&self, offset: usize, len: usize) -> GPtr<T> {
        assert!(offset + len <= self.len, "slice out of bounds");
        GPtr {
            base: self.addr_of(offset),
            len,
            _ty: PhantomData,
        }
    }
}

/// Types storable as a single buffering word.
///
/// All benchmark data in the paper is `int`, `long`, `float` or `double`;
/// this reproduction stores every element in one 8-byte word, which keeps
/// the buffering layer exactly word-granular as in §IV-G2.
pub trait Word: Copy + Send + Sync + 'static {
    /// Encode into a word.
    fn to_word(self) -> u64;
    /// Decode from a word.
    fn from_word(w: u64) -> Self;
}

impl Word for u64 {
    fn to_word(self) -> u64 {
        self
    }
    fn from_word(w: u64) -> Self {
        w
    }
}

impl Word for i64 {
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(w: u64) -> Self {
        w as i64
    }
}

impl Word for f64 {
    fn to_word(self) -> u64 {
        self.to_bits()
    }
    fn from_word(w: u64) -> Self {
        f64::from_bits(w)
    }
}

impl Word for u32 {
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(w: u64) -> Self {
        w as u32
    }
}

impl Word for i32 {
    fn to_word(self) -> u64 {
        self as i64 as u64
    }
    fn from_word(w: u64) -> Self {
        w as i64 as i32
    }
}

impl Word for usize {
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(w: u64) -> Self {
        w as usize
    }
}

impl Word for bool {
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(w: u64) -> Self {
        w != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_word_aligned_and_disjoint() {
        let mem = GlobalMemory::new(1024);
        let a = mem.alloc::<u64>(10);
        let b = mem.alloc::<f64>(5);
        assert_eq!(a.base_addr() % WORD_BYTES, 0);
        assert_eq!(b.base_addr() % WORD_BYTES, 0);
        assert!(a.end_addr() <= b.base_addr());
        assert_eq!(a.len(), 10);
        assert!(!a.is_empty());
    }

    #[test]
    fn a_new_arena_reads_zero_and_its_last_word_round_trips() {
        // 1 MiB: past the allocator's mmap threshold, where the zeroed
        // allocation hands out pages nobody wrote.
        let bytes = 1u64 << 20;
        let mem = GlobalMemory::new(bytes);
        let last = mem.size_bytes() - WORD_BYTES;
        for addr in [0, bytes / 2, last] {
            assert_eq!(mem.read_word(addr), 0, "word {addr:#x}");
        }
        let all = mem.alloc::<u64>((bytes / WORD_BYTES) as usize);
        assert_eq!(all.end_addr(), mem.size_bytes());
        assert_eq!(all.addr_of(all.len() - 1), last);
        mem.write_word(last, u64::MAX);
        assert_eq!(mem.read_word(last), u64::MAX);
        assert_eq!(mem.get(&all, all.len() - 2), 0, "the neighbour stays zero");
    }

    #[test]
    fn zero_address_is_reserved() {
        let mem = GlobalMemory::new(64);
        let a = mem.alloc::<u64>(1);
        assert!(a.base_addr() >= GlobalMemory::BASE_ADDR);
    }

    #[test]
    fn read_write_roundtrip_all_word_types() {
        let mem = GlobalMemory::new(4096);
        let pu = mem.alloc::<u64>(4);
        let pi = mem.alloc::<i64>(4);
        let pf = mem.alloc::<f64>(4);
        let pb = mem.alloc::<bool>(2);
        mem.set(&pu, 0, 0xDEAD_BEEFu64);
        mem.set(&pi, 1, -42i64);
        mem.set(&pf, 2, 3.5f64);
        mem.set(&pb, 1, true);
        assert_eq!(mem.get(&pu, 0), 0xDEAD_BEEF);
        assert_eq!(mem.get(&pi, 1), -42);
        assert_eq!(mem.get(&pf, 2), 3.5);
        assert!(mem.get(&pb, 1));
        // untouched elements read as zero
        assert_eq!(mem.get(&pu, 3), 0);
    }

    #[test]
    fn masked_write_merges_bytes() {
        let mem = GlobalMemory::new(64);
        let p = mem.alloc::<u64>(1);
        mem.set(&p, 0, 0x1122_3344_5566_7788);
        let addr = p.addr_of(0);
        // Overwrite only the low 4 bytes.
        mem.write_word_masked(addr, 0x0000_0000_AABB_CCDD, 0x0000_0000_FFFF_FFFF);
        assert_eq!(mem.get(&p, 0), 0x1122_3344_AABB_CCDD);
    }

    #[test]
    fn slice_addresses_match_parent() {
        let mem = GlobalMemory::new(1024);
        let p = mem.alloc::<i64>(16);
        let s = p.slice(4, 8);
        assert_eq!(s.addr_of(0), p.addr_of(4));
        assert_eq!(s.len(), 8);
        assert_eq!(s.end_addr(), p.addr_of(12));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        let mem = GlobalMemory::new(64);
        let p = mem.alloc::<u64>(2);
        let _ = mem.get(&p, 2);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn arena_exhaustion_panics() {
        let mem = GlobalMemory::new(64);
        let _ = mem.alloc::<u64>(1000);
    }

    #[test]
    fn signed_narrow_roundtrip() {
        assert_eq!(i32::from_word((-7i32).to_word()), -7);
        assert_eq!(u32::from_word(0xFFFF_FFFFu32.to_word()), 0xFFFF_FFFF);
    }
}
