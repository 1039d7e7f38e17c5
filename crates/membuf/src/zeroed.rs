//! Zeroed tables that nobody wrote: the arena, the commit log's tables and
//! each speculative thread's [`WordMap`](crate::WordMap).
//!
//! `calloc` does not promise that.  glibc raises its mmap threshold to the
//! size of the last mapped block it freed (up to 32 MiB), so the *second*
//! runtime of a process gets its tables from the heap — and a heap block
//! that is recycled rather than freshly grown is zeroed by writing it.
//! Which of the two happens depends on whether some small allocation pinned
//! the heap's top when the first runtime was dropped: the same program
//! peaked at 11 or at 32 MiB.  A large table is therefore mapped from the
//! kernel, whose pages are zero until touched, every time; a small one
//! (every unit test's) comes from the allocator's zeroed pages.  Zeroing a
//! mapped table again hands its pages back instead of writing them.

use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod os {
    /// Tables of at least this many bytes are mapped (glibc's own initial
    /// threshold); smaller ones come from the allocator.
    pub const MAP_BYTES: usize = 128 << 10;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        /// # Safety
        /// `addr` came from `map(len)` and nothing uses the mapping any more.
        pub fn munmap(addr: *mut u8, len: usize) -> i32;
        /// # Safety
        /// `addr..addr + len` lies within a mapping `map` made.
        pub fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
    }

    /// A zero-filled mapping of `bytes` bytes, if the kernel grants it.
    pub fn map(bytes: usize) -> Option<*mut u8> {
        // SAFETY: a fresh private anonymous read-write mapping (3 =
        // PROT_READ | PROT_WRITE, 0x22 = MAP_PRIVATE | MAP_ANONYMOUS; on an
        // architecture that numbers the flags differently the call fails,
        // -1 being no file): it aliases nothing.
        let ptr = unsafe { mmap(std::ptr::null_mut(), bytes, 3, 0x22, -1, 0) };
        (ptr as isize != -1).then_some(ptr)
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod os {
    pub const MAP_BYTES: usize = usize::MAX;
    pub fn map(_bytes: usize) -> Option<*mut u8> {
        None
    }
    pub unsafe fn munmap(_addr: *mut u8, _len: usize) -> i32 {
        0
    }
    pub unsafe fn madvise(_addr: *mut u8, _len: usize, _advice: i32) -> i32 {
        -1
    }
}

/// A type whose all-zero bytes are a valid value and which owns nothing, so
/// a table of them is freed without dropping its elements.
///
/// # Safety
/// Implement only for such types.
pub(crate) unsafe trait Zeroable {}

// SAFETY: an `AtomicU64` is a `u64` in memory, and zero is its value 0.
unsafe impl Zeroable for AtomicU64 {}

/// A fixed-length slice of `T`s that starts all zero; a `Box<[T]>` to its
/// users (pointer and length, no branch on an access).
pub(crate) struct Zeroed<T: Zeroable> {
    ptr: NonNull<T>,
    len: usize,
    /// Whether `ptr` is a mapping of `len` `T`s instead of a box.
    mapped: bool,
}

/// The arena's words and the commit log's tables.
pub(crate) type ZeroedAtomics = Zeroed<AtomicU64>;

// SAFETY: it owns its `T`s as a box would.
unsafe impl<T: Zeroable + Send> Send for Zeroed<T> {}
unsafe impl<T: Zeroable + Sync> Sync for Zeroed<T> {}

impl<T: Zeroable> Zeroed<T> {
    pub(crate) fn new(len: usize) -> Self {
        // A length nobody has saturates, is refused, and panics in the box.
        let bytes = len.saturating_mul(size_of::<T>());
        let mapping = (bytes >= os::MAP_BYTES).then(|| os::map(bytes)).flatten();
        let (ptr, mapped) = match mapping {
            Some(ptr) => (ptr.cast(), true),
            None => (Self::boxed(len), false),
        };
        let ptr = NonNull::new(ptr).expect("neither a box nor a mapping is at null");
        Zeroed { ptr, len, mapped }
    }

    /// The small-table fallback: `len` all-zero `T`s straight from the
    /// allocator's zeroed pages, as a leaked `Box<[T]>`.
    fn boxed(len: usize) -> *mut T {
        let layout = Layout::array::<T>(len).expect("table fits in memory");
        if layout.size() == 0 {
            return NonNull::dangling().as_ptr();
        }
        // SAFETY: the layout is not zero-sized (checked above), and all-zero
        // bytes are a valid `T` (`Zeroable`).
        let ptr = unsafe { alloc_zeroed(layout) };
        if ptr.is_null() {
            handle_alloc_error(layout);
        }
        ptr.cast()
    }
}

impl ZeroedAtomics {
    /// Every word back to 0, at the cost of the pages that are not: a
    /// mapped table drops its pages, so the next touch of each faults in a
    /// zero page; a boxed one (below [`os::MAP_BYTES`]) stores 0 into every
    /// word.  The caller keeps every other user of the table out until it
    /// returns.
    pub(crate) fn zero(&self) {
        // SAFETY: the range is the whole of `map(len × 8)`, and it stays
        // mapped: 4 = MADV_DONTNEED only swaps its private anonymous pages
        // for zero pages, the value 0 of every `AtomicU64` in them.
        if self.mapped && unsafe { os::madvise(self.ptr.as_ptr().cast(), self.len * 8, 4) } == 0 {
            return;
        }
        for word in self.iter() {
            word.store(0, Ordering::Relaxed);
        }
    }
}

impl<T: Zeroable> Deref for Zeroed<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: `ptr` holds `len` `T`s — zero-filled pages or the box's —
        // for as long as `self`.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Zeroable> DerefMut for Zeroed<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as in `deref`, and `&mut self` says nothing else borrows it.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Zeroable> Drop for Zeroed<T> {
    fn drop(&mut self) {
        let slice = std::ptr::slice_from_raw_parts_mut(self.ptr.as_ptr(), self.len);
        // SAFETY: what `new` mapped or leaked, whole, once; `&mut self`
        // says nothing borrows it.
        unsafe {
            if self.mapped {
                os::munmap(slice.cast(), self.len * size_of::<T>());
            } else {
                drop(Box::from_raw(slice));
            }
        }
    }
}

impl<T: Zeroable + fmt::Debug> fmt::Debug for Zeroed<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxed_and_mapped_tables_start_at_zero_and_hold_what_is_stored() {
        // 0 and 100 words are boxes, 1 MiB is a mapping (where there is one).
        for len in [0usize, 100, 1 << 17] {
            let table = ZeroedAtomics::new(len);
            assert_eq!(table.len(), len);
            assert_eq!(table.mapped, len * 8 >= os::MAP_BYTES);
            assert!(table.iter().all(|w| w.load(Ordering::Relaxed) == 0));
            if let Some(last) = table.last() {
                last.store(u64::MAX, Ordering::Relaxed);
                assert_eq!(table[len - 1].load(Ordering::Relaxed), u64::MAX);
                assert_eq!(table[len - 2].load(Ordering::Relaxed), 0);
            }
            // Zeroing a box writes it, a mapping drops its pages: both
            // read 0 everywhere and take stores as before.
            table.zero();
            assert!(table.iter().all(|w| w.load(Ordering::Relaxed) == 0));
            if let Some(first) = table.first() {
                first.store(7, Ordering::Relaxed);
                assert_eq!(table[0].load(Ordering::Relaxed), 7);
            }
        }
    }
}
