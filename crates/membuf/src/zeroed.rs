//! Zeroed tables that nobody wrote: the arena and the commit log's tables.
//!
//! `calloc` does not promise that.  glibc raises its mmap threshold to the
//! size of the last mapped block it freed (up to 32 MiB), so the *second*
//! runtime of a process gets its tables from the heap — and a heap block
//! that is recycled rather than freshly grown is zeroed by writing it.
//! Which of the two happens depends on whether some small allocation pinned
//! the heap's top when the first runtime was dropped: the same program
//! peaked at 11 or at 32 MiB.  A large table is therefore mapped from the
//! kernel, whose pages are zero until touched, every time.

use std::fmt;
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::AtomicU64;

use crate::wordmap::zeroed_boxed;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod os {
    /// Tables of at least this many bytes are mapped (glibc's own initial
    /// threshold); smaller ones — every unit test's — come from the
    /// allocator.
    pub const MAP_BYTES: usize = 128 << 10;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        /// # Safety
        /// `addr` came from `map(len)` and nothing uses the mapping any more.
        pub fn munmap(addr: *mut u8, len: usize) -> i32;
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
}

/// A fixed-length slice of atomics that starts at zero; a `Box<[AtomicU64]>`
/// to its users (pointer and length, no branch on an access).
pub(crate) struct ZeroedAtomics {
    ptr: NonNull<AtomicU64>,
    len: usize,
    /// Whether `ptr` is a mapping of `len` words instead of a box.
    mapped: bool,
}

// SAFETY: it owns its `AtomicU64`s as a box would.
unsafe impl Send for ZeroedAtomics {}
unsafe impl Sync for ZeroedAtomics {}

impl ZeroedAtomics {
    pub(crate) fn new(len: usize) -> Self {
        // A length nobody has saturates, is refused, and panics in the box.
        let bytes = len.saturating_mul(8);
        let mapping = (bytes >= os::MAP_BYTES).then(|| os::map(bytes)).flatten();
        let (ptr, mapped) = match mapping {
            Some(ptr) => (ptr.cast(), true),
            None => {
                // SAFETY: an `AtomicU64` is a `u64` in memory, and zero is
                // its value 0.
                let boxed: Box<[AtomicU64]> = unsafe { zeroed_boxed(len) };
                (Box::into_raw(boxed).cast(), false)
            }
        };
        let ptr = NonNull::new(ptr).expect("neither a box nor a mapping is at null");
        ZeroedAtomics { ptr, len, mapped }
    }
}

impl Deref for ZeroedAtomics {
    type Target = [AtomicU64];
    #[inline]
    fn deref(&self) -> &[AtomicU64] {
        // SAFETY: `ptr` holds `len` atomics — zero-filled pages or the box's
        // — for as long as `self`.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for ZeroedAtomics {
    fn drop(&mut self) {
        let slice = std::ptr::slice_from_raw_parts_mut(self.ptr.as_ptr(), self.len);
        // SAFETY: what `new` mapped or leaked, whole, once; `&mut self`
        // says nothing borrows it.
        unsafe {
            if self.mapped {
                os::munmap(slice.cast(), self.len * 8);
            } else {
                drop(Box::from_raw(slice));
            }
        }
    }
}

impl fmt::Debug for ZeroedAtomics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

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
        }
    }
}
