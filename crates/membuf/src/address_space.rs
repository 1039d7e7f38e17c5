//! Address-space registration (paper §IV-G1).
//!
//! MUTLS guarantees that speculative threads never access invalid addresses
//! by registering the address space of every static and heap object at
//! creation/deletion time, and each thread's stack range in its local
//! buffer.  A speculative access outside every registered range forces a
//! rollback instead of a fault.
//!
//! Adjacent ranges are merged to keep lookups cheap.

use crate::memory::Addr;

/// A registered, half-open address range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Range {
    start: Addr,
    end: Addr,
}

/// Set of registered global (static + heap) address ranges.
///
/// Lookup is a binary search over a sorted, coalesced range list; in the
/// common case of a handful of large arrays this is a few comparisons.
#[derive(Debug, Default, Clone)]
pub struct AddressSpace {
    ranges: Vec<Range>,
}

impl AddressSpace {
    /// Create an empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `[start, start+len)` as a valid global range, merging with
    /// adjacent or overlapping ranges.
    pub fn register(&mut self, start: Addr, len: u64) {
        if len == 0 {
            return;
        }
        let end = start + len;
        // Find insertion point and merge any range that touches [start,end).
        let mut new = Range { start, end };
        let mut out = Vec::with_capacity(self.ranges.len() + 1);
        for &r in &self.ranges {
            if r.end < new.start || r.start > new.end {
                out.push(r);
            } else {
                new.start = new.start.min(r.start);
                new.end = new.end.max(r.end);
            }
        }
        out.push(new);
        out.sort_by_key(|r| r.start);
        self.ranges = out;
    }

    /// Remove a previously registered range (object deallocation).
    ///
    /// The removal may split a merged range in two.
    pub fn unregister(&mut self, start: Addr, len: u64) {
        if len == 0 {
            return;
        }
        let end = start + len;
        let mut out = Vec::with_capacity(self.ranges.len() + 1);
        for &r in &self.ranges {
            if r.end <= start || r.start >= end {
                out.push(r);
                continue;
            }
            if r.start < start {
                out.push(Range {
                    start: r.start,
                    end: start,
                });
            }
            if r.end > end {
                out.push(Range {
                    start: end,
                    end: r.end,
                });
            }
        }
        self.ranges = out;
    }

    /// True if the `len`-byte access starting at `addr` lies entirely
    /// inside a registered range.  An access that runs past the end of the
    /// address space lies in none.
    pub fn contains(&self, addr: Addr, len: u64) -> bool {
        let Some(end) = addr.checked_add(len.max(1)) else {
            return false;
        };
        match self.ranges.binary_search_by(|r| {
            if addr < r.start {
                std::cmp::Ordering::Greater
            } else if addr >= r.end {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(i) => end <= self.ranges[i].end,
            Err(_) => false,
        }
    }

    /// Number of distinct (coalesced) ranges.
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Total registered bytes.
    pub fn total_bytes(&self) -> u64 {
        self.ranges.iter().map(|r| r.end - r.start).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_contains() {
        let mut a = AddressSpace::new();
        a.register(0x1000, 0x100);
        assert!(a.contains(0x1000, 8));
        assert!(a.contains(0x10F8, 8));
        assert!(!a.contains(0x10F9, 8));
        assert!(!a.contains(0xFFF, 1));
        assert!(!a.contains(0x2000, 8));
    }

    #[test]
    fn an_access_wrapping_the_address_space_is_outside_every_range() {
        let mut a = AddressSpace::new();
        a.register(0, 0x100);
        assert!(a.contains(0, 8));
        assert!(!a.contains(u64::MAX - 7, 8));
        assert!(!a.contains(u64::MAX - 7, 16));
        assert!(!a.contains(u64::MAX, 0));
    }

    #[test]
    fn adjacent_ranges_merge() {
        let mut a = AddressSpace::new();
        a.register(0x1000, 0x100);
        a.register(0x1100, 0x100);
        assert_eq!(a.range_count(), 1);
        assert!(a.contains(0x10FC, 8)); // straddles the former boundary
        assert_eq!(a.total_bytes(), 0x200);
    }

    #[test]
    fn overlapping_ranges_merge() {
        let mut a = AddressSpace::new();
        a.register(0x1000, 0x200);
        a.register(0x1100, 0x300);
        assert_eq!(a.range_count(), 1);
        assert_eq!(a.total_bytes(), 0x400);
    }

    #[test]
    fn disjoint_ranges_stay_separate() {
        let mut a = AddressSpace::new();
        a.register(0x1000, 0x10);
        a.register(0x9000, 0x10);
        assert_eq!(a.range_count(), 2);
        assert!(a.contains(0x1008, 8));
        assert!(a.contains(0x9000, 16));
        assert!(!a.contains(0x5000, 8));
    }

    #[test]
    fn unregister_removes_and_splits() {
        let mut a = AddressSpace::new();
        a.register(0x1000, 0x300);
        a.unregister(0x1100, 0x100);
        assert_eq!(a.range_count(), 2);
        assert!(a.contains(0x1000, 0x100));
        assert!(!a.contains(0x1100, 1));
        assert!(!a.contains(0x11FF, 1));
        assert!(a.contains(0x1200, 0x100));
    }

    #[test]
    fn unregister_whole_range() {
        let mut a = AddressSpace::new();
        a.register(0x1000, 0x100);
        a.unregister(0x1000, 0x100);
        assert_eq!(a.range_count(), 0);
        assert!(!a.contains(0x1000, 1));
    }

    #[test]
    fn zero_length_operations_are_noops() {
        let mut a = AddressSpace::new();
        a.register(0x1000, 0);
        assert_eq!(a.range_count(), 0);
        a.register(0x1000, 8);
        a.unregister(0x1000, 0);
        assert_eq!(a.range_count(), 1);
    }

    #[test]
    fn access_spanning_two_separate_ranges_is_rejected() {
        let mut a = AddressSpace::new();
        a.register(0x1000, 0x8);
        a.register(0x1010, 0x8);
        assert!(!a.contains(0x1000, 0x18));
    }
}
