//! # mutls-membuf — speculative memory buffering for MUTLS
//!
//! This crate implements the memory-buffering substrate of the MUTLS
//! software thread-level-speculation runtime (Cao & Verbrugge, ICPP 2013,
//! §IV-G):
//!
//! * [`WordMap`] — the *static-memory* word-granular hash map in which a
//!   speculative thread buffers every word it reads or writes.  It is built
//!   from one array of slot records (address, first read, own bytes, and a
//!   packed version, read bit and per-byte mark), the stack of used slots,
//!   and a small linear *overflow* buffer used when a hash slot collision
//!   occurs.
//! * [`GlobalBuffer`] — one such map with load/store redirection,
//!   validation against the commit log and (masked) commit.
//! * [`GlobalMemory`] — a word-addressable shared main-memory arena
//!   (the "global address space") built from relaxed atomics so that the
//!   benign read/write races inherent to speculation are well defined.
//!   Allocation *is* registration: what the arena's cursor has handed out
//!   ([`GlobalMemory::is_allocated`]) is the whole set of addresses a
//!   speculative access may touch, and one outside it forces a rollback.
//! * [`CommitLog`] — the range-granular versioned record of every write
//!   published to main memory; read-set entries are stamped with the log's
//!   epoch observed at read time and join-time validation
//!   flags every read whose range a logical predecessor's commit
//!   invalidated (real conflict detection; false sharing at coarse grains
//!   is conservative, missed conflicts are impossible).
//!
//! The crate is deliberately free of any threading policy: it only provides
//! the data structures that `mutls-runtime` coordinates.

#![warn(missing_docs)]

pub mod commit_log;
pub mod error;
pub mod global_buffer;
pub mod memory;
pub mod wordmap;
mod zeroed;

pub use commit_log::{
    CommitLog, CommitLogConfig, CommitLogStats, CommitVersion, ReaderSet, RegionId, RegionProfile,
    RingCheck, DEFAULT_RING_DEPTH, LINE_GRAIN_LOG2, MAX_RING_DEPTH, MAX_TRACKED_READERS,
    PAGE_GRAIN_LOG2, WORD_GRAIN_LOG2,
};
pub use error::{BufferError, RollbackReason, SpecFailure};
pub use global_buffer::{BufferConfig, GlobalBuffer, Validation};
pub use memory::{Addr, GPtr, GlobalMemory, MainMemory, WORD_BYTES};
pub use wordmap::{WordEntry, WordMap};
