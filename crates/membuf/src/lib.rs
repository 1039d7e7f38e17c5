//! # mutls-membuf — speculative memory buffering for MUTLS
//!
//! This crate implements the memory-buffering substrate of the MUTLS
//! software thread-level-speculation runtime (Cao & Verbrugge, ICPP 2013,
//! §IV-G):
//!
//! * [`WordMap`] — the *static-memory* word-granular hash map used for both
//!   the read-set and the write-set of a speculative thread.  It is built
//!   from one array of slot records (address, data, per-byte mark, version),
//!   the stack of used slots, and a small linear *overflow* buffer used when
//!   a hash slot collision occurs.
//! * [`GlobalBuffer`] — read-set/write-set pair with load/store redirection,
//!   validation against main memory and (masked) commit.
//! * [`LocalBuffer`] — register variable transfer between parent and
//!   speculative child threads at fork and join.
//! * [`GlobalMemory`] — a word-addressable shared main-memory arena
//!   (the "global address space") built from relaxed atomics so that the
//!   benign read/write races inherent to speculation are well defined.
//! * [`AddressSpace`] — registration of static/heap/stack address ranges so
//!   speculative accesses to unregistered addresses force a rollback.
//! * [`CommitLog`] — the range-granular, sharded versioned record of every
//!   write published to main memory; read-set entries are stamped with the
//!   owning shard's epoch observed at read time and join-time validation
//!   flags every read whose range a logical predecessor's commit
//!   invalidated (real conflict detection; false sharing at coarse grains
//!   is conservative, missed conflicts are impossible).
//!
//! The crate is deliberately free of any threading policy: it only provides
//! the data structures that `mutls-runtime` coordinates.

#![warn(missing_docs)]

pub mod address_space;
pub mod commit_log;
pub mod error;
pub mod global_buffer;
pub mod local_buffer;
pub mod memory;
pub mod wordmap;
mod zeroed;

pub use address_space::AddressSpace;
pub use commit_log::{
    region_log2_for_grain, CommitLog, CommitLogConfig, CommitLogStats, CommitVersion, ReaderSet,
    RegionId, RegionProfile, RingCheck, DEFAULT_RING_DEPTH, LINE_GRAIN_LOG2, MAX_RING_DEPTH,
    MAX_TRACKED_READERS, MIN_REGION_LOG2, PAGE_GRAIN_LOG2, WORD_GRAIN_LOG2,
};
pub use error::{BufferError, RollbackReason, SpecFailure};
pub use global_buffer::{BufferConfig, BufferStats, GlobalBuffer, Validation};
pub use local_buffer::{LocalBuffer, LocalBufferConfig, RegisterValue};
pub use memory::{Addr, GPtr, GlobalMemory, MainMemory, WORD_BYTES};
pub use wordmap::{WordEntry, WordMap};
