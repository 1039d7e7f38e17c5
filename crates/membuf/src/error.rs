//! Error and speculation-failure types shared across the buffering layer.

use std::fmt;

/// Reasons a buffered memory operation cannot be completed.
///
/// A [`BufferError`] is not necessarily fatal for the whole speculative
/// thread: a word recorded in the overflow area (`OverflowPending`) is
/// buffered all the same and the thread runs on; every other error rolls
/// it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferError {
    /// The hash-slot for the address is occupied by a different address and
    /// the linear overflow buffer still has room: the access has been
    /// recorded there.  Nothing stalls on it — the buffer reports it and
    /// keeps the word, and the thread runs on until the area is full.
    OverflowPending,
    /// The overflow buffer is exhausted; the speculative thread must roll
    /// back (paper §IV-G2: "If the temporary buffer is used up, the
    /// speculative thread rolls back").
    OverflowFull,
    /// The access touches an address outside what the arena has allocated
    /// (`GlobalMemory::is_allocated`); the speculative thread must roll
    /// back (paper §IV-G1).
    UnregisteredAddress,
    /// The access is misaligned with respect to its size, which the
    /// word-granular buffering scheme does not support.
    Misaligned,
    /// An access size that is neither a divisor nor a multiple of the word
    /// size was requested.
    UnsupportedSize,
}

impl fmt::Display for BufferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BufferError::OverflowPending => write!(f, "hash conflict recorded in overflow buffer"),
            BufferError::OverflowFull => write!(f, "overflow buffer exhausted"),
            BufferError::UnregisteredAddress => write!(f, "access to unregistered address"),
            BufferError::Misaligned => write!(f, "misaligned access"),
            BufferError::UnsupportedSize => write!(f, "unsupported access size"),
        }
    }
}

impl std::error::Error for BufferError {}

/// Coarse cause taxonomy of a rollback, carried through thread statistics,
/// run reports and the adaptive governor so policies can react to *why*
/// speculation failed, not just that it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RollbackReason {
    /// A genuine cross-thread dependence violation: a logically earlier
    /// thread committed a write to an address in the read-set after it was
    /// read (detected via the [`CommitLog`](crate::CommitLog)).
    Conflict,
    /// The global or local speculative buffer ran out of capacity.
    Overflow,
    /// The rollback was injected by the §V-D sensitivity experiment.
    Injected,
    /// Everything else: cascading rollbacks, mixed-model order violations
    /// (NOSYNC) and unregistered-address aborts.
    Other,
}

impl RollbackReason {
    /// Number of reason classes (array-index bound).
    pub const COUNT: usize = 4;

    /// All reasons in presentation order.
    pub const ALL: [RollbackReason; Self::COUNT] = [
        RollbackReason::Conflict,
        RollbackReason::Overflow,
        RollbackReason::Injected,
        RollbackReason::Other,
    ];

    /// Stable array index of this reason.
    pub fn index(self) -> usize {
        match self {
            RollbackReason::Conflict => 0,
            RollbackReason::Overflow => 1,
            RollbackReason::Injected => 2,
            RollbackReason::Other => 3,
        }
    }

    /// Short label used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            RollbackReason::Conflict => "conflict",
            RollbackReason::Overflow => "overflow",
            RollbackReason::Injected => "injected",
            RollbackReason::Other => "other",
        }
    }
}

impl fmt::Display for RollbackReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl From<SpecFailure> for RollbackReason {
    fn from(failure: SpecFailure) -> Self {
        match failure {
            SpecFailure::ReadConflict => RollbackReason::Conflict,
            SpecFailure::BufferOverflow => RollbackReason::Overflow,
            SpecFailure::Injected => RollbackReason::Injected,
            SpecFailure::Cascaded | SpecFailure::NoSync | SpecFailure::UnregisteredAddress => {
                RollbackReason::Other
            }
        }
    }
}

/// Classification of why a speculative thread failed, used for statistics
/// and for deciding cascading behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecFailure {
    /// A value in the read-set no longer matches main memory.
    ReadConflict,
    /// The global buffer overflowed.
    BufferOverflow,
    /// The thread touched an unregistered address.
    UnregisteredAddress,
    /// Rollback was injected by the rollback-sensitivity experiment.
    Injected,
    /// The parent rolled back, cascading into this subtree.
    Cascaded,
    /// The thread violated the mixed-model ordering assumption and was
    /// discarded with NOSYNC.
    NoSync,
}

impl fmt::Display for SpecFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SpecFailure::ReadConflict => "read conflict",
            SpecFailure::BufferOverflow => "global buffer overflow",
            SpecFailure::UnregisteredAddress => "unregistered address",
            SpecFailure::Injected => "injected rollback",
            SpecFailure::Cascaded => "cascaded rollback",
            SpecFailure::NoSync => "mixed-model order violation (NOSYNC)",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(BufferError::OverflowFull.to_string().contains("overflow"));
        assert!(SpecFailure::ReadConflict.to_string().contains("conflict"));
        assert!(SpecFailure::NoSync.to_string().contains("NOSYNC"));
    }

    #[test]
    fn buffer_error_is_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(BufferError::Misaligned);
        assert!(e.to_string().contains("misaligned"));
    }

    #[test]
    fn rollback_reasons_classify_every_failure() {
        assert_eq!(
            RollbackReason::from(SpecFailure::ReadConflict),
            RollbackReason::Conflict
        );
        assert_eq!(
            RollbackReason::from(SpecFailure::BufferOverflow),
            RollbackReason::Overflow
        );
        assert_eq!(
            RollbackReason::from(SpecFailure::Injected),
            RollbackReason::Injected
        );
        assert_eq!(
            RollbackReason::from(SpecFailure::Cascaded),
            RollbackReason::Other
        );
        // Indices are a dense, stable permutation of 0..COUNT.
        let mut seen = [false; RollbackReason::COUNT];
        for reason in RollbackReason::ALL {
            assert!(!seen[reason.index()]);
            seen[reason.index()] = true;
            assert!(!reason.label().is_empty());
        }
        assert!(seen.iter().all(|&s| s));
    }
}
