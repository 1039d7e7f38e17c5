//! The speculation lifecycle event vocabulary.
//!
//! One [`TraceEvent`] is emitted per lifecycle transition of a speculative
//! thread (fork, validate, commit, rollback, …) plus one per governor
//! verdict.  Every event is stamped with the emitting thread's rank, the
//! fork-site id it was launched from and the commit log's epoch at
//! emission time, so the cross-thread causal order — *which commit doomed
//! which reader* — can be reconstructed offline from the stream alone.

use serde::Serialize;

/// Why a fork request was denied without launching a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenyPolicy {
    /// The adaptive governor throttled the fork site.
    Governor,
    /// The forking model forbade this forker (not most-speculative, …).
    Model,
    /// No idle virtual CPU was available.
    NoCpu,
    /// A speculative parent mid-re-execution is pinned inline.
    Reexec,
}

impl DenyPolicy {
    /// Stable lowercase label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            DenyPolicy::Governor => "governor",
            DenyPolicy::Model => "model",
            DenyPolicy::NoCpu => "no-cpu",
            DenyPolicy::Reexec => "reexec",
        }
    }
}

/// How a join-time validation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidateOutcome {
    /// Every read validated against the commit log.
    Clean,
    /// Every read validated, and at least one did so *precisely*: its
    /// range version had moved but the commit log's version rings proved
    /// the commits missed the word (mvcc — single-version validation
    /// would have doomed the thread).
    PrecisePass,
    /// Version validation conflicted but value prediction repaired every
    /// conflicting read in place (the thread still commits).
    Retried,
    /// A conflict no recovery rung repaired — a word the thread read
    /// changed value — and the thread rolls back.
    Conflict,
    /// The task had already failed before validation (overflow, cascade,
    /// doom); its buffers were discarded unvalidated.
    Failed,
}

impl ValidateOutcome {
    /// Stable lowercase label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            ValidateOutcome::Clean => "clean",
            ValidateOutcome::PrecisePass => "precise-pass",
            ValidateOutcome::Retried => "retried",
            ValidateOutcome::Conflict => "conflict",
            ValidateOutcome::Failed => "failed",
        }
    }
}

/// Why a thread rolled back, mirroring the runtime's `RollbackReason`
/// breakdown (kept as a separate enum so the recorder stays a leaf crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RollbackCause {
    /// Read-set dependence conflict.
    Conflict,
    /// Speculative buffer overflow.
    Overflow,
    /// Injected by the sensitivity mode.
    Injected,
    /// Anything else (cascade, no-sync, unregistered address, …).
    Other,
}

impl RollbackCause {
    /// Stable lowercase label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            RollbackCause::Conflict => "conflict",
            RollbackCause::Overflow => "overflow",
            RollbackCause::Injected => "injected",
            RollbackCause::Other => "other",
        }
    }
}

/// Which arm of the recovery ladder repaired a conflicting join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanArm {
    /// Value-predict retry: re-stamp and commit in place.
    Retry,
    /// Rollback and inline re-execution, whose publishes doom the
    /// registered readers of what it rewrites.
    DoomSet,
    /// No recovery ladder ran (the thread died before its join).
    None,
}

impl PlanArm {
    /// Stable lowercase label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            PlanArm::Retry => "retry",
            PlanArm::DoomSet => "doomset",
            PlanArm::None => "none",
        }
    }
}

/// What happened (the discriminant of one [`TraceEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A fork point asked for a speculative thread.
    ForkAttempt,
    /// The fork was denied before any thread launched.
    ForkDenied {
        /// Which policy denied it.
        policy: DenyPolicy,
    },
    /// The adaptive governor ruled on a fork request.
    GovernorDecision {
        /// `true` when speculation was allowed.
        allowed: bool,
    },
    /// A speculative thread started running (emitted with the child's
    /// rank; `parent` closes the causal link to the fork).
    SpecStart {
        /// Rank of the forking thread.
        parent: u32,
    },
    /// Join-time read-set validation started.
    ValidateBegin {
        /// Number of read-set entries to validate.
        ranges: u32,
    },
    /// Join-time validation finished.
    ValidateEnd {
        /// The verdict.
        outcome: ValidateOutcome,
    },
    /// Time spent reserving a commit version and stamping the write-set.
    CommitLockWait {
        /// Wait + stamp duration (ns native, cycles simulated).
        ns: u64,
    },
    /// The thread's write-set was published (or absorbed by its parent).
    Commit,
    /// The thread was discarded and its continuation re-executed.
    Rollback {
        /// Why it rolled back.
        reason: RollbackCause,
        /// Which recovery-ladder arm handled the repair.
        plan: PlanArm,
    },
    /// An in-flight value-predict retry cleared a doom without stopping.
    RetryInFlight,
    /// A publish doomed still-running threads that had read its ranges.
    Doom,
}

impl EventKind {
    /// Stable event name (matches the issue's vocabulary; used as the
    /// Chrome trace-event `name`).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ForkAttempt => "ForkAttempt",
            EventKind::ForkDenied { .. } => "ForkDenied",
            EventKind::GovernorDecision { .. } => "GovernorDecision",
            EventKind::SpecStart { .. } => "SpecStart",
            EventKind::ValidateBegin { .. } => "ValidateBegin",
            EventKind::ValidateEnd { .. } => "ValidateEnd",
            EventKind::CommitLockWait { .. } => "CommitLockWait",
            EventKind::Commit => "Commit",
            EventKind::Rollback { .. } => "Rollback",
            EventKind::RetryInFlight => "RetryInFlight",
            EventKind::Doom => "Doom",
        }
    }

    /// Append this kind's payload as `"key":value` JSON members (empty for
    /// payload-free kinds).  `first` tracks whether a comma is needed.
    pub(crate) fn write_payload(&self, out: &mut String, first: &mut bool) {
        let mut field = |out: &mut String, key: &str, value: String| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('"');
            out.push_str(key);
            out.push_str("\":");
            out.push_str(&value);
        };
        match self {
            EventKind::ForkAttempt
            | EventKind::Commit
            | EventKind::RetryInFlight
            | EventKind::Doom => {}
            EventKind::ForkDenied { policy } => {
                field(out, "policy", format!("\"{}\"", policy.label()));
            }
            EventKind::GovernorDecision { allowed } => {
                field(out, "allowed", allowed.to_string());
            }
            EventKind::SpecStart { parent } => field(out, "parent", parent.to_string()),
            EventKind::ValidateBegin { ranges } => field(out, "ranges", ranges.to_string()),
            EventKind::ValidateEnd { outcome } => {
                field(out, "outcome", format!("\"{}\"", outcome.label()));
            }
            EventKind::CommitLockWait { ns } => field(out, "ns", ns.to_string()),
            EventKind::Rollback { reason, plan } => {
                field(out, "reason", format!("\"{}\"", reason.label()));
                field(out, "plan", format!("\"{}\"", plan.label()));
            }
        }
    }
}

/// One flight-recorder entry.
///
/// Plain `Copy` data so the SPSC rings can store it without allocation and
/// a drain is a memcpy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Timestamp: nanoseconds since the recorder's origin (native) or
    /// virtual cycles (simulator).
    pub ts: u64,
    /// Rank of the thread the event belongs to (0 = non-speculative).
    pub rank: u32,
    /// Fork-site id the thread was launched from (0 when not applicable).
    pub site: u32,
    /// Commit-log epoch observed at emission (the causal clock).
    pub epoch: u64,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    pub(crate) const EMPTY: TraceEvent = TraceEvent {
        ts: 0,
        rank: 0,
        site: 0,
        epoch: 0,
        kind: EventKind::ForkAttempt,
    };
}

impl Serialize for TraceEvent {
    fn serialize_json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"ts\":{},\"rank\":{},\"site\":{},\"epoch\":{},\"name\":\"{}\"",
            self.ts,
            self.rank,
            self.site,
            self.epoch,
            self.kind.name()
        ));
        let mut first = false;
        self.kind.write_payload(out, &mut first);
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_serializes_with_payload() {
        let ev = TraceEvent {
            ts: 5,
            rank: 2,
            site: 7,
            epoch: 9,
            kind: EventKind::Rollback {
                reason: RollbackCause::Conflict,
                plan: PlanArm::DoomSet,
            },
        };
        let mut out = String::new();
        ev.serialize_json(&mut out);
        assert_eq!(
            out,
            "{\"ts\":5,\"rank\":2,\"site\":7,\"epoch\":9,\"name\":\"Rollback\",\
             \"reason\":\"conflict\",\"plan\":\"doomset\"}"
        );
    }

    #[test]
    fn payload_free_kinds_serialize_cleanly() {
        let ev = TraceEvent {
            kind: EventKind::Commit,
            ..TraceEvent::EMPTY
        };
        let mut out = String::new();
        ev.serialize_json(&mut out);
        assert_eq!(
            out,
            "{\"ts\":0,\"rank\":0,\"site\":0,\"epoch\":0,\"name\":\"Commit\"}"
        );
    }
}
