//! [`TapContext`] — the sequential context of
//! [`DirectContext`](mutls_runtime::DirectContext) with a tap on its
//! memory operations: it keeps the first [`TAP_CAPACITY`] `(addr,
//! is_store)` pairs plus totals, so the layer probes replay the
//! workload's own address stream.

use std::sync::Arc;

use mutls_membuf::{Addr, GlobalMemory, MainMemory};
use mutls_runtime::{ForkModel, JoinOutcome, Rank, SpecAbort, SpecResult, TaskRef, TlsContext};

/// Operations kept; later ones are only counted.
pub const TAP_CAPACITY: usize = 1 << 20;

pub struct TapContext {
    memory: Arc<GlobalMemory>,
    /// Word addresses are 8-byte aligned, so bit 0 carries `is_store`.
    ops: Vec<u64>,
    loads: u64,
    stores: u64,
}

/// What the tap saw.
pub struct Tape {
    ops: Vec<u64>,
    pub loads: u64,
    pub stores: u64,
}

impl Tape {
    pub fn ops_total(&self) -> u64 {
        self.loads + self.stores
    }

    /// The kept operations in program order.
    pub fn ops(&self) -> impl Iterator<Item = (Addr, bool)> + '_ {
        self.ops.iter().map(|&op| (op & !1, op & 1 == 1))
    }
}

pub struct TapHandle {
    task: TaskRef<TapContext>,
}

impl TapContext {
    pub fn new(memory: Arc<GlobalMemory>) -> Self {
        TapContext {
            memory,
            ops: Vec::with_capacity(TAP_CAPACITY),
            loads: 0,
            stores: 0,
        }
    }

    fn tap(&mut self, addr: Addr, is_store: bool) {
        if self.ops.len() < TAP_CAPACITY {
            self.ops.push(addr | is_store as u64);
        }
    }

    pub fn finish(self) -> Tape {
        Tape {
            ops: self.ops,
            loads: self.loads,
            stores: self.stores,
        }
    }
}

impl TlsContext for TapContext {
    type Handle = TapHandle;

    fn work(&mut self, _units: u64) -> SpecResult<()> {
        Ok(())
    }

    fn load_word(&mut self, addr: Addr) -> SpecResult<u64> {
        self.loads += 1;
        self.tap(addr, false);
        Ok(self.memory.read_word(addr))
    }

    fn store_word(&mut self, addr: Addr, value: u64) -> SpecResult<()> {
        self.stores += 1;
        self.tap(addr, true);
        self.memory.write_word(addr, value);
        Ok(())
    }

    fn fork(&mut self, _point: u32, task: TaskRef<Self>) -> SpecResult<TapHandle> {
        Ok(TapHandle { task })
    }

    fn fork_with_model(
        &mut self,
        point: u32,
        _model: ForkModel,
        task: TaskRef<Self>,
    ) -> SpecResult<TapHandle> {
        self.fork(point, task)
    }

    fn join(&mut self, handle: TapHandle) -> SpecResult<JoinOutcome> {
        match (handle.task)(self) {
            Ok(()) | Err(SpecAbort::BarrierReached) => Ok(JoinOutcome::NotSpeculated),
            Err(other) => Err(other),
        }
    }

    fn barrier(&mut self) -> SpecResult<()> {
        Err(SpecAbort::BarrierReached)
    }

    fn check_point(&mut self) -> SpecResult<()> {
        Ok(())
    }

    fn is_speculative(&self) -> bool {
        false
    }

    fn rank(&self) -> Rank {
        0
    }
}
