//! The access shells: what a load or a store costs, and the out-of-line
//! arms behind them.

use std::sync::atomic::Ordering;

use super::*;

impl SpecContext {
    // ----- speculative memory routing ---------------------------------
    //
    // `spec_read` and `spec_write` are shells that hold what a *hit* needs
    // and nothing else, so that a kernel monomorphised over `SpecContext` —
    // in whichever crate — keeps the hit in its own loop: rank 0 counts the
    // access and touches the arena cell; a speculative thread counts, steps
    // the poll cadence and probes its sets.  Whatever happens once per
    // word, once per 256 accesses or once per rollback is a call to an
    // out-of-line arm.  The shells are `#[inline(always)]`, and so is every
    // level between them and the kernel: at half a dozen cold call sites apiece
    // LLVM prices them above what an `#[inline]` hint buys (and above what
    // its cross-unit import takes), and one level left out of line puts
    // the call back on every access.
    //
    // **Every address in a set was checked on the way in.**  An address
    // enters the read set at its first touch, the write set at the first
    // store of its word, and either set when a child's buffer is absorbed
    // (the child checked its own); `GlobalMemory::is_allocated` runs there
    // — before the insert, so not even a task that swallows the error can
    // commit a wild word — and a hit does not ask again.

    /// Read one word of shared program data.
    ///
    /// This is the single entry point all workload memory traffic goes
    /// through (the `MUTLS_load_*` call the speculator pass would emit).
    /// Speculatively it redirects into the thread's [`GlobalBuffer`],
    /// stamping new read-set entries with the commit-log epoch so
    /// join-time validation can detect writes committed by logical
    /// predecessors *after* this read; non-speculatively it reads main
    /// memory directly.
    #[inline(always)]
    pub fn spec_read(&mut self, addr: Addr) -> SpecResult<u64> {
        self.stats.counters.loads += 1;
        if self.poll_due() {
            self.due_poll()?;
        }
        // (Not before the poll: a promotion there takes `global` away.)
        let mgr = &*self.mgr;
        let Some(buffer) = self.global.as_mut() else {
            return Ok(mgr.memory().word(addr).load(Ordering::Relaxed));
        };
        buffer
            .load_or(addr, WORD_BYTES, |buffer, word_addr| {
                Self::first_touch(mgr, buffer, word_addr)
            })
            .map_err(Self::map_buffer_error)
    }

    /// A word enters the read set: the address is checked here, once.
    #[cold]
    #[inline(never)]
    fn first_touch(
        mgr: &ThreadManager,
        buffer: &mut GlobalBuffer,
        word_addr: Addr,
    ) -> Result<u64, BufferError> {
        if !mgr.memory().is_allocated(word_addr, WORD_BYTES) {
            return Err(BufferError::UnregisteredAddress);
        }
        buffer.first_touch(mgr.memory().as_ref(), Some(mgr.commit_log()), word_addr)
    }

    /// Write one word of shared program data.
    ///
    /// Speculatively the store lands in the thread's write-set and stays
    /// private until the join commits it; non-speculatively the store is
    /// written to memory immediately and, **while any speculative read set
    /// is exposed**, its address joins the context's pending batch, whose
    /// publish stamps the commit log and dooms any in-flight logical
    /// successor that already read the address (the store is a commit by
    /// definition — the non-speculative thread is always logically
    /// earliest).  The batch is published before anything validates
    /// against it: at a fork's dispatch, the start of a join, a check
    /// point, a promoted context's hand-back, the end of the run, and when
    /// it holds `PENDING_CAP` (1 024) addresses (the flush rule in
    /// `CommitLog`'s ordering protocol).  With no read set exposed nobody
    /// holds a snapshot a stamp could invalidate, so the store runs at
    /// native speed (see `ThreadManager`'s exposure count).  The arm
    /// inlined into a kernel is the memory store, one branch and one call.
    #[inline(always)]
    pub fn spec_write(&mut self, addr: Addr, value: u64) -> SpecResult<()> {
        self.stats.counters.stores += 1;
        if self.poll_due() {
            self.due_poll()?;
        }
        let mgr = &*self.mgr;
        let Some(buffer) = self.global.as_mut() else {
            // Memory first, then the version bump (see `CommitLog`'s
            // ordering protocol).
            mgr.memory().word(addr).store(value, Ordering::Relaxed);
            if mgr.exposed_speculations() != 0 {
                self.pend_store(addr);
            }
            return Ok(());
        };
        buffer
            .store_or(addr, value, WORD_BYTES, |buffer, word_addr, data, mask| {
                Self::first_store(mgr, buffer, word_addr, data, mask)
            })
            .map_err(Self::map_buffer_error)
    }

    /// A word enters the write set: the address is checked here, once.
    #[inline(never)]
    fn first_store(
        mgr: &ThreadManager,
        buffer: &mut GlobalBuffer,
        word_addr: Addr,
        data: u64,
        mask: u64,
    ) -> Result<(), BufferError> {
        if !mgr.memory().is_allocated(word_addr, WORD_BYTES) {
            return Err(BufferError::UnregisteredAddress);
        }
        buffer.first_store(word_addr, data, mask)
    }

    /// Rank 0 stored `addr` while a speculative read set is exposed: add
    /// it to the pending batch, and publish the batch once it is full.
    #[inline(never)]
    fn pend_store(&mut self, addr: Addr) {
        self.pending.push(addr);
        if self.pending.len() >= PENDING_CAP {
            self.publish_pending();
        }
    }

    /// Publish rank 0's pending stores: stamp the commit log and — a store
    /// is a commit by definition (rank 0 is always logically earliest) —
    /// doom the registered readers of their ranges, surgically, instead of
    /// letting them burn their whole conflict window before failing
    /// validation.  A range no reader could hold stale is not stamped:
    /// rank 0 writes far more ranges than the speculative threads read
    /// (`tree_writes`' rank 0 runs a whole half of the FFT while its child
    /// is exposed), and each stamp faults in commit-log pages.
    #[inline(never)]
    pub(crate) fn publish_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let victims = self.mgr.publish(&mut self.pending, self.rank, true);
        if victims > 0 {
            self.note_doom(victims);
        }
    }

    /// A store of this thread doomed `victims` running readers.  Out of
    /// line: the store path pays for it only when somebody was doomed.
    #[cold]
    fn note_doom(&mut self, victims: u64) {
        self.observe(0, Point::Doomed(victims));
    }

    /// Write a lifecycle point of this thread down, under its rank: 0
    /// while it holds the non-speculative role.
    pub(super) fn observe(&self, site: u32, point: Point) {
        self.mgr.observe(self.rank, site, point);
    }

    /// Step a speculative thread's access count and say whether the poll
    /// of the abort flag (and, with it, of the doom flags and the sync
    /// request) is due.  Rank 0 is never aborted or doomed: nothing to
    /// count or poll.
    #[inline(always)]
    pub(super) fn poll_due(&mut self) -> bool {
        if self.global.is_none() {
            return false;
        }
        self.op_counter = self.op_counter.wrapping_add(1);
        self.op_counter.is_multiple_of(ABORT_POLL_INTERVAL)
    }

    /// The poll of every [`ABORT_POLL_INTERVAL`]th access, as a cold call.
    #[cold]
    #[inline(never)]
    pub(super) fn due_poll(&mut self) -> SpecResult<()> {
        self.poll()
    }

    /// Why a buffered access failed, as the rollback reason its joiner sees.
    fn map_buffer_error(err: BufferError) -> SpecAbort {
        match err {
            BufferError::OverflowFull => failure(SpecFailure::BufferOverflow),
            BufferError::UnregisteredAddress => failure(SpecFailure::UnregisteredAddress),
            // OverflowPending is handled inside the buffer; alignment and
            // size problems indicate a misuse of the typed API and map to
            // a rollback so the parent re-executes safely.
            BufferError::OverflowPending
            | BufferError::Misaligned
            | BufferError::UnsupportedSize => failure(SpecFailure::BufferOverflow),
        }
    }
}
