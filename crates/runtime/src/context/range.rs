//! `fork_range` natively: the lazy split and the prices it cuts by.

use super::*;

impl SpecContext {
    /// [`fork_range`](TlsContext::fork_range) over two or more iterations:
    /// walk the range, and at an iteration boundary where a CPU is idle
    /// fork the tail of what is left (lazy splitting).  The forker keeps
    /// [`protocol::forker_share`] of it at the site's price: on one
    /// speculative CPU the midpoint of what is left until both sides of the
    /// site have been timed, then the point where both sides finish
    /// together; with a CPU for every other iteration, the chain.  A tail
    /// forks its own tail the same way, and so does a thread promoted in
    /// the middle of a body: the CPU it gave up is idle at its next
    /// boundary.
    ///
    /// While no CPU is idle nothing is attempted: no denied fork, no
    /// closure.  A fork denied after all (a race for the CPU, the governor,
    /// a re-execution's pinned forks) ends this walk's offers; its tail is
    /// run inline by the join below and offers again on its own account.
    pub(super) fn split_when_idle<F>(
        &mut self,
        point: u32,
        range: Range<usize>,
        body: &Arc<F>,
    ) -> SpecResult<()>
    where
        F: Fn(&mut Self, usize) -> SpecResult<()> + Send + Sync + 'static,
    {
        let (mut next, mut end) = (range.start, range.end);
        // Forked tails, the newest (and logically earliest) joined first.
        let mut tails = Vec::new();
        let mut offer = true;
        while next < end {
            if offer && end - next > 1 && self.has_idle_cpu() {
                let cpus = self.mgr.config().num_cpus;
                let mid = next + protocol::forker_share(end - next, cpus, self.price_of(point));
                let rest = Arc::clone(body);
                let tail = task(move |ctx: &mut Self| ctx.split_when_idle(point, mid..end, &rest));
                let handle = self.fork(point, tail)?;
                offer = handle.speculated();
                tails.push(handle);
                end = mid;
            }
            match self.run_priced(point, |ctx| body(ctx, next)) {
                // On the chain every iteration but a task's first is a
                // continuation of its own, which a barrier ends quietly.
                Err(SpecAbort::BarrierReached) if next > range.start => break,
                other => other?,
            }
            next += 1;
        }
        while let Some(handle) = tails.pop() {
            self.join(handle)?;
        }
        Ok(())
    }

    /// The price a cut at `site` goes by: the site's books at rank 0, equal
    /// for a speculative forker — both of its sides pay the speculative
    /// price.
    pub(super) fn price_of(&self, site: u32) -> Price {
        if self.rank == 0 {
            self.mgr.price(site)
        } else {
            Price::default()
        }
    }

    /// Run one iteration of a range at `site` and book what it cost on this
    /// thread's side of the split: at once at rank 0, with the task's commit
    /// when speculative.  An iteration that failed, or during which the
    /// context was promoted, books nothing.
    pub(super) fn run_priced(
        &mut self,
        site: u32,
        iteration: impl FnOnce(&mut Self) -> SpecResult<()>,
    ) -> SpecResult<()> {
        let (rank, started) = (self.rank, Instant::now());
        let result = iteration(self);
        if result.is_ok() && self.rank == rank {
            let ns = started.elapsed().as_nanos() as u64;
            if rank == 0 {
                self.mgr.book_price(site, Price::crit(ns));
            } else if let Some((_, price)) = self.prices.iter_mut().find(|(s, _)| *s == site) {
                price.add(Price::spec(ns));
            } else {
                self.prices.push((site, Price::spec(ns)));
            }
        }
        result
    }

    /// Whether a virtual CPU is held by no task right now (a racy reading:
    /// a fork that relies on it may still be denied).
    fn has_idle_cpu(&self) -> bool {
        self.mgr.active_speculations() < self.mgr.config().num_cpus
    }
}
