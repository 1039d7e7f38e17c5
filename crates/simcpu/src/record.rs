//! Speculation-trace recording.
//!
//! The simulator first executes the workload *once, sequentially*, through
//! a [`RecordContext`] (an implementation of
//! [`TlsContext`]).  The recording captures the
//! task tree the fork/join annotations induce — per task: work segments
//! with their read/write footprints (sets of arena words as [`Runs`],
//! frozen when the segment ends), fork and join events, and
//! whether the task ended at a barrier.  Program results are always computed
//! correctly (the recording *is* a sequential execution); speculation
//! success or failure only affects the simulated timing, which is exactly
//! the property a performance simulator needs.
//!
//! A footprint grows in one dense table of marks, one `u64` per arena word
//! (`addr / 8`) holding the generation — the segment — that last touched the
//! word and whether that segment read it and wrote it.  A load or store is
//! one arena access and one mark; a word joins the segment's first-touch
//! list on its first mark of the generation.  Ending a segment turns each
//! list into runs and bumps the generation instead of clearing the table:
//! where the list's words are dense in the span they cover, by scanning the
//! marks over that span a stretch of hits at a time, one run per stretch
//! (a segment that read a whole array freezes in one scan and one push),
//! and only where they are sparse by sorting the list.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use mutls_membuf::{Addr, GlobalMemory, MainMemory, WORD_BYTES};
use mutls_runtime::{ForkModel, JoinOutcome, Rank, SpecResult, TaskRef, TlsContext};

use crate::runs::{Run, Runs};

/// Index of a task node within a [`Recording`].
pub type NodeId = usize;

/// A contiguous stretch of execution between two speculation events.
#[derive(Debug, Default, Clone)]
pub struct Segment {
    /// Abstract work units charged via `work()`.
    pub work: u64,
    /// Number of loads issued in this segment.
    pub loads: u64,
    /// Number of stores issued in this segment.
    pub stores: u64,
    /// Arena words (`addr / 8`) read before being written in this
    /// segment.
    pub reads: Runs,
    /// Arena words written in this segment.
    pub writes: Runs,
}

impl Segment {
    fn is_empty(&self) -> bool {
        self.work == 0 && self.loads == 0 && self.stores == 0
    }
}

/// One element of a task's timeline.
#[derive(Debug, Clone)]
pub enum SimEvent {
    /// Execute a segment of straight-line work.
    Seg(Segment),
    /// A fork point speculating `child` under the given model.
    Fork {
        /// The child task.
        child: NodeId,
        /// Forking model requested at this fork point.
        model: ForkModel,
        /// Fork/join point id (for diagnostics).
        point: u32,
    },
    /// The matching join point for `child`.
    Join {
        /// The child task being joined.
        child: NodeId,
    },
}

/// One task (speculative-thread candidate) of the recording.
#[derive(Debug, Default, Clone)]
pub struct TaskNode {
    /// Timeline of segments and speculation events.
    pub events: Vec<SimEvent>,
    /// True when the task closure ended at a barrier point.
    pub barrier: bool,
    /// Sequential order index (preorder position of the task's region in
    /// the original program order).
    pub seq: usize,
}

impl TaskNode {
    /// Total work units in this task's own segments (excluding children).
    pub fn own_work(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                SimEvent::Seg(s) => s.work,
                _ => 0,
            })
            .sum()
    }

    /// Total loads + stores in this task's own segments.
    pub fn own_memory_ops(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                SimEvent::Seg(s) => s.loads + s.stores,
                _ => 0,
            })
            .sum()
    }
}

/// A recorded speculation trace: the task tree plus the shared memory
/// arena used while recording.
pub struct Recording {
    /// All task nodes; index 0 is the root (non-speculative) task.
    pub nodes: Vec<TaskNode>,
    /// The memory arena the recording executed against.
    pub memory: Arc<GlobalMemory>,
}

impl Recording {
    /// The root task.
    pub fn root(&self) -> &TaskNode {
        &self.nodes[0]
    }

    /// Number of tasks (1 root + one per fork point executed).
    pub fn task_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total work units across every task: the *sequential* execution time
    /// in work units (memory costs are added by the scheduler's cost
    /// model).
    pub fn total_work(&self) -> u64 {
        self.nodes.iter().map(|n| n.own_work()).sum()
    }

    /// Total loads and stores across every task.
    pub fn total_memory_ops(&self) -> u64 {
        self.nodes.iter().map(|n| n.own_memory_ops()).sum()
    }

    /// Memory-access density `ρ = N_rw / work` (the paper's
    /// computation-vs-memory-intensive criterion from Table II).
    pub fn memory_density(&self) -> f64 {
        let work = self.total_work().max(1);
        self.total_memory_ops() as f64 / work as f64
    }
}

/// Handle returned by [`RecordContext::fork`].
pub struct RecordHandle {
    child: NodeId,
    task: TaskRef<RecordContext>,
}

/// Sequential recording context implementing [`TlsContext`].
pub struct RecordContext {
    memory: Arc<GlobalMemory>,
    nodes: Vec<TaskNode>,
    /// Stack of nodes currently being recorded (innermost last); the
    /// current segment under construction sits alongside each.
    stack: Vec<NodeId>,
    current: Segment,
    /// Per arena word: `gen << 2 | READ | WRITTEN` as of the last segment
    /// that touched it.  Sized to the words allocated when recording
    /// starts, grown on a first touch past them.
    marks: Vec<u64>,
    /// Generation of `current`; marks of older generations are stale.
    gen: u64,
    /// Words (`addr / 8`) of `current`'s footprint while it is still
    /// growing, in first-touch order; frozen into the segment's runs by
    /// `flush_segment` and emptied, keeping their blocks.
    first_reads: Vec<u64>,
    first_writes: Vec<u64>,
    seq_counter: usize,
}

/// Mark bit: the word was read before being written in its generation.
const READ: u64 = 1;
/// Mark bit: the word was written in its generation.
const WRITTEN: u64 = 2;

/// A first-touch list is frozen by a scan of the marks when the span its
/// words cover is at most this many words per listed word, by a sort
/// otherwise: a scan step is one mark, a sort step several compares and
/// moves per word.
const SCAN_SPAN_PER_WORD: u64 = 8;

impl RecordContext {
    /// Start a recording against `memory`, with a mark for every word it
    /// has allocated so far.
    pub fn new(memory: Arc<GlobalMemory>) -> Self {
        let root = TaskNode {
            seq: 0,
            ..TaskNode::default()
        };
        let words = (memory.allocated_bytes() / WORD_BYTES) as usize;
        RecordContext {
            memory,
            nodes: vec![root],
            stack: vec![0],
            current: Segment::default(),
            marks: vec![0; words],
            // Generation 0 is the zeroed table's: no segment is ever in it.
            gen: 1,
            first_reads: Vec::new(),
            first_writes: Vec::new(),
            seq_counter: 1,
        }
    }

    /// The shared memory arena.
    pub fn memory(&self) -> &Arc<GlobalMemory> {
        &self.memory
    }

    fn current_node(&mut self) -> &mut TaskNode {
        let id = *self.stack.last().expect("node stack never empty");
        &mut self.nodes[id]
    }

    /// The mark of word `idx`, which the arena has already bounds-checked.
    #[inline]
    fn mark(&mut self, idx: usize) -> &mut u64 {
        if idx >= self.marks.len() {
            self.grow_marks(idx);
        }
        &mut self.marks[idx]
    }

    /// Extend the marks past `idx` (an arena word): at least doubled, never
    /// past the arena.
    #[cold]
    #[inline(never)]
    fn grow_marks(&mut self, idx: usize) {
        let arena = (self.memory.size_bytes() / WORD_BYTES) as usize;
        self.marks
            .resize((2 * self.marks.len()).clamp(idx + 1, arena), 0);
    }

    fn flush_segment(&mut self) {
        if self.current.is_empty() {
            return;
        }
        let mut seg = std::mem::take(&mut self.current);
        seg.reads = freeze(&self.marks, self.gen, READ, &mut self.first_reads);
        seg.writes = freeze(&self.marks, self.gen, WRITTEN, &mut self.first_writes);
        self.gen += 1;
        self.current_node().events.push(SimEvent::Seg(seg));
    }

    /// Finish recording and produce the [`Recording`].
    pub fn finish(mut self) -> Recording {
        self.flush_segment();
        assert_eq!(self.stack.len(), 1, "unbalanced fork/join recording");
        Recording {
            nodes: self.nodes,
            memory: self.memory,
        }
    }
}

/// Turn a first-touch list (duplicate-free by construction) into runs and
/// empty it.  Its words are exactly those whose mark holds generation
/// `gen` and mark bit `bit`; see the module docs.
fn freeze(marks: &[u64], gen: u64, bit: u64, first: &mut Vec<u64>) -> Runs {
    let (lo, hi) = first
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), &idx| (lo.min(idx), hi.max(idx)));
    let runs = if first.is_empty() {
        Runs::default()
    } else if hi - lo + 1 == first.len() as u64 {
        // The list fills its span: one run, nothing to scan.
        [Run {
            start: lo,
            end: hi + 1,
        }]
        .into_iter()
        .collect()
    } else if hi - lo < SCAN_SPAN_PER_WORD * first.len() as u64 {
        // One run per stretch of hits, the gaps between them skipped.
        let hit = |mark: &u64| mark >> 2 == gen && mark & bit != 0;
        let (mut runs, mut start) = (Runs::default(), lo);
        for stretch in marks[lo as usize..=hi as usize].chunk_by(|a, b| hit(a) == hit(b)) {
            let end = start + stretch.len() as u64;
            if hit(&stretch[0]) {
                runs.push(Run { start, end });
            }
            start = end;
        }
        runs
    } else {
        first.sort_unstable();
        first.iter().map(|&idx| Run::one(idx)).collect()
    };
    first.clear();
    runs
}

impl TlsContext for RecordContext {
    type Handle = RecordHandle;

    fn work(&mut self, units: u64) -> SpecResult<()> {
        self.current.work += units;
        Ok(())
    }

    fn load_word(&mut self, addr: Addr) -> SpecResult<u64> {
        self.current.loads += 1;
        let value = self.memory.word(addr).load(Ordering::Relaxed);
        let gen = self.gen;
        let idx = addr / WORD_BYTES;
        let mark = self.mark(idx as usize);
        // A mark of this generation: already read or written here.
        if *mark >> 2 != gen {
            *mark = gen << 2 | READ;
            self.first_reads.push(idx);
        }
        Ok(value)
    }

    fn store_word(&mut self, addr: Addr, value: u64) -> SpecResult<()> {
        self.current.stores += 1;
        self.memory.word(addr).store(value, Ordering::Relaxed);
        let gen = self.gen;
        let idx = addr / WORD_BYTES;
        let mark = self.mark(idx as usize);
        let current = if *mark >> 2 == gen { *mark } else { gen << 2 };
        if current & WRITTEN == 0 {
            *mark = current | WRITTEN;
            self.first_writes.push(idx);
        }
        Ok(())
    }

    fn fork(&mut self, point: u32, task: TaskRef<Self>) -> SpecResult<RecordHandle> {
        self.fork_with_model(point, ForkModel::Mixed, task)
    }

    fn fork_with_model(
        &mut self,
        point: u32,
        model: ForkModel,
        task: TaskRef<Self>,
    ) -> SpecResult<RecordHandle> {
        self.flush_segment();
        let child = self.nodes.len();
        self.nodes.push(TaskNode {
            seq: self.seq_counter,
            ..TaskNode::default()
        });
        self.seq_counter += 1;
        self.current_node().events.push(SimEvent::Fork {
            child,
            model,
            point,
        });
        Ok(RecordHandle { child, task })
    }

    fn join(&mut self, handle: RecordHandle) -> SpecResult<JoinOutcome> {
        // The continuation executes here, at its sequential program
        // position, recording into the child node.
        self.flush_segment();
        self.stack.push(handle.child);
        let result = (handle.task)(self);
        self.flush_segment();
        match result {
            Ok(()) => {}
            Err(mutls_runtime::SpecAbort::BarrierReached) => {
                let id = *self.stack.last().unwrap();
                self.nodes[id].barrier = true;
            }
            Err(other) => {
                self.stack.pop();
                return Err(other);
            }
        }
        self.stack.pop();
        self.current_node().events.push(SimEvent::Join {
            child: handle.child,
        });
        Ok(JoinOutcome::Committed)
    }

    fn barrier(&mut self) -> SpecResult<()> {
        Err(mutls_runtime::SpecAbort::BarrierReached)
    }

    fn check_point(&mut self) -> SpecResult<()> {
        // A check point is where the native runtime polls for aborts and
        // dooms; splitting the segment here gives the scheduler the same
        // opportunity (early synchronization and targeted-doom stops
        // happen at segment boundaries).
        self.flush_segment();
        Ok(())
    }

    fn is_speculative(&self) -> bool {
        // During recording every task runs "as if speculative" except the
        // root region.
        self.stack.len() > 1
    }

    fn rank(&self) -> Rank {
        self.stack.len().saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::atomic::AtomicBool;

    use mutls_membuf::GPtr;
    use mutls_runtime::task;
    use proptest::prelude::*;

    fn arena() -> Arc<GlobalMemory> {
        Arc::new(GlobalMemory::new(1 << 16))
    }

    /// The addresses of the words of `footprint`, ascending.
    fn addrs(footprint: &Runs) -> Vec<Addr> {
        footprint.iter().map(|word| word * WORD_BYTES).collect()
    }

    /// Every run of `footprint` holds a word, the runs ascend, and no two
    /// overlap or touch: the one form a set of words has.
    fn assert_maximal_runs(footprint: &Runs) {
        let runs = footprint.runs();
        assert!(runs.iter().all(|run| !run.is_empty()), "{runs:?}");
        assert!(runs.windows(2).all(|w| w[0].end < w[1].start), "{runs:?}");
        assert_eq!(
            footprint.len(),
            runs.iter().map(|run| run.len()).sum::<u64>()
        );
    }

    /// The work segments of `node`, in timeline order.
    fn segments(node: &TaskNode) -> Vec<&Segment> {
        node.events
            .iter()
            .filter_map(|e| match e {
                SimEvent::Seg(seg) => Some(seg),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn simple_fork_join_builds_two_nodes() {
        let mem = arena();
        let data = mem.alloc::<i64>(8);
        let mut ctx = RecordContext::new(Arc::clone(&mem));
        ctx.work(10).unwrap();
        let child = task(move |ctx: &mut RecordContext| {
            ctx.work(5)?;
            ctx.store(&data, 0, 42)?;
            ctx.barrier()
        });
        let h = ctx.fork(0, child).unwrap();
        ctx.work(20).unwrap();
        ctx.join(h).unwrap();
        let rec = ctx.finish();
        assert_eq!(rec.task_count(), 2);
        assert_eq!(rec.total_work(), 35);
        assert!(rec.nodes[1].barrier);
        assert_eq!(addrs(&segments(&rec.nodes[1])[0].writes), [data.addr_of(0)]);
        // The store really happened (sequential correctness).
        assert_eq!(mem.get(&data, 0), 42);
    }

    #[test]
    fn read_before_write_is_a_read_dependence_but_not_after() {
        let mem = arena();
        let data = mem.alloc::<i64>(4);
        mem.set(&data, 0, 7);
        let mut ctx = RecordContext::new(Arc::clone(&mem));
        let child = task(move |ctx: &mut RecordContext| {
            let v = ctx.load(&data, 0)?; // read dependence
            ctx.store(&data, 1, v * 2)?;
            let _ = ctx.load(&data, 1)?; // own write: no dependence
            Ok(())
        });
        let h = ctx.fork(0, child).unwrap();
        ctx.join(h).unwrap();
        let rec = ctx.finish();
        let seg = segments(&rec.nodes[1])[0];
        assert_eq!(addrs(&seg.reads), [data.addr_of(0)]);
        assert_eq!(addrs(&seg.writes), [data.addr_of(1)]);
        assert_eq!(mem.get(&data, 1), 14);
    }

    #[test]
    fn footprints_are_sorted_and_duplicate_free_but_counters_see_every_access() {
        let mem = arena();
        let data = mem.alloc::<i64>(8);
        let mut ctx = RecordContext::new(Arc::clone(&mem));
        // Descending and repeated accesses, a store between two loads of
        // the same word, and a check point that starts a second segment.
        for i in [6, 2, 6, 4, 2] {
            ctx.load(&data, i).unwrap();
        }
        for i in [5, 1, 5] {
            ctx.store(&data, i, 9).unwrap();
        }
        ctx.load(&data, 5).unwrap(); // own write: no dependence
        ctx.check_point().unwrap();
        ctx.load(&data, 5).unwrap(); // a new segment reads it afresh
        let rec = ctx.finish();
        let segs = segments(rec.root());
        let at = |words: &[usize]| words.iter().map(|&i| data.addr_of(i)).collect::<Vec<_>>();
        assert_eq!(addrs(&segs[0].reads), at(&[2, 4, 6]));
        assert_eq!(addrs(&segs[0].writes), at(&[1, 5]));
        assert_eq!((segs[0].loads, segs[0].stores), (6, 3));
        assert_eq!(addrs(&segs[1].reads), at(&[5]));
        assert!(segs[1].writes.is_empty());
        assert_eq!((segs[1].loads, segs[1].stores), (1, 0));
        assert_eq!(rec.total_memory_ops(), 10);
    }

    /// Spans dense enough to be frozen by the scan: a hole made by a word
    /// written first and one made by a word never touched split the reads
    /// into exactly three runs; a span of one word and a span of hits only
    /// are one run each.
    #[test]
    fn a_dense_span_freezes_into_one_run_per_stretch_of_hits() {
        let mem = arena();
        let data = mem.alloc::<u64>(16);
        let mut ctx = RecordContext::new(Arc::clone(&mem));
        let run = |from: usize, to: usize| Run {
            start: data.addr_of(from) / WORD_BYTES,
            end: data.addr_of(to) / WORD_BYTES,
        };
        // Word 4 is written before it is read, word 9 is never touched.
        ctx.store(&data, 4, 1).unwrap();
        for i in (0..16).rev().filter(|&i| i != 9) {
            ctx.load(&data, i).unwrap();
        }
        ctx.check_point().unwrap();
        ctx.load(&data, 7).unwrap();
        ctx.check_point().unwrap();
        for i in 0..16 {
            ctx.store(&data, i, 2).unwrap();
        }
        let rec = ctx.finish();
        let segs = segments(rec.root());
        assert_eq!(segs[0].reads.runs(), [run(0, 4), run(5, 9), run(10, 16)]);
        assert_eq!(segs[0].writes.runs(), [run(4, 5)]);
        assert_eq!(segs[1].reads.runs(), [run(7, 8)]);
        assert!(segs[1].writes.is_empty());
        assert!(segs[2].reads.is_empty());
        assert_eq!(segs[2].writes.runs(), [run(0, 16)]);
    }

    /// md's force chunk: three arrays back to back, read as interleaved
    /// ascending streams (x[i], y[i], z[i] for every i), are one run; the
    /// forces stored at three strided places are three.
    #[test]
    fn interleaved_ascending_streams_over_adjacent_arrays_are_one_run() {
        const N: usize = 64;
        let mem = arena();
        let pos = mem.alloc::<f64>(3 * N);
        let force = mem.alloc::<f64>(3 * N);
        let mut ctx = RecordContext::new(Arc::clone(&mem));
        for i in 0..N {
            for d in 0..3 {
                ctx.load(&pos, d * N + i).unwrap();
            }
        }
        for i in 8..12 {
            for d in 0..3 {
                ctx.store(&force, d * N + i, 1.0).unwrap();
            }
        }
        let rec = ctx.finish();
        let seg = segments(rec.root())[0];
        let word = |array: &GPtr<f64>, i: usize| array.addr_of(i) / WORD_BYTES;
        let whole = Run {
            start: word(&pos, 0),
            end: word(&pos, 3 * N - 1) + 1,
        };
        assert_eq!(seg.reads.runs(), [whole]);
        assert_eq!(seg.reads.len(), 3 * N as u64);
        let strided: Vec<Run> = (0..3)
            .map(|d| Run {
                start: word(&force, d * N + 8),
                end: word(&force, d * N + 12),
            })
            .collect();
        assert_eq!(seg.writes.runs(), strided);
        assert_eq!(seg.writes.len(), 12);
    }

    #[test]
    fn nested_forks_form_a_tree_in_sequential_order() {
        let mem = arena();
        let mut ctx = RecordContext::new(mem);
        let grandchild = task(|ctx: &mut RecordContext| ctx.work(1));
        let child = task(move |ctx: &mut RecordContext| {
            let h = ctx.fork(1, grandchild.clone())?;
            ctx.work(2)?;
            ctx.join(h)?;
            Ok(())
        });
        let h = ctx.fork(0, child).unwrap();
        ctx.work(4).unwrap();
        ctx.join(h).unwrap();
        let rec = ctx.finish();
        assert_eq!(rec.task_count(), 3);
        // Sequence numbers follow fork order.
        assert_eq!(rec.nodes[1].seq, 1);
        assert_eq!(rec.nodes[2].seq, 2);
        assert_eq!(rec.total_work(), 7);
    }

    /// The recorder does not override `fork_range`: what it records is the
    /// trait's default, the finest decomposition, and that default is the
    /// chain every loop workload used to write by hand — kept here, once,
    /// as the reference.  Same nodes, forks, sites, segments, footprints
    /// and joins, so no replayed cycle moves.
    #[test]
    fn default_fork_range_records_the_hand_written_chain() {
        const SITE: u32 = 12;
        fn body(ctx: &mut RecordContext, data: GPtr<u64>, i: usize) -> SpecResult<()> {
            let seen = ctx.load(&data, i)?;
            ctx.work(10 + i as u64)?;
            ctx.store(&data, i + 1, seen + 1)
        }
        fn chain(ctx: &mut RecordContext, data: GPtr<u64>, i: usize, n: usize) -> SpecResult<()> {
            if i + 1 < n {
                let rest = task(move |ctx: &mut RecordContext| chain(ctx, data, i + 1, n));
                let handle = ctx.fork(SITE, rest)?;
                body(ctx, data, i)?;
                ctx.join(handle)?;
            } else {
                body(ctx, data, i)?;
            }
            Ok(())
        }
        let record = |run: &dyn Fn(&mut RecordContext, GPtr<u64>) -> SpecResult<()>| {
            let mem = arena();
            let data = mem.alloc::<u64>(16);
            let mut ctx = RecordContext::new(mem);
            ctx.work(3).unwrap();
            run(&mut ctx, data).unwrap();
            ctx.work(4).unwrap();
            format!("{:#?}", ctx.finish().nodes)
        };
        for n in [1, 2, 9] {
            let by_hand = record(&|ctx, data| chain(ctx, data, 0, n));
            let ranged = record(&|ctx, data| {
                ctx.fork_range(SITE, 0..n, move |ctx: &mut RecordContext, i| {
                    body(ctx, data, i)
                })
            });
            assert_eq!(ranged, by_hand, "{n} iterations");
            assert_eq!(ranged.matches("Fork {").count(), n - 1);
        }
    }

    #[test]
    fn memory_density_distinguishes_workload_classes() {
        let mem = arena();
        let data = mem.alloc::<i64>(16);
        let mut compute = RecordContext::new(Arc::clone(&mem));
        compute.work(1000).unwrap();
        let compute_rec = compute.finish();

        let mut memy = RecordContext::new(Arc::clone(&mem));
        for i in 0..16 {
            let v = memy.load(&data, i).unwrap();
            memy.store(&data, i, v + 1).unwrap();
        }
        memy.work(16).unwrap();
        let mem_rec = memy.finish();

        assert!(compute_rec.memory_density() < mem_rec.memory_density());
    }

    #[test]
    fn segments_split_at_speculation_events() {
        let mem = arena();
        let mut ctx = RecordContext::new(mem);
        ctx.work(1).unwrap();
        let child = task(|ctx: &mut RecordContext| ctx.work(1));
        let h = ctx.fork(0, child).unwrap();
        ctx.work(2).unwrap();
        ctx.join(h).unwrap();
        ctx.work(3).unwrap();
        let rec = ctx.finish();
        let root = rec.root();
        // Seg(1), Fork, Seg(2), Join, Seg(3)
        assert_eq!(root.events.len(), 5);
        assert!(matches!(root.events[1], SimEvent::Fork { .. }));
        assert!(matches!(root.events[3], SimEvent::Join { .. }));
    }

    #[test]
    fn rank_and_speculative_reflect_nesting() {
        let mem = arena();
        let mut ctx = RecordContext::new(mem);
        assert!(!ctx.is_speculative());
        assert_eq!(ctx.rank(), 0);
        let child = task(|ctx: &mut RecordContext| {
            assert!(ctx.is_speculative());
            assert_eq!(ctx.rank(), 1);
            Ok(())
        });
        let h = ctx.fork(0, child).unwrap();
        ctx.join(h).unwrap();
        let _ = ctx.finish();
    }

    /// One step of a generated recorder script.
    #[derive(Debug)]
    enum Op {
        Load(usize),
        Store(usize, u64),
        Work(u64),
        CheckPoint,
        /// Fork `child` at `point`, run `between` in the forker, then join.
        Fork {
            point: u32,
            child: Arc<[Op]>,
            between: Vec<Op>,
        },
    }

    /// Words the scripts touch; the first `EARLY` are allocated before the
    /// recording starts, the rest after it, past the marks' first length,
    /// `SPREAD` words apart, so a segment's words are sometimes dense in
    /// their span and sometimes sparse.
    const WORDS: usize = 16;
    const EARLY: usize = 2;
    const SPREAD: usize = 16;

    /// Decode random codes into a script: a code 13 closes a fork's child
    /// or its forker's stretch, and forks nest at most three deep.
    fn decode(codes: &mut std::slice::Iter<u64>, depth: u32) -> Vec<Op> {
        let mut ops = Vec::new();
        while let Some(&code) = codes.next() {
            // Half the accesses go to four hot words, so one segment
            // often touches a word more than once.
            let word = (code >> 8) as usize % if code & 0x80 == 0 { 4 } else { WORDS };
            ops.push(match code % 16 {
                0..=4 => Op::Load(word),
                5..=8 => Op::Store(word, code >> 32),
                9 | 10 => Op::Work(1 + (code >> 60)),
                11 => Op::CheckPoint,
                12 if depth < 3 => Op::Fork {
                    point: depth,
                    child: decode(codes, depth + 1).into(),
                    between: decode(codes, depth + 1),
                },
                13 if depth > 0 => return ops,
                _ => Op::Load(word),
            });
        }
        ops
    }

    /// Run `ops` through the recorder; `grew` is set when a load or store
    /// grows the marks after an earlier access of the same segment.
    fn play(
        ctx: &mut RecordContext,
        ops: &[Op],
        addrs: &Arc<[Addr]>,
        grew: &Arc<AtomicBool>,
    ) -> SpecResult<()> {
        for op in ops {
            let marks = ctx.marks.len();
            match op {
                Op::Load(w) => drop(ctx.load_word(addrs[*w])?),
                Op::Store(w, value) => ctx.store_word(addrs[*w], *value)?,
                Op::Work(units) => ctx.work(*units)?,
                Op::CheckPoint => ctx.check_point()?,
                Op::Fork {
                    point,
                    child,
                    between,
                } => {
                    let (ops, at, flag) = (child.clone(), addrs.clone(), grew.clone());
                    let h = ctx.fork(
                        *point,
                        task(move |ctx: &mut RecordContext| play(ctx, &ops, &at, &flag)),
                    )?;
                    play(ctx, between, addrs, grew)?;
                    ctx.join(h)?;
                    continue;
                }
            }
            if ctx.marks.len() > marks && ctx.current.loads + ctx.current.stores > 1 {
                grew.store(true, std::sync::atomic::Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// The recorder's contract on sets: per segment, `reads` are the words
    /// loaded before any store to them, `writes` the words stored.
    struct Model {
        nodes: Vec<TaskNode>,
        /// Per node, per segment: the words read and the words written.
        sets: Vec<Vec<[BTreeSet<u64>; 2]>>,
        stack: Vec<NodeId>,
        work: u64,
        loads: u64,
        stores: u64,
        reads: BTreeSet<u64>,
        writes: BTreeSet<u64>,
        /// Per word of the open segment: 1 read, 2 then written, 3 then
        /// read again.
        order: BTreeMap<u64, u8>,
        /// Segments whose footprint holds each word.
        segments_with: BTreeMap<u64, usize>,
        read_written_read: bool,
    }

    impl Model {
        fn new() -> Self {
            Model {
                nodes: vec![TaskNode::default()],
                sets: vec![Vec::new()],
                stack: vec![0],
                work: 0,
                loads: 0,
                stores: 0,
                reads: BTreeSet::new(),
                writes: BTreeSet::new(),
                order: BTreeMap::new(),
                segments_with: BTreeMap::new(),
                read_written_read: false,
            }
        }

        fn push(&mut self, event: SimEvent) {
            let id = *self.stack.last().unwrap();
            self.nodes[id].events.push(event);
        }

        fn flush(&mut self) {
            if self.work == 0 && self.loads == 0 && self.stores == 0 {
                return;
            }
            for &a in self.reads.union(&self.writes) {
                *self.segments_with.entry(a).or_default() += 1;
            }
            self.order.clear();
            let runs = |set: &BTreeSet<u64>| set.iter().map(|&word| Run::one(word)).collect();
            let seg = Segment {
                work: std::mem::take(&mut self.work),
                loads: std::mem::take(&mut self.loads),
                stores: std::mem::take(&mut self.stores),
                reads: runs(&self.reads),
                writes: runs(&self.writes),
            };
            let sets = [
                std::mem::take(&mut self.reads),
                std::mem::take(&mut self.writes),
            ];
            self.sets[*self.stack.last().unwrap()].push(sets);
            self.push(SimEvent::Seg(seg));
        }

        fn play(&mut self, ops: &[Op], addrs: &[Addr]) {
            for op in ops {
                match op {
                    Op::Load(w) => {
                        let a = addrs[*w] / WORD_BYTES;
                        self.loads += 1;
                        if !self.writes.contains(&a) {
                            self.reads.insert(a);
                        }
                        let order = self.order.entry(a).or_default();
                        match *order {
                            0 => *order = 1,
                            2 => {
                                *order = 3;
                                self.read_written_read = true;
                            }
                            _ => {}
                        }
                    }
                    Op::Store(w, _) => {
                        let a = addrs[*w] / WORD_BYTES;
                        self.stores += 1;
                        self.writes.insert(a);
                        let order = self.order.entry(a).or_default();
                        if *order == 1 {
                            *order = 2;
                        }
                    }
                    Op::Work(units) => self.work += units,
                    Op::CheckPoint => self.flush(),
                    Op::Fork {
                        point,
                        child,
                        between,
                    } => {
                        self.flush();
                        let id = self.nodes.len();
                        self.nodes.push(TaskNode {
                            seq: id,
                            ..TaskNode::default()
                        });
                        self.sets.push(Vec::new());
                        self.push(SimEvent::Fork {
                            child: id,
                            model: ForkModel::Mixed,
                            point: *point,
                        });
                        self.play(between, addrs);
                        self.flush();
                        self.stack.push(id);
                        self.play(child, addrs);
                        self.flush();
                        self.stack.pop();
                        self.push(SimEvent::Join { child: id });
                    }
                }
            }
        }
    }

    /// Random scripts of loads, stores, work, check points and nested
    /// forks recorded against the set model above: every segment's
    /// footprints, expanded word by word, are the model's sets, their runs
    /// are maximal, and the counts and the whole node tree match.  The
    /// cases the generation-stamped marks must get right all occur: a word
    /// in three or more segments, a read → written → read word in one
    /// segment, the marks growing in the middle of a segment, and sets
    /// frozen both by a scan of the marks over a span with gaps and by a
    /// sort.
    #[test]
    fn footprints_match_a_set_model() {
        let scripts = collection::vec(any::<u64>(), 1..128);
        let mut gen = Gen::new(0x5E6_7E47);
        let (mut reused, mut read_written_read, mut grown) = (false, false, false);
        let (mut scanned, mut sorted) = (false, false);
        // At least 8 cases: the generator reaches all of them by then.
        for _ in 0..proptest::cases().max(8) {
            let codes = scripts.generate(&mut gen);
            let ops = decode(&mut codes.iter(), 0);
            let late_words = (WORDS - EARLY) * SPREAD;
            let mem = Arc::new(GlobalMemory::new((EARLY + late_words) as u64 * WORD_BYTES));
            let early = mem.alloc::<u64>(EARLY);
            let mut ctx = RecordContext::new(Arc::clone(&mem));
            assert_eq!(ctx.marks.len(), 1 + EARLY);
            let late = mem.alloc::<u64>(late_words);
            let addrs: Arc<[Addr]> = (0..EARLY)
                .map(|i| early.addr_of(i))
                .chain((0..WORDS - EARLY).map(|i| late.addr_of(i * SPREAD)))
                .collect();
            let grew = Arc::new(AtomicBool::new(false));
            play(&mut ctx, &ops, &addrs, &grew).unwrap();
            let rec = ctx.finish();
            let mut model = Model::new();
            model.play(&ops, &addrs);
            model.flush();

            assert_eq!(rec.nodes.len(), model.nodes.len());
            for (id, (got, want)) in rec.nodes.iter().zip(&model.sets).enumerate() {
                let got = segments(got);
                assert_eq!(got.len(), want.len(), "segments of node {id}");
                for (i, (g, [reads, writes])) in got.iter().zip(want).enumerate() {
                    for (footprint, set) in [(&g.reads, reads), (&g.writes, writes)] {
                        assert_maximal_runs(footprint);
                        let words: BTreeSet<u64> = footprint.iter().collect();
                        assert_eq!(&words, set, "node {id} segment {i}");
                        assert_eq!(footprint.len(), set.len() as u64);
                        if let (Some(lo), Some(hi)) = (set.first(), set.last()) {
                            let (span, listed) = (hi - lo + 1, set.len() as u64);
                            let dense = span <= SCAN_SPAN_PER_WORD * listed;
                            scanned |= dense && span > listed;
                            sorted |= !dense;
                        }
                    }
                }
            }
            assert_eq!(format!("{:#?}", rec.nodes), format!("{:#?}", model.nodes));

            reused |= model.segments_with.values().any(|&n| n >= 3);
            read_written_read |= model.read_written_read;
            grown |= grew.load(std::sync::atomic::Ordering::Relaxed);
        }
        assert!(reused, "no word was touched in three segments");
        assert!(read_written_read, "no read → written → read segment");
        assert!(grown, "the marks never grew mid-segment");
        assert!(scanned && sorted, "scanned {scanned}, sorted {sorted}");
    }
}
