//! Sets of ids as runs.
//!
//! Every set the simulator keeps of arena words (indices `addr / 8`) or of
//! commit-log range ids is a [`Runs`]: ascending, disjoint runs of
//! consecutive ids, no two of them adjacent, with the number of ids they
//! hold.  A segment that reads a whole array reads one run, so a footprint
//! costs what its shape costs, not what its size does; the word count
//! still prices what the native runtime pays per word.

/// The ids `start..end`, consecutive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// The first id.
    pub start: u64,
    /// One past the last id.
    pub end: u64,
}

impl Run {
    /// The run of the single id `id`.
    pub fn one(id: u64) -> Run {
        Run {
            start: id,
            end: id + 1,
        }
    }

    /// How many ids the run holds.
    pub fn len(self) -> u64 {
        self.end - self.start
    }

    /// Whether the run holds no id.
    pub fn is_empty(self) -> bool {
        self.end <= self.start
    }
}

/// A set of ids as ascending, disjoint, maximal runs (see the module
/// docs), with its size.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Runs {
    runs: Vec<Run>,
    len: u64,
}

impl Runs {
    /// The runs, ascending; no two overlap or touch.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// How many ids the set holds.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the set holds no id.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every id of the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs.iter().flat_map(|run| run.start..run.end)
    }

    /// Add `run`, which starts no earlier than the last run does: it is
    /// appended, or coalesced with the last run it overlaps or touches.
    pub(crate) fn push(&mut self, run: Run) {
        if run.is_empty() {
            return;
        }
        match self.runs.last_mut() {
            Some(last) if run.start <= last.end => {
                debug_assert!(run.start >= last.start, "runs pushed out of order");
                if run.end > last.end {
                    self.len += run.end - last.end;
                    last.end = run.end;
                }
            }
            _ => {
                self.len += run.len();
                self.runs.push(run);
            }
        }
    }

    /// Add every id of `other`.
    pub(crate) fn union(&mut self, other: &Runs) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            // A copy, into the capacity the set already has.
            self.runs.clone_from(&other.runs);
            self.len = other.len;
            return;
        }
        let old = std::mem::take(self);
        let (mut i, mut j) = (0, 0);
        while i < old.runs.len() || j < other.runs.len() {
            let theirs = i == old.runs.len()
                || (j < other.runs.len() && other.runs[j].start < old.runs[i].start);
            if theirs {
                self.push(other.runs[j]);
                j += 1;
            } else {
                self.push(old.runs[i]);
                i += 1;
            }
        }
    }

    /// The ids of the set that `other` lacks.
    pub(crate) fn minus(&self, other: &Runs) -> Runs {
        if other.is_empty() {
            return self.clone();
        }
        let mut out = Runs::default();
        let mut cut = other.runs.iter().peekable();
        for &run in &self.runs {
            let mut start = run.start;
            // Runs of `other` wholly before this one cut nothing from here on.
            while cut.next_if(|c| c.end <= start).is_some() {}
            while let Some(&&c) = cut.peek() {
                if c.start >= run.end {
                    break;
                }
                out.push(Run {
                    start,
                    end: c.start,
                });
                start = c.end;
                if c.end > run.end {
                    break;
                }
                cut.next();
            }
            out.push(Run {
                start,
                end: run.end,
            });
        }
        out
    }

    /// Whether the set holds any id of `run`.
    pub(crate) fn intersects(&self, run: Run) -> bool {
        let at = self.runs.partition_point(|r| r.end <= run.start);
        self.runs.get(at).is_some_and(|r| r.start < run.end)
    }

    /// The set of `id >> shift` over its ids: what a coarser grain sees.
    pub(crate) fn coarsen(&self, shift: u32) -> Runs {
        let mut out = Runs::default();
        for run in &self.runs {
            out.push(Run {
                start: run.start >> shift,
                end: ((run.end - 1) >> shift) + 1,
            });
        }
        out
    }
}

impl FromIterator<Run> for Runs {
    /// Collect runs given in ascending order of their starts; runs that
    /// overlap or touch are coalesced.
    fn from_iter<I: IntoIterator<Item = Run>>(runs: I) -> Self {
        let mut out = Runs::default();
        runs.into_iter().for_each(|run| out.push(run));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use proptest::collection;
    use proptest::prelude::*;
    use proptest::test_runner::Gen;

    fn of(ids: &BTreeSet<u64>) -> Runs {
        ids.iter().map(|&id| Run::one(id)).collect()
    }

    /// Ascending, disjoint, never adjacent, and `len` counts the ids.
    fn assert_canonical(runs: &Runs) {
        assert!(runs.runs.iter().all(|run| !run.is_empty()));
        assert!(runs.runs.windows(2).all(|w| w[0].end < w[1].start));
        assert_eq!(runs.len, runs.runs.iter().map(|run| run.len()).sum::<u64>());
    }

    #[test]
    fn pushes_coalesce_overlapping_and_touching_runs() {
        let runs: Runs = [(1, 3), (3, 5), (4, 6), (8, 9), (8, 8), (9, 10), (12, 13)]
            .into_iter()
            .map(|(start, end)| Run { start, end })
            .collect();
        assert_eq!(
            runs.runs,
            [
                Run { start: 1, end: 6 },
                Run { start: 8, end: 10 },
                Run::one(12)
            ]
        );
        assert_eq!(runs.len(), 8);
        assert_eq!(runs.iter().collect::<Vec<_>>(), [1, 2, 3, 4, 5, 8, 9, 12]);
    }

    #[test]
    fn coarsening_merges_runs_that_share_a_range() {
        let words: Runs = [
            Run { start: 3, end: 9 },
            Run::one(14),
            Run { start: 17, end: 33 },
        ]
        .into_iter()
        .collect();
        // Ranges of eight words: 0..2, 1, 2..5.
        assert_eq!(words.coarsen(3).runs, [Run { start: 0, end: 5 }]);
        assert_eq!(words.coarsen(0), words);
        assert_eq!(words.coarsen(4).iter().collect::<Vec<_>>(), [0, 1, 2]);
    }

    /// Union, difference, intersection and coarsening of random sets,
    /// against the same operations on `BTreeSet`s of the ids.
    #[test]
    fn set_operations_match_a_set_model() {
        // Runs of ids in a small window, so sets meet, touch and nest.
        let set = collection::vec((0u64..96, 1u64..9), 0..12).prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(start, len)| start..start + len)
                .collect::<BTreeSet<u64>>()
        });
        let mut gen = Gen::new(0x2B5);
        for _ in 0..proptest::cases().max(64) {
            let (a, b) = (set.generate(&mut gen), set.generate(&mut gen));
            let (ra, rb) = (of(&a), of(&b));
            assert_canonical(&ra);
            assert_eq!(ra.iter().collect::<BTreeSet<_>>(), a);

            // Each pair, and each side against the empty set: the
            // generator draws an empty set too seldom to rely on.
            let empty = (BTreeSet::new(), Runs::default());
            for ((a, ra), (b, rb)) in [
                ((&a, &ra), (&b, &rb)),
                ((&a, &ra), (&empty.0, &empty.1)),
                ((&empty.0, &empty.1), (&b, &rb)),
            ] {
                let mut union = ra.clone();
                union.union(rb);
                assert_canonical(&union);
                assert_eq!(union.iter().collect::<BTreeSet<_>>(), a | b);

                let minus = ra.minus(rb);
                assert_canonical(&minus);
                assert_eq!(minus.iter().collect::<BTreeSet<_>>(), a - b);
            }

            for start in 0..100 {
                for len in [1, 3, 10] {
                    let run = Run {
                        start,
                        end: start + len,
                    };
                    let want = (run.start..run.end).any(|id| a.contains(&id));
                    assert_eq!(ra.intersects(run), want, "{run:?} in {a:?}");
                }
            }

            for shift in [0, 1, 3] {
                let coarse = ra.coarsen(shift);
                assert_canonical(&coarse);
                let want: BTreeSet<u64> = a.iter().map(|id| id >> shift).collect();
                assert_eq!(coarse.iter().collect::<BTreeSet<_>>(), want);
            }
        }
    }
}
