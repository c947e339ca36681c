//! Block-local write logs for scattered outputs, and the once-per-launch
//! check that proves blocks wrote disjoint elements.
//!
//! Each block's [`crate::ScatterWriter`] folds the indices it writes into
//! affine runs `(start, stride, count)`, keeping two runs open so that two
//! interleaved streams, ascending or descending, each stay one run. The
//! log is plain `Cell` state owned by one block: no atomics, no sharing,
//! and no per-element allocation. After the grid has run, [`find_race`] checks
//! the logged runs of all blocks once per scattered output:
//!
//! * when every multi-element run shares one stride `s`, each run is an
//!   interval of positions `start / s ..= last / s` inside residue class
//!   `start mod s`. The runs are sorted by `(class, first position)` and
//!   each class is swept once for an interval that starts inside an
//!   earlier interval of a *different* block;
//! * otherwise a sequential, non-atomic owner map is filled run by run.
//!
//! A block that rewrites its own element is not a race. The verdict is a
//! pure function of the writes: the smallest element written by two
//! blocks, reported with the two lowest block ids that wrote it.

use crate::sanitizer::InitMask;
use std::cell::{Cell, RefCell};

/// The `count` elements `start, start + stride, …` written by one block,
/// in any order. A single element has `stride == 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Run {
    pub(crate) start: usize,
    pub(crate) stride: usize,
    pub(crate) count: usize,
}

impl Run {
    fn last(self) -> usize {
        self.start + (self.count - 1) * self.stride
    }

    fn contains(self, i: usize) -> bool {
        i >= self.start && i <= self.last() && (i - self.start).is_multiple_of(self.stride)
    }

    fn elements(self) -> impl Iterator<Item = usize> {
        (0..self.count).map(move |k| self.start + k * self.stride)
    }
}

/// How many runs a block's log keeps open at once. Two cover every
/// scatter in the workspace: one strided chain per writer in the solver
/// kernels, and the two interleaved streams of a partition (`lo` up and
/// `hi` down, or two ascending cursors).
const LANES: usize = 2;

/// One block's writes to one scattered output: the open runs plus the
/// runs already closed.
#[derive(Debug, Default)]
pub(crate) struct WriteLog {
    lanes: [Cell<Run>; LANES],
    /// The lane written last.
    last: Cell<usize>,
    closed: RefCell<Vec<Run>>,
}

impl WriteLog {
    /// Log a write of element `idx`.
    #[inline]
    pub(crate) fn record(&self, idx: usize) {
        // The hot path: the next element, at either end, of an open run,
        // the last-written one first.
        let last = self.last.get();
        for i in [last, (last + 1) % LANES] {
            let open = self.lanes[i].get();
            if open.count < 2 {
                continue;
            }
            let start = if idx == open.start + open.count * open.stride {
                open.start
            } else if idx + open.stride == open.start {
                idx
            } else {
                continue;
            };
            self.lanes[i].set(Run {
                start,
                count: open.count + 1,
                ..open
            });
            self.last.set(i);
            return;
        }
        self.record_run(idx, 0, 1);
    }

    /// Log writes of `count` elements `start, start + stride, …`.
    pub(crate) fn record_run(&self, start: usize, stride: usize, count: usize) {
        if count == 0 {
            return;
        }
        // A zero stride rewrites one element.
        let run = if count == 1 || stride == 0 {
            Run {
                start,
                stride: 0,
                count: 1,
            }
        } else {
            Run {
                start,
                stride,
                count,
            }
        };
        let lanes = self.lanes.each_ref().map(Cell::get);
        // Extend an open run, at either end, or fill an empty lane.
        let fit = (0..LANES)
            .find_map(|i| union(lanes[i], run, false).map(|u| (i, u)))
            .or_else(|| (0..LANES).find(|&i| lanes[i].count == 0).map(|i| (i, run)));
        let (i, merged) = match fit {
            Some(fit) => fit,
            None => match (0..LANES)
                .filter(|&i| run.count == 1 && lanes[i].count == 1)
                .min_by_key(|&i| lanes[i].start.abs_diff(run.start))
            {
                // Pair two single elements, the nearest first.
                Some(i) => {
                    let pair = union(lanes[i], run, true).expect("two elements pair");
                    // The pair may continue the other lane's run.
                    let other = (i + 1) % LANES;
                    if let Some(u) = union(lanes[other], pair, false) {
                        self.lanes[other].set(Run::default());
                        (i, u)
                    } else {
                        (i, pair)
                    }
                }
                // Close the run written longest ago.
                None => {
                    let i = (self.last.get() + 1) % LANES;
                    self.closed.borrow_mut().push(lanes[i]);
                    (i, run)
                }
            },
        };
        self.lanes[i].set(merged);
        self.last.set(i);
    }

    /// Move the logged runs onto `out`, each tagged with `block`, and
    /// leave the log empty.
    pub(crate) fn drain_into(&mut self, block: u32, out: &mut Vec<(u32, Run)>) {
        out.extend(self.closed.get_mut().drain(..).map(|r| (block, r)));
        for lane in &mut self.lanes {
            let run = std::mem::take(lane.get_mut());
            if run.count > 0 {
                out.push((block, run));
            }
        }
    }
}

/// `a ∪ b` when it is one affine run (`a` may be empty). Two different
/// single elements pair up only when `pair` is set.
fn union(a: Run, b: Run, pair: bool) -> Option<Run> {
    if a.count == 0 {
        return None;
    }
    // A rewrite of an element the run already holds.
    if b.count == 1 && a.contains(b.start) {
        return Some(a);
    }
    if a.count == 1 && b.contains(a.start) {
        return Some(b);
    }
    let stride = match (a.count > 1, b.count > 1) {
        (true, true) if a.stride == b.stride => a.stride,
        (true, false) => a.stride,
        (false, true) => b.stride,
        (false, false) if pair => a.start.abs_diff(b.start),
        _ => return None,
    };
    let (lo, hi) = if a.start < b.start { (a, b) } else { (b, a) };
    (lo.start + lo.count * stride == hi.start).then_some(Run {
        start: lo.start,
        stride,
        count: lo.count + hi.count,
    })
}

const UNOWNED: u32 = u32::MAX;

/// The first cross-block overlap among `runs` — `(block, run)` pairs of
/// one scattered output of length `len` — as `(index, first_block,
/// second_block)`: the smallest element two blocks wrote, and the two
/// lowest block ids that wrote it. `None` when the blocks' write sets are
/// disjoint.
pub(crate) fn find_race(len: usize, runs: &[(u32, Run)]) -> Option<(usize, u32, u32)> {
    let index = match common_stride(runs) {
        Some(stride) => sweep(stride, runs),
        None => owner_map(len, runs),
    }?;
    let mut writers = runs
        .iter()
        .filter(|(_, r)| r.contains(index))
        .map(|&(b, _)| b);
    let mut first = writers.next().expect("a raced element has writers");
    let mut second = UNOWNED;
    for b in writers {
        if b < first {
            second = first;
            first = b;
        } else if b != first && b < second {
            second = b;
        }
    }
    Some((index, first, second))
}

/// The stride every multi-element run shares (`1` when there are none),
/// or `None` when two runs disagree.
fn common_stride(runs: &[(u32, Run)]) -> Option<usize> {
    let mut strides = runs
        .iter()
        .filter(|(_, r)| r.count > 1)
        .map(|(_, r)| r.stride);
    let first = strides.next().unwrap_or(1);
    strides.all(|s| s == first).then_some(first)
}

/// Smallest element covered by runs of two different blocks, when every
/// multi-element run has stride `stride`.
fn sweep(stride: usize, runs: &[(u32, Run)]) -> Option<usize> {
    // (residue class, first position, last position, block).
    let mut intervals: Vec<(usize, usize, usize, u32)> = runs
        .iter()
        .map(|&(b, r)| (r.start % stride, r.start / stride, r.last() / stride, b))
        .collect();
    intervals.sort_unstable();
    let mut raced: Option<usize> = None;
    let mut class = usize::MAX;
    let mut class_done = false;
    // Furthest reach (last position + 1) of the class's intervals so far,
    // and the block that holds it. Until a race is found, different
    // blocks' intervals are disjoint, so every other block's interval ends
    // before the holder's begins: an interval races iff another block
    // holds the reach past its first position.
    let (mut reach, mut holder) = (0usize, UNOWNED);
    for (res, lo, hi, b) in intervals {
        if res != class {
            (class, class_done) = (res, false);
            (reach, holder) = (0, UNOWNED);
        }
        if class_done {
            continue;
        }
        if b != holder && reach > lo {
            // Intervals arrive by first position, so this one's first
            // element is the class's smallest raced element.
            let index = res + lo * stride;
            raced = Some(raced.map_or(index, |r| r.min(index)));
            class_done = true;
            continue;
        }
        reach = if b == holder {
            reach.max(hi + 1)
        } else {
            hi + 1
        };
        holder = b;
    }
    raced
}

/// Smallest element covered by runs of two different blocks, from a
/// sequential per-element owner map.
fn owner_map(len: usize, runs: &[(u32, Run)]) -> Option<usize> {
    let mut owner = vec![UNOWNED; len];
    let mut raced: Option<usize> = None;
    for &(b, run) in runs {
        for i in run.elements() {
            if owner[i] == UNOWNED {
                owner[i] = b;
            } else if owner[i] != b {
                raced = Some(raced.map_or(i, |r| r.min(i)));
            }
        }
    }
    raced
}

/// Initcheck shadow of one scattered output: the elements `runs` wrote.
pub(crate) fn written_mask(len: usize, runs: &[(u32, Run)]) -> InitMask {
    let mut mask = InitMask::new_uninit(len);
    for &(_, run) in runs {
        if run.stride == 1 {
            mask.set_range(run.start, run.start + run.count);
        } else {
            for i in run.elements() {
                mask.set(i);
            }
        }
    }
    mask
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One block's writes: single elements or strided bulk stores.
    #[derive(Debug, Clone, Copy)]
    enum Write {
        At(usize),
        Strided {
            start: usize,
            stride: usize,
            count: usize,
        },
    }

    /// The runs one log holds.
    pub(crate) fn runs(mut log: WriteLog) -> Vec<Run> {
        let mut out = Vec::new();
        log.drain_into(0, &mut out);
        out.into_iter().map(|(_, r)| r).collect()
    }

    /// Fold each block's writes through a `WriteLog`, in block order.
    fn logged(blocks: &[Vec<Write>]) -> Vec<(u32, Run)> {
        let mut runs = Vec::new();
        for (b, writes) in blocks.iter().enumerate() {
            let mut log = WriteLog::default();
            for w in writes {
                match *w {
                    Write::At(i) => log.record(i),
                    Write::Strided {
                        start,
                        stride,
                        count,
                    } => log.record_run(start, stride, count),
                }
            }
            log.drain_into(b as u32, &mut runs);
        }
        runs
    }

    /// The brute-force verdict and mask: every block's element set, then
    /// the smallest element two blocks share and its two lowest writers.
    fn oracle(len: usize, blocks: &[Vec<Write>]) -> (Option<(usize, u32, u32)>, Vec<bool>) {
        let mut writers: Vec<Vec<u32>> = vec![Vec::new(); len];
        for (b, writes) in blocks.iter().enumerate() {
            for w in writes {
                let elems: Vec<usize> = match *w {
                    Write::At(i) => vec![i],
                    Write::Strided {
                        start,
                        stride,
                        count,
                    } => (0..count).map(|k| start + k * stride).collect(),
                };
                for i in elems {
                    if !writers[i].contains(&(b as u32)) {
                        writers[i].push(b as u32);
                    }
                }
            }
        }
        let race = writers.iter().enumerate().find_map(|(i, w)| {
            let mut w = w.clone();
            w.sort_unstable();
            (w.len() > 1).then(|| (i, w[0], w[1]))
        });
        (race, writers.iter().map(|w| !w.is_empty()).collect())
    }

    fn check(len: usize, blocks: &[Vec<Write>]) {
        let runs = logged(blocks);
        let (race, mask) = oracle(len, blocks);
        assert_eq!(find_race(len, &runs), race, "{blocks:?}");
        let got = written_mask(len, &runs);
        for (i, &w) in mask.iter().enumerate() {
            assert_eq!(got.get(i), w, "mask element {i} of {blocks:?}");
        }
    }

    /// SplitMix64: a dependency-free, seedable case generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A random launch over a `len`-element output. With `one_stride`
    /// every multi-element write uses one stride (mostly the sweep path:
    /// the log may still pair stray single writes at another stride);
    /// otherwise strides mix (mostly the owner-map path).
    fn random_launch(rng: &mut Rng, len: usize, one_stride: bool) -> Vec<Vec<Write>> {
        let shared = 1 + rng.below(8);
        let blocks = 1 + rng.below(6);
        (0..blocks)
            .map(|_| {
                let mut writes = Vec::new();
                for _ in 0..rng.below(6) {
                    let stride = if one_stride { shared } else { 1 + rng.below(8) };
                    let start = rng.below(len);
                    let room = (len - 1 - start) / stride + 1;
                    let count = 1 + rng.below(room.min(12));
                    match rng.below(6) {
                        // Bulk store.
                        0 => writes.push(Write::Strided {
                            start,
                            stride,
                            count,
                        }),
                        // Per-element ascending chain, folded by the log.
                        1 => writes.extend((0..count).map(|k| Write::At(start + k * stride))),
                        // Descending indices.
                        2 => writes.extend((0..count).rev().map(|k| Write::At(start + k * stride))),
                        // The block rewrites its own elements.
                        3 => {
                            let elems = (0..count).map(|k| Write::At(start + k * stride));
                            writes.extend(elems.clone().chain(elems));
                        }
                        // Two streams, one up from `start` and one down
                        // from a second start, randomly interleaved.
                        4 => {
                            let top = rng.below(len);
                            let downs = 1 + rng.below((top / stride + 1).min(12));
                            let (mut up, mut down) = (0, 0);
                            while up < count || down < downs {
                                if down == downs || (up < count && rng.below(2) == 0) {
                                    writes.push(Write::At(start + up * stride));
                                    up += 1;
                                } else {
                                    writes.push(Write::At(top - down * stride));
                                    down += 1;
                                }
                            }
                        }
                        // A single write.
                        _ => writes.push(Write::At(start)),
                    }
                }
                writes
            })
            .collect()
    }

    #[test]
    fn log_check_matches_the_owner_map_oracle() {
        let mut rng = Rng(0x5EED);
        let (mut swept, mut mapped, mut races) = (0, 0, 0);
        for case in 0..4000 {
            let len = 1 + rng.below(96);
            let blocks = random_launch(&mut rng, len, case % 3 != 0);
            match common_stride(&logged(&blocks)) {
                Some(_) => swept += 1,
                None => mapped += 1,
            }
            races += usize::from(oracle(len, &blocks).0.is_some());
            check(len, &blocks);
        }
        // Both paths and both verdicts are exercised.
        assert!(
            swept > 1000 && mapped > 1000,
            "{swept} swept, {mapped} mapped"
        );
        assert!(races > 500 && races < 3500, "{races} racy cases");
    }

    #[test]
    fn adjacent_and_overlapping_runs_across_blocks() {
        let run = |start, stride, count| Write::Strided {
            start,
            stride,
            count,
        };
        // Adjacent, not overlapping.
        check(32, &[vec![run(0, 1, 8)], vec![run(8, 1, 8)]]);
        // Overlapping by one element at either end.
        check(32, &[vec![run(0, 1, 9)], vec![run(8, 1, 8)]]);
        check(32, &[vec![run(8, 1, 8)], vec![run(0, 1, 9)]]);
        // One interval nested inside another block's.
        check(32, &[vec![run(0, 2, 16)], vec![run(10, 2, 2)]]);
        // A long interval from block 0 overlaps block 2 past block 1's.
        check(
            64,
            &[
                vec![run(0, 1, 40)],
                vec![run(10, 1, 2)],
                vec![run(30, 1, 2)],
            ],
        );
        // Same-block overlaps are rewrites, not races.
        check(32, &[vec![run(0, 1, 8), run(4, 1, 8)], vec![run(12, 1, 4)]]);
    }

    #[test]
    fn interleaved_partition_streams_fold_into_two_runs() {
        // A partition writes `lo` upwards and `hi` downwards (or two
        // ascending cursors) in data order: each stream stays one run.
        let mut rng = Rng(7);
        for descending in [true, false] {
            let log = WriteLog::default();
            let (mut lo, mut hi) = (100, 1000);
            for _ in 0..500 {
                if rng.below(2) == 0 {
                    log.record(lo);
                    lo += 1;
                } else if descending {
                    hi -= 1;
                    log.record(hi);
                } else {
                    log.record(hi);
                    hi += 1;
                }
            }
            assert_eq!(runs(log).len(), 2, "descending: {descending}");
        }
    }

    #[test]
    fn folding_keeps_affine_runs_whole() {
        let log = WriteLog::default();
        for j in 0..100 {
            log.record(3 + 64 * j);
        }
        log.record_run(3 + 64 * 100, 64, 28);
        log.record(3 + 64 * 127); // rewrite of the last element
        assert_eq!(
            runs(log),
            vec![Run {
                start: 3,
                stride: 64,
                count: 128
            }]
        );
    }
}
