//! The one block-range fold every sweep shares. A [`LevelKernel`] scores
//! an aligned block into per-level lane masks; a [`Partial`] folds a range
//! of 64-genome blocks into exact per-level counts plus the lowest `cap`
//! genomes at the highest level reached at or above a **floor** level,
//! and partials of ascending adjacent ranges [`Partial::merge`] in order,
//! so every split into chunks and shards folds to the same partial. The
//! landscape sweep, its checkpoints and the server oracle use floor = the
//! maximum level (the max set); the registry's subspace sweeps use floor
//! 0 and cap 1 (the first genome at the best level).

use crate::kernel::{score_masks_w, BlockKernelW, BLOCK_GENOMES};
use leonardo_rtl::bitslice::Plane;

/// A batch kernel the sweep driver can run.
pub trait LevelKernel {
    /// The plane width: genomes per block.
    type Plane: Plane;

    /// Set lane `l` of `masks[v]` iff genome `P::LANES·block + l` scores
    /// exactly `v`, for every `v < masks.len()`.
    fn level_masks(&mut self, block: u64, masks: &mut [Self::Plane]);
}

impl<P: Plane> LevelKernel for BlockKernelW<P> {
    type Plane = P;

    fn level_masks(&mut self, block: u64, masks: &mut [P]) {
        let all = score_masks_w(&self.score_block(block));
        for (m, a) in masks.iter_mut().zip(all) {
            *m = a;
        }
    }
}

/// Exact per-level counts of a block range plus its canonical sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partial {
    /// `hist[v]` = genomes in the range scoring exactly `v`.
    pub hist: Vec<u64>,
    /// The lowest `cap` genomes at level [`Partial::top`], ascending.
    pub samples: Vec<u64>,
    floor: usize,
    cap: usize,
}

impl Partial {
    /// An empty partial over `levels` fitness levels.
    pub fn new(levels: usize, floor: usize, cap: usize) -> Partial {
        debug_assert!(floor < levels, "floor level outside the histogram");
        Partial {
            hist: vec![0; levels],
            samples: Vec::new(),
            floor,
            cap,
        }
    }

    /// The highest level at or above the floor that some genome reached.
    pub fn top(&self) -> Option<usize> {
        (self.floor..self.hist.len())
            .rev()
            .find(|&v| self.hist[v] > 0)
    }

    /// Genomes at [`Partial::top`] (0 when no genome reached the floor).
    pub fn top_count(&self) -> u64 {
        self.top().map_or(0, |v| self.hist[v])
    }

    /// Fold 64-genome blocks `start..end` through `kernel`. A kernel wider
    /// than 64 lanes scores the aligned blocks covering the range, and
    /// only the lanes inside the range count.
    pub fn scan<K: LevelKernel>(&mut self, kernel: &mut K, start: u64, end: u64) {
        let lanes = K::Plane::LANES as u64;
        let (first, last) = (start * BLOCK_GENOMES, end * BLOCK_GENOMES);
        let mut masks = vec![K::Plane::ZERO; self.hist.len()];
        let mut base = first - first % lanes;
        while base < last {
            kernel.level_masks(base / lanes, &mut masks);
            let (lo, hi) = (first.saturating_sub(base), (last - base).min(lanes));
            if lo > 0 || hi < lanes {
                let inside = K::Plane::low_mask(hi as usize) & !K::Plane::low_mask(lo as usize);
                masks.iter_mut().for_each(|m| *m &= inside);
            }
            for (slot, m) in self.hist.iter_mut().zip(&masks) {
                *slot += u64::from(m.count_ones());
            }
            if let Some(top) = self.top().filter(|&v| !masks[v].is_zero()) {
                let here = masks[top];
                if self.hist[top] == u64::from(here.count_ones()) {
                    // first block to reach `top`: older samples sit lower
                    self.samples.clear();
                }
                let (cap, samples) = (self.cap, &mut self.samples);
                if samples.len() < cap {
                    here.for_each_set_lane(|l| {
                        if samples.len() < cap {
                            samples.push(base + l as u64);
                        }
                    });
                }
            }
            base += lanes;
        }
    }

    /// Fold in the partial of a later, adjacent range: counts add, and the
    /// samples keep the canonical low prefix at the combined top level.
    pub fn merge(&mut self, later: &Partial) {
        let before = self.top();
        for (slot, &c) in self.hist.iter_mut().zip(&later.hist) {
            *slot += c;
        }
        let top = self.top();
        if top.is_none() || later.top() != top {
            return;
        }
        if before != top {
            self.samples.clear();
        }
        let room = self.cap.saturating_sub(self.samples.len());
        self.samples
            .extend(later.samples.iter().take(room).copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::BlockKernel;
    use discipulus::fitness::FitnessSpec;

    /// Scalar reference: counts and the lowest `cap` genomes at the top
    /// level at or above `floor`, for genomes `first..last`.
    fn scalar(first: u64, last: u64, floor: usize, cap: usize) -> (Vec<u64>, Vec<u64>) {
        let spec = FitnessSpec::paper();
        let mut hist = vec![0u64; spec.max_fitness() as usize + 1];
        let scores: Vec<(u64, usize)> = (first..last)
            .map(|g| {
                let f = spec.evaluate(discipulus::genome::Genome::from_bits(g)) as usize;
                hist[f] += 1;
                (g, f)
            })
            .collect();
        let top = (floor..hist.len()).rev().find(|&v| hist[v] > 0);
        let samples = scores
            .iter()
            .filter(|&&(_, f)| Some(f) == top)
            .map(|&(g, _)| g)
            .take(cap)
            .collect();
        (hist, samples)
    }

    #[test]
    fn scan_matches_scalar_for_both_sample_rules() {
        let levels = FitnessSpec::paper().max_fitness() as usize + 1;
        // 200 blocks around a maximal genome
        let max = discipulus::fitness::max_fitness_genomes().next().unwrap();
        let start = max.bits() / 64 - 97;
        for (floor, cap) in [(levels - 1, 5), (0, 1)] {
            let mut p = Partial::new(levels, floor, cap);
            p.scan(
                &mut BlockKernel::new(FitnessSpec::paper()),
                start,
                start + 200,
            );
            let (hist, samples) = scalar(start * 64, (start + 200) * 64, floor, cap);
            assert_eq!(p.top(), Some(levels - 1), "floor {floor}");
            assert_eq!(p.hist, hist, "floor {floor}");
            assert_eq!(p.samples, samples, "floor {floor}");
        }
    }
}
