//! Host-speed probe.
//!
//! On a shared host the same work can take up to twice as long from one
//! minute to the next, in wall time and in CPU time alike, while a
//! latency-bound dependency chain keeps its speed: a neighbour on the
//! other hardware thread of the core takes execution resources the guest
//! cannot see. A fixed throughput-bound integer loop that is not part of
//! the program, run between the workload's passes on the same threads,
//! measures how much of the core the passes were getting. Each pass is
//! rescaled to the reference host's speed by the probes just before and
//! just after it. A change to the program moves the passes and not the
//! probe; a change in the host's speed moves both.
//!
//! Code slows less than the probe when part of its time does not depend
//! on the core's throughput (memory, system calls, waiting): the passes
//! take about `slowdown^SENSITIVITY` times as long when the probe takes
//! `slowdown` times as long.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Chunks of the loop one probe runs, claimed from a shared counter by
/// every worker, as the engines claim their work.
const CHUNKS: usize = 256;
/// Rounds of the loop in one chunk: about half a millisecond.
const ROUNDS: u64 = 8192;
/// Seconds one chunk takes per worker on the reference host (the 2-vCPU
/// VM of the README's baseline) when nothing contends with it: the
/// fastest of about 1 000 probes taken there over an hour.
pub const REFERENCE_CHUNK_S: f64 = 0.000_54;
/// How pass times follow the probe: fitted on the 2-vCPU host over runs
/// whose probes read from 1 to 2.9 times [`REFERENCE_CHUNK_S`], where it
/// gave 0.7 (`ga_converge`), 0.6–0.85 (`landscape_sweep`) and 0.75–1
/// (`server_mixed`); one value serves all three.
pub const SENSITIVITY: f64 = 0.75;

/// `seconds` measured while the probes read `slowdown`, at the reference
/// host's speed.
pub fn rescale(seconds: f64, slowdown: f64) -> f64 {
    seconds / slowdown.powf(SENSITIVITY)
}

/// The probes of one run: seconds per chunk per worker, one per probe.
#[derive(Default)]
pub struct HostSpeed(Vec<f64>);

impl HostSpeed {
    /// Run one probe on `threads` workers.
    pub fn probe(&mut self, threads: usize) {
        let threads = threads.max(1);
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut acc = 0u64;
                    while next.fetch_add(1, Ordering::Relaxed) < CHUNKS {
                        acc ^= chunk(std::hint::black_box(acc));
                    }
                    std::hint::black_box(acc);
                });
            }
        });
        let elapsed = start.elapsed().as_secs_f64();
        self.0.push(elapsed * threads as f64 / CHUNKS as f64);
    }

    /// How many times slower than the reference host probes `range` ran:
    /// their mean over [`REFERENCE_CHUNK_S`]; 1 for none.
    pub fn slowdown(&self, range: std::ops::Range<usize>) -> f64 {
        let probes = self.0.get(range).unwrap_or(&[]);
        if probes.is_empty() {
            return 1.0;
        }
        probes.iter().sum::<f64>() / probes.len() as f64 / REFERENCE_CHUNK_S
    }

    /// The slowdown around each of `passes` passes that ran one after
    /// another with a probe before each and after the last, as
    /// [`crate::repeat_for`] runs them.
    pub fn around_passes(&self, passes: usize) -> Vec<f64> {
        (0..passes).map(|i| self.slowdown(i..i + 2)).collect()
    }

    pub fn probes(&self) -> &[f64] {
        &self.0
    }
}

/// One chunk: shifts, rotates and logic over 64 words in L1, with enough
/// independent work per round to keep the core's integer units busy, like
/// the bit-sliced kernels' inner loops.
fn chunk(seed: u64) -> u64 {
    let mut state = [0u64; 64];
    for (i, word) in state.iter_mut().enumerate() {
        *word = (seed ^ i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    for round in 0..ROUNDS {
        for i in 0..64 {
            let x = state[i] ^ state[(i + 7) & 63].rotate_left(13) ^ round;
            state[i] = x ^ (x >> 7) ^ (state[(i + 1) & 63] & !state[(i + 3) & 63]);
        }
    }
    state.iter().fold(0, |a, &w| a ^ w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_deterministic_and_seeded() {
        assert_eq!(chunk(5), chunk(5));
        assert_ne!(chunk(5), chunk(6));
    }

    #[test]
    fn slowdown_averages_the_probes() {
        let mut speed = HostSpeed::default();
        assert_eq!(speed.slowdown(0..2), 1.0);
        speed.probe(2);
        speed.probe(1);
        assert_eq!(speed.probes().len(), 2);
        assert!(speed.slowdown(0..2) > 0.0);
        let p = speed.probes().to_vec();
        let mean = (p[0] + p[1]) / 2.0 / REFERENCE_CHUNK_S;
        assert!((speed.slowdown(0..2) - mean).abs() < 1e-12);
        assert_eq!(speed.around_passes(1), vec![speed.slowdown(0..2)]);
        // a range past the probes taken reads as the reference speed
        assert_eq!(speed.slowdown(5..7), 1.0);
    }

    #[test]
    fn rescaling_undoes_the_fitted_slowdown() {
        assert_eq!(rescale(3.0, 1.0), 3.0);
        let slow = 2.0f64.powf(SENSITIVITY);
        assert!((rescale(3.0 * slow, 2.0) - 3.0).abs() < 1e-12);
    }
}
