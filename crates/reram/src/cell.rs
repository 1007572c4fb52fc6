//! The multi-level ReRAM cell.

use crate::fault::{noisy_landing, VerifyPolicy};
use rand::Rng;

/// Outcome of one cell-level program-and-verify loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellWrite {
    /// Programming pulses issued across all attempts.
    pub pulses: u32,
    /// Attempts consumed (1 for a clean first-shot write).
    pub attempts: u32,
    /// Whether the final verify read matched the target level.
    pub verified: bool,
}

/// One metal-oxide ReRAM cell storing `bits` bits as one of `2^bits`
/// discrete conductance levels.
///
/// The paper's default resolution is 4 bits per cell (Sec. 5.1) — the value
/// PRIME-era devices demonstrated — with higher weight resolutions built
/// from multiple cells (see [`array_group`](crate::array_group)).
///
/// # Example
///
/// ```
/// use pipelayer_reram::ReramCell;
///
/// let mut cell = ReramCell::new(4);
/// let pulses = cell.program(9);
/// assert_eq!(cell.level(), 9);
/// assert_eq!(pulses, 9); // tuned up from level 0
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReramCell {
    level: u8,
    bits: u8,
}

impl ReramCell {
    /// A fresh cell at level 0 (high-resistance state).
    ///
    /// `bits` outside `1..=8` is debug-checked; in release it clamps to
    /// that range rather than panicking.
    pub fn new(bits: u8) -> Self {
        debug_assert!(
            (1..=8).contains(&bits),
            "cell resolution must be 1..=8 bits"
        );
        ReramCell {
            level: 0,
            bits: bits.clamp(1, 8),
        }
    }

    /// Cell resolution in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Current conductance level, `0 ..= 2^bits - 1`.
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Maximum representable level.
    pub fn max_level(&self) -> u8 {
        ((1u16 << self.bits) - 1) as u8
    }

    /// Programs the cell to `level`, returning the number of tuning pulses
    /// (write spikes) the spike driver issues — modelled as the level
    /// distance, since each pulse nudges the conductance one state.
    ///
    /// An over-range `level` is debug-checked; in release the write
    /// saturates at the cell's top level.
    pub fn program(&mut self, level: u8) -> u32 {
        debug_assert!(
            level <= self.max_level(),
            "level {level} exceeds {}-bit cell",
            self.bits
        );
        let level = level.min(self.max_level());
        let pulses = (self.level as i32 - level as i32).unsigned_abs();
        self.level = level;
        pulses
    }

    /// Normalised conductance in `[0, 1]`: `level / max_level`.
    pub fn conductance(&self) -> f32 {
        self.level as f32 / self.max_level() as f32
    }

    /// Programs the cell to `level` with the program-and-verify loop: each
    /// attempt issues tuning pulses (landing within `policy.write_sigma`
    /// levels of the target), then a verify read checks the result; misses
    /// retry until `policy.max_attempts` is exhausted.
    ///
    /// This models a *healthy* cell — stuck-at behaviour lives in the
    /// crossbar's [`FaultMap`](crate::fault::FaultMap), which intercepts
    /// the write before it reaches the cell.
    ///
    /// An over-range `level` is debug-checked; in release the write
    /// saturates at the cell's top level.
    pub fn program_verify(
        &mut self,
        level: u8,
        policy: &VerifyPolicy,
        rng: &mut impl Rng,
    ) -> CellWrite {
        debug_assert!(
            level <= self.max_level(),
            "level {level} exceeds {}-bit cell",
            self.bits
        );
        let level = level.min(self.max_level());
        let mut pulses = 0u32;
        let mut attempts = 0u32;
        while attempts < policy.max_attempts {
            attempts += 1;
            let landed = noisy_landing(level, self.max_level(), policy.write_sigma, rng);
            pulses += (self.level as i32 - landed as i32).unsigned_abs();
            self.level = landed;
            if self.level == level {
                break;
            }
        }
        CellWrite {
            pulses,
            attempts,
            verified: self.level == level,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_cell_is_hrs() {
        let c = ReramCell::new(4);
        assert_eq!(c.level(), 0);
        assert_eq!(c.conductance(), 0.0);
        assert_eq!(c.max_level(), 15);
    }

    #[test]
    fn program_counts_pulses_by_distance() {
        let mut c = ReramCell::new(4);
        assert_eq!(c.program(15), 15);
        assert_eq!(c.program(10), 5);
        assert_eq!(c.program(10), 0);
    }

    #[test]
    fn conductance_scales_linearly() {
        let mut c = ReramCell::new(2);
        c.program(3);
        assert_eq!(c.conductance(), 1.0);
        c.program(1);
        assert!((c.conductance() - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceeds")]
    fn rejects_overrange_level() {
        ReramCell::new(4).program(16);
    }

    /// Release twin of `rejects_overrange_level`: an over-range write
    /// saturates at the cell's top level, on both program paths.
    #[test]
    #[cfg(not(debug_assertions))]
    fn overrange_level_saturates_in_release() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut c = ReramCell::new(4);
        assert_eq!(c.program(16), 15);
        assert_eq!(c.level(), 15);
        assert_eq!(c.program(255), 0);
        let mut c = ReramCell::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        let w = c.program_verify(200, &VerifyPolicy::default(), &mut rng);
        assert!(w.verified);
        assert_eq!((w.pulses, c.level()), (15, 15));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "resolution")]
    fn rejects_zero_bits() {
        ReramCell::new(0);
    }

    /// Release twin of `rejects_zero_bits`: the resolution clamps to
    /// `1..=8` bits.
    #[test]
    #[cfg(not(debug_assertions))]
    fn bit_count_clamps_in_release() {
        assert_eq!(ReramCell::new(0).bits(), 1);
        assert_eq!(ReramCell::new(0).max_level(), 1);
        assert_eq!(ReramCell::new(9).bits(), 8);
        assert_eq!(ReramCell::new(255).max_level(), 255);
    }

    #[test]
    fn verify_noiseless_first_shot() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut c = ReramCell::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        let w = c.program_verify(9, &VerifyPolicy::default(), &mut rng);
        assert!(w.verified);
        assert_eq!(w.attempts, 1);
        assert_eq!(w.pulses, 9);
        assert_eq!(c.level(), 9);
    }

    #[test]
    fn verify_retries_under_noise_and_converges() {
        use rand::{rngs::StdRng, SeedableRng};
        let policy = VerifyPolicy {
            max_attempts: 64,
            write_sigma: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(11);
        let mut converged = 0;
        for target in 0..=15u8 {
            let mut c = ReramCell::new(4);
            let w = c.program_verify(target, &policy, &mut rng);
            assert!(w.attempts >= 1 && w.attempts <= 64);
            if w.verified {
                assert_eq!(c.level(), target);
                converged += 1;
            }
        }
        // σ=1 with a 64-attempt budget converges essentially always.
        assert!(converged >= 15, "only {converged}/16 targets converged");
    }

    #[test]
    fn verify_budget_bounds_attempts() {
        use rand::{rngs::StdRng, SeedableRng};
        let policy = VerifyPolicy {
            max_attempts: 2,
            write_sigma: 50.0, // wild noise: almost never lands on target
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = ReramCell::new(4);
        let w = c.program_verify(7, &policy, &mut rng);
        assert!(w.attempts <= 2);
    }
}
