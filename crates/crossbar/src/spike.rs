//! Spike driver and integrate-and-fire readout — paper §III-A.3 (a, b).
//!
//! PipeLayer replaces per-bitline ADCs with a spike-based scheme: the
//! *spike driver* converts each input value into a weighted train of binary
//! spikes (bit `t` of the code fires in cycle `t` and carries weight `2^t`),
//! and the *integrate-and-fire* (I&F) circuit integrates the bitline current
//! of each cycle into output spikes tallied by a counter, "essentially
//! converting the analog currents into digital values".

/// Encodes unsigned integer input codes into bit-serial spike frames.
///
/// Frame `t` holds one boolean per wordline: whether bit `t` of that input
/// code is set. Total frames = `input_bits`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpikeTrain {
    input_bits: u32,
    frames: Vec<Vec<bool>>,
    total_spikes: u64,
}

impl SpikeTrain {
    /// Encodes `codes` (one per wordline) into `input_bits` spike frames.
    ///
    /// # Panics
    ///
    /// Panics if any code needs more than `input_bits` bits.
    pub fn encode(codes: &[u64], input_bits: u32) -> Self {
        let limit = if input_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << input_bits) - 1
        };
        let mut total = 0u64;
        let frames = (0..input_bits)
            .map(|t| {
                codes
                    .iter()
                    .map(|&c| {
                        assert!(c <= limit, "code {c} exceeds {input_bits} input bits");
                        let fire = (c >> t) & 1 == 1;
                        total += fire as u64;
                        fire
                    })
                    .collect()
            })
            .collect();
        Self {
            input_bits,
            frames,
            total_spikes: total,
        }
    }

    /// Number of bit-serial frames (equals the configured input bits).
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// The wordline activity of frame `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn frame(&self, t: usize) -> &[bool] {
        &self.frames[t]
    }

    /// Binary weight of frame `t` in the final merge (`2^t`).
    pub fn frame_weight(&self, t: usize) -> u64 {
        1u64 << t
    }

    /// Total number of spikes across all frames — the driver's dynamic
    /// energy is proportional to this.
    pub fn total_spikes(&self) -> u64 {
        self.total_spikes
    }

    /// Bits of input precision carried by this train.
    pub fn input_bits(&self) -> u32 {
        self.input_bits
    }
}

/// Integrate-and-fire converter: turns an integrated bitline current into a
/// digital spike count.
///
/// With an ideal device the bitline current of one frame is an exact integer
/// (a sum of integer cell conductances), so the count is exact. With noise
/// the rounding performed here *is* the quantization the physical I&F
/// applies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntegrateFire {
    conversions: u64,
}

impl IntegrateFire {
    /// Creates an I&F unit with a zeroed conversion counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Converts an integrated current into a non-negative spike count.
    pub fn convert(&mut self, current: f64) -> u64 {
        self.conversions += 1;
        current.round().max(0.0) as u64
    }

    /// Number of conversions performed (for energy accounting).
    pub fn conversions(&self) -> u64 {
        self.conversions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_reconstructs_codes() {
        let codes = [0u64, 1, 5, 255, 170];
        let train = SpikeTrain::encode(&codes, 8);
        assert_eq!(train.num_frames(), 8);
        for (i, &c) in codes.iter().enumerate() {
            let rebuilt: u64 = (0..8)
                .map(|t| (train.frame(t)[i] as u64) * train.frame_weight(t))
                .sum();
            assert_eq!(rebuilt, c);
        }
    }

    #[test]
    fn total_spikes_counts_set_bits() {
        let train = SpikeTrain::encode(&[0b1011, 0b0001], 4);
        assert_eq!(train.total_spikes(), 4);
    }

    #[test]
    #[should_panic(expected = "exceeds 4 input bits")]
    fn encode_rejects_oversized_code() {
        let _ = SpikeTrain::encode(&[16], 4);
    }

    #[test]
    fn frame_weights_are_powers_of_two() {
        let train = SpikeTrain::encode(&[1], 6);
        for t in 0..6 {
            assert_eq!(train.frame_weight(t), 1 << t);
        }
    }

    #[test]
    fn zero_codes_produce_silent_train() {
        let train = SpikeTrain::encode(&[0, 0, 0], 16);
        assert_eq!(train.total_spikes(), 0);
        for t in 0..16 {
            assert!(train.frame(t).iter().all(|&f| !f));
        }
    }

    #[test]
    fn integrate_fire_rounds_and_clamps() {
        let mut inf = IntegrateFire::new();
        assert_eq!(inf.convert(3.4), 3);
        assert_eq!(inf.convert(3.6), 4);
        assert_eq!(inf.convert(-0.7), 0);
        assert_eq!(inf.conversions(), 3);
    }

    #[test]
    fn integrate_fire_exact_on_integers() {
        let mut inf = IntegrateFire::new();
        for i in 0..100u64 {
            assert_eq!(inf.convert(i as f64), i);
        }
    }
}
