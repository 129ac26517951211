//! Fixed-point quantization and bit slicing.
//!
//! Crossbar cells hold small unsigned integers, so the floating-point
//! weights and activations of the network must be scaled to fixed point.
//! Signs are handled differentially (separate positive/negative arrays,
//! merged by a subtractor — paper Fig. 10 Ⓑ), and a multi-bit magnitude is
//! sliced across several cells, each holding `cell_bits` bits.

/// Symmetric linear quantizer mapping `f32` values to signed integers.
///
/// `q = round(x / scale)`, clamped to `[-q_max, q_max]` with
/// `q_max = 2^(bits-1) - 1`. The same scheme serves weights (programmed into
/// cells) and inputs (encoded as spike trains).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    bits: u32,
    scale: f32,
}

impl Quantizer {
    /// Creates a quantizer with an explicit scale (value of one LSB).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=32` or `scale` is not positive.
    pub fn new(bits: u32, scale: f32) -> Self {
        assert!((2..=32).contains(&bits), "bits {bits} outside 2..=32");
        assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
        Self { bits, scale }
    }

    /// [`fit`](Self::fit) without the fallback: `None` where no positive
    /// finite scale fits.
    pub(crate) fn try_fit(bits: u32, abs_max: f32) -> Option<Self> {
        let q_max = ((1u64 << (bits - 1)) - 1) as f32;
        let scale = abs_max / q_max;
        (scale > 0.0 && scale.is_finite()).then(|| Self::new(bits, scale))
    }

    /// Fits the scale so that `abs_max` maps to the largest code.
    ///
    /// Where no positive finite scale does (`abs_max` zero or not finite,
    /// or so small that the scale underflows to zero), falls back to
    /// scale 1, which encodes an all-zero tensor exactly.
    pub fn fit(bits: u32, abs_max: f32) -> Self {
        Self::try_fit(bits, abs_max).unwrap_or_else(|| Self::new(bits, 1.0))
    }

    /// Bits of precision (including sign).
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Value of one least-significant bit.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Largest representable code magnitude.
    pub fn q_max(&self) -> i64 {
        ((1u64 << (self.bits - 1)) - 1) as i64
    }

    /// Quantizes a value to its signed integer code.
    pub fn quantize(&self, x: f32) -> i64 {
        let q = (x / self.scale).round() as i64;
        q.clamp(-self.q_max(), self.q_max())
    }

    /// Reconstructs the real value of a code.
    pub fn dequantize(&self, q: i64) -> f32 {
        q as f32 * self.scale
    }

    /// Worst-case absolute reconstruction error for in-range inputs.
    pub fn max_error(&self) -> f32 {
        self.scale / 2.0
    }
}

/// Splits an unsigned magnitude into little-endian slices of `cell_bits` each.
///
/// Slice `k` holds bits `[k*cell_bits, (k+1)*cell_bits)`; the bitline `k`
/// readout is therefore weighted by `2^(k*cell_bits)` when merged.
///
/// # Panics
///
/// Panics if the magnitude does not fit in `n_slices * cell_bits` bits.
pub fn slice_magnitude(mag: u64, cell_bits: u32, n_slices: usize) -> Vec<u32> {
    let mask = (1u64 << cell_bits) - 1;
    let capacity_bits = cell_bits as usize * n_slices;
    assert!(
        capacity_bits >= 64 || mag < (1u64 << capacity_bits),
        "magnitude {mag} does not fit in {n_slices} x {cell_bits}-bit cells"
    );
    (0..n_slices)
        .map(|k| ((mag >> (k as u32 * cell_bits)) & mask) as u32)
        .collect()
}

/// Reassembles a magnitude from its little-endian slices.
pub fn unslice(slices: &[u32], cell_bits: u32) -> u64 {
    slices
        .iter()
        .enumerate()
        .map(|(k, &s)| (s as u64) << (k as u32 * cell_bits))
        .sum()
}

/// Splits a signed code into `(positive_magnitude, negative_magnitude)`,
/// exactly one of which is non-zero — the differential-pair encoding.
pub fn differential_split(q: i64) -> (u64, u64) {
    if q >= 0 {
        (q as u64, 0)
    } else {
        (0, (-q) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_maps_extremes_to_full_scale() {
        let q = Quantizer::fit(8, 2.0);
        assert_eq!(q.quantize(2.0), 127);
        assert_eq!(q.quantize(-2.0), -127);
        assert_eq!(q.quantize(0.0), 0);
    }

    #[test]
    fn round_trip_error_bounded() {
        let q = Quantizer::fit(16, 1.0);
        for i in 0..1000 {
            let x = (i as f32 / 999.0) * 2.0 - 1.0;
            let err = (q.dequantize(q.quantize(x)) - x).abs();
            assert!(err <= q.max_error() * 1.001, "x={x} err={err}");
        }
    }

    #[test]
    fn clamps_out_of_range() {
        let q = Quantizer::fit(8, 1.0);
        assert_eq!(q.quantize(10.0), 127);
        assert_eq!(q.quantize(-10.0), -127);
    }

    #[test]
    fn fit_degenerate_abs_max() {
        // Zero, non-finite, and a magnitude whose 16-bit scale underflows.
        for (bits, abs_max) in [(8, 0.0), (8, f32::NAN), (8, f32::INFINITY), (16, 1e-42)] {
            assert_eq!(Quantizer::try_fit(bits, abs_max), None);
            let q = Quantizer::fit(bits, abs_max);
            assert_eq!(q.scale(), 1.0);
            assert_eq!(q.quantize(0.0), 0);
            assert_eq!(q.quantize(-1e-42), 0);
            assert_eq!(q.dequantize(0), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "outside 2..=32")]
    fn rejects_one_bit() {
        let _ = Quantizer::new(1, 1.0);
    }

    #[test]
    fn slice_unslice_round_trip() {
        for mag in [0u64, 1, 255, 256, 65535, 40000] {
            let slices = slice_magnitude(mag, 4, 4);
            assert_eq!(slices.len(), 4);
            assert!(slices.iter().all(|&s| s < 16));
            assert_eq!(unslice(&slices, 4), mag);
        }
    }

    #[test]
    fn slice_is_little_endian() {
        // 0xABCD -> nibbles D, C, B, A
        let slices = slice_magnitude(0xABCD, 4, 4);
        assert_eq!(slices, vec![0xD, 0xC, 0xB, 0xA]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn slice_rejects_overflow() {
        let _ = slice_magnitude(16, 4, 1);
    }

    #[test]
    fn differential_split_exclusive() {
        assert_eq!(differential_split(5), (5, 0));
        assert_eq!(differential_split(-7), (0, 7));
        assert_eq!(differential_split(0), (0, 0));
    }

    #[test]
    fn quantize_sixteen_bits_precise() {
        // The default 16-bit weights should carry ~4-decimal-digit precision.
        let q = Quantizer::fit(16, 1.0);
        let x = 0.123_456;
        assert!((q.dequantize(q.quantize(x)) - x).abs() < 1e-4);
    }
}
