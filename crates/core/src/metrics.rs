//! Accuracy metrics: the paper's Ed deviation (Eq. 15) and the sub-one-bit
//! accuracy bound.
//!
//! Sign convention note: the paper prints Eq. 15 as
//! `(E[err_sim^2] - E[err_est^2]) / E[err_sim^2]` but then states that
//! one-bit accuracy corresponds to `Ed` in `(-75%, 300%)` — a band that is
//! only consistent with the *opposite* orientation
//! `(E[err_est^2] - E[err_sim^2]) / E[err_sim^2]` (an estimate 4x too large
//! is +300%, 4x too small is -75%). We follow the band, since every numeric
//! claim in the paper is phrased against it.

/// Relative deviation of an estimated error power from the simulated one:
///
/// `Ed = (E[err_est^2] - E[err_sim^2]) / E[err_sim^2]`
///
/// Returned as a fraction (multiply by 100 for the paper's percentages).
/// Positive values overestimate the noise, negative values underestimate it.
///
/// # Examples
///
/// ```
/// use psdacc_core::metrics::ed;
/// assert_eq!(ed(2.0, 1.0), -0.5); // estimate half the simulated power
/// assert_eq!(ed(2.0, 2.0), 0.0);
/// ```
pub fn ed(simulated_power: f64, estimated_power: f64) -> f64 {
    (estimated_power - simulated_power) / simulated_power
}

/// The paper's "less than one bit" accuracy band: an estimate within one
/// fractional bit of the truth has `Ed` in `(-75%, 300%)` (estimated power
/// between 1/4x and 4x the simulated value — one bit of word-length moves
/// the noise power by a factor of 4).
pub fn is_sub_one_bit(ed: f64) -> bool {
    ed > -0.75 && ed < 3.0
}

/// Signal-to-quantization-noise ratio in dB.
pub fn sqnr_db(signal_power: f64, noise_power: f64) -> f64 {
    10.0 * (signal_power / noise_power).log10()
}

/// Equivalent bit deviation of an estimate: how many fractional bits apart
/// the estimated and simulated powers are (`0.5 log2` of the power ratio —
/// one bit of word-length changes the noise power by 4x).
pub fn equivalent_bit_deviation(simulated_power: f64, estimated_power: f64) -> f64 {
    0.5 * (estimated_power / simulated_power).log2().abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ed_signs() {
        // Underestimate -> negative Ed; overestimate -> positive.
        assert!(ed(1.0, 0.5) < 0.0);
        assert!(ed(1.0, 2.0) > 0.0);
    }

    #[test]
    fn sub_one_bit_band_endpoints() {
        // 4x overestimate: Ed = +3 (one bit); 4x underestimate: Ed = -0.75.
        assert_eq!(ed(1.0, 4.0), 3.0);
        assert_eq!(ed(1.0, 0.25), -0.75);
        assert!(is_sub_one_bit(0.0));
        assert!(is_sub_one_bit(-0.74));
        assert!(is_sub_one_bit(2.9));
        assert!(!is_sub_one_bit(-0.76));
        assert!(!is_sub_one_bit(3.1));
    }

    #[test]
    fn bit_deviation() {
        assert_eq!(equivalent_bit_deviation(1.0, 1.0), 0.0);
        assert_eq!(equivalent_bit_deviation(1.0, 4.0), 1.0); // one bit coarser
        assert_eq!(equivalent_bit_deviation(4.0, 1.0), 1.0);
    }

    #[test]
    fn sqnr() {
        assert!((sqnr_db(1.0, 0.001) - 30.0).abs() < 1e-12);
    }
}
