//! Frequency-response sampling of LTI systems on the workspace PSD grid.
//!
//! The proposed method's preprocessing step (paper Section III-B) samples
//! every block's transfer function on `N_PSD` points; these are the routines
//! that do it. The convention matches [`crate::psd`]: bin `k` is normalized
//! frequency `F_k = k / n` over `[0, 1)` and the DTFT kernel is
//! `H(F) = sum_n h[n] e^(-2 pi i F n)`.

use psdacc_fft::{Complex, FftPlanner};

/// The normalized frequency grid `F_k = k / n`.
pub fn freq_grid(n: usize) -> Vec<f64> {
    (0..n).map(|k| k as f64 / n as f64).collect()
}

/// Samples the DTFT of a finite impulse response on `n` points, with the
/// caller's `planner` (a pass sampling many responses shares one, so the
/// `n`-point plan is built once; the plan, and so every bit of the result,
/// is the same either way).
///
/// Impulse responses longer than `n` are alias-folded (`h[i]` accumulates
/// into tap `i mod n`), which *is* the exact sampling of the DTFT at those
/// `n` frequencies.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn fir_frequency_response(h: &[f64], n: usize, planner: &mut FftPlanner) -> Vec<Complex> {
    assert!(n > 0, "frequency grid must be non-empty");
    let mut folded = vec![0.0; n];
    for (i, &v) in h.iter().enumerate() {
        folded[i % n] += v;
    }
    planner.fft_real(&folded)
}

/// Samples the rational transfer function `H(z) = B(z^-1) / A(z^-1)` on `n`
/// points of the unit circle (`a[0]` is the leading denominator coefficient,
/// conventionally 1).
///
/// # Panics
///
/// Panics if `n == 0`, `a` is empty, or `a[0] == 0`.
pub fn iir_frequency_response(b: &[f64], a: &[f64], n: usize) -> Vec<Complex> {
    assert!(n > 0, "frequency grid must be non-empty");
    assert!(!a.is_empty() && a[0] != 0.0, "denominator must have a nonzero leading coefficient");
    (0..n)
        .map(|k| {
            let theta = -std::f64::consts::TAU * k as f64 / n as f64;
            let zinv = Complex::cis(theta);
            polyval_zinv(b, zinv) / polyval_zinv(a, zinv)
        })
        .collect()
}

/// Evaluates `c[0] + c[1] x + c[2] x^2 + ...` by Horner's rule (here `x` is
/// `z^-1`).
fn polyval_zinv(c: &[f64], x: Complex) -> Complex {
    c.iter().rev().fold(Complex::ZERO, |acc, &ci| acc * x + Complex::from_re(ci))
}

/// `|H[k]|^2` of a sampled response.
pub fn magnitude_squared(h: &[Complex]) -> Vec<f64> {
    h.iter().map(|v| v.norm_sqr()).collect()
}

/// DC gain of an FIR filter (`sum h`).
pub fn dc_gain_fir(h: &[f64]) -> f64 {
    h.iter().sum()
}

/// DC gain of an IIR filter (`sum b / sum a`).
pub fn dc_gain_iir(b: &[f64], a: &[f64]) -> f64 {
    dc_gain_fir(b) / dc_gain_fir(a)
}

/// Energy of an FIR impulse response (`sum h^2`), the `K_i` of the paper's
/// Eq. 5 for a deterministic path.
pub fn energy_fir(h: &[f64]) -> f64 {
    h.iter().map(|v| v * v).sum()
}

/// Impulse response of `B(z^-1)/A(z^-1)`, truncated when the tail energy of
/// the last `check` samples falls below `tol` times the total (or at
/// `max_len`).
///
/// # Panics
///
/// Panics if `a` is empty or `a[0] == 0`.
pub fn iir_impulse_response(b: &[f64], a: &[f64], max_len: usize, tol: f64) -> Vec<f64> {
    assert!(!a.is_empty() && a[0] != 0.0, "denominator must have a nonzero leading coefficient");
    let a0 = a[0];
    let mut h = Vec::with_capacity(max_len.min(4096));
    let mut total_energy = 0.0;
    let mut tail_energy = 0.0;
    let check = 64usize;
    for n in 0..max_len {
        // Direct-form difference equation driven by a unit impulse: the
        // feedforward contribution at step n is simply b[n].
        let mut y = if n < b.len() { b[n] } else { 0.0 };
        for (k, &ak) in a.iter().enumerate().skip(1) {
            if n >= k {
                y -= ak * h[n - k];
            }
        }
        y /= a0;
        let e = y * y;
        total_energy += e;
        tail_energy += e;
        if n >= check {
            tail_energy -= h[n - check] * h[n - check];
        }
        h.push(y);
        if n > b.len() + check && total_energy > 0.0 && tail_energy < tol * total_energy {
            break;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_uniform() {
        let g = freq_grid(4);
        assert_eq!(g, vec![0.0, 0.25, 0.5, 0.75]);
    }

    #[test]
    fn fir_response_of_delay() {
        // h = [0, 1]: H(F) = e^(-2 pi i F), magnitude 1 everywhere.
        let h = fir_frequency_response(&[0.0, 1.0], 8, &mut FftPlanner::new());
        for (k, v) in h.iter().enumerate() {
            assert!((v.norm() - 1.0).abs() < 1e-12);
            let expect = Complex::cis(-std::f64::consts::TAU * k as f64 / 8.0);
            assert!((*v - expect).norm() < 1e-12);
        }
    }

    #[test]
    fn fir_response_of_moving_average_dc() {
        let h = fir_frequency_response(&[0.25; 4], 16, &mut FftPlanner::new());
        assert!((h[0] - Complex::ONE).norm() < 1e-12);
        // Null at F = 1/4 for a 4-tap boxcar.
        assert!(h[4].norm() < 1e-12);
    }

    #[test]
    fn folding_matches_direct_dtft() {
        let h: Vec<f64> = (0..23).map(|i| 0.9f64.powi(i) * ((i as f64).sin() + 0.3)).collect();
        let n = 8;
        let resp = fir_frequency_response(&h, n, &mut FftPlanner::new());
        for k in 0..n {
            let f = k as f64 / n as f64;
            let direct: Complex = h
                .iter()
                .enumerate()
                .map(|(i, &v)| Complex::cis(-std::f64::consts::TAU * f * i as f64) * v)
                .sum();
            assert!((resp[k] - direct).norm() < 1e-9, "bin {k}");
        }
    }

    #[test]
    fn iir_response_of_one_pole() {
        // H(z) = 1 / (1 - 0.5 z^-1); at DC: 2, at Nyquist: 1/1.5.
        let h = iir_frequency_response(&[1.0], &[1.0, -0.5], 8);
        assert!((h[0] - Complex::from_re(2.0)).norm() < 1e-12);
        assert!((h[4] - Complex::from_re(1.0 / 1.5)).norm() < 1e-12);
    }

    #[test]
    fn iir_with_fir_numerator_matches_fir_path() {
        let b = [0.5, -0.25, 0.125];
        let via_iir = iir_frequency_response(&b, &[1.0], 16);
        let via_fir = fir_frequency_response(&b, 16, &mut FftPlanner::new());
        for (x, y) in via_iir.iter().zip(&via_fir) {
            assert!((*x - *y).norm() < 1e-12);
        }
    }

    #[test]
    fn impulse_response_of_one_pole_is_geometric() {
        let h = iir_impulse_response(&[1.0], &[1.0, -0.5], 1000, 1e-16);
        for (n, &v) in h.iter().take(20).enumerate() {
            assert!((v - 0.5f64.powi(n as i32)).abs() < 1e-12);
        }
        // Truncation happened well before max_len.
        assert!(h.len() < 1000);
    }

    #[test]
    fn impulse_response_energy_matches_analytic() {
        // sum_{n} r^{2n} = 1 / (1 - r^2) for h[n] = r^n.
        let r: f64 = 0.9;
        let h = iir_impulse_response(&[1.0], &[1.0, -r], 100_000, 1e-15);
        let energy = energy_fir(&h);
        assert!((energy - 1.0 / (1.0 - r * r)).abs() < 1e-6);
    }

    #[test]
    fn dc_gains() {
        assert_eq!(dc_gain_fir(&[0.25; 4]), 1.0);
        assert!((dc_gain_iir(&[1.0, 1.0], &[1.0, -0.5]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn non_normalized_denominator() {
        // 2 y[n] = x[n]  ->  H = 0.5.
        let h = iir_frequency_response(&[1.0], &[2.0], 4);
        for v in h {
            assert!((v - Complex::from_re(0.5)).norm() < 1e-12);
        }
        let imp = iir_impulse_response(&[1.0], &[2.0], 10, 0.0);
        assert!((imp[0] - 0.5).abs() < 1e-12);
    }
}
