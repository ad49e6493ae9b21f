//! Finite-impulse-response filters.

use psdacc_fft::{Complex, FftPlanner};

use crate::response::LtiSystem;

/// An FIR filter defined by its tap coefficients.
///
/// # Examples
///
/// ```
/// use psdacc_filters::Fir;
///
/// let ma = Fir::new(vec![0.25; 4]);
/// let y = ma.filter(&[1.0, 1.0, 1.0, 1.0, 1.0]);
/// assert_eq!(y[3], 1.0); // moving average reaches steady state
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Fir {
    taps: Vec<f64>,
}

impl Fir {
    /// Creates a filter from tap coefficients (`h[0]` first).
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty.
    pub fn new(taps: Vec<f64>) -> Self {
        assert!(!taps.is_empty(), "an FIR filter needs at least one tap");
        Fir { taps }
    }

    /// Unit delay of `k` samples.
    pub fn delay(k: usize) -> Self {
        let mut taps = vec![0.0; k + 1];
        taps[k] = 1.0;
        Fir { taps }
    }

    /// Identity (single unit tap).
    pub fn identity() -> Self {
        Fir { taps: vec![1.0] }
    }

    /// The tap coefficients.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Number of taps.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// Always `false` (construction forbids empty taps); satisfies the
    /// `len`/`is_empty` API convention.
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }

    /// Filters a whole signal (same length as input; the filter starts from
    /// zero state, i.e. the transient is included).
    pub fn filter(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; x.len()];
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (k, &h) in self.taps.iter().enumerate() {
                if i >= k {
                    acc += h * x[i - k];
                }
            }
            *o = acc;
        }
        out
    }

    /// Creates a stateful streaming evaluator.
    pub fn stream(&self) -> FirState {
        FirState { taps: self.taps.clone(), delay_line: vec![0.0; self.taps.len()], pos: 0 }
    }

    /// `true` if the taps are symmetric or antisymmetric (linear phase).
    pub fn is_linear_phase(&self, tol: f64) -> bool {
        let n = self.taps.len();
        let sym = (0..n).all(|i| (self.taps[i] - self.taps[n - 1 - i]).abs() <= tol);
        let asym = (0..n).all(|i| (self.taps[i] + self.taps[n - 1 - i]).abs() <= tol);
        sym || asym
    }

    /// Group delay in samples for linear-phase filters: `(N-1)/2`.
    pub fn linear_phase_delay(&self) -> f64 {
        (self.taps.len() as f64 - 1.0) / 2.0
    }
}

impl LtiSystem for Fir {
    fn impulse_response(&self, _max_len: usize, _tol: f64) -> Vec<f64> {
        self.taps.clone()
    }

    fn frequency_response(&self, n: usize) -> Vec<Complex> {
        psdacc_dsp::fir_frequency_response(&self.taps, n, &mut FftPlanner::new())
    }

    fn dc_gain(&self) -> f64 {
        self.taps.iter().sum()
    }
}

/// Streaming (sample-by-sample) FIR evaluation with internal delay line.
#[derive(Debug, Clone)]
pub struct FirState {
    taps: Vec<f64>,
    delay_line: Vec<f64>,
    pos: usize,
}

impl FirState {
    /// Pushes one input sample and returns the corresponding output.
    pub fn push(&mut self, x: f64) -> f64 {
        let n = self.delay_line.len();
        self.delay_line[self.pos] = x;
        let mut acc = 0.0;
        for (k, &h) in self.taps.iter().enumerate() {
            let idx = (self.pos + n - k) % n;
            acc += h * self.delay_line[idx];
        }
        self.pos = (self.pos + 1) % n;
        acc
    }

    /// Resets the delay line to zero.
    pub fn reset(&mut self) {
        self.delay_line.fill(0.0);
        self.pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::LtiSystem;

    #[test]
    fn filter_matches_convolution_head() {
        let f = Fir::new(vec![1.0, -0.5, 0.25]);
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = f.filter(&x);
        let full = psdacc_dsp::convolve(f.taps(), &x);
        assert_eq!(y, full[..x.len()].to_vec());
    }

    #[test]
    fn stream_matches_batch() {
        let f = Fir::new(vec![0.5, 0.3, -0.2, 0.1]);
        let x: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).sin()).collect();
        let batch = f.filter(&x);
        let mut s = f.stream();
        let streamed: Vec<f64> = x.iter().map(|&v| s.push(v)).collect();
        for (a, b) in batch.iter().zip(&streamed) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn stream_reset() {
        let f = Fir::new(vec![1.0, 1.0]);
        let mut s = f.stream();
        s.push(5.0);
        s.reset();
        assert_eq!(s.push(1.0), 1.0); // no leftover state
    }

    #[test]
    fn delay_filter() {
        let d = Fir::delay(3);
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = d.filter(&x);
        assert_eq!(y, vec![0.0, 0.0, 0.0, 1.0, 2.0]);
        assert_eq!(Fir::identity().filter(&x), x.to_vec());
    }

    #[test]
    fn linear_phase_detection() {
        assert!(Fir::new(vec![1.0, 2.0, 1.0]).is_linear_phase(1e-12));
        assert!(Fir::new(vec![1.0, 0.0, -1.0]).is_linear_phase(1e-12)); // antisymmetric
        assert!(!Fir::new(vec![1.0, 2.0, 3.0]).is_linear_phase(1e-12));
        assert_eq!(Fir::new(vec![1.0; 5]).linear_phase_delay(), 2.0);
    }

    #[test]
    fn lti_trait_impl() {
        let f = Fir::new(vec![0.5, 0.5]);
        assert_eq!(f.dc_gain(), 1.0);
        assert_eq!(f.impulse_response(100, 0.0), vec![0.5, 0.5]);
        let h = f.frequency_response(8);
        assert!((h[0] - Complex::ONE).norm() < 1e-12);
        assert!(h[4].norm() < 1e-12); // null at Nyquist for the 2-tap averager
        assert!((f.energy() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn empty_taps_rejected() {
        let _ = Fir::new(vec![]);
    }
}
