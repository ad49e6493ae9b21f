//! # psd-accuracy
//!
//! Umbrella crate re-exporting the entire `psdacc` workspace: a reproduction
//! of *"Leveraging Power Spectral Density for Scalable System-Level Accuracy
//! Evaluation"* (Barrois, Parashar, Sentieys, DATE 2016).
//!
//! See the individual crates for details:
//!
//! * [`core`] — the paper's contribution: PSD-based noise propagation plus
//!   the flat and PSD-agnostic baselines.
//! * [`engine`] — the parallel batch-evaluation engine: scenario registry,
//!   persistent worker pool, and the shared preprocessing cache that
//!   amortizes `tau_pp` across whole word-length campaigns.
//! * [`estim`] — measured-signal PSD estimation: Welch / cross-spectrum
//!   estimators, bit-true sigma-delta modulators with figures of merit.
//! * [`fft`], [`dsp`], [`filters`], [`fixed`], [`sfg`], [`sim`],
//!   [`wavelet`], [`testimg`], [`systems`] — the substrates it stands on.

pub use psdacc_core as core;
pub use psdacc_dsp as dsp;
pub use psdacc_engine as engine;
pub use psdacc_estim as estim;
pub use psdacc_fft as fft;
pub use psdacc_filters as filters;
pub use psdacc_fixed as fixed;
pub use psdacc_sfg as sfg;
pub use psdacc_sim as sim;
pub use psdacc_systems as systems;
pub use psdacc_testimg as testimg;
pub use psdacc_wavelet as wavelet;
