//! # psdacc-core
//!
//! The primary contribution of *"Leveraging Power Spectral Density for
//! Scalable System-Level Accuracy Evaluation"* (Barrois, Parashar, Sentieys,
//! DATE 2016), reimplemented as a Rust library: analytical evaluation of the
//! output quantization-noise of fixed-point LTI systems by propagating the
//! **discrete PSD** of every noise source through the signal-flow graph.
//!
//! Three methods share one front-end ([`AccuracyEvaluator`]):
//!
//! * [`psd_method`] — the proposed technique (paper Section III): white PQN
//!   sources sampled on `N_PSD` bins (Eq. 10), shaped per block by
//!   `|H(F)|^2` (Eq. 11), summed at adders (Eq. 12/14) with intra-source
//!   correlation handled exactly via complex source-to-output responses;
//! * [`agnostic`] — the hierarchical PSD-agnostic baseline that carries
//!   only `(mean, variance)` across block boundaries;
//! * [`flat`] — the classical flat method (Eq. 4-6), exact in the time
//!   domain, used both as a baseline and as ground truth for unit tests.
//!
//! The simulation reference lives in `psdacc-sim`; multirate (DWT)
//! propagation rules are in [`propagate`] and are consumed by
//! `psdacc-wavelet`.

pub mod agnostic;
pub mod budget;
pub mod evaluator;
pub mod flat;
pub mod metrics;
pub mod noise_psd;
pub mod propagate;
pub mod psd_method;
pub mod refine;
pub mod report;
pub mod wordlength;

pub use agnostic::{evaluate_agnostic, AgnosticEstimate};
pub use budget::{BudgetRole, BudgetRow, NoiseBudget};
pub use evaluator::AccuracyEvaluator;
pub use flat::{evaluate_flat, FlatEstimate};
pub use metrics::{ed, equivalent_bit_deviation, is_sub_one_bit, sqnr_db};
pub use noise_psd::NoisePsd;
pub use propagate::{downsample_psd, through_magnitude, through_response, upsample_psd};
pub use psd_method::{evaluate_psd_method, evaluate_with_kernels, PsdEstimate};
pub use refine::{
    greedy_refinement, greedy_refinement_from, greedy_refinement_observed,
    minimum_uniform_wordlength, minimum_uniform_wordlength_from, RefineStep, RefinementResult,
};
pub use report::{Comparison, Estimate, Method};
pub use wordlength::{NoiseSource, WordLengthPlan};
