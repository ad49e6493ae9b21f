//! # psdacc-systems
//!
//! The paper's benchmark systems, each with a bit-true simulator and the
//! analytical (PSD-method and PSD-agnostic) models built from the same
//! structural description:
//!
//! * [`filter_bank`] — the Table I population: 147 FIR + 147 IIR filters,
//! * [`freq_filter`] — the Fig. 2 frequency-domain band-pass system
//!   (overlap-save, stage-quantized FFT in [`staged_fft`]),
//! * [`dwt_system`] — the Fig. 3 2-level CDF 9/7 image codec on the
//!   synthetic corpus,
//! * [`dwt_decimated`] — the decimated CDF 9/7 filter banks as true
//!   multirate signal-flow graphs (octave codec + wavelet-packet bank).

pub mod dwt_decimated;
pub mod dwt_system;
pub mod filter_bank;
pub mod freq_filter;
pub mod staged_fft;

pub use dwt_system::DwtSystem;
pub use filter_bank::{fir_entry, fir_system, iir_entry, iir_system, BankEntry};
pub use freq_filter::{FreqFilterModel, FreqFilterSystem};
