//! **Fig. 4**: estimation deviation `Ed` versus fractional bit-width `d`
//! (8..=32 in steps of 4) for the frequency-filtering and DWT systems.
//!
//! Ported to run as **engine batches** (matching table1/table2): for each
//! bit-width and each system, a seeded Monte-Carlo reference
//! (`JobKind::Simulate`) and a PSD estimate are jobs on the engine's
//! worker pool, sharing one preprocessing pass per system. The systems are the
//! registry scenarios `freq-filter` (Fig. 2 band-pass chain) and
//! `dwt-decimated levels=2` (the true multirate CDF 9/7 codec). With
//! `--daemons` the whole batch dispatches through the `psdacc-sched`
//! coordinator across a daemon fleet instead — same numbers, any fleet.

use psdacc_core::Method;
use psdacc_engine::{JobKind, JobSpec, Scenario};
use psdacc_fixed::RoundingMode;

use crate::fleet::{backend_label, batch_powers};
use crate::harness::{pct, Args, Table};

/// The paper's bit-width sweep.
pub const BIT_WIDTHS: [i32; 7] = [8, 12, 16, 20, 24, 28, 32];

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Fractional bits.
    pub d: i32,
    /// Deviation of the frequency-filter estimate.
    pub ed_freq: f64,
    /// Deviation of the DWT estimate.
    pub ed_dwt: f64,
}

/// Jobs for one bit-width, in the fixed order the extraction expects:
/// per system, the simulation reference then the PSD estimate.
fn point_jobs(args: &Args, d: i32, rounding: RoundingMode) -> Vec<JobSpec> {
    let systems = [Scenario::FreqFilter, Scenario::DwtDecimated { levels: 2 }];
    let mut jobs = Vec::with_capacity(systems.len() * 2);
    for scenario in systems {
        let job = |kind| JobSpec { scenario: scenario.clone(), npsd: args.npsd, rounding, kind };
        jobs.push(job(JobKind::Simulate {
            frac_bits: d,
            samples: args.samples,
            nfft: 256,
            seed: args.seed,
            trials: 1,
        }));
        jobs.push(job(JobKind::Estimate { method: Method::PsdMethod, frac_bits: d }));
    }
    jobs
}

/// Runs the sweep as one engine (or fleet) batch and returns the points.
pub fn sweep(args: &Args, rounding: RoundingMode) -> Vec<SweepPoint> {
    let jobs: Vec<JobSpec> =
        BIT_WIDTHS.iter().flat_map(|&d| point_jobs(args, d, rounding)).collect();
    let powers = batch_powers(args, jobs);
    BIT_WIDTHS
        .iter()
        .zip(powers.chunks_exact(4))
        .map(|(&d, chunk)| {
            let [meas_f, est_f, meas_d, est_d] = chunk else { unreachable!("chunks of 4") };
            SweepPoint { d, ed_freq: (est_f - meas_f) / meas_f, ed_dwt: (est_d - meas_d) / meas_d }
        })
        .collect()
}

/// Full experiment with table output (both rounding modes, since the paper
/// leaves the mode unspecified and the mean path differs between them).
pub fn run(args: &Args) {
    println!("== Fig. 4: Ed versus fractional bit-width d ==");
    println!(
        "(N_PSD = {}, {} samples per simulation reference; {})\n",
        args.npsd,
        args.samples,
        backend_label(args)
    );
    let trunc = sweep(args, RoundingMode::Truncate);
    let round = sweep(args, RoundingMode::RoundNearest);
    let mut t = Table::new(&["d", "freq (trunc)", "DWT (trunc)", "freq (round)", "DWT (round)"]);
    for (pt, pr) in trunc.iter().zip(&round) {
        t.row(&[
            pt.d.to_string(),
            pct(pt.ed_freq),
            pct(pt.ed_dwt),
            pct(pr.ed_freq),
            pct(pr.ed_dwt),
        ]);
    }
    println!("{}", t.render());
    let _ = t.write_csv(&args.out_path("fig4.csv"));
    let max_abs = trunc
        .iter()
        .chain(&round)
        .flat_map(|p| [p.ed_freq.abs(), p.ed_dwt.abs()])
        .fold(f64::MIN, f64::max);
    println!("max |Ed| across the sweep: {} (paper: ~10%)", pct(max_abs));
}
