//! Per-frequency resolution of the signal-flow graph.
//!
//! At one normalized frequency `F`, every node output satisfies
//! `Y_n = T_n(F) * sum_{m in inputs(n)} Y_m + U_n`, where `T_n` is the
//! block's transfer factor and `U_n` an injection *at the node's output* —
//! exactly where the paper's additive quantization-noise sources sit
//! (Fig. 1). Collecting nodes into a vector gives `(I - D(F) A) Y = U`, a
//! small complex linear system per frequency bin.
//!
//! Solving the transposed system once per bin with the output's unit vector
//! yields, in one shot, the complex response **from every node to the
//! output**. This algebraic treatment of feedback subsumes the paper's
//! "detect and break cycles" step and, because responses from reconvergent
//! paths add *as complex amplitudes*, it preserves exactly the intra-source
//! correlations that PSD-agnostic methods destroy.

use psdacc_fft::Complex;

use crate::error::SfgError;
use crate::graph::{NodeId, Sfg};

/// Complex responses from every node's output to one designated output,
/// sampled on the `N_PSD` grid.
#[derive(Debug, Clone)]
pub struct NodeResponses {
    /// `responses[s][k]` = transfer from an injection at node `s`'s output
    /// to the target output, at bin `k` (`F_k = k / npsd`).
    responses: Vec<Vec<Complex>>,
    npsd: usize,
}

impl NodeResponses {
    /// Reassembles responses from raw rows (`rows[s][k]` = response of
    /// source `s` at bin `k`) — the deserialization entry point for
    /// persistence layers that cache preprocessing across processes.
    ///
    /// # Errors
    ///
    /// [`SfgError::ResponseShape`] when `npsd == 0` or any row's length
    /// differs from `npsd`.
    pub fn from_rows(rows: Vec<Vec<Complex>>, npsd: usize) -> Result<Self, SfgError> {
        if npsd == 0 {
            return Err(SfgError::ResponseShape { detail: "npsd must be >= 1".to_string() });
        }
        for (s, row) in rows.iter().enumerate() {
            if row.len() != npsd {
                return Err(SfgError::ResponseShape {
                    detail: format!("row {s} has {} bins, expected {npsd}", row.len()),
                });
            }
        }
        Ok(NodeResponses { responses: rows, npsd })
    }

    /// The response vector of one source node.
    pub fn of(&self, node: NodeId) -> &[Complex] {
        &self.responses[node.0]
    }

    /// All rows in node order (`rows()[s][k]`) — the serialization view
    /// matching [`NodeResponses::from_rows`].
    pub fn rows(&self) -> &[Vec<Complex>] {
        &self.responses
    }

    /// Grid size.
    pub fn npsd(&self) -> usize {
        self.npsd
    }

    /// Number of source nodes covered.
    pub fn len(&self) -> usize {
        self.responses.len()
    }

    /// `true` when no nodes are covered.
    pub fn is_empty(&self) -> bool {
        self.responses.is_empty()
    }

    /// `|G_s(F_k)|^2` for one source — the PSD shaping factor of Eq. 11.
    pub fn magnitude_squared(&self, node: NodeId) -> Vec<f64> {
        self.responses[node.0].iter().map(|v| v.norm_sqr()).collect()
    }

    /// DC gain (real part of bin 0) for one source.
    pub fn dc_gain(&self, node: NodeId) -> f64 {
        self.responses[node.0][0].re
    }

    /// Energy (mean of `|G|^2` over bins) — the white-noise power gain of
    /// the path, i.e. the `K_i` of Eq. 5 evaluated spectrally.
    pub fn energy(&self, node: NodeId) -> f64 {
        let m = self.magnitude_squared(node);
        m.iter().sum::<f64>() / m.len() as f64
    }
}

/// Preprocessing (`tau_pp`) result for one `(graph, output, npsd)` triple:
/// the exact per-frequency solve for single-rate graphs, or per-source
/// fold/image kernels for graphs with effective rate changers.
///
/// Produced by [`preprocess`], consumed by `psdacc-core`'s evaluator and
/// persisted by `psdacc-store`.
#[derive(Debug, Clone)]
pub enum Preprocessed {
    /// Exact complex source-to-output responses (single-rate LTI graphs).
    SingleRate(NodeResponses),
    /// Per-source PSD kernels across rate regions (multirate graphs).
    Multirate(crate::multirate::MultirateResponses),
}

impl Preprocessed {
    /// Input-rate grid size (the `npsd` the preprocessing was requested
    /// with — the cache-key component).
    pub fn npsd(&self) -> usize {
        match self {
            Preprocessed::SingleRate(r) => r.npsd(),
            Preprocessed::Multirate(m) => m.npsd(),
        }
    }

    /// Number of source nodes covered.
    pub fn len(&self) -> usize {
        match self {
            Preprocessed::SingleRate(r) => r.len(),
            Preprocessed::Multirate(m) => m.len(),
        }
    }

    /// `true` when no nodes are covered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// White-noise power gain from a node's output to the graph output.
    pub fn energy(&self, node: NodeId) -> f64 {
        match self {
            Preprocessed::SingleRate(r) => r.energy(node),
            Preprocessed::Multirate(m) => m.energy(node),
        }
    }

    /// The exact single-rate responses, when this is the single-rate form.
    pub fn as_single_rate(&self) -> Option<&NodeResponses> {
        match self {
            Preprocessed::SingleRate(r) => Some(r),
            Preprocessed::Multirate(_) => None,
        }
    }

    /// The multirate kernels, when this is the multirate form.
    pub fn as_multirate(&self) -> Option<&crate::multirate::MultirateResponses> {
        match self {
            Preprocessed::SingleRate(_) => None,
            Preprocessed::Multirate(m) => Some(m),
        }
    }
}

/// The `tau_pp` entry point: dispatches between the exact single-rate
/// per-frequency solve ([`node_responses`]) and the multirate fold/image
/// propagation ([`crate::multirate::multirate_responses`]), which solves
/// each rate region on its own frequency grid.
///
/// # Errors
///
/// Whatever the selected path reports (see [`node_responses`] and
/// [`crate::multirate::multirate_responses`]).
pub fn preprocess(sfg: &Sfg, output: NodeId, npsd: usize) -> Result<Preprocessed, SfgError> {
    let _frame = psdacc_obs::profile::frame("preprocess");
    if crate::multirate::is_multirate(sfg) {
        crate::multirate::multirate_responses(sfg, output, npsd).map(Preprocessed::Multirate)
    } else {
        node_responses(sfg, output, npsd).map(Preprocessed::SingleRate)
    }
}

/// How many `bins[a..b]` profile frames the per-bin solve loop splits
/// into (the chunking itself is unconditional so profiled and unprofiled
/// runs execute identically).
const SOLVE_PROFILE_CHUNKS: usize = 16;

/// Computes [`NodeResponses`] from every node to `output` on an `npsd`-point
/// grid.
///
/// # Errors
///
/// * [`SfgError::UnknownNode`] / [`SfgError::NoOutput`] for bad arguments,
/// * [`SfgError::Multirate`] when the graph contains an effective rate
///   changer — the per-bin linear system only describes LTI graphs; use
///   [`preprocess`] to dispatch automatically,
/// * [`SfgError::DelayFreeCycle`] if the graph is not realizable (checked up
///   front: a delay-free loop would make the frequency-domain system
///   singular at every bin).
pub fn node_responses(sfg: &Sfg, output: NodeId, npsd: usize) -> Result<NodeResponses, SfgError> {
    if output.0 >= sfg.len() {
        return Err(SfgError::UnknownNode { node: output });
    }
    if npsd == 0 {
        return Err(SfgError::NoOutput);
    }
    if crate::multirate::is_multirate(sfg) {
        return Err(SfgError::Multirate {
            detail: "the per-frequency linear solve only describes single-rate LTI graphs"
                .to_string(),
        });
    }
    crate::topo::check_realizable(sfg)?;
    let _sr_frame = psdacc_obs::profile::frame("single_rate");
    let n = sfg.len();
    // Precompute block responses on the grid (the paper's tau_pp stage).
    let block_resp: Vec<Vec<Complex>> = {
        let _frame = psdacc_obs::profile::frame("block_response");
        sfg.nodes()
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let _frame = psdacc_obs::profile::frame_with(|| format!("node[{i}]"));
                node.block.frequency_response(npsd)
            })
            .collect()
    };
    let _solve_frame = psdacc_obs::profile::frame("solve");
    let mut responses = vec![vec![Complex::ZERO; npsd]; n];
    // Reusable buffers.
    let mut m = vec![Complex::ZERO; n * n];
    let mut rhs = vec![Complex::ZERO; n];
    // Bins are solved in chunks so the profiler can attribute solve time
    // to bin ranges; the iteration order is identical with or without a
    // profiler installed.
    let chunk = npsd.div_ceil(SOLVE_PROFILE_CHUNKS).max(1);
    for k0 in (0..npsd).step_by(chunk) {
        let k1 = (k0 + chunk).min(npsd);
        let _chunk_frame = psdacc_obs::profile::frame_with(|| format!("bins[{k0}..{k1}]"));
        for k in k0..k1 {
            // Build M^T = (I - D A)^T: M[i][j] = delta_ij - T_i * A[i][j];
            // transposed entry (j, i).
            for v in m.iter_mut() {
                *v = Complex::ZERO;
            }
            for i in 0..n {
                m[i * n + i] = Complex::ONE;
            }
            for (i, node) in sfg.iter() {
                let t = block_resp[i.0][k];
                for &p in &node.inputs {
                    // M[i][p] -= T_i  =>  transposed: m[p][i] -= T_i.
                    m[p.0 * n + i.0] -= t;
                }
            }
            for v in rhs.iter_mut() {
                *v = Complex::ZERO;
            }
            rhs[output.0] = Complex::ONE;
            solve_in_place(&mut m, &mut rhs, n)
                .map_err(|_| SfgError::DelayFreeCycle { nodes: vec![output] })?;
            for s in 0..n {
                responses[s][k] = rhs[s];
            }
        }
    }
    Ok(NodeResponses { responses, npsd })
}

/// Gaussian elimination with partial pivoting on a row-major `n x n` system.
fn solve_in_place(m: &mut [Complex], rhs: &mut [Complex], n: usize) -> Result<(), ()> {
    for col in 0..n {
        // Pivot.
        let mut best = col;
        let mut best_mag = m[col * n + col].norm_sqr();
        for row in col + 1..n {
            let mag = m[row * n + col].norm_sqr();
            if mag > best_mag {
                best = row;
                best_mag = mag;
            }
        }
        if best_mag < 1e-300 {
            return Err(());
        }
        if best != col {
            for j in 0..n {
                m.swap(col * n + j, best * n + j);
            }
            rhs.swap(col, best);
        }
        let pivot = m[col * n + col];
        for row in col + 1..n {
            let factor = m[row * n + col] / pivot;
            if factor == Complex::ZERO {
                continue;
            }
            for j in col..n {
                let v = m[col * n + j];
                m[row * n + j] -= factor * v;
            }
            let r = rhs[col];
            rhs[row] -= factor * r;
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        let mut acc = rhs[col];
        for j in col + 1..n {
            acc -= m[col * n + j] * rhs[j];
        }
        rhs[col] = acc / m[col * n + col];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use psdacc_filters::{Fir, Iir, LtiSystem};

    #[test]
    fn chain_response_is_product() {
        let mut g = Sfg::new();
        let x = g.add_input();
        let f1 = Fir::new(vec![0.5, 0.5]);
        let f2 = Fir::new(vec![1.0, -1.0]);
        let a = g.add_block(Block::Fir(f1.clone()), &[x]).unwrap();
        let b = g.add_block(Block::Fir(f2.clone()), &[a]).unwrap();
        g.mark_output(b);
        let npsd = 32;
        let resp = node_responses(&g, b, npsd).unwrap();
        let h1 = f1.frequency_response(npsd);
        let h2 = f2.frequency_response(npsd);
        // From the input: product of both. From a's output: just H2. From b: 1.
        for k in 0..npsd {
            assert!((resp.of(x)[k] - h1[k] * h2[k]).norm() < 1e-10, "input bin {k}");
            assert!((resp.of(a)[k] - h2[k]).norm() < 1e-10, "mid bin {k}");
            assert!((resp.of(b)[k] - Complex::ONE).norm() < 1e-12, "out bin {k}");
        }
    }

    #[test]
    fn feedback_loop_matches_iir_closed_form() {
        // y = x + 0.5 y z^-1  <=>  H = 1 / (1 - 0.5 z^-1).
        let mut g = Sfg::new();
        let x = g.add_input();
        let add = g.add_block(Block::Add, &[x]).unwrap();
        let gain = g.add_block(Block::Gain(0.5), &[add]).unwrap();
        let delay = g.add_block(Block::Delay(1), &[gain]).unwrap();
        g.set_inputs(add, &[x, delay]).unwrap();
        g.mark_output(add);
        let npsd = 64;
        let resp = node_responses(&g, add, npsd).unwrap();
        let iir = Iir::new(vec![1.0], vec![1.0, -0.5]).unwrap();
        let h = iir.frequency_response(npsd);
        for k in 0..npsd {
            assert!((resp.of(x)[k] - h[k]).norm() < 1e-9, "bin {k}");
        }
    }

    #[test]
    fn reconvergent_paths_add_as_complex_amplitudes() {
        // x splits into a delay path and a gain path, then re-adds:
        // G(F) = g + e^(-2 pi i F k) — NOT |g|^2 + 1.
        let mut g = Sfg::new();
        let x = g.add_input();
        let d = g.add_block(Block::Delay(3), &[x]).unwrap();
        let a = g.add_block(Block::Gain(0.8), &[x]).unwrap();
        let add = g.add_block(Block::Add, &[d, a]).unwrap();
        g.mark_output(add);
        let npsd = 16;
        let resp = node_responses(&g, add, npsd).unwrap();
        for k in 0..npsd {
            let expect = Complex::from_re(0.8)
                + Complex::cis(-std::f64::consts::TAU * 3.0 * k as f64 / 16.0);
            assert!((resp.of(x)[k] - expect).norm() < 1e-10, "bin {k}");
        }
        // At some frequencies the paths cancel below either branch's gain —
        // the interference PSD-agnostic methods cannot represent.
        let mags = resp.magnitude_squared(x);
        let min = mags.iter().cloned().fold(f64::MAX, f64::min);
        assert!(min < 0.25, "destructive interference expected, min |G|^2 = {min}");
    }

    #[test]
    fn iir_block_in_graph_matches_direct() {
        let iir = Iir::new(vec![0.2, 0.1], vec![1.0, -0.9, 0.3]).unwrap();
        let mut g = Sfg::new();
        let x = g.add_input();
        let f = g.add_block(Block::Iir(iir.clone()), &[x]).unwrap();
        g.mark_output(f);
        let resp = node_responses(&g, f, 32).unwrap();
        let h = iir.frequency_response(32);
        for k in 0..32 {
            assert!((resp.of(x)[k] - h[k]).norm() < 1e-10);
        }
    }

    #[test]
    fn nodes_after_output_have_zero_response() {
        let mut g = Sfg::new();
        let x = g.add_input();
        let a = g.add_block(Block::Gain(2.0), &[x]).unwrap();
        let b = g.add_block(Block::Gain(3.0), &[a]).unwrap(); // downstream of output
        g.mark_output(a);
        let resp = node_responses(&g, a, 8).unwrap();
        for k in 0..8 {
            assert!((resp.of(b)[k]).norm() < 1e-12);
        }
    }

    #[test]
    fn delay_free_cycle_is_reported() {
        let mut g = Sfg::new();
        let x = g.add_input();
        let add = g.add_block(Block::Add, &[x]).unwrap();
        let gain = g.add_block(Block::Gain(0.9), &[add]).unwrap();
        g.set_inputs(add, &[x, gain]).unwrap();
        assert!(matches!(node_responses(&g, add, 8), Err(SfgError::DelayFreeCycle { .. })));
    }

    #[test]
    fn preprocess_dispatches_on_rate_structure() {
        // Single-rate graph: the exact solve.
        let mut g = Sfg::new();
        let x = g.add_input();
        let f = g.add_block(Block::Fir(Fir::new(vec![0.5, 0.5])), &[x]).unwrap();
        g.mark_output(f);
        let pre = preprocess(&g, f, 16).unwrap();
        assert!(pre.as_single_rate().is_some());
        assert_eq!(pre.npsd(), 16);
        assert_eq!(pre.len(), 2);
        assert!((pre.energy(x) - 0.5).abs() < 1e-12);

        // Multirate graph: kernels, and the LTI solver refuses.
        let mut m = Sfg::new();
        let x = m.add_input();
        let d = m.add_block(Block::Downsample(2), &[x]).unwrap();
        m.mark_output(d);
        assert!(matches!(node_responses(&m, d, 16), Err(SfgError::Multirate { .. })));
        let pre = preprocess(&m, d, 16).unwrap();
        assert!(pre.as_multirate().is_some());
        assert!(pre.as_single_rate().is_none());
        assert!((pre.energy(x) - 1.0).abs() < 1e-12, "decimation preserves noise power");
    }

    #[test]
    fn energy_and_dc_helpers() {
        let mut g = Sfg::new();
        let x = g.add_input();
        let a = g.add_block(Block::Gain(2.0), &[x]).unwrap();
        g.mark_output(a);
        let resp = node_responses(&g, a, 16).unwrap();
        assert!((resp.dc_gain(x) - 2.0).abs() < 1e-12);
        assert!((resp.energy(x) - 4.0).abs() < 1e-12);
        assert_eq!(resp.npsd(), 16);
        assert_eq!(resp.len(), 2);
    }
}
