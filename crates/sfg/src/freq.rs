//! Per-frequency resolution of the signal-flow graph, and the kernel form
//! every preprocessing pass produces.
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
//!
//! Which graphs are swept and which are solved: when every edge runs from
//! a lower node id to a higher one (every graph built with `add_block`,
//! every builtin family and `random-sfg`, every GraphSpec that lists its
//! nodes in dependency order), the transposed system is unit
//! upper-triangular in id order. A reverse-id sweep over each node's
//! consumers then solves a bin in O(edges), with results bit-identical to
//! the dense solve. A graph with any backward edge (an explicit feedback
//! loop, or nodes listed out of dependency order) builds the dense `n x n`
//! system and factorises it for every bin.
//!
//! `tau_eval` never reads the complex responses themselves, so
//! [`single_rate_kernels`] reduces each bin, as it is solved, into one real
//! [`SourceKernel`] row per node: `|G_n * S_n|^2` and the DC path
//! `(G_n * S_n)[0].re`, where `S_n = 1/A(z)` shapes the quantization source
//! inside an IIR node and is 1 everywhere else. The word-length independent
//! shaping is thus paid once, in `tau_pp`, and the complex `nodes x npsd`
//! response matrix is only built by [`node_responses`], for callers that
//! want it. Multirate graphs produce the same [`Preprocessed`]
//! kernel set ([`crate::multirate`]), so one scale-and-add per source
//! evaluates every graph.

use psdacc_fft::{Complex, FftPlanner};

use crate::block::Block;
use crate::error::SfgError;
use crate::graph::{NodeId, Sfg};

/// Complex responses from every node's output to one designated output,
/// sampled on the `N_PSD` grid: what [`node_responses`] collects from the
/// per-bin solve, which [`single_rate_kernels`] instead reduces bin by bin
/// into a [`Preprocessed`] kernel set.
#[derive(Debug, Clone)]
pub struct NodeResponses {
    /// `responses[s][k]` = transfer from an injection at node `s`'s output
    /// to the target output, at bin `k` (`F_k = k / npsd`).
    responses: Vec<Vec<Complex>>,
}

impl NodeResponses {
    /// The response vector of one source node.
    pub fn of(&self, node: NodeId) -> &[Complex] {
        &self.responses[node.0]
    }
}

/// Output-referred noise kernels of one source node (see [`Preprocessed`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SourceKernel {
    /// Output PSD per white bin: a white source of variance `sigma^2` at
    /// the node's output adds `sigma^2 / white_bins * variance[k]` to
    /// output bin `k` (see [`Preprocessed::white_bins`]).
    pub variance: Vec<f64>,
    /// Output PSD bin masses produced by a **unit-mean deterministic**
    /// source (upsampler image lines; scale by `mu^2`). Empty when the
    /// mean reaches the output only through `dc`, as in every single-rate
    /// kernel.
    pub mean_sq: Vec<f64>,
    /// Output mean per unit source mean (the DC path).
    pub dc: f64,
}

/// Preprocessing (`tau_pp`) result for one `(graph, output, npsd)` triple:
/// one [`SourceKernel`] per node on the output node's frequency grid, which
/// is everything `tau_eval` reads, for single-rate and multirate graphs
/// alike.
///
/// Produced by [`preprocess`], consumed by `psdacc-core`'s evaluator and
/// persisted by `psdacc-store`.
#[derive(Debug, Clone)]
pub struct Preprocessed {
    pub(crate) kernels: Vec<SourceKernel>,
    pub(crate) npsd: usize,
    pub(crate) npsd_out: usize,
    pub(crate) white_bins: usize,
}

impl Preprocessed {
    /// Reassembles a kernel set from its parts: the deserialization entry
    /// point for persistence layers that cache preprocessing across
    /// processes.
    ///
    /// # Errors
    ///
    /// [`SfgError::ResponseShape`] when a grid size or `white_bins` is
    /// zero, a `variance` row is not `npsd_out` cells long, or the
    /// `mean_sq` rows are not all empty or all `npsd_out` cells long.
    pub fn new(
        kernels: Vec<SourceKernel>,
        npsd: usize,
        npsd_out: usize,
        white_bins: usize,
    ) -> Result<Self, SfgError> {
        if npsd == 0 || npsd_out == 0 || white_bins == 0 {
            return Err(SfgError::ResponseShape {
                detail: format!(
                    "npsd {npsd}, npsd_out {npsd_out} and white_bins {white_bins} must be >= 1"
                ),
            });
        }
        let images = kernels.first().map_or(0, |k| k.mean_sq.len());
        let fits = |k: &SourceKernel| k.variance.len() == npsd_out && k.mean_sq.len() == images;
        if (images != 0 && images != npsd_out) || !kernels.iter().all(fits) {
            return Err(SfgError::ResponseShape {
                detail: format!(
                    "every kernel needs {npsd_out} variance cells and the same number (0 or \
                     {npsd_out}) of mean-image cells"
                ),
            });
        }
        Ok(Preprocessed { kernels, npsd, npsd_out, white_bins })
    }

    /// Input-rate grid size (the `npsd` the preprocessing was requested
    /// with — the cache-key component).
    pub fn npsd(&self) -> usize {
        self.npsd
    }

    /// Grid size of the output node's rate region (cell count of every
    /// kernel row).
    pub fn npsd_out(&self) -> usize {
        self.npsd_out
    }

    /// How many bins a white source's variance is spread over before a
    /// kernel row scales it: `npsd` for single-rate kernels, whose
    /// `variance` rows hold `|G * S|^2`, and 1 for multirate kernels, whose
    /// rows already hold the bin masses of a unit-variance source.
    /// `sigma^2 / white_bins` is then exactly the white bin each path
    /// multiplies its rows by.
    pub fn white_bins(&self) -> usize {
        self.white_bins
    }

    /// Number of source nodes covered.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// `true` when no nodes are covered.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// The kernel of one source node.
    pub fn kernel(&self, node: NodeId) -> &SourceKernel {
        &self.kernels[node.0]
    }

    /// Every kernel in node order.
    pub fn kernels(&self) -> &[SourceKernel] {
        &self.kernels
    }

    /// White-noise power gain from a node's output to the graph output —
    /// the `K_i` of Eq. 5 evaluated spectrally, including an IIR node's
    /// internal `1/A(z)` shaping.
    pub fn energy(&self, node: NodeId) -> f64 {
        self.kernels[node.0].variance.iter().sum::<f64>() / self.white_bins as f64
    }
}
/// The `tau_pp` entry point: dispatches between the exact single-rate
/// per-frequency solve ([`single_rate_kernels`], shaping each IIR node's
/// source by its `1/A(z)`) and the multirate fold/image propagation
/// ([`crate::multirate::multirate_responses`]), which solves each rate
/// region on its own frequency grid.
///
/// # Errors
///
/// Whatever the selected path reports (see [`node_responses`] and
/// [`crate::multirate::multirate_responses`]).
pub fn preprocess(sfg: &Sfg, output: NodeId, npsd: usize) -> Result<Preprocessed, SfgError> {
    let _frame = psdacc_obs::profile::frame("preprocess");
    if crate::multirate::is_multirate(sfg) {
        return crate::multirate::multirate_responses(sfg, output, npsd);
    }
    let feedback: Vec<Option<&[f64]>> = sfg
        .nodes()
        .iter()
        .map(|node| match &node.block {
            Block::Iir(iir) => Some(iir.a()),
            _ => None,
        })
        .collect();
    single_rate_kernels(sfg, output, npsd, &feedback)
}

/// Single-rate kernels: each bin's responses, as [`node_responses`] solves
/// them, reduced straight into one [`SourceKernel`] row per node, so the
/// complex `nodes x npsd` response matrix is never held. `feedback[n]` is
/// the denominator `a` of the recursion a source at node `n` passes through
/// before reaching the node's output (`S_n = 1/A(z)`), or `None` for a
/// source injected at the output itself (as is every node past the end of
/// `feedback`). [`preprocess`] takes it from the graph's IIR blocks; a
/// caller that models its sources otherwise passes its own.
///
/// # Errors
///
/// Whatever [`node_responses`] reports.
pub fn single_rate_kernels(
    sfg: &Sfg,
    output: NodeId,
    npsd: usize,
    feedback: &[Option<&[f64]>],
) -> Result<Preprocessed, SfgError> {
    let _frame = psdacc_obs::profile::frame("single_rate");
    kernels_of(&BinSolver::new(sfg, output, npsd)?, feedback)
}

/// Reduces every bin `solver` solves into kernel rows: `|G * S|^2`, with
/// the complex product taken before `norm_sqr`, and the bin-0 DC path.
fn kernels_of(
    solver: &BinSolver<'_>,
    feedback: &[Option<&[f64]>],
) -> Result<Preprocessed, SfgError> {
    let (n, npsd) = (solver.sfg.len(), solver.npsd);
    // The word-length independent source shaping, sampled once.
    let shapes: Vec<Option<Vec<Complex>>> = (0..n)
        .map(|s| {
            let a = feedback.get(s).copied().flatten()?;
            Some(psdacc_dsp::iir_frequency_response(&[1.0], a, npsd))
        })
        .collect();
    let mut kernels: Vec<SourceKernel> = (0..n)
        .map(|_| SourceKernel { variance: vec![0.0; npsd], mean_sq: Vec::new(), dc: 0.0 })
        .collect();
    solver.solve(|k, g| {
        for ((kernel, shape), g) in kernels.iter_mut().zip(&shapes).zip(g) {
            let h = match shape {
                None => *g,
                Some(shape) => *g * shape[k],
            };
            kernel.variance[k] = h.norm_sqr();
            if k == 0 {
                kernel.dc = h.re;
            }
        }
    })?;
    Ok(Preprocessed { kernels, npsd, npsd_out: npsd, white_bins: npsd })
}

/// How many `bins[a..b]` profile frames the per-bin solve loop splits
/// into (the chunking itself is unconditional so profiled and unprofiled
/// runs execute identically).
const SOLVE_PROFILE_CHUNKS: usize = 16;

/// Computes [`NodeResponses`] from every node to `output` on an `npsd`-point
/// grid: a collector over the same per-bin solve [`single_rate_kernels`]
/// reduces.
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
    let _frame = psdacc_obs::profile::frame("single_rate");
    let solver = BinSolver::new(sfg, output, npsd)?;
    let mut responses = vec![vec![Complex::ZERO; npsd]; sfg.len()];
    solver.solve(|k, g| {
        for (row, g) in responses.iter_mut().zip(g) {
            row[k] = *g;
        }
    })?;
    Ok(NodeResponses { responses })
}

/// One node's transfer factor `T_n` on the grid: one value for a
/// memoryless block, every bin for the others.
enum Factor {
    Constant(Complex),
    Sampled(Vec<Complex>),
}

/// How each bin's transposed system `(I - D A)^T g = e_output` is solved.
enum Order {
    /// Every edge runs from a lower node id to a higher one, so the system
    /// is unit upper-triangular in id order and a reverse-id sweep solves
    /// it. Each node lists its consumers `(id, occurrences among the
    /// consumer's inputs)` in increasing id order.
    Sweep(Vec<Vec<(usize, usize)>>),
    /// Some edge runs backward (a feedback loop, or nodes listed out of
    /// dependency order): dense Gaussian elimination.
    Dense,
}

/// The per-bin solve shared by [`node_responses`] and
/// [`single_rate_kernels`]: a validated single-rate graph with its block
/// factors sampled.
struct BinSolver<'a> {
    sfg: &'a Sfg,
    output: NodeId,
    npsd: usize,
    factors: Vec<Factor>,
    order: Order,
}

impl<'a> BinSolver<'a> {
    /// Validates the graph (see [`node_responses`] for the errors) and
    /// samples every block's response (the paper's tau_pp stage).
    fn new(sfg: &'a Sfg, output: NodeId, npsd: usize) -> Result<Self, SfgError> {
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
        let _frame = psdacc_obs::profile::frame("block_response");
        // One planner for the pass: every FIR node shares the npsd-point plan.
        let mut planner = FftPlanner::new();
        let factors = sfg
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let _frame = psdacc_obs::profile::frame_with(|| format!("node[{i}]"));
                match node.block {
                    Block::Input
                    | Block::Add
                    | Block::Gain(_)
                    | Block::Measured(_)
                    | Block::Downsample(_)
                    | Block::Upsample(_) => {
                        Factor::Constant(node.block.frequency_response(1, &mut planner)[0])
                    }
                    _ => Factor::Sampled(node.block.frequency_response(npsd, &mut planner)),
                }
            })
            .collect();
        let order = sweep_order(sfg).map_or(Order::Dense, Order::Sweep);
        Ok(BinSolver { sfg, output, npsd, factors, order })
    }

    /// Solves the bins in increasing order and hands `visit(k, g)` the
    /// response `g[s]` from every node `s` to the output at bin `k`.
    fn solve(&self, mut visit: impl FnMut(usize, &[Complex])) -> Result<(), SfgError> {
        let _frame = psdacc_obs::profile::frame("solve");
        let n = self.sfg.len();
        // Reusable buffers: this bin's factors, the right-hand side that
        // becomes the responses, and the dense system.
        let mut t = vec![Complex::ZERO; n];
        let mut g = vec![Complex::ZERO; n];
        let mut m = match self.order {
            Order::Sweep(_) => Vec::new(),
            Order::Dense => vec![Complex::ZERO; n * n],
        };
        // Bins are solved in chunks so the profiler can attribute solve time
        // to bin ranges; the iteration order is identical with or without a
        // profiler installed.
        let chunk = self.npsd.div_ceil(SOLVE_PROFILE_CHUNKS).max(1);
        for k0 in (0..self.npsd).step_by(chunk) {
            let k1 = (k0 + chunk).min(self.npsd);
            let _chunk_frame = psdacc_obs::profile::frame_with(|| format!("bins[{k0}..{k1}]"));
            for k in k0..k1 {
                for (t, factor) in t.iter_mut().zip(&self.factors) {
                    *t = match factor {
                        Factor::Constant(c) => *c,
                        Factor::Sampled(bins) => bins[k],
                    };
                }
                g.fill(Complex::ZERO);
                g[self.output.0] = Complex::ONE;
                match &self.order {
                    Order::Sweep(consumers) => sweep(consumers, &t, &mut g),
                    Order::Dense => {
                        // M^T = (I - D A)^T: M[i][p] = delta_ip - T_i for
                        // each input p of node i, stored transposed.
                        m.fill(Complex::ZERO);
                        for i in 0..n {
                            m[i * n + i] = Complex::ONE;
                        }
                        for (i, node) in self.sfg.iter() {
                            for &p in &node.inputs {
                                m[p.0 * n + i.0] -= t[i.0];
                            }
                        }
                        solve_in_place(&mut m, &mut g, n)
                            .map_err(|_| SfgError::DelayFreeCycle { nodes: vec![self.output] })?;
                    }
                }
                visit(k, &g);
            }
        }
        Ok(())
    }
}

/// Each node's consumers for [`Order::Sweep`], or `None` when some node
/// reads its own output or that of a node with a higher id.
fn sweep_order(sfg: &Sfg) -> Option<Vec<Vec<(usize, usize)>>> {
    let mut consumers: Vec<Vec<(usize, usize)>> = vec![Vec::new(); sfg.len()];
    for (i, node) in sfg.iter() {
        for &p in &node.inputs {
            if p.0 >= i.0 {
                return None;
            }
            match consumers[p.0].last_mut() {
                Some((j, uses)) if *j == i.0 => *uses += 1,
                _ => consumers[p.0].push((i.0, 1)),
            }
        }
    }
    Some(consumers)
}

/// Back-substitution of a unit upper-triangular `(I - D A)^T g = e_output` in
/// reverse id order, bit-identical to [`solve_in_place`] on the same
/// system. There, no pivot is swapped and every elimination factor is
/// zero, so only back-substitution does arithmetic. This sweep repeats it
/// on every nonzero coefficient: each is formed as the dense path forms
/// `M^T[col][j]` (`0 - T_j` once per use), subtracted in increasing `j`
/// order, and divided by the unit pivot. The terms it skips are `0 * g[j]`,
/// a signed zero for finite `g[j]`, and subtracting a signed zero changes
/// only a `-0` accumulator. An accumulator starts at `+0` or 1 and reaches
/// zero only by exact cancellation, which rounds to `+0`, so it is never
/// `-0`.
fn sweep(consumers: &[Vec<(usize, usize)>], t: &[Complex], g: &mut [Complex]) {
    for col in (0..g.len()).rev() {
        let mut acc = g[col];
        for &(j, uses) in &consumers[col] {
            let mut c = Complex::ZERO;
            for _ in 0..uses {
                c -= t[j];
            }
            acc -= c * g[j];
        }
        g[col] = acc / Complex::ONE;
    }
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

    /// `y = x + 0.5 y z^-1`: the input, and the adder that is the output.
    fn feedback_loop() -> (Sfg, NodeId, NodeId) {
        let mut g = Sfg::new();
        let x = g.add_input();
        let add = g.add_block(Block::Add, &[x]).unwrap();
        let gain = g.add_block(Block::Gain(0.5), &[add]).unwrap();
        let delay = g.add_block(Block::Delay(1), &[gain]).unwrap();
        g.set_inputs(add, &[x, delay]).unwrap();
        g.mark_output(add);
        (g, x, add)
    }

    #[test]
    fn feedback_loop_matches_iir_closed_form() {
        // y = x + 0.5 y z^-1  <=>  H = 1 / (1 - 0.5 z^-1).
        let (g, x, add) = feedback_loop();
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
        let min = resp.of(x).iter().map(|v| v.norm_sqr()).fold(f64::MAX, f64::min);
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
        // Single-rate graph: the exact solve, reduced to |G|^2 rows.
        let mut g = Sfg::new();
        let x = g.add_input();
        let f = g.add_block(Block::Fir(Fir::new(vec![0.5, 0.5])), &[x]).unwrap();
        g.mark_output(f);
        let pre = preprocess(&g, f, 16).unwrap();
        assert_eq!((pre.npsd(), pre.npsd_out(), pre.white_bins()), (16, 16, 16));
        assert_eq!(pre.len(), 2);
        assert!(pre.kernel(x).mean_sq.is_empty(), "single-rate kernels have no image row");
        assert!((pre.energy(x) - 0.5).abs() < 1e-12);

        // Multirate graph: kernels, and the LTI solver refuses.
        let mut m = Sfg::new();
        let x = m.add_input();
        let d = m.add_block(Block::Downsample(2), &[x]).unwrap();
        m.mark_output(d);
        assert!(matches!(node_responses(&m, d, 16), Err(SfgError::Multirate { .. })));
        let pre = preprocess(&m, d, 16).unwrap();
        assert_eq!((pre.npsd(), pre.npsd_out(), pre.white_bins()), (16, 8, 1));
        assert_eq!(pre.kernel(x).mean_sq.len(), 8);
        assert!((pre.energy(x) - 1.0).abs() < 1e-12, "decimation preserves noise power");
    }

    #[test]
    fn energy_and_dc_helpers() {
        let mut g = Sfg::new();
        let x = g.add_input();
        let a = g.add_block(Block::Gain(2.0), &[x]).unwrap();
        g.mark_output(a);
        let pre = preprocess(&g, a, 16).unwrap();
        assert!((pre.kernel(x).dc - 2.0).abs() < 1e-12);
        assert!((pre.energy(x) - 4.0).abs() < 1e-12);
        assert_eq!(pre.npsd(), 16);
        assert_eq!(pre.len(), 2);
    }

    /// An IIR node's own source is shaped by `1/A(z)` once, at
    /// preprocessing: its row is `|G * S|^2` with the complex product taken
    /// first, and its DC path is `(G * S)[0].re`. The node's input is not.
    #[test]
    fn iir_node_kernel_carries_the_recursive_shaping() {
        let iir = Iir::new(vec![0.2, 0.1], vec![1.0, -0.9, 0.3]).unwrap();
        let mut g = Sfg::new();
        let x = g.add_input();
        let f = g.add_block(Block::Iir(iir.clone()), &[x]).unwrap();
        let out = g.add_block(Block::Gain(0.7), &[f]).unwrap();
        g.mark_output(out);
        let npsd = 64;
        let resp = node_responses(&g, out, npsd).unwrap();
        let shape = psdacc_dsp::iir_frequency_response(&[1.0], iir.a(), npsd);
        let pre = preprocess(&g, out, npsd).unwrap();
        let kernel = pre.kernel(f);
        for k in 0..npsd {
            let h = resp.of(f)[k] * shape[k];
            assert_eq!(kernel.variance[k], h.norm_sqr(), "bin {k}");
            assert_eq!(pre.kernel(x).variance[k], resp.of(x)[k].norm_sqr(), "bin {k}");
        }
        assert_eq!(kernel.dc, (resp.of(f)[0] * shape[0]).re);
        // A caller modelling the source without the recursion gets the
        // plain response.
        let plain = single_rate_kernels(&g, out, npsd, &[]).unwrap();
        assert_eq!(plain.kernel(f).dc, resp.of(f)[0].re);
    }

    #[test]
    fn kernel_sets_are_shape_checked() {
        let k = |n: usize, m: usize| SourceKernel {
            variance: vec![1.0; n],
            mean_sq: vec![0.0; m],
            dc: 1.0,
        };
        assert!(Preprocessed::new(vec![k(4, 0), k(4, 0)], 4, 4, 4).is_ok());
        assert!(Preprocessed::new(vec![k(4, 4)], 8, 4, 1).is_ok());
        assert!(Preprocessed::new(vec![], 8, 4, 1).is_ok(), "zero nodes keep their grid");
        for bad in [
            Preprocessed::new(vec![k(4, 0), k(3, 0)], 4, 4, 4),
            Preprocessed::new(vec![k(4, 4), k(4, 0)], 4, 4, 1),
            Preprocessed::new(vec![k(4, 2)], 4, 4, 1),
            Preprocessed::new(vec![k(4, 0)], 4, 4, 0),
            Preprocessed::new(vec![], 0, 4, 1),
        ] {
            assert!(matches!(bad, Err(SfgError::ResponseShape { .. })));
        }
    }

    /// A deterministic generator for the seeded graphs below.
    struct Lcg(u64);

    impl Lcg {
        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, n: usize) -> usize {
            (self.unit() * n as f64) as usize
        }

        fn pick(&mut self, nodes: &[NodeId]) -> NodeId {
            nodes[self.below(nodes.len())]
        }
    }

    /// A forward graph from `seed`: gains, delays, FIR and IIR blocks,
    /// adders with two distinct inputs and with one input repeated (the
    /// first six nodes take each kind once), and four nodes past the
    /// output, which reach it on no path.
    fn seeded_forward_graph(seed: u64) -> (Sfg, NodeId) {
        let mut rng = Lcg(seed);
        let mut g = Sfg::new();
        let mut nodes = vec![g.add_input()];
        for i in 0..16 {
            let kind = if i < 6 { i } else { rng.below(6) };
            let src = rng.pick(&nodes);
            let block = match kind {
                0 => Block::Gain(3.0 * rng.unit() - 1.5),
                1 => Block::Delay(1 + rng.below(3)),
                2 => {
                    Block::Fir(Fir::new((0..2 + rng.below(4)).map(|_| rng.unit() - 0.5).collect()))
                }
                3 => {
                    let (r, w) = (0.3 + 0.6 * rng.unit(), std::f64::consts::PI * rng.unit());
                    let b = vec![rng.unit(), rng.unit() - 0.5];
                    Block::Iir(Iir::new(b, vec![1.0, -2.0 * r * w.cos(), r * r]).unwrap())
                }
                _ => Block::Add,
            };
            let inputs = match kind {
                4 => vec![src, rng.pick(&nodes)],
                5 => vec![src, rng.pick(&nodes), src],
                _ => vec![src],
            };
            nodes.push(g.add_block(block, &inputs).unwrap());
        }
        let out = nodes[nodes.len() - 5];
        g.mark_output(out);
        (g, out)
    }

    /// Every variance cell's and the DC path's bits, per node.
    fn kernel_bits(pre: &Preprocessed) -> Vec<(Vec<u64>, u64)> {
        let bits =
            |k: &SourceKernel| (k.variance.iter().map(|v| v.to_bits()).collect(), k.dc.to_bits());
        pre.kernels().iter().map(bits).collect()
    }

    /// The reverse-id sweep performs the dense solver's arithmetic on every
    /// nonzero coefficient, so on forward graphs its kernels equal the
    /// dense kernels bit for bit, and `preprocess` takes the sweep.
    #[test]
    fn sweep_kernels_are_bit_identical_to_the_dense_solve() {
        for seed in 0..48 {
            let (g, out) = seeded_forward_graph(seed);
            let feedback: Vec<Option<&[f64]>> = g
                .nodes()
                .iter()
                .map(|node| match &node.block {
                    Block::Iir(iir) => Some(iir.a()),
                    _ => None,
                })
                .collect();
            let npsd = [64, 96, 256][seed as usize % 3];
            let mut solver = BinSolver::new(&g, out, npsd).unwrap();
            assert!(matches!(solver.order, Order::Sweep(_)), "seed {seed}");
            let swept = kernel_bits(&kernels_of(&solver, &feedback).unwrap());
            solver.order = Order::Dense;
            let dense = kernel_bits(&kernels_of(&solver, &feedback).unwrap());
            for (s, (a, b)) in swept.iter().zip(&dense).enumerate() {
                assert_eq!(a, b, "seed {seed}, node {s}");
            }
            assert_eq!(kernel_bits(&preprocess(&g, out, npsd).unwrap()), swept, "seed {seed}");
            assert!(swept[g.len() - 1].0.iter().all(|&v| v == 0), "past the output");
        }
    }

    /// A feedback loop, or an acyclic graph whose nodes are listed out of
    /// dependency order, has an edge to a lower id and keeps the dense
    /// solve.
    #[test]
    fn graphs_with_a_backward_edge_take_the_dense_solve() {
        let (g, _, add) = feedback_loop();
        assert!(matches!(BinSolver::new(&g, add, 64).unwrap().order, Order::Dense));

        let mut g = Sfg::new();
        let x = g.add_input();
        let late = g.add_block(Block::Gain(2.0), &[x]).unwrap();
        let early = g.add_block(Block::Gain(3.0), &[x]).unwrap();
        g.set_inputs(late, &[early]).unwrap();
        g.mark_output(late);
        assert!(matches!(BinSolver::new(&g, late, 16).unwrap().order, Order::Dense));
        let pre = preprocess(&g, late, 16).unwrap();
        assert!((pre.kernel(x).dc - 6.0).abs() < 1e-12);
    }
}
