//! Multirate analysis: per-node sample rates and analytical PSD propagation
//! through rate changers.
//!
//! [`Block::Downsample`] and [`Block::Upsample`] are linear but
//! *periodically time-varying*, so the single-rate per-frequency solve of
//! [`crate::freq`] does not apply. This module provides the multirate
//! `tau_pp` instead, following the paper's treatment of the DWT benchmark
//! (Section III, Eq. 11-14):
//!
//! * every node is assigned a rational sample rate relative to the external
//!   input ([`node_rates`]), and each **rate region is solved on its own
//!   frequency grid** — a node at rate `num/den` gets `npsd * num / den`
//!   bins, so folding and imaging are exact bin permutations with no
//!   interpolation;
//! * decimation by `M` **folds** the `M` alias images of the input PSD onto
//!   the output grid (`n -> n/M` bins, masses added — total noise power is
//!   preserved);
//! * zero-stuffing by `L` **images** the spectrum (`n -> nL` bins, each
//!   mass scaled by `1/L^2`, total power divided by `L`) and turns the
//!   deterministic mean into an impulse train whose `L - 1` image lines are
//!   deposited onto exact bins;
//! * PSDs recombining at **every** junction are summed as *uncorrelated*
//!   (the paper's Eq. 14 block-boundary assumption). This is the one
//!   approximation of the multirate path — and it applies to same-rate
//!   reconvergent paths too: once a graph contains an effective rate
//!   changer, the whole analysis is a forward power-spectral pass, so the
//!   phase interference that the single-rate complex solve captures
//!   exactly is not represented anywhere in such a graph. For the
//!   decimated filter banks this path targets, same-source branches only
//!   recombine after decimation (where Eq. 14 is the paper's treatment,
//!   quantified by `psdacc-wavelet`'s alias-exact model at ~1%); graphs
//!   that rely on coherent same-rate cancellation should stay single-rate
//!   or lower the cancelling region into a single `Fir` block.
//!
//! The result of the preprocessing pass ([`multirate_responses`]) is one
//! [`SourceKernel`] per node: the output-referred PSD of a unit-variance
//! white source, the output-referred PSD of a unit-mean deterministic
//! source (its upsampling image lines), and the mean's scalar DC path. An
//! evaluation for concrete noise moments is then `O(Ne * N_PSD)`, exactly
//! like the single-rate `tau_eval`.

use crate::block::Block;
use crate::error::SfgError;
use crate::graph::{NodeId, Sfg};

/// A node's sample rate relative to the external input, as a reduced
/// fraction `num / den`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rate {
    num: u64,
    den: u64,
}

impl Rate {
    /// The input rate (`1/1`).
    pub fn unit() -> Self {
        Rate { num: 1, den: 1 }
    }

    /// Numerator of the reduced fraction.
    pub fn num(&self) -> u64 {
        self.num
    }

    /// Denominator of the reduced fraction.
    pub fn den(&self) -> u64 {
        self.den
    }

    /// `true` at the input rate.
    pub fn is_unit(&self) -> bool {
        self.num == 1 && self.den == 1
    }

    /// The rate as a float (diagnostics only — identity is the fraction).
    pub fn as_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// This rate scaled by a block's `(num, den)` rate change.
    fn scaled(&self, num: usize, den: usize) -> Option<Rate> {
        let n = self.num.checked_mul(num as u64)?;
        let d = self.den.checked_mul(den as u64)?;
        let g = gcd(n, d);
        Some(Rate { num: n / g, den: d / g })
    }

    /// Grid size of this rate region for an input-rate grid of `npsd`
    /// bins: `npsd * num / den`, when that is a positive integer.
    pub fn grid(&self, npsd: usize) -> Option<usize> {
        let scaled = (npsd as u64).checked_mul(self.num)?;
        if scaled == 0 || !scaled.is_multiple_of(self.den) {
            return None;
        }
        usize::try_from(scaled / self.den).ok()
    }
}

impl std::fmt::Display for Rate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

/// `true` when the graph contains an effective rate changer (factor > 1) —
/// the switch between the exact single-rate solve and the multirate path.
pub fn is_multirate(sfg: &Sfg) -> bool {
    sfg.nodes().iter().any(|n| n.block.changes_rate())
}

/// Assigns a sample rate to every node by propagating from the inputs
/// (inputs run at rate 1; rate changers scale, everything else preserves).
///
/// Nodes unreachable from any input (degenerate source-free cycles) default
/// to the input rate.
///
/// # Errors
///
/// [`SfgError::RateMismatch`] when a junction receives inputs at different
/// rates, two propagation paths assign a node different rates, or a rate
/// factor is zero.
pub fn node_rates(sfg: &Sfg) -> Result<Vec<Rate>, SfgError> {
    let n = sfg.len();
    for (id, node) in sfg.iter() {
        let (num, den) = node.block.rate_change();
        if num == 0 || den == 0 {
            return Err(SfgError::RateMismatch {
                node: id,
                detail: "rate factor must be >= 1".to_string(),
            });
        }
    }
    let mut rates: Vec<Option<Rate>> = vec![None; n];
    for (id, node) in sfg.iter() {
        if matches!(node.block, Block::Input) {
            rates[id.0] = Some(Rate::unit());
        }
    }
    // Worklist fixpoint: O(V * E) worst case, trivial at SFG sizes. Each
    // pass assigns every node whose inputs are (partially) known and checks
    // consistency, so conflicting cycle constraints surface as errors
    // rather than non-termination.
    let mut changed = true;
    while changed {
        changed = false;
        for (id, node) in sfg.iter() {
            let mut known = node.inputs.iter().filter_map(|p| rates[p.0]);
            let Some(first) = known.next() else { continue };
            if let Some(conflict) = known.find(|r| *r != first) {
                return Err(SfgError::RateMismatch {
                    node: id,
                    detail: format!("inputs arrive at rates {first} and {conflict}"),
                });
            }
            let (num, den) = node.block.rate_change();
            let out = first.scaled(num, den).ok_or_else(|| SfgError::RateMismatch {
                node: id,
                detail: "rate fraction overflows".to_string(),
            })?;
            match rates[id.0] {
                None => {
                    rates[id.0] = Some(out);
                    changed = true;
                }
                Some(existing) if existing != out => {
                    return Err(SfgError::RateMismatch {
                        node: id,
                        detail: format!("propagation assigns both {existing} and {out}"),
                    });
                }
                Some(_) => {}
            }
        }
    }
    Ok(rates.into_iter().map(|r| r.unwrap_or_else(Rate::unit)).collect())
}

/// Output-referred noise kernels of one source node (see
/// [`MultirateResponses`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SourceKernel {
    /// Output PSD bin masses produced by a **unit-variance white** source at
    /// the node's output (scale by `sigma^2` to evaluate).
    pub variance: Vec<f64>,
    /// Output PSD bin masses produced by a **unit-mean deterministic**
    /// source (upsampler image lines; scale by `mu^2` to evaluate).
    pub mean_sq: Vec<f64>,
    /// Output mean per unit source mean (the DC-line path).
    pub dc: f64,
}

/// Multirate preprocessing result: per-source noise kernels on the output
/// node's frequency grid — the multirate counterpart of
/// [`crate::freq::NodeResponses`].
#[derive(Debug, Clone)]
pub struct MultirateResponses {
    kernels: Vec<SourceKernel>,
    npsd: usize,
    npsd_out: usize,
}

impl MultirateResponses {
    /// Input-rate grid size (the `npsd` the preprocessing was requested
    /// with — the cache-key component).
    pub fn npsd(&self) -> usize {
        self.npsd
    }

    /// Grid size of the output node's rate region (bin count of every
    /// kernel).
    pub fn npsd_out(&self) -> usize {
        self.npsd_out
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

    /// White-noise power gain from the node's output to the graph output
    /// (the multirate analog of path energy).
    pub fn energy(&self, node: NodeId) -> f64 {
        self.kernels[node.0].variance.iter().sum()
    }

    /// Serialization view for persistence layers: one complex row per
    /// source of `npsd_out + 1` cells — `(variance[k], mean_sq[k])` pairs
    /// followed by `(dc, 0)`. Round-trips bit-exactly through
    /// [`MultirateResponses::from_rows`].
    pub fn to_rows(&self) -> Vec<Vec<psdacc_fft::Complex>> {
        self.kernels
            .iter()
            .map(|k| {
                let mut row: Vec<psdacc_fft::Complex> = k
                    .variance
                    .iter()
                    .zip(&k.mean_sq)
                    .map(|(&v, &m)| psdacc_fft::Complex::new(v, m))
                    .collect();
                row.push(psdacc_fft::Complex::new(k.dc, 0.0));
                row
            })
            .collect()
    }

    /// Reassembles kernels from the [`MultirateResponses::to_rows`] layout.
    ///
    /// # Errors
    ///
    /// [`SfgError::ResponseShape`] when the rows are empty, ragged, or too
    /// short to carry at least one bin plus the DC cell.
    pub fn from_rows(rows: Vec<Vec<psdacc_fft::Complex>>, npsd: usize) -> Result<Self, SfgError> {
        if npsd == 0 {
            return Err(SfgError::ResponseShape { detail: "npsd must be >= 1".to_string() });
        }
        let width = rows.first().map(Vec::len).ok_or_else(|| SfgError::ResponseShape {
            detail: "multirate responses need at least one source row".to_string(),
        })?;
        if width < 2 {
            return Err(SfgError::ResponseShape {
                detail: format!("row width {width} cannot carry bins plus the DC cell"),
            });
        }
        let npsd_out = width - 1;
        let mut kernels = Vec::with_capacity(rows.len());
        for (s, row) in rows.into_iter().enumerate() {
            if row.len() != width {
                return Err(SfgError::ResponseShape {
                    detail: format!("row {s} has {} cells, expected {width}", row.len()),
                });
            }
            let dc = row[npsd_out].re;
            let (variance, mean_sq) = row[..npsd_out].iter().map(|c| (c.re, c.im)).unzip();
            kernels.push(SourceKernel { variance, mean_sq, dc });
        }
        Ok(MultirateResponses { kernels, npsd, npsd_out })
    }
}

/// One propagating noise state: PSD bin masses on the local grid plus the
/// deterministic mean.
#[derive(Debug, Clone)]
struct NoiseState {
    bins: Vec<f64>,
    mean: f64,
}

/// Computes [`MultirateResponses`] from every node to `output`, with the
/// input-rate grid holding `npsd` bins and every other rate region scaled
/// accordingly.
///
/// # Errors
///
/// * [`SfgError::UnknownNode`] / [`SfgError::NoOutput`] for bad arguments,
/// * [`SfgError::RateMismatch`] for inconsistent rates or an `npsd` that
///   does not divide down to integer grids,
/// * [`SfgError::Multirate`] for feedback loops (PSD propagation is a
///   forward pass) and for IIR blocks (their internally shaped sources
///   would need colored injection, which kernels cannot carry).
pub fn multirate_responses(
    sfg: &Sfg,
    output: NodeId,
    npsd: usize,
) -> Result<MultirateResponses, SfgError> {
    if output.0 >= sfg.len() {
        return Err(SfgError::UnknownNode { node: output });
    }
    if npsd == 0 {
        return Err(SfgError::NoOutput);
    }
    if !crate::topo::is_acyclic(sfg) {
        return Err(SfgError::Multirate {
            detail: "PSD propagation through rate changers requires an acyclic graph".to_string(),
        });
    }
    if let Some((id, _)) = sfg.iter().find(|(_, n)| matches!(n.block, Block::Iir(_))) {
        return Err(SfgError::Multirate {
            detail: format!("IIR block at node {id:?}; lower it to FIR/delay form first"),
        });
    }
    if let Some((id, _)) = sfg.iter().find(|(_, n)| matches!(n.block, Block::Measured(_))) {
        return Err(SfgError::Measured {
            detail: format!(
                "measured source at node {id:?}: multirate kernels carry white \
                 per-source moments and cannot propagate an estimated (colored) PSD"
            ),
        });
    }
    let _mr_frame = psdacc_obs::profile::frame("multirate");
    let rates = node_rates(sfg)?;
    let grids: Vec<usize> = rates
        .iter()
        .enumerate()
        .map(|(i, r)| {
            r.grid(npsd).ok_or_else(|| SfgError::RateMismatch {
                node: NodeId(i),
                detail: format!("npsd={npsd} does not give an integer grid at rate {r}"),
            })
        })
        .collect::<Result<_, _>>()?;
    // tau_pp proper: every LTI block's |H|^2 sampled once on its own rate
    // region's grid.
    let mag2: Vec<Option<Vec<f64>>> = {
        let _frame = psdacc_obs::profile::frame("block_response");
        sfg.iter()
            .map(|(id, node)| match node.block {
                Block::Fir(_) | Block::Gain(_) => {
                    let _region =
                        psdacc_obs::profile::frame_with(|| format!("region[{}]", rates[id.0]));
                    let _node = psdacc_obs::profile::frame_with(|| format!("node[{}]", id.0));
                    Some(
                        node.block
                            .frequency_response(grids[id.0])
                            .iter()
                            .map(|v| v.norm_sqr())
                            .collect(),
                    )
                }
                _ => None,
            })
            .collect()
    };
    let order = full_topological_order(sfg)?;
    let npsd_out = grids[output.0];
    let kernels = {
        let _frame = psdacc_obs::profile::frame("kernels");
        (0..sfg.len())
            .map(|s| {
                let _region = psdacc_obs::profile::frame_with(|| format!("region[{}]", rates[s]));
                let _source = psdacc_obs::profile::frame_with(|| format!("source[{s}]"));
                let source = NodeId(s);
                let white = NoiseState { bins: vec![1.0 / grids[s] as f64; grids[s]], mean: 0.0 };
                let var_out = propagate(sfg, &order, &grids, &mag2, source, output, white);
                let dc_in = NoiseState { bins: vec![0.0; grids[s]], mean: 1.0 };
                let mean_out = propagate(sfg, &order, &grids, &mag2, source, output, dc_in);
                SourceKernel {
                    variance: var_out
                        .as_ref()
                        .map_or_else(|| vec![0.0; npsd_out], |o| o.bins.clone()),
                    mean_sq: mean_out
                        .as_ref()
                        .map_or_else(|| vec![0.0; npsd_out], |o| o.bins.clone()),
                    dc: mean_out.map_or(0.0, |o| o.mean),
                }
            })
            .collect()
    };
    Ok(MultirateResponses { kernels, npsd, npsd_out })
}

/// Forward Eq. 14 propagation of one injected state from `source`'s output
/// to `output`. Returns `None` when the output is not downstream of the
/// source.
fn propagate(
    sfg: &Sfg,
    order: &[NodeId],
    grids: &[usize],
    mag2: &[Option<Vec<f64>>],
    source: NodeId,
    output: NodeId,
    injected: NoiseState,
) -> Option<NoiseState> {
    let mut state: Vec<Option<NoiseState>> = vec![None; sfg.len()];
    for &v in order {
        if v == source {
            // The source sits at the node *output*: the injection does not
            // pass through the node's own block.
            state[v.0] = Some(injected.clone());
            continue;
        }
        let node = sfg.node(v);
        // Eq. 14: contributions meeting at a junction add as uncorrelated
        // PSDs (bin masses and means sum).
        let mut acc: Option<NoiseState> = None;
        for p in &node.inputs {
            let Some(inc) = &state[p.0] else { continue };
            match &mut acc {
                None => acc = Some(inc.clone()),
                Some(a) => {
                    for (x, y) in a.bins.iter_mut().zip(&inc.bins) {
                        *x += y;
                    }
                    a.mean += inc.mean;
                }
            }
        }
        let Some(incoming) = acc else { continue };
        state[v.0] = Some(through_block(&node.block, incoming, mag2[v.0].as_deref(), grids[v.0]));
    }
    state[output.0].take()
}

/// Applies one block's multirate PSD map to an incoming state.
fn through_block(
    block: &Block,
    mut state: NoiseState,
    mag2: Option<&[f64]>,
    grid_out: usize,
) -> NoiseState {
    match block {
        Block::Input | Block::Add | Block::Delay(_) => state,
        Block::Gain(_) | Block::Fir(_) => {
            let mag2 = mag2.expect("LTI blocks have sampled responses");
            debug_assert_eq!(mag2.len(), state.bins.len());
            for (b, m) in state.bins.iter_mut().zip(mag2) {
                *b *= m;
            }
            state.mean *= block.dc_gain();
            state
        }
        Block::Iir(_) => unreachable!("IIR blocks rejected before propagation"),
        Block::Measured(_) => unreachable!("measured sources rejected before propagation"),
        Block::Downsample(m) => {
            let m = *m;
            if m <= 1 {
                return state;
            }
            let n_in = state.bins.len();
            debug_assert_eq!(grid_out * m, n_in, "fold grid mismatch");
            // Spectrum folds: output bin k collects the M alias images at
            // input bins k + i * n_out. Bin masses add, total power (and
            // the stationary mean) are preserved.
            let bins =
                (0..grid_out).map(|k| (0..m).map(|i| state.bins[k + i * grid_out]).sum()).collect();
            NoiseState { bins, mean: state.mean }
        }
        Block::Upsample(l) => {
            let l = *l;
            if l <= 1 {
                return state;
            }
            let n_in = state.bins.len();
            debug_assert_eq!(n_in * l, grid_out, "image grid mismatch");
            // Spectrum images: the input spectrum repeats L times on the
            // widened grid, each bin mass scaled by 1/L^2 (total power
            // drops to 1/L — only one in L samples is nonzero).
            let mut bins: Vec<f64> =
                (0..grid_out).map(|k| state.bins[k % n_in] / (l * l) as f64).collect();
            // The deterministic mean becomes an impulse train: its DC line
            // (mean / L) stays in the mean slot; the L - 1 image lines at
            // F = i / L land on exact bins of the widened grid.
            let mean = state.mean / l as f64;
            let line_mass = mean * mean;
            for i in 1..l {
                bins[i * n_in] += line_mass;
            }
            NoiseState { bins, mean }
        }
    }
}

/// Kahn topological order over the full edge set (errors on cycles).
fn full_topological_order(sfg: &Sfg) -> Result<Vec<NodeId>, SfgError> {
    let n = sfg.len();
    let mut indegree = vec![0usize; n];
    let mut succ = vec![Vec::new(); n];
    for (i, node) in sfg.iter() {
        for &p in &node.inputs {
            succ[p.0].push(i);
            indegree[i.0] += 1;
        }
    }
    let mut queue: Vec<NodeId> = (0..n).filter(|&i| indegree[i] == 0).map(NodeId).collect();
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        order.push(v);
        for &w in &succ[v.0] {
            indegree[w.0] -= 1;
            if indegree[w.0] == 0 {
                queue.push(w);
            }
        }
    }
    if order.len() != n {
        let stuck: Vec<NodeId> = (0..n).filter(|&i| indegree[i] > 0).map(NodeId).collect();
        return Err(SfgError::DelayFreeCycle { nodes: stuck });
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::node_responses;
    use psdacc_filters::Fir;

    /// x -> Fir(h0) -> D2 -> U2 -> Fir(g0): one decimated branch.
    fn branch_graph() -> (Sfg, NodeId, NodeId, NodeId, NodeId, NodeId) {
        let mut g = Sfg::new();
        let x = g.add_input();
        let h = g.add_block(Block::Fir(Fir::new(vec![0.5, 0.5])), &[x]).unwrap();
        let down = g.add_block(Block::Downsample(2), &[h]).unwrap();
        let up = g.add_block(Block::Upsample(2), &[down]).unwrap();
        let s = g.add_block(Block::Fir(Fir::new(vec![0.5, 0.5])), &[up]).unwrap();
        g.mark_output(s);
        (g, x, h, down, up, s)
    }

    #[test]
    fn rates_track_decimation_and_expansion() {
        let (g, x, h, down, up, s) = branch_graph();
        let rates = node_rates(&g).unwrap();
        assert!(rates[x.0].is_unit());
        assert!(rates[h.0].is_unit());
        assert_eq!((rates[down.0].num(), rates[down.0].den()), (1, 2));
        assert!(rates[up.0].is_unit());
        assert!(rates[s.0].is_unit());
        assert!(is_multirate(&g));
        assert_eq!(rates[down.0].grid(64), Some(32));
        assert_eq!(rates[down.0].grid(7), None, "odd grid does not halve");
        assert_eq!(rates[down.0].to_string(), "1/2");
    }

    #[test]
    fn mismatched_adder_rates_rejected() {
        let mut g = Sfg::new();
        let x = g.add_input();
        let down = g.add_block(Block::Downsample(2), &[x]).unwrap();
        let add = g.add_block(Block::Add, &[x, down]).unwrap();
        g.mark_output(add);
        assert!(matches!(node_rates(&g), Err(SfgError::RateMismatch { .. })));
    }

    #[test]
    fn zero_factor_rejected() {
        let mut g = Sfg::new();
        let x = g.add_input();
        let bad = g.add_block(Block::Downsample(0), &[x]).unwrap();
        g.mark_output(bad);
        assert!(matches!(node_rates(&g), Err(SfgError::RateMismatch { .. })));
    }

    #[test]
    fn single_rate_graphs_have_unit_rates() {
        let mut g = Sfg::new();
        let x = g.add_input();
        let f = g.add_block(Block::Fir(Fir::new(vec![1.0, -1.0])), &[x]).unwrap();
        g.mark_output(f);
        assert!(!is_multirate(&g));
        assert!(node_rates(&g).unwrap().iter().all(Rate::is_unit));
    }

    /// On a pure LTI chain the multirate kernels must reproduce the exact
    /// single-rate solve: variance kernel = |G_s|^2 / npsd, dc = G_s(0).
    #[test]
    fn lti_chain_matches_single_rate_solve() {
        let mut g = Sfg::new();
        let x = g.add_input();
        let a = g.add_block(Block::Fir(Fir::new(vec![0.4, -0.3, 0.2])), &[x]).unwrap();
        let b = g.add_block(Block::Gain(1.5), &[a]).unwrap();
        let c = g.add_block(Block::Delay(2), &[b]).unwrap();
        g.mark_output(c);
        let npsd = 32;
        let exact = node_responses(&g, c, npsd).unwrap();
        let multi = multirate_responses(&g, c, npsd).unwrap();
        assert_eq!(multi.npsd_out(), npsd);
        for s in [x, a, b, c] {
            let kernel = multi.kernel(s);
            let mag = exact.magnitude_squared(s);
            for k in 0..npsd {
                let expect = mag[k] / npsd as f64;
                assert!(
                    (kernel.variance[k] - expect).abs() < 1e-12,
                    "node {s:?} bin {k}: {} vs {expect}",
                    kernel.variance[k]
                );
                assert_eq!(kernel.mean_sq[k], 0.0, "LTI paths deposit no image lines");
            }
            assert!((kernel.dc - exact.dc_gain(s)).abs() < 1e-12);
            assert!((multi.energy(s) - exact.energy(s)).abs() < 1e-12);
        }
    }

    /// Factor-1 rate blocks are exact identities for PSD propagation.
    #[test]
    fn unit_rate_factors_are_identities() {
        let mut g = Sfg::new();
        let x = g.add_input();
        let d1 = g.add_block(Block::Downsample(1), &[x]).unwrap();
        let f = g.add_block(Block::Fir(Fir::new(vec![0.6, 0.4])), &[d1]).unwrap();
        let u1 = g.add_block(Block::Upsample(1), &[f]).unwrap();
        g.mark_output(u1);
        let npsd = 16;
        assert!(!is_multirate(&g), "factor 1 stays on the single-rate path");
        let multi = multirate_responses(&g, u1, npsd).unwrap();
        let exact = node_responses(&g, u1, npsd).unwrap();
        for s in [x, d1, f, u1] {
            let kernel = multi.kernel(s);
            let mag = exact.magnitude_squared(s);
            for k in 0..npsd {
                assert!((kernel.variance[k] - mag[k] / npsd as f64).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn white_noise_folds_white_and_keeps_power() {
        let (g, x, ..) = branch_graph();
        let multi = multirate_responses(&g, g.outputs()[0], 64).unwrap();
        // Input source: |H0|^2-shaped, folded, imaged, |G0|^2-shaped. The
        // half-band pair 0.5(1 + z^-1) gives total power gain:
        // integral of |H(F)|^2 |H(F)|^2-ish terms; just check positivity and
        // the down-up power arithmetic on the decimator's own source.
        let down = NodeId(2);
        // Source at the decimator output (rate 1/2, 32 bins white) ->
        // upsample (power /2) -> |G0|^2 (energy 1/2): power 1/4.
        assert!((multi.energy(down) - 0.25).abs() < 1e-12);
        // The input-side kernel keeps every bin non-negative.
        assert!(multi.kernel(x).variance.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn upsampler_images_the_mean_onto_exact_bins() {
        // Source with pure mean at the expander input: after U2, the mean
        // halves and a Nyquist image line of mass (mu/2)^2 appears.
        let mut g = Sfg::new();
        let x = g.add_input();
        let up = g.add_block(Block::Upsample(2), &[x]).unwrap();
        g.mark_output(up);
        let npsd = 8; // input grid 8 -> output grid 16
        let multi = multirate_responses(&g, up, npsd).unwrap();
        let kernel = multi.kernel(x);
        assert_eq!(multi.npsd_out(), 16);
        assert!((kernel.dc - 0.5).abs() < 1e-15);
        assert!((kernel.mean_sq[8] - 0.25).abs() < 1e-15, "image line at F = 1/2");
        let total_line_mass: f64 = kernel.mean_sq.iter().sum();
        assert!((total_line_mass - 0.25).abs() < 1e-15);
        // Unit-variance white at the input: power 1/2 after zero-stuffing.
        assert!((multi.energy(x) - 0.5).abs() < 1e-12);
    }

    /// Pins the documented Eq. 14 scope: in the multirate path, even
    /// same-rate reconvergent branches add as powers, so a coherently
    /// cancelling pair reports the power sum instead of zero. (The
    /// single-rate solve on the same subgraph captures the cancellation
    /// exactly — which is why rate-changer-free graphs never take this
    /// path.)
    #[test]
    fn same_rate_reconvergence_adds_powers_not_amplitudes() {
        let mut g = Sfg::new();
        let x = g.add_input();
        let p = g.add_block(Block::Gain(1.0), &[x]).unwrap();
        let n = g.add_block(Block::Gain(-1.0), &[x]).unwrap();
        let add = g.add_block(Block::Add, &[p, n]).unwrap();
        let down = g.add_block(Block::Downsample(2), &[add]).unwrap();
        g.mark_output(down);
        let multi = multirate_responses(&g, down, 32).unwrap();
        // Exact: the branches cancel, contribution 0. Eq. 14: 1 + 1 = 2.
        assert!((multi.energy(x) - 2.0).abs() < 1e-12, "Eq. 14 power addition is the contract");
        // The exact single-rate solve on the rate-changer-free subgraph
        // sees the cancellation.
        let mut lti = Sfg::new();
        let x = lti.add_input();
        let p = lti.add_block(Block::Gain(1.0), &[x]).unwrap();
        let n = lti.add_block(Block::Gain(-1.0), &[x]).unwrap();
        let add = lti.add_block(Block::Add, &[p, n]).unwrap();
        lti.mark_output(add);
        let exact = node_responses(&lti, add, 32).unwrap();
        assert!(exact.energy(x) < 1e-24, "coherent cancellation, single-rate path");
    }

    #[test]
    fn downstream_of_output_has_zero_kernel() {
        let (g, ..) = branch_graph();
        let mut g = g;
        let tail = g.add_block(Block::Gain(3.0), &[g.outputs()[0]]).unwrap();
        let multi = multirate_responses(&g, g.outputs()[0], 32).unwrap();
        assert_eq!(multi.energy(tail), 0.0);
        assert_eq!(multi.kernel(tail).dc, 0.0);
    }

    #[test]
    fn indivisible_npsd_is_an_error() {
        let (g, ..) = branch_graph();
        assert!(matches!(
            multirate_responses(&g, g.outputs()[0], 31),
            Err(SfgError::RateMismatch { .. })
        ));
    }

    #[test]
    fn iir_and_cycles_are_rejected() {
        use psdacc_filters::Iir;
        let (mut g, x, ..) = branch_graph();
        let out = g.outputs()[0];
        let iir = g.add_block(Block::Iir(Iir::new(vec![1.0], vec![1.0, -0.5]).unwrap()), &[x]);
        let _ = iir.unwrap();
        assert!(matches!(multirate_responses(&g, out, 32), Err(SfgError::Multirate { .. })));

        let mut c = Sfg::new();
        let x = c.add_input();
        let add = c.add_block(Block::Add, &[x]).unwrap();
        let delay = c.add_block(Block::Delay(1), &[add]).unwrap();
        c.set_inputs(add, &[x, delay]).unwrap();
        c.mark_output(add);
        assert!(matches!(multirate_responses(&c, add, 32), Err(SfgError::Multirate { .. })));
    }

    #[test]
    fn rows_round_trip_bit_exactly() {
        let (g, ..) = branch_graph();
        let multi = multirate_responses(&g, g.outputs()[0], 64).unwrap();
        let rows = multi.to_rows();
        assert_eq!(rows[0].len(), multi.npsd_out() + 1);
        let back = MultirateResponses::from_rows(rows, multi.npsd()).unwrap();
        assert_eq!(back.npsd(), multi.npsd());
        assert_eq!(back.npsd_out(), multi.npsd_out());
        for s in 0..multi.len() {
            assert_eq!(back.kernel(NodeId(s)), multi.kernel(NodeId(s)));
        }
        // Malformed rows are rejected.
        assert!(MultirateResponses::from_rows(vec![], 8).is_err());
        assert!(MultirateResponses::from_rows(vec![vec![psdacc_fft::Complex::ONE]], 8).is_err());
        let ragged = vec![vec![psdacc_fft::Complex::ONE; 3], vec![psdacc_fft::Complex::ONE; 4]];
        assert!(MultirateResponses::from_rows(ragged, 8).is_err());
    }
}
