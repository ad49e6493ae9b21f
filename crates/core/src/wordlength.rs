//! Word-length plans: where quantizers sit and which noise sources they
//! create.
//!
//! The rule mirrors realizable hardware and keeps the analytical model and
//! the bit-true simulation describing the *same* machine:
//!
//! * the external input is quantized to `d` fractional bits (continuous-
//!   amplitude source),
//! * every multiplicative block (gain with a non-power-of-two coefficient,
//!   FIR, IIR) re-quantizes its output — products carry more fractional bits
//!   than the format holds, so each creates a fresh PQN source,
//! * adders and delays are exact at a common format and create no noise,
//! * IIR quantization happens *inside* the recursion (direct form I), so its
//!   source is shaped by `1/A(z)` before reaching the block output.

use std::collections::{HashMap, HashSet};

use psdacc_fixed::{NoiseMoments, Quantizer, RoundingMode};
use psdacc_sfg::{Block, NodeId, Sfg};

/// A quantization-noise source attached to a node output.
#[derive(Debug, Clone)]
pub struct NoiseSource {
    /// The node whose output carries the source.
    pub node: NodeId,
    /// PQN moments of the injected white noise.
    pub moments: NoiseMoments,
    /// For IIR blocks: the recursion denominator `a` coefficients; the
    /// source passes through `1/A(z)` before reaching the node output.
    pub internal_feedback: Option<Vec<f64>>,
}

impl NoiseSource {
    /// Impulse response of the internal shaping (delta when none).
    pub fn shaping_impulse(&self, max_len: usize, tol: f64) -> Vec<f64> {
        match &self.internal_feedback {
            None => vec![1.0],
            Some(a) => psdacc_dsp::iir_impulse_response(&[1.0], a, max_len, tol),
        }
    }
}

/// Assignment of fractional word-lengths to an SFG.
#[derive(Debug, Clone)]
pub struct WordLengthPlan {
    /// Default fractional bits for every quantized signal.
    pub frac_bits: i32,
    /// Rounding mode of all quantizers.
    pub rounding: RoundingMode,
    /// Per-node overrides of `frac_bits`.
    pub overrides: HashMap<NodeId, i32>,
    /// Whether the external inputs are quantized (the paper's benchmarks
    /// quantize them).
    pub quantize_inputs: bool,
    /// Nodes exempted from quantization entirely (a `GraphSpec` node with
    /// role `exact`): they never carry a quantizer and inject no noise,
    /// regardless of block kind. Empty for the builtin scenarios, so the
    /// historical uniform-plan behavior is unchanged.
    pub exact_nodes: HashSet<NodeId>,
}

impl WordLengthPlan {
    /// Uniform plan: every quantization point uses `frac_bits` bits (the
    /// setting of the paper's experiments, which sweep a single `d`).
    pub fn uniform(frac_bits: i32, rounding: RoundingMode) -> Self {
        WordLengthPlan {
            frac_bits,
            rounding,
            overrides: HashMap::new(),
            quantize_inputs: true,
            exact_nodes: HashSet::new(),
        }
    }

    /// Overrides the word-length of one node (builder style).
    pub fn with_override(mut self, node: NodeId, frac_bits: i32) -> Self {
        self.overrides.insert(node, frac_bits);
        self
    }

    /// Marks nodes as exact — no quantizer, no noise source — regardless
    /// of block kind (builder style). This is how `GraphSpec` role
    /// declarations reach both the analytical methods and the bit-true
    /// simulation, which share [`WordLengthPlan::quantized_nodes`].
    pub fn with_exact_nodes(mut self, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        self.exact_nodes.extend(nodes);
        self
    }

    /// Effective fractional bits at a node.
    pub fn frac_bits_of(&self, node: NodeId) -> i32 {
        self.overrides.get(&node).copied().unwrap_or(self.frac_bits)
    }

    /// `true` if the block requantizes its output (creates noise).
    fn is_noisy_block(block: &Block) -> bool {
        match block {
            Block::Gain(g) => {
                // Powers of two (incl. sign flips) are exact shifts.
                let a = g.abs();
                !(a > 0.0 && a.log2().fract().abs() < 1e-12)
            }
            Block::Fir(_) | Block::Iir(_) => true,
            // Rate changers move (or zero-stuff) samples without arithmetic:
            // no requantization, no noise source. Measured sources inject
            // their estimated spectrum directly (handled by the evaluator),
            // not through a quantizer.
            Block::Input
            | Block::Delay(_)
            | Block::Add
            | Block::Downsample(_)
            | Block::Upsample(_)
            | Block::Measured(_) => false,
        }
    }

    /// The nodes that carry quantizers under this plan.
    pub fn quantized_nodes(&self, sfg: &Sfg) -> Vec<NodeId> {
        sfg.iter()
            .filter(|(id, node)| {
                !self.exact_nodes.contains(id)
                    && match node.block {
                        Block::Input => self.quantize_inputs && sfg.inputs().contains(id),
                        ref b => Self::is_noisy_block(b),
                    }
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// The nodes that **would** carry quantizers but are exempted by an
    /// `exact` role — the zero-contribution rows of a noise budget. A
    /// node outside `exact_nodes`, or one that is noiseless regardless
    /// (adder, delay, power-of-two gain), never appears here.
    pub fn exempted_nodes(&self, sfg: &Sfg) -> Vec<NodeId> {
        sfg.iter()
            .filter(|(id, node)| {
                self.exact_nodes.contains(id)
                    && match node.block {
                        Block::Input => self.quantize_inputs && sfg.inputs().contains(id),
                        ref b => Self::is_noisy_block(b),
                    }
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// Quantizer vector for the simulation engine (indexed by node).
    pub fn quantizers(&self, sfg: &Sfg) -> Vec<Option<Quantizer>> {
        let mut out = vec![None; sfg.len()];
        for id in self.quantized_nodes(sfg) {
            out[id.0] = Some(Quantizer::new(self.frac_bits_of(id), self.rounding));
        }
        out
    }

    /// Noise sources for the analytical methods (PQN continuous model: the
    /// quantized values are products/continuous-amplitude signals).
    pub fn noise_sources(&self, sfg: &Sfg) -> Vec<NoiseSource> {
        self.quantized_nodes(sfg)
            .into_iter()
            .map(|id| {
                let moments = NoiseMoments::continuous(self.rounding, self.frac_bits_of(id));
                let internal_feedback = match &sfg.node(id).block {
                    Block::Iir(iir) => Some(iir.a().to_vec()),
                    _ => None,
                };
                NoiseSource { node: id, moments, internal_feedback }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdacc_filters::{Fir, Iir};

    fn sample_graph() -> (Sfg, NodeId, NodeId, NodeId, NodeId, NodeId) {
        let mut g = Sfg::new();
        let x = g.add_input();
        let gain = g.add_block(Block::Gain(0.3), &[x]).unwrap();
        let shift = g.add_block(Block::Gain(0.5), &[gain]).unwrap(); // exact shift
        let fir = g.add_block(Block::Fir(Fir::new(vec![0.5, 0.5])), &[shift]).unwrap();
        let iir =
            g.add_block(Block::Iir(Iir::new(vec![1.0], vec![1.0, -0.5]).unwrap()), &[fir]).unwrap();
        g.mark_output(iir);
        (g, x, gain, shift, fir, iir)
    }

    #[test]
    fn quantized_nodes_follow_the_rule() {
        let (g, x, gain, shift, fir, iir) = sample_graph();
        let plan = WordLengthPlan::uniform(12, RoundingMode::Truncate);
        let nodes = plan.quantized_nodes(&g);
        assert!(nodes.contains(&x));
        assert!(nodes.contains(&gain));
        assert!(!nodes.contains(&shift), "power-of-two gain is exact");
        assert!(nodes.contains(&fir));
        assert!(nodes.contains(&iir));
    }

    #[test]
    fn input_quantization_can_be_disabled() {
        let (g, x, ..) = sample_graph();
        let mut plan = WordLengthPlan::uniform(12, RoundingMode::Truncate);
        plan.quantize_inputs = false;
        assert!(!plan.quantized_nodes(&g).contains(&x));
    }

    #[test]
    fn exact_nodes_are_exempt_everywhere() {
        let (g, x, gain, _, fir, iir) = sample_graph();
        let plan =
            WordLengthPlan::uniform(12, RoundingMode::Truncate).with_exact_nodes([gain, fir]);
        let nodes = plan.quantized_nodes(&g);
        assert!(nodes.contains(&x) && nodes.contains(&iir));
        assert!(!nodes.contains(&gain) && !nodes.contains(&fir), "exact roles exempt");
        // Quantizers and noise sources share the exemption.
        let q = plan.quantizers(&g);
        assert!(q[gain.0].is_none() && q[fir.0].is_none());
        assert!(plan.noise_sources(&g).iter().all(|s| s.node != gain && s.node != fir));
        // Inputs can be exempted too.
        let plan = WordLengthPlan::uniform(12, RoundingMode::Truncate).with_exact_nodes([x]);
        assert!(!plan.quantized_nodes(&g).contains(&x));
    }

    #[test]
    fn overrides_apply() {
        let (g, x, ..) = sample_graph();
        let plan = WordLengthPlan::uniform(12, RoundingMode::Truncate).with_override(x, 20);
        assert_eq!(plan.frac_bits_of(x), 20);
        let q = plan.quantizers(&g);
        assert_eq!(q[x.0].unwrap().frac_bits(), 20);
    }

    #[test]
    fn iir_source_is_shaped() {
        let (g, .., iir) = sample_graph();
        let plan = WordLengthPlan::uniform(8, RoundingMode::RoundNearest);
        let sources = plan.noise_sources(&g);
        let iir_src = sources.iter().find(|s| s.node == iir).unwrap();
        assert_eq!(iir_src.internal_feedback.as_deref(), Some(&[1.0, -0.5][..]));
        let ir = iir_src.shaping_impulse(64, 1e-12);
        assert!((ir[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fir_source_is_unshaped() {
        let (g, .., fir, _) = sample_graph();
        let plan = WordLengthPlan::uniform(8, RoundingMode::RoundNearest);
        let sources = plan.noise_sources(&g);
        let src = sources.iter().find(|s| s.node == fir).unwrap();
        assert!(src.internal_feedback.is_none());
        assert_eq!(src.shaping_impulse(16, 0.0), vec![1.0]);
    }

    #[test]
    fn source_moments_match_pqn() {
        let (g, ..) = sample_graph();
        let plan = WordLengthPlan::uniform(10, RoundingMode::Truncate);
        for s in plan.noise_sources(&g) {
            let expect = NoiseMoments::continuous(RoundingMode::Truncate, 10);
            assert_eq!(s.moments, expect);
        }
    }
}
