//! Property-based tests of the signal-flow-graph substrate.

use proptest::prelude::*;
use psdacc_fft::{Complex, FftPlanner};
use psdacc_filters::Fir;
use psdacc_sfg::{
    check_realizable, execution_order, is_acyclic, multirate_responses, node_responses, Block,
    NodeId, Sfg,
};

/// Builds a random acyclic chain-with-forks graph from a recipe.
fn build_dag(recipe: &[(u8, f64)]) -> (Sfg, NodeId) {
    let mut g = Sfg::new();
    let x = g.add_input();
    let mut frontier = vec![x];
    for &(kind, param) in recipe {
        let src = frontier[(param.abs() * 997.0) as usize % frontier.len()];
        let id = match kind % 4 {
            0 => g.add_block(Block::Gain(param), &[src]).expect("valid"),
            1 => g.add_block(Block::Delay(1 + (kind / 4) as usize), &[src]).expect("valid"),
            2 => g
                .add_block(Block::Fir(Fir::new(vec![0.5, param.clamp(-1.0, 1.0)])), &[src])
                .expect("valid"),
            _ => {
                let other = frontier[0];
                g.add_block(Block::Add, &[src, other]).expect("valid")
            }
        };
        frontier.push(id);
    }
    let out = *frontier.last().expect("non-empty");
    g.mark_output(out);
    (g, out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Randomly built forward graphs are acyclic, realizable, and
    /// schedulable with every predecessor (except delays) firing first.
    #[test]
    fn random_dags_are_well_formed(
        recipe in prop::collection::vec((0u8..8, -2.0f64..2.0), 1..12),
    ) {
        let (g, _) = build_dag(&recipe);
        prop_assert!(is_acyclic(&g));
        prop_assert!(check_realizable(&g).is_ok());
        let order = execution_order(&g).expect("schedulable");
        prop_assert_eq!(order.len(), g.len());
        let pos: Vec<usize> = {
            let mut p = vec![0; g.len()];
            for (i, id) in order.iter().enumerate() {
                p[id.0] = i;
            }
            p
        };
        for (id, node) in g.iter() {
            if node.block.breaks_delay_free_path() {
                continue;
            }
            for pred in &node.inputs {
                prop_assert!(
                    pos[pred.0] < pos[id.0],
                    "node {:?} fired before its input {:?}",
                    id,
                    pred
                );
            }
        }
    }

    /// The frequency solver satisfies superposition: the response from the
    /// input equals the sum over first-layer children of (child block
    /// response x child-to-output response) — the defining recursion of an
    /// LTI graph.
    #[test]
    fn solver_superposition(
        recipe in prop::collection::vec((0u8..8, -1.5f64..1.5), 2..10),
    ) {
        let (g, out) = build_dag(&recipe);
        let npsd = 16;
        let resp = node_responses(&g, out, npsd).expect("solvable");
        // Identity: for every node n, G_n = sum_{c : n in inputs(c)} T_c * G_c
        // where T_c is the block response of child c (G of the output node
        // itself is 1 plus downstream contributions).
        let succ = g.successors();
        for (id, _) in g.iter() {
            let mut expect = vec![Complex::ZERO; npsd];
            if id == out {
                for v in expect.iter_mut() {
                    *v += Complex::ONE;
                }
            }
            // successors() lists a child once per edge, so plain summation
            // already accounts for multi-edges (e.g. Add with both inputs
            // wired to the same node).
            for &c in &succ[id.0] {
                let t = g.node(c).block.frequency_response(npsd, &mut FftPlanner::new());
                let gc = resp.of(c);
                for k in 0..npsd {
                    expect[k] += t[k] * gc[k];
                }
            }
            let got = resp.of(id);
            for k in 0..npsd {
                prop_assert!(
                    (got[k] - expect[k]).norm() < 1e-8,
                    "node {:?} bin {}: {} vs {}",
                    id,
                    k,
                    got[k],
                    expect[k]
                );
            }
        }
    }

    /// `Downsample(1)` / `Upsample(1)` are identities for PSD propagation:
    /// a random LTI chain with unit-factor rate blocks spliced between
    /// every stage yields exactly the same input-to-output response (the
    /// single-rate solve) and the same input noise kernel (the multirate
    /// fold/image path) as the plain chain.
    #[test]
    fn unit_rate_factors_are_psd_propagation_identities(
        stages in prop::collection::vec((-1.0f64..1.0, 0u8..2), 1..6),
        npsd_pow in 3u32..6,
    ) {
        let npsd = 1usize << npsd_pow;
        let mut plain = Sfg::new();
        let px = plain.add_input();
        let mut prev = px;
        for &(gain, _) in &stages {
            prev = plain
                .add_block(Block::Fir(Fir::new(vec![0.6, gain, -0.2])), &[prev])
                .expect("valid");
        }
        plain.mark_output(prev);

        let mut spliced = Sfg::new();
        let sx = spliced.add_input();
        let mut prev = sx;
        for &(gain, which) in &stages {
            let rate = if which == 0 { Block::Downsample(1) } else { Block::Upsample(1) };
            prev = spliced.add_block(rate, &[prev]).expect("valid");
            prev = spliced
                .add_block(Block::Fir(Fir::new(vec![0.6, gain, -0.2])), &[prev])
                .expect("valid");
        }
        let tail = spliced.add_block(Block::Upsample(1), &[prev]).expect("valid");
        spliced.mark_output(tail);

        // Single-rate solve: identical input-to-output responses.
        let plain_resp = node_responses(&plain, *plain.outputs().first().unwrap(), npsd)
            .expect("solvable");
        let spliced_resp = node_responses(&spliced, tail, npsd).expect("solvable");
        for k in 0..npsd {
            prop_assert!(
                (plain_resp.of(px)[k] - spliced_resp.of(sx)[k]).norm() < 1e-9,
                "bin {k}"
            );
        }
        // Multirate fold/image path: identical input kernels, zero image
        // mass, identical DC path.
        let plain_multi = multirate_responses(&plain, *plain.outputs().first().unwrap(), npsd)
            .expect("propagates");
        let spliced_multi = multirate_responses(&spliced, tail, npsd).expect("propagates");
        prop_assert_eq!(spliced_multi.npsd_out(), npsd, "unit factors keep the grid");
        let a = plain_multi.kernel(px);
        let b = spliced_multi.kernel(sx);
        for k in 0..npsd {
            prop_assert!((a.variance[k] - b.variance[k]).abs() < 1e-12, "bin {k}");
            prop_assert!(b.mean_sq[k].abs() < 1e-15, "unit expanders deposit no image lines");
        }
        prop_assert!((a.dc - b.dc).abs() < 1e-12);
    }

    /// Probing the simulator matches the frequency solver: the DFT of the
    /// impulse response from the input to the output equals the solved
    /// response (for FIR-only graphs, where the response is finite).
    #[test]
    fn time_probe_matches_solver(
        gains in prop::collection::vec(-1.0f64..1.0, 1..5),
    ) {
        let mut g = Sfg::new();
        let x = g.add_input();
        let mut prev = x;
        for &gain in &gains {
            let f = g
                .add_block(Block::Fir(Fir::new(vec![gain, 0.5 - gain / 2.0])), &[prev])
                .expect("valid");
            prev = f;
        }
        g.mark_output(prev);
        let npsd = 32;
        let resp = node_responses(&g, prev, npsd).expect("solvable");
        let mut sim = psdacc_sim::SfgSimulator::reference(&g).expect("realizable");
        sim.inject(x, 1.0);
        let h: Vec<f64> = (0..npsd).map(|_| sim.step(&[0.0])[0]).collect();
        let spec = psdacc_fft::real_fft(&h);
        for k in 0..npsd {
            prop_assert!(
                (spec[k] - resp.of(x)[k]).norm() < 1e-8,
                "bin {k}: {} vs {}",
                spec[k],
                resp.of(x)[k]
            );
        }
    }
}
