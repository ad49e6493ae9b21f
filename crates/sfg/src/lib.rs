//! # psdacc-sfg
//!
//! Signal-flow-graph substrate for the `psdacc` workspace (DATE 2016 PSD
//! accuracy-evaluation reproduction).
//!
//! An LTI system is a graph of [`Block`]s ([`Sfg`]); quantization-noise
//! sources sit at node outputs (bookkeeping in `psdacc-core`). The crate
//! provides the two structural services every evaluation method needs:
//!
//! * [`topo`] — Tarjan SCC cycle detection, realizability checking (every
//!   loop must contain a delay) and per-sample execution ordering, covering
//!   step 1 of the paper's Section III-B;
//! * [`freq`] — exact per-frequency resolution `(I - D(F) A) Y = U` of the
//!   whole graph, yielding the complex response from **every node** to the
//!   output in one linear solve per bin. A graph whose edges all run from
//!   lower to higher node ids is swept in reverse id order in O(edges) per
//!   bin; one with a backward edge (a feedback loop, or nodes listed out of
//!   dependency order) is solved densely. Both give the same bits on a
//!   forward graph. Feedback loops need no textual breaking, and
//!   reconvergent paths of the same noise source interfere with correct
//!   phase (the correlation information PSD-agnostic methods lose). Each
//!   bin's responses are reduced as they are solved into one real
//!   [`SourceKernel`] row per node, collected in the [`Preprocessed`]
//!   kernel set every evaluation reads;
//! * [`multirate`] — rational per-node sample rates for graphs containing
//!   [`Block::Downsample`] / [`Block::Upsample`], and the analytical PSD
//!   propagation (fold at decimators, image at expanders, Eq. 14 addition
//!   at junctions) that replaces the linear solve on such graphs and
//!   yields the same kernel set. The [`freq::preprocess`] entry point
//!   dispatches between the two paths;
//! * [`spec`] — declarative [`GraphSpec`] descriptions (systems as data:
//!   named nodes, block parameters, probed outputs, word-length-plan
//!   roles) that compile into fully validated graphs, with every defect a
//!   typed [`GraphSpecError`]. The open scenario API of `psdacc-engine`
//!   and the `define_scenario` wire verb of `psdacc-serve` build on it.

pub mod block;
pub mod dot;
pub mod error;
pub mod freq;
pub mod graph;
pub mod multirate;
pub mod spec;
pub mod topo;

pub use block::{Block, MeasuredSource};
pub use dot::to_dot;
pub use error::SfgError;
pub use freq::{
    node_responses, preprocess, single_rate_kernels, NodeResponses, Preprocessed, SourceKernel,
};
pub use graph::{Node, NodeId, Sfg};
pub use multirate::{is_multirate, multirate_responses, node_rates, Rate};
pub use spec::{BlockSpec, GraphSpec, GraphSpecError, NodeRole, NodeSpec};
pub use topo::{check_realizable, execution_order, is_acyclic, strongly_connected_components};
