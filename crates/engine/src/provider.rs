//! The open scenario registry: providers, family introspection, and
//! runtime graph definition.
//!
//! PR 1's scenario registry was a closed table — adding a workload meant
//! editing the engine. This module replaces it with a provider API:
//!
//! * [`ScenarioProvider`] — anything that can turn `name key=value ...`
//!   tokens into a [`Scenario`] and describe its families (with per-family
//!   **parameter schemas**, which is what the serve `describe` verb
//!   returns to clients);
//! * [`BuiltinProvider`] — the 9 paper-derived families, exactly as
//!   before (parity-tested bit-identical through this path);
//! * [`EstimProvider`] — the 3 measured-signal families whose noise model
//!   comes from `psdacc-estim` spectrum estimation of seeded traces;
//! * [`GraphProvider`] — runtime-defined [`GraphSpec`] scenarios,
//!   registered by name (the `define_scenario` wire verb lands here) and
//!   identified by content hash;
//! * [`ScenarioRegistry`] — the provider chain a parser consults. Cloning
//!   shares the underlying providers, so every connection thread of a
//!   daemon sees definitions the moment they are registered.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex, RwLock};

use psdacc_sfg::{spec, GraphSpec};

use crate::error::EngineError;
use crate::graphspec::GraphScenario;
use crate::json::{escape_str, JsonWriter};
use crate::scenario::Scenario;

/// Schema of one scenario parameter (for `describe` introspection and CLI
/// tables).
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpec {
    /// Parameter name as written in spec lines.
    pub name: &'static str,
    /// Value kind: `"int"`, `"float"`, or `"str"`.
    pub kind: &'static str,
    /// Whether the parameter must be given.
    pub required: bool,
    /// Default value rendered as spec text (absent for required params).
    pub default: Option<&'static str>,
    /// Human-readable constraint (e.g. `0..147`).
    pub constraint: &'static str,
}

/// One scenario family: name, provenance, and parameter schema.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyInfo {
    /// Family name as written in batch specs.
    pub name: String,
    /// Which provider serves it (`"builtin"` or `"dynamic"`).
    pub provider: &'static str,
    /// One-line description.
    pub description: String,
    /// Parameter schema (empty for parameterless families).
    pub params: Vec<ParamSpec>,
}

impl FamilyInfo {
    /// Compact `key=default ...` summary for CLI tables.
    pub fn params_summary(&self) -> String {
        if self.params.is_empty() {
            return "(none)".to_string();
        }
        self.params
            .iter()
            .map(|p| match (p.required, p.default) {
                (true, _) => format!("{} (required, {})", p.name, p.constraint),
                (false, Some(d)) => format!("{}={d}", p.name),
                (false, None) => p.name.to_string(),
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// One-line JSON rendering (the `describe` wire shape): name,
    /// provider, description, and the full parameter schema.
    pub fn to_json_line(&self) -> String {
        let params: Vec<String> = self
            .params
            .iter()
            .map(|p| {
                let mut w = JsonWriter::new();
                w.field_str("name", p.name);
                w.field_str("kind", p.kind);
                w.field_bool("required", p.required);
                if let Some(d) = p.default {
                    w.field_str("default", d);
                }
                w.field_str("constraint", p.constraint);
                w.finish()
            })
            .collect();
        let mut w = JsonWriter::new();
        w.field_str("name", &self.name);
        w.field_str("provider", self.provider);
        w.field_str("description", &self.description);
        w.field_raw("params", &format!("[{}]", params.join(",")));
        w.finish()
    }
}

/// A source of scenario families. Implementations must be cheap to query:
/// parsers consult every provider per spec line.
pub trait ScenarioProvider: Send + Sync + std::fmt::Debug {
    /// Provenance tag recorded in [`FamilyInfo::provider`].
    fn provider_name(&self) -> &'static str;

    /// The families this provider currently serves.
    fn families(&self) -> Vec<FamilyInfo>;

    /// Parses `name params` into a scenario. `Ok(None)` means "not my
    /// family" (the registry moves on to the next provider); `Err` means
    /// the family is this provider's but the parameters are invalid.
    ///
    /// # Errors
    ///
    /// [`EngineError::Scenario`] for invalid parameters of an owned family.
    fn parse(
        &self,
        name: &str,
        params: &BTreeMap<String, String>,
    ) -> Result<Option<Scenario>, EngineError>;
}

/// The 9 builtin families (Table I banks, cascades, the Fig. 2 chain, CDF
/// 9/7 pipelines, decimated codecs, random SFGs) behind the provider API.
#[derive(Debug, Default, Clone, Copy)]
pub struct BuiltinProvider;

struct BuiltinFamily {
    name: &'static str,
    description: &'static str,
    params: &'static [ParamSpec],
}

const BUILTIN_FAMILIES: &[BuiltinFamily] = &[
    BuiltinFamily {
        name: "fir-bank",
        description: "one FIR of the paper's Table I population",
        params: &[ParamSpec {
            name: "index",
            kind: "int",
            required: true,
            default: None,
            constraint: "0..147",
        }],
    },
    BuiltinFamily {
        name: "iir-bank",
        description: "one IIR of the paper's Table I population",
        params: &[ParamSpec {
            name: "index",
            kind: "int",
            required: true,
            default: None,
            constraint: "0..147",
        }],
    },
    BuiltinFamily {
        name: "fir-cascade",
        description: "chain of identical lowpass FIR stages",
        params: &[
            ParamSpec {
                name: "stages",
                kind: "int",
                required: false,
                default: Some("2"),
                constraint: "1..=16",
            },
            ParamSpec {
                name: "taps",
                kind: "int",
                required: false,
                default: Some("31"),
                constraint: "3..=255",
            },
            ParamSpec {
                name: "cutoff",
                kind: "float",
                required: false,
                default: Some("0.2"),
                constraint: "(0, 0.5)",
            },
        ],
    },
    BuiltinFamily {
        name: "iir-cascade",
        description: "chain of identical Butterworth IIR stages",
        params: &[
            ParamSpec {
                name: "stages",
                kind: "int",
                required: false,
                default: Some("2"),
                constraint: "1..=16",
            },
            ParamSpec {
                name: "order",
                kind: "int",
                required: false,
                default: Some("4"),
                constraint: "1..=10",
            },
            ParamSpec {
                name: "cutoff",
                kind: "float",
                required: false,
                default: Some("0.2"),
                constraint: "(0, 0.5)",
            },
        ],
    },
    BuiltinFamily {
        name: "freq-filter",
        description: "Fig. 2 band-pass chain (prefilter + highpass)",
        params: &[],
    },
    BuiltinFamily {
        name: "dwt-pipeline",
        description: "undecimated CDF 9/7 analysis/synthesis pipeline",
        params: &[ParamSpec {
            name: "levels",
            kind: "int",
            required: false,
            default: Some("2"),
            constraint: "1..=4",
        }],
    },
    BuiltinFamily {
        name: "dwt-decimated",
        description: "decimated CDF 9/7 octave codec (true multirate; npsd divisible by 2^levels)",
        params: &[ParamSpec {
            name: "levels",
            kind: "int",
            required: false,
            default: Some("2"),
            constraint: "1..=4",
        }],
    },
    BuiltinFamily {
        name: "dwt-packet",
        description: "decimated CDF 9/7 wavelet-packet bank (2^depth uniform subbands)",
        params: &[ParamSpec {
            name: "depth",
            kind: "int",
            required: false,
            default: Some("2"),
            constraint: "1..=3",
        }],
    },
    BuiltinFamily {
        name: "random-sfg",
        description: "seeded random chain-with-forks DAG",
        params: &[
            ParamSpec {
                name: "nodes",
                kind: "int",
                required: false,
                default: Some("12"),
                constraint: "1..=256",
            },
            ParamSpec {
                name: "seed",
                kind: "int",
                required: false,
                default: Some("1"),
                constraint: "u64",
            },
        ],
    },
];

impl ScenarioProvider for BuiltinProvider {
    fn provider_name(&self) -> &'static str {
        "builtin"
    }

    fn families(&self) -> Vec<FamilyInfo> {
        BUILTIN_FAMILIES
            .iter()
            .map(|f| FamilyInfo {
                name: f.name.to_string(),
                provider: "builtin",
                description: f.description.to_string(),
                params: f.params.to_vec(),
            })
            .collect()
    }

    fn parse(
        &self,
        name: &str,
        params: &BTreeMap<String, String>,
    ) -> Result<Option<Scenario>, EngineError> {
        let Some(family) = BUILTIN_FAMILIES.iter().find(|f| f.name == name) else {
            return Ok(None);
        };
        for key in params.keys() {
            if !family.params.iter().any(|p| p.name == key) {
                let allowed: Vec<&str> = family.params.iter().map(|p| p.name).collect();
                return Err(EngineError::Scenario(format!(
                    "{name}: unknown parameter `{key}` (allowed: {})",
                    if allowed.is_empty() { "none".to_string() } else { allowed.join(", ") }
                )));
            }
        }
        let get_usize = |key: &str, default: Option<usize>| -> Result<usize, EngineError> {
            match params.get(key) {
                Some(v) => v.parse().map_err(|_| {
                    EngineError::Scenario(format!("{name}: `{key}` must be an integer, got `{v}`"))
                }),
                None => default.ok_or_else(|| {
                    EngineError::Scenario(format!("{name}: missing required parameter `{key}`"))
                }),
            }
        };
        let get_f64 = |key: &str, default: f64| -> Result<f64, EngineError> {
            match params.get(key) {
                Some(v) => v.parse().map_err(|_| {
                    EngineError::Scenario(format!("{name}: `{key}` must be a number, got `{v}`"))
                }),
                None => Ok(default),
            }
        };
        let scenario = match name {
            "fir-bank" => Scenario::FirBank { index: get_usize("index", None)? },
            "iir-bank" => Scenario::IirBank { index: get_usize("index", None)? },
            "fir-cascade" => Scenario::FirCascade {
                stages: get_usize("stages", Some(2))?,
                taps: get_usize("taps", Some(31))?,
                cutoff: get_f64("cutoff", 0.2)?,
            },
            "iir-cascade" => Scenario::IirCascade {
                stages: get_usize("stages", Some(2))?,
                order: get_usize("order", Some(4))?,
                cutoff: get_f64("cutoff", 0.2)?,
            },
            "freq-filter" => Scenario::FreqFilter,
            "dwt-pipeline" => Scenario::DwtPipeline { levels: get_usize("levels", Some(2))? },
            "dwt-decimated" => Scenario::DwtDecimated { levels: get_usize("levels", Some(2))? },
            "dwt-packet" => Scenario::DwtPacket { depth: get_usize("depth", Some(2))? },
            "random-sfg" => Scenario::RandomSfg {
                nodes: get_usize("nodes", Some(12))?,
                seed: get_usize("seed", Some(1))? as u64,
            },
            _ => unreachable!("family table matched above"),
        };
        // Range errors surface at parse time (with the spec's line number);
        // the full graph build is deferred to the evaluator cache so design
        // work is not paid twice per scenario.
        scenario.validate()?;
        Ok(Some(scenario))
    }
}

/// The 3 measured-signal families (PR 10): scenarios whose noise model is
/// *estimated from a seeded trace* by `psdacc-estim` rather than derived
/// from quantization formulas. Determinism per seed is what makes them
/// fleet-safe: every daemon rebuilding the scenario from its spec line
/// reproduces the trace, hence the spectrum, bit-identically.
#[derive(Debug, Default, Clone, Copy)]
pub struct EstimProvider;

const ESTIM_FAMILIES: &[BuiltinFamily] = &[
    BuiltinFamily {
        name: "measured-welch",
        description: "Welch-estimated PSD of a seeded AR(1)+DC trace as a measured source",
        params: &[
            ParamSpec {
                name: "samples",
                kind: "int",
                required: false,
                default: Some("4096"),
                constraint: "256..=65536",
            },
            ParamSpec {
                name: "seed",
                kind: "int",
                required: false,
                default: Some("1"),
                constraint: "u64",
            },
            ParamSpec {
                name: "nfft",
                kind: "int",
                required: false,
                default: Some("256"),
                constraint: "power of two, 8..=16384, <= samples",
            },
            ParamSpec {
                name: "overlap",
                kind: "float",
                required: false,
                default: Some("0.5"),
                constraint: "[0, 0.95]",
            },
            ParamSpec {
                name: "window",
                kind: "str",
                required: false,
                default: Some("hann"),
                constraint: "hann | kaiser",
            },
            ParamSpec {
                name: "beta",
                kind: "float",
                required: false,
                default: None,
                constraint: "kaiser shape, required iff window=kaiser",
            },
            ParamSpec {
                name: "taps",
                kind: "int",
                required: false,
                default: Some("31"),
                constraint: "3..=255",
            },
        ],
    },
    BuiltinFamily {
        name: "cross-spectrum",
        description: "two-channel cross-spectrum estimate rejecting uncorrelated sensor noise",
        params: &[
            ParamSpec {
                name: "samples",
                kind: "int",
                required: false,
                default: Some("8192"),
                constraint: "256..=65536",
            },
            ParamSpec {
                name: "seed",
                kind: "int",
                required: false,
                default: Some("1"),
                constraint: "u64",
            },
            ParamSpec {
                name: "nfft",
                kind: "int",
                required: false,
                default: Some("128"),
                constraint: "power of two, 8..=16384, <= samples",
            },
            ParamSpec {
                name: "overlap",
                kind: "float",
                required: false,
                default: Some("0.5"),
                constraint: "[0, 0.95]",
            },
            ParamSpec {
                name: "snr",
                kind: "float",
                required: false,
                default: Some("0"),
                constraint: "-40..=80 dB common-to-independent ratio",
            },
            ParamSpec {
                name: "taps",
                kind: "int",
                required: false,
                default: Some("31"),
                constraint: "3..=255",
            },
        ],
    },
    BuiltinFamily {
        name: "sigma-delta",
        description: "bit-true sigma-delta modulator error spectrum feeding the decimation filter",
        params: &[
            ParamSpec {
                name: "order",
                kind: "int",
                required: false,
                default: Some("2"),
                constraint: "1..=2",
            },
            ParamSpec {
                name: "osr",
                kind: "int",
                required: false,
                default: Some("16"),
                constraint: "power of two, 4..=128",
            },
            ParamSpec {
                name: "amp",
                kind: "float",
                required: false,
                default: Some("0.5"),
                constraint: "(0, 1]",
            },
            ParamSpec {
                name: "samples",
                kind: "int",
                required: false,
                default: Some("16384"),
                constraint: "256..=65536",
            },
            ParamSpec {
                name: "seed",
                kind: "int",
                required: false,
                default: Some("1"),
                constraint: "u64",
            },
            ParamSpec {
                name: "nfft",
                kind: "int",
                required: false,
                default: Some("1024"),
                constraint: "power of two, >= 8*osr, <= samples",
            },
            ParamSpec {
                name: "taps",
                kind: "int",
                required: false,
                default: Some("63"),
                constraint: "3..=255",
            },
        ],
    },
];

impl ScenarioProvider for EstimProvider {
    fn provider_name(&self) -> &'static str {
        "estim"
    }

    fn families(&self) -> Vec<FamilyInfo> {
        ESTIM_FAMILIES
            .iter()
            .map(|f| FamilyInfo {
                name: f.name.to_string(),
                provider: "estim",
                description: f.description.to_string(),
                params: f.params.to_vec(),
            })
            .collect()
    }

    fn parse(
        &self,
        name: &str,
        params: &BTreeMap<String, String>,
    ) -> Result<Option<Scenario>, EngineError> {
        let Some(family) = ESTIM_FAMILIES.iter().find(|f| f.name == name) else {
            return Ok(None);
        };
        for key in params.keys() {
            if !family.params.iter().any(|p| p.name == key) {
                let allowed: Vec<&str> = family.params.iter().map(|p| p.name).collect();
                return Err(EngineError::Scenario(format!(
                    "{name}: unknown parameter `{key}` (allowed: {})",
                    allowed.join(", ")
                )));
            }
        }
        let get_usize = |key: &str, default: usize| -> Result<usize, EngineError> {
            match params.get(key) {
                Some(v) => v.parse().map_err(|_| {
                    EngineError::Scenario(format!("{name}: `{key}` must be an integer, got `{v}`"))
                }),
                None => Ok(default),
            }
        };
        let get_f64 = |key: &str, default: f64| -> Result<f64, EngineError> {
            match params.get(key) {
                Some(v) => v.parse().map_err(|_| {
                    EngineError::Scenario(format!("{name}: `{key}` must be a number, got `{v}`"))
                }),
                None => Ok(default),
            }
        };
        let get_f64_opt = |key: &str| -> Result<Option<f64>, EngineError> {
            params
                .get(key)
                .map(|v| {
                    v.parse().map_err(|_| {
                        EngineError::Scenario(format!(
                            "{name}: `{key}` must be a number, got `{v}`"
                        ))
                    })
                })
                .transpose()
        };
        let scenario = match name {
            "measured-welch" => Scenario::MeasuredWelch {
                samples: get_usize("samples", 4096)?,
                seed: get_usize("seed", 1)? as u64,
                nfft: get_usize("nfft", 256)?,
                overlap: get_f64("overlap", 0.5)?,
                window: params.get("window").cloned().unwrap_or_else(|| "hann".to_string()),
                beta: get_f64_opt("beta")?,
                taps: get_usize("taps", 31)?,
            },
            "cross-spectrum" => Scenario::CrossSpectrum {
                samples: get_usize("samples", 8192)?,
                seed: get_usize("seed", 1)? as u64,
                nfft: get_usize("nfft", 128)?,
                overlap: get_f64("overlap", 0.5)?,
                snr: get_f64("snr", 0.0)?,
                taps: get_usize("taps", 31)?,
            },
            "sigma-delta" => Scenario::SigmaDelta {
                order: get_usize("order", 2)?,
                osr: get_usize("osr", 16)?,
                amp: get_f64("amp", 0.5)?,
                samples: get_usize("samples", 16384)?,
                seed: get_usize("seed", 1)? as u64,
                nfft: get_usize("nfft", 1024)?,
                taps: get_usize("taps", 63)?,
            },
            _ => unreachable!("family table matched above"),
        };
        scenario.validate()?;
        Ok(Some(scenario))
    }
}

/// Runtime-defined graph scenarios, registered by name. Registration is
/// concurrency-safe (a daemon registers from connection threads while
/// others parse), and redefinition under the same name simply replaces
/// the entry — content-hash identity keeps caches and stores correct
/// either way.
#[derive(Debug, Default)]
pub struct GraphProvider {
    graphs: RwLock<BTreeMap<String, GraphScenario>>,
}

impl GraphProvider {
    /// Validates and registers `spec` under `name`, returning the
    /// content-addressed scenario. Idempotent for identical content.
    ///
    /// # Errors
    ///
    /// [`EngineError::Scenario`] for an ill-formed name,
    /// [`EngineError::GraphSpec`] for a defective spec.
    pub fn register(&self, name: &str, graph: GraphSpec) -> Result<GraphScenario, EngineError> {
        if !spec::is_valid_name(name) {
            return Err(EngineError::Scenario(format!(
                "bad scenario name `{name}` (1..={} characters of [A-Za-z0-9_.-])",
                spec::MAX_NAME_LEN
            )));
        }
        let scenario = GraphScenario::new(graph, Some(name.to_string()))?;
        self.graphs
            .write()
            .expect("graph registry lock poisoned")
            .insert(name.to_string(), scenario.clone());
        Ok(scenario)
    }

    /// The registered scenario for `name`, if any.
    pub fn get(&self, name: &str) -> Option<GraphScenario> {
        self.graphs.read().expect("graph registry lock poisoned").get(name).cloned()
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        self.graphs.read().expect("graph registry lock poisoned").len()
    }

    /// `true` when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ScenarioProvider for GraphProvider {
    fn provider_name(&self) -> &'static str {
        "dynamic"
    }

    fn families(&self) -> Vec<FamilyInfo> {
        self.graphs
            .read()
            .expect("graph registry lock poisoned")
            .iter()
            .map(|(name, g)| FamilyInfo {
                name: name.clone(),
                provider: "dynamic",
                description: format!(
                    "runtime-defined graph ({} nodes, {})",
                    g.spec().nodes.len(),
                    g.key()
                ),
                params: Vec::new(),
            })
            .collect()
    }

    fn parse(
        &self,
        name: &str,
        params: &BTreeMap<String, String>,
    ) -> Result<Option<Scenario>, EngineError> {
        let Some(scenario) = self.get(name) else { return Ok(None) };
        if let Some(key) = params.keys().next() {
            return Err(EngineError::Scenario(format!(
                "{name}: registered graph scenarios take no parameters (got `{key}`)"
            )));
        }
        Ok(Some(Scenario::Graph(scenario)))
    }
}

/// How many compiled inline graphs a registry keeps.
const INLINE_GRAPH_MEMO: usize = 64;

/// Inline graph texts longer than this are compiled on every use, so the
/// memo holds at most [`INLINE_GRAPH_MEMO`] × 64 KiB of text however large
/// the graphs a peer sends (a wire line may carry 1 MiB).
const INLINE_GRAPH_MEMO_TEXT: usize = 64 << 10;

/// Compiled inline `graph={...}` scenarios, keyed by their exact JSON
/// text and evicted oldest first.
#[derive(Debug, Default)]
struct InlineGraphs {
    graphs: HashMap<Arc<str>, GraphScenario>,
    /// Keys in insertion order, oldest first.
    order: VecDeque<Arc<str>>,
}

/// The provider chain spec parsers consult, plus the handle for runtime
/// graph definition. [`ScenarioRegistry::new`] gives the default chain:
/// the builtin families and an empty dynamic provider; inline
/// `graph={...}` scenario text is handled by the registry itself (it
/// needs no provider — the JSON *is* the definition).
#[derive(Debug, Clone)]
pub struct ScenarioRegistry {
    providers: Vec<Arc<dyn ScenarioProvider>>,
    dynamic: Arc<GraphProvider>,
    inline: Arc<Mutex<InlineGraphs>>,
}

impl Default for ScenarioRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioRegistry {
    /// Builtin + measured-signal families + an empty dynamic provider.
    pub fn new() -> Self {
        let dynamic = Arc::new(GraphProvider::default());
        ScenarioRegistry {
            providers: vec![Arc::new(BuiltinProvider), Arc::new(EstimProvider), dynamic.clone()],
            dynamic,
            inline: Arc::default(),
        }
    }

    /// Validates and registers a named graph scenario. Rejects names that
    /// shadow a builtin family (a registered graph must never change what
    /// `fir-bank` means).
    ///
    /// # Errors
    ///
    /// [`EngineError::Scenario`] / [`EngineError::GraphSpec`].
    pub fn define_graph(&self, name: &str, graph: GraphSpec) -> Result<GraphScenario, EngineError> {
        if name == "graph"
            || BUILTIN_FAMILIES.iter().any(|f| f.name == name)
            || ESTIM_FAMILIES.iter().any(|f| f.name == name)
        {
            return Err(EngineError::Scenario(format!(
                "scenario name `{name}` is reserved (builtin family)"
            )));
        }
        self.dynamic.register(name, graph)
    }

    /// [`ScenarioRegistry::define_graph`] over raw JSON text.
    ///
    /// # Errors
    ///
    /// See [`ScenarioRegistry::define_graph`].
    pub fn define_graph_json(&self, name: &str, json: &str) -> Result<GraphScenario, EngineError> {
        self.define_graph(name, crate::graphspec::graph_spec_from_str(json)?)
    }

    /// Loads `NAME=FILE` graph definitions — the repeatable `--graph` flag
    /// shared by the `psdacc-engine` / `psdacc-serve` / `psdacc-sched`
    /// CLIs. Each file's JSON is registered under its name, and the
    /// wire-ready `(name, canonical JSON)` pairs are returned for
    /// forwarding to daemons via `define_scenario`.
    ///
    /// # Errors
    ///
    /// [`EngineError::Scenario`] naming the offending entry for malformed
    /// `NAME=FILE` syntax, unreadable files, and rejected definitions.
    pub fn define_graph_files(
        &self,
        entries: &[String],
    ) -> Result<Vec<(String, String)>, EngineError> {
        self.define_graph_files_resolved(entries, None)
    }

    /// [`ScenarioRegistry::define_graph_files`] with client-side trace
    /// resolution: when `traces` is given (the `--trace-dir` flag), every
    /// measured node's `"trace": "<hash>"` reference is rewritten to
    /// checksum-verified inline samples *before* registration, so the
    /// canonical wire form shipped to daemons never mentions the store.
    ///
    /// # Errors
    ///
    /// See [`ScenarioRegistry::define_graph_files`]; additionally
    /// [`EngineError::Scenario`] naming the entry when a referenced trace
    /// blob is missing or corrupt.
    pub fn define_graph_files_resolved(
        &self,
        entries: &[String],
        traces: Option<&psdacc_estim::TraceStore>,
    ) -> Result<Vec<(String, String)>, EngineError> {
        let mut definitions = Vec::with_capacity(entries.len());
        for entry in entries {
            let (name, path) = entry.split_once('=').ok_or_else(|| {
                EngineError::Scenario(format!("--graph needs NAME=FILE, got `{entry}`"))
            })?;
            let json = std::fs::read_to_string(path).map_err(|e| {
                EngineError::Scenario(format!("--graph {name}: cannot read {path}: {e}"))
            })?;
            let json = match traces {
                None => json,
                Some(store) => {
                    let value = crate::json::parse(&json).map_err(|e| {
                        EngineError::Scenario(format!("--graph {name}: bad JSON in {path}: {e}"))
                    })?;
                    let resolved = crate::graphspec::resolve_trace_refs(&value, store)
                        .map_err(|e| EngineError::Scenario(format!("--graph {name}: {e}")))?;
                    resolved.to_json_line()
                }
            };
            let defined = self
                .define_graph_json(name, &json)
                .map_err(|e| EngineError::Scenario(format!("--graph {name}: {e}")))?;
            definitions.push((name.to_string(), defined.canonical_json().to_string()));
        }
        Ok(definitions)
    }

    /// Number of dynamically registered scenarios.
    pub fn dynamic_count(&self) -> usize {
        self.dynamic.len()
    }

    /// The dynamic provider (for direct lookups).
    pub fn dynamic(&self) -> &GraphProvider {
        &self.dynamic
    }

    /// Every family currently served, builtins first, then dynamic and
    /// custom providers in registration order.
    pub fn families(&self) -> Vec<FamilyInfo> {
        self.providers.iter().flat_map(|p| p.families()).collect()
    }

    /// Parses `name` + params by consulting the provider chain in order.
    ///
    /// # Errors
    ///
    /// [`EngineError::Scenario`] when no provider serves `name` (listing
    /// everything that is served) or when the owning provider rejects the
    /// parameters.
    pub fn parse(
        &self,
        name: &str,
        params: &BTreeMap<String, String>,
    ) -> Result<Scenario, EngineError> {
        if name == "graph" {
            return Err(EngineError::Scenario(
                "inline graph scenarios use `graph={...}` with the JSON on the same line"
                    .to_string(),
            ));
        }
        for provider in &self.providers {
            if let Some(scenario) = provider.parse(name, params)? {
                return Ok(scenario);
            }
        }
        let known: Vec<String> = self.families().iter().map(|f| f.name.clone()).collect();
        Err(EngineError::Scenario(format!(
            "unknown scenario `{name}`; known: {}, or inline `graph={{...}}`",
            known.join(", ")
        )))
    }

    /// Parses one scenario spec line: `name key=value ...` for registered
    /// families, or `graph={...}` / `graph {...}` with inline JSON (the
    /// remainder of the line, so the JSON may contain spaces).
    ///
    /// Inline graphs are memoized: the registry (and every clone of it, so
    /// every connection of a daemon) keeps the last 64 compiled graphs
    /// keyed by their exact JSON text — never by a hash a peer claims — and
    /// a repeat costs one hash lookup instead of a compile and a content
    /// hash.
    ///
    /// # Errors
    ///
    /// [`EngineError::Scenario`] / [`EngineError::GraphSpec`], naming the
    /// offending text.
    pub fn parse_spec_line(&self, text: &str) -> Result<Scenario, EngineError> {
        let trimmed = text.trim();
        if trimmed.is_empty() {
            return Err(EngineError::Scenario("empty scenario spec".to_string()));
        }
        if let Some(json) = inline_graph_json(trimmed) {
            return self.inline_graph(json).map(Scenario::Graph);
        }
        let mut tokens = trimmed.split_whitespace();
        let name = tokens.next().expect("non-empty trimmed text");
        let mut params = BTreeMap::new();
        for token in tokens {
            let (k, v) = token.split_once('=').ok_or_else(|| {
                EngineError::Scenario(format!(
                    "expected key=value, got `{token}` in scenario spec `{trimmed}`"
                ))
            })?;
            if params.insert(k.to_string(), v.to_string()).is_some() {
                return Err(EngineError::Scenario(format!(
                    "duplicate key `{k}` in scenario spec `{trimmed}`"
                )));
            }
        }
        self.parse(name, &params)
    }

    /// The compiled scenario for inline graph JSON `json`, from the memo
    /// when the same text was compiled before.
    fn inline_graph(&self, json: &str) -> Result<GraphScenario, EngineError> {
        let memo = || self.inline.lock().expect("inline graph memo lock");
        if let Some(hit) = memo().graphs.get(json) {
            return Ok(hit.clone());
        }
        let scenario = GraphScenario::from_json(json, None)?;
        if json.len() <= INLINE_GRAPH_MEMO_TEXT {
            let mut memo = memo();
            let key: Arc<str> = json.into();
            if memo.graphs.insert(Arc::clone(&key), scenario.clone()).is_none() {
                memo.order.push_back(key);
                if memo.order.len() > INLINE_GRAPH_MEMO {
                    let oldest = memo.order.pop_front().expect("memo is over its cap");
                    memo.graphs.remove(&oldest);
                }
            }
        }
        Ok(scenario)
    }

    /// Renders the `scenarios` wire line (every family, with provenance).
    pub fn scenarios_json_line(&self) -> String {
        let families = self.families();
        let entries: Vec<String> = families
            .iter()
            .map(|f| {
                let mut w = JsonWriter::new();
                w.field_str("name", &f.name);
                w.field_str("provider", f.provider);
                w.field_str("params", &f.params_summary());
                w.field_str("description", &f.description);
                w.finish()
            })
            .collect();
        let mut w = JsonWriter::new();
        w.field_str("kind", "scenarios");
        w.field_usize("count", families.len());
        w.field_usize("dynamic", self.dynamic_count());
        w.field_raw("entries", &format!("[{}]", entries.join(",")));
        w.finish()
    }

    /// Renders the `describe` wire line: full per-family parameter
    /// schemas, optionally narrowed to one family.
    ///
    /// # Errors
    ///
    /// [`EngineError::Scenario`] when `family` names nothing served.
    pub fn describe_json_line(&self, family: Option<&str>) -> Result<String, EngineError> {
        let mut families = self.families();
        if let Some(name) = family {
            families.retain(|f| f.name == name);
            if families.is_empty() {
                return Err(EngineError::Scenario(format!(
                    "unknown scenario family `{name}` (try `scenarios` for the list)"
                )));
            }
        }
        let entries: Vec<String> = families.iter().map(FamilyInfo::to_json_line).collect();
        let mut w = JsonWriter::new();
        w.field_str("kind", "describe");
        w.field_usize("count", families.len());
        if let Some(name) = family {
            w.field_raw("family", &escape_str(name));
        }
        w.field_raw("families", &format!("[{}]", entries.join(",")));
        Ok(w.finish())
    }
}

/// Recognizes the inline-graph scenario syntax: `graph={...}` or
/// `graph {...}` (returns the JSON remainder).
pub(crate) fn inline_graph_json(trimmed: &str) -> Option<&str> {
    let rest = trimmed.strip_prefix("graph")?;
    let rest = rest.strip_prefix('=').unwrap_or(rest).trim_start();
    rest.starts_with('{').then_some(rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO_GRAPH: &str = r#"{"nodes":[{"name":"x","block":"input"},{"name":"g","block":"gain","gain":0.3,"inputs":["x"]}],"outputs":["g"]}"#;

    fn params(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    #[test]
    fn default_chain_serves_all_twelve_families() {
        let registry = ScenarioRegistry::new();
        let families = registry.families();
        assert_eq!(families.len(), 12);
        assert_eq!(families.iter().filter(|f| f.provider == "builtin").count(), 9);
        assert_eq!(families.iter().filter(|f| f.provider == "estim").count(), 3);
        for family in &families {
            let p = if family.name.ends_with("-bank") {
                params(&[("index", "3")])
            } else {
                params(&[])
            };
            let s =
                registry.parse(&family.name, &p).unwrap_or_else(|e| panic!("{}: {e}", family.name));
            let g = s.build().expect("default scenario builds");
            assert!(!g.outputs().is_empty(), "{}: output marked", family.name);
        }
    }

    #[test]
    fn estim_families_parse_validate_and_introspect() {
        let registry = ScenarioRegistry::new();
        // Kaiser needs beta; hann must reject it.
        assert!(registry
            .parse_spec_line("measured-welch window=kaiser beta=8.6 samples=1024")
            .is_ok());
        assert!(registry.parse_spec_line("measured-welch window=kaiser").is_err());
        assert!(registry.parse_spec_line("measured-welch beta=2.0").is_err());
        // Range checks surface at parse time with the family name.
        let err = registry.parse_spec_line("sigma-delta osr=13").unwrap_err().to_string();
        assert!(err.contains("sigma-delta"), "{err}");
        assert!(registry.parse_spec_line("cross-spectrum snr=999").is_err());
        assert!(registry.parse_spec_line("measured-welch bogus=1").is_err());
        // The describe schema carries the str-typed window parameter.
        let line = registry.describe_json_line(Some("measured-welch")).unwrap();
        let v = crate::json::parse(&line).unwrap();
        let fam = &v.get("families").unwrap().as_array().unwrap()[0];
        assert_eq!(fam.get("provider").and_then(crate::json::Json::as_str), Some("estim"));
        let schema = fam.get("params").unwrap().as_array().unwrap();
        let window = schema
            .iter()
            .find(|p| p.get("name").and_then(crate::json::Json::as_str) == Some("window"))
            .expect("window param in schema");
        assert_eq!(window.get("kind").and_then(crate::json::Json::as_str), Some("str"));
        // Estim family names are reserved against dynamic shadowing.
        let err = registry.define_graph_json("sigma-delta", DEMO_GRAPH).unwrap_err();
        assert!(err.to_string().contains("reserved"), "{err}");
    }

    #[test]
    fn param_schemas_describe_requirements() {
        let registry = ScenarioRegistry::new();
        let families = registry.families();
        let bank = families.iter().find(|f| f.name == "fir-bank").unwrap();
        assert!(bank.params[0].required);
        assert_eq!(bank.params_summary(), "index (required, 0..147)");
        let cascade = families.iter().find(|f| f.name == "fir-cascade").unwrap();
        assert_eq!(cascade.params_summary(), "stages=2 taps=31 cutoff=0.2");
        let line = registry.describe_json_line(Some("fir-cascade")).unwrap();
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("count").unwrap().as_u64(), Some(1));
        let fam = &v.get("families").unwrap().as_array().unwrap()[0];
        let schema = fam.get("params").unwrap().as_array().unwrap();
        assert_eq!(schema.len(), 3);
        assert_eq!(schema[0].get("name").and_then(crate::json::Json::as_str), Some("stages"));
        assert!(registry.describe_json_line(Some("nope")).is_err());
    }

    #[test]
    fn dynamic_definition_round_trips_through_parse() {
        let registry = ScenarioRegistry::new();
        assert_eq!(registry.dynamic_count(), 0);
        let defined = registry.define_graph_json("my-codec", DEMO_GRAPH).unwrap();
        assert_eq!(registry.dynamic_count(), 1);
        let parsed = registry.parse_spec_line("my-codec").unwrap();
        assert_eq!(parsed, Scenario::Graph(defined.clone()));
        assert_eq!(parsed.key(), defined.key());
        assert_eq!(parsed.to_spec_line(), "my-codec", "named graphs ship by name");
        // Families list now includes it, tagged dynamic.
        let families = registry.families();
        assert_eq!(families.len(), 13);
        assert!(families.iter().any(|f| f.name == "my-codec" && f.provider == "dynamic"));
        // Clones share the registration (daemon connection threads).
        assert_eq!(registry.clone().dynamic_count(), 1);
        // Parameters on a registered graph are rejected.
        assert!(registry.parse("my-codec", &params(&[("bits", "3")])).is_err());
    }

    #[test]
    fn inline_graph_lines_parse_without_registration() {
        let registry = ScenarioRegistry::new();
        for line in [
            format!("graph={DEMO_GRAPH}"),
            format!("graph {DEMO_GRAPH}"),
            format!("graph= {DEMO_GRAPH}"),
        ] {
            let s = registry.parse_spec_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            let Scenario::Graph(g) = &s else { panic!("{s:?}") };
            assert!(g.name().is_none());
            // Anonymous graphs ship inline and round-trip by content.
            let back = registry.parse_spec_line(&s.to_spec_line()).unwrap();
            assert_eq!(back, s);
        }
        assert_eq!(registry.dynamic_count(), 0, "inline parsing registers nothing");
    }

    #[test]
    fn inline_graph_memo_hit_equals_a_fresh_compile() {
        let registry = ScenarioRegistry::new();
        let line = format!("graph={DEMO_GRAPH}");
        let Scenario::Graph(first) = registry.parse_spec_line(&line).unwrap() else { panic!() };
        let Scenario::Graph(hit) = registry.parse_spec_line(&line).unwrap() else { panic!() };
        // The second parse is the memoized compile (shared text), and it
        // is what a fresh compile of the same bytes gives.
        assert_eq!(hit.canonical_json().as_ptr(), first.canonical_json().as_ptr(), "memo hit");
        let fresh = GraphScenario::from_json(DEMO_GRAPH, None).unwrap();
        assert_eq!(hit.canonical_json(), fresh.canonical_json());
        assert_eq!(hit.hash(), fresh.hash());
        assert_eq!(hit.name(), None);
        // Clones share the memo: a daemon's connections compile once.
        let Scenario::Graph(shared) = registry.clone().parse_spec_line(&line).unwrap() else {
            panic!()
        };
        assert_eq!(shared.canonical_json().as_ptr(), first.canonical_json().as_ptr());
        // Defective graphs are errors every time and never memoized.
        for _ in 0..2 {
            assert!(matches!(
                registry.parse_spec_line("graph={\"nodes\":[]}"),
                Err(EngineError::GraphSpec(_))
            ));
        }
        assert_eq!(registry.inline.lock().unwrap().graphs.len(), 1);
    }

    #[test]
    fn inline_graph_memo_stays_at_its_cap() {
        let registry = ScenarioRegistry::new();
        let graph = |i: usize| DEMO_GRAPH.replace("0.3", &format!("0.3{i}"));
        for i in 0..INLINE_GRAPH_MEMO + 5 {
            registry.parse_spec_line(&format!("graph={}", graph(i))).unwrap();
            let memo = registry.inline.lock().unwrap();
            assert_eq!(memo.graphs.len(), (i + 1).min(INLINE_GRAPH_MEMO));
            assert_eq!(memo.order.len(), memo.graphs.len());
        }
        // Oldest out first.
        let memo = registry.inline.lock().unwrap();
        assert!(!memo.graphs.contains_key(graph(4).as_str()));
        assert!(memo.graphs.contains_key(graph(5).as_str()));
        assert!(memo.graphs.contains_key(graph(INLINE_GRAPH_MEMO + 4).as_str()));
        drop(memo);
        // A graph text past the size bound compiles but is not kept.
        let big = DEMO_GRAPH.replace("0.3", &format!("0.3{}", "0".repeat(INLINE_GRAPH_MEMO_TEXT)));
        registry.parse_spec_line(&format!("graph={big}")).unwrap();
        assert!(!registry.inline.lock().unwrap().graphs.contains_key(big.as_str()));
    }

    #[test]
    fn named_graphs_bypass_the_inline_memo() {
        let registry = ScenarioRegistry::new();
        registry.parse_spec_line(&format!("graph={DEMO_GRAPH}")).unwrap();
        let defined = registry.define_graph_json("c", DEMO_GRAPH).unwrap();
        let Scenario::Graph(named) = registry.parse_spec_line("c").unwrap() else { panic!() };
        assert_eq!(named.name(), Some("c"), "a name resolves to the definition, not the memo");
        assert_eq!(named, defined);
        let other = DEMO_GRAPH.replace("0.3", "0.4");
        let replaced = registry.define_graph_json("c", &other).unwrap();
        let Scenario::Graph(now) = registry.parse_spec_line("c").unwrap() else { panic!() };
        assert_eq!(now, replaced, "redefinition still wins");
        assert_eq!(registry.inline.lock().unwrap().graphs.len(), 1, "definitions add nothing");
        assert_eq!(registry.dynamic_count(), 1, "inline parsing registers nothing");
    }

    #[test]
    fn reserved_and_invalid_names_are_rejected() {
        let registry = ScenarioRegistry::new();
        for name in ["graph", "fir-bank", "dwt-packet"] {
            let err = registry.define_graph_json(name, DEMO_GRAPH).unwrap_err();
            assert!(err.to_string().contains("reserved"), "{name}: {err}");
        }
        assert!(registry.define_graph_json("has space", DEMO_GRAPH).is_err());
        assert!(registry.define_graph_json("", DEMO_GRAPH).is_err());
        // Invalid graph bodies are typed GraphSpec errors.
        assert!(matches!(
            registry.define_graph_json("ok-name", "{\"nodes\":[]}"),
            Err(EngineError::GraphSpec(_))
        ));
        assert_eq!(registry.dynamic_count(), 0);
    }

    #[test]
    fn unknown_names_list_everything_served() {
        let registry = ScenarioRegistry::new();
        registry.define_graph_json("my-codec", DEMO_GRAPH).unwrap();
        let err = registry.parse_spec_line("no-such").unwrap_err().to_string();
        assert!(err.contains("fir-bank") && err.contains("my-codec"), "{err}");
        assert!(err.contains("graph={"), "{err}");
    }

    #[test]
    fn redefinition_replaces_and_identical_content_is_stable() {
        let registry = ScenarioRegistry::new();
        let a = registry.define_graph_json("c", DEMO_GRAPH).unwrap();
        let b = registry.define_graph_json("c", DEMO_GRAPH).unwrap();
        assert_eq!(a, b, "identical content, identical identity");
        let other = DEMO_GRAPH.replace("0.3", "0.4");
        let c = registry.define_graph_json("c", &other).unwrap();
        assert_ne!(a, c);
        assert_eq!(registry.dynamic_count(), 1, "same name, replaced");
        let Scenario::Graph(now) = registry.parse_spec_line("c").unwrap() else { panic!() };
        assert_eq!(now, c, "latest definition wins");
    }
}
