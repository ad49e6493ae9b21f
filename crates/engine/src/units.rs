//! Lazy expansion of a parsed [`BatchSpec`] into **work units** — the one
//! expansion path shared by every consumer of a spec.
//!
//! A work unit is one [`JobSpec`] tagged with its submission-order id. The
//! local CLI and the `psdacc-sched` fleet coordinator both obtain their
//! jobs from [`BatchSpec::units`], so a spec expands to the *same* ordered
//! unit list no matter which process — or how many machines — end up
//! executing it. That shared ordering is what makes "merged fleet output
//! is bit-identical to a single-process run" a meaningful promise instead
//! of a coincidence.
//!
//! Expansion is lazy: directives (`batch`, `refine`, `min-uniform`,
//! `budget`, `simulate` lines) are stored parsed-but-unexpanded, and [`Units`] walks
//! the `scenario x bits x method` cross products on demand. A spec line
//! like `batch bits=8..14 methods=psd,agnostic,flat` over a 147-filter
//! sweep never materializes more than one `JobSpec` at a time unless the
//! caller collects it.

use psdacc_fixed::RoundingMode;

use crate::batch::BatchSpec;
use crate::job::{JobKind, JobSpec};

/// One parsed job directive (`batch` / `refine` / `min-uniform` /
/// `budget` / `simulate` line), kept unexpanded until [`Units`] walks it.
#[derive(Debug, Clone)]
pub(crate) struct JobDirective {
    /// Directives expand over the scenarios declared *before* them:
    /// `scenarios[..scenario_end]` of the owning spec.
    pub(crate) scenario_end: usize,
    /// PSD grid size for every job of this directive.
    pub(crate) npsd: usize,
    /// Rounding mode for every job of this directive.
    pub(crate) rounding: RoundingMode,
    /// What the directive computes per scenario.
    pub(crate) kind: DirectiveKind,
}

/// The per-scenario job template of one directive.
#[derive(Debug, Clone)]
pub(crate) enum DirectiveKind {
    /// `batch`: one estimate per `bits x method` point.
    Estimates {
        /// Word-length sweep.
        bits: Vec<i32>,
        /// Analytical methods.
        methods: Vec<crate::job::EstimateMethod>,
    },
    /// `refine`: one greedy descent per scenario.
    Refine {
        /// Noise-power budget.
        budget: f64,
        /// Uniform starting word-length.
        start_bits: i32,
        /// Per-node floor.
        min_bits: i32,
    },
    /// `min-uniform`: one binary search per scenario.
    MinUniform {
        /// Noise-power budget.
        budget: f64,
        /// Search floor.
        min_bits: i32,
        /// Search ceiling.
        max_bits: i32,
    },
    /// `budget`: one noise-budget attribution per `bits` point.
    Budget {
        /// Word-length sweep.
        bits: Vec<i32>,
    },
    /// `simulate`: one seeded Monte-Carlo job per `bits` point.
    Simulate {
        /// Word-length sweep.
        bits: Vec<i32>,
        /// Input samples per trial.
        samples: usize,
        /// Welch PSD resolution.
        nfft: usize,
        /// Base RNG seed.
        seed: u64,
        /// Independent trials averaged.
        trials: usize,
    },
}

impl JobDirective {
    /// How many units this directive contributes per scenario.
    fn units_per_scenario(&self) -> usize {
        match &self.kind {
            DirectiveKind::Estimates { bits, methods } => bits.len() * methods.len(),
            DirectiveKind::Refine { .. } | DirectiveKind::MinUniform { .. } => 1,
            DirectiveKind::Budget { bits } => bits.len(),
            DirectiveKind::Simulate { bits, .. } => bits.len(),
        }
    }

    /// Total units the directive expands to.
    pub(crate) fn num_units(&self) -> usize {
        self.scenario_end * self.units_per_scenario()
    }
}

/// One unit of batch work: a [`JobSpec`] tagged with its submission-order
/// id. The id doubles as the wire id in the serve protocol and the merge
/// position on the coordinator side.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkUnit {
    /// Position of the unit in the spec's expansion (0-based, dense).
    pub id: usize,
    /// The work.
    pub spec: JobSpec,
}

/// Lazy iterator over a spec's work units, in submission order. Created by
/// [`BatchSpec::units`].
#[derive(Debug, Clone)]
pub struct Units<'a> {
    spec: &'a BatchSpec,
    /// Directive cursor.
    di: usize,
    /// Scenario cursor within the directive.
    si: usize,
    /// Bits cursor within the scenario.
    bi: usize,
    /// Method cursor within the bits point (`Estimates` only).
    mi: usize,
    /// Next unit id.
    next_id: usize,
}

impl<'a> Iterator for Units<'a> {
    type Item = WorkUnit;

    fn next(&mut self) -> Option<WorkUnit> {
        loop {
            let directive = self.spec.directives().get(self.di)?;
            if self.si >= directive.scenario_end {
                self.di += 1;
                self.si = 0;
                self.bi = 0;
                self.mi = 0;
                continue;
            }
            let scenario = self.spec.scenarios[self.si].clone();
            // Innermost-first cursor advance with carry: method, then bits,
            // then scenario — reproducing the historical eager nesting.
            let kind = match &directive.kind {
                DirectiveKind::Estimates { bits, methods } => {
                    let kind =
                        JobKind::Estimate { method: methods[self.mi], frac_bits: bits[self.bi] };
                    self.mi += 1;
                    if self.mi == methods.len() {
                        self.mi = 0;
                        self.bi += 1;
                        if self.bi == bits.len() {
                            self.bi = 0;
                            self.si += 1;
                        }
                    }
                    kind
                }
                DirectiveKind::Refine { budget, start_bits, min_bits } => {
                    self.si += 1;
                    JobKind::GreedyRefine {
                        budget: *budget,
                        start_bits: *start_bits,
                        min_bits: *min_bits,
                    }
                }
                DirectiveKind::MinUniform { budget, min_bits, max_bits } => {
                    self.si += 1;
                    JobKind::MinUniform {
                        budget: *budget,
                        min_bits: *min_bits,
                        max_bits: *max_bits,
                    }
                }
                DirectiveKind::Budget { bits } => {
                    let kind = JobKind::Budget { frac_bits: bits[self.bi] };
                    self.bi += 1;
                    if self.bi == bits.len() {
                        self.bi = 0;
                        self.si += 1;
                    }
                    kind
                }
                DirectiveKind::Simulate { bits, samples, nfft, seed, trials } => {
                    let kind = JobKind::Simulate {
                        frac_bits: bits[self.bi],
                        samples: *samples,
                        nfft: *nfft,
                        seed: *seed,
                        trials: *trials,
                    };
                    self.bi += 1;
                    if self.bi == bits.len() {
                        self.bi = 0;
                        self.si += 1;
                    }
                    kind
                }
            };
            let id = self.next_id;
            self.next_id += 1;
            return Some(WorkUnit {
                id,
                spec: JobSpec {
                    scenario,
                    npsd: directive.npsd,
                    rounding: directive.rounding,
                    kind,
                },
            });
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.spec.num_units() - self.next_id;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Units<'_> {}

impl BatchSpec {
    /// Lazily iterates the spec's work units in submission order — the one
    /// expansion path shared by the CLI and the fleet coordinator.
    pub fn units(&self) -> Units<'_> {
        Units { spec: self, di: 0, si: 0, bi: 0, mi: 0, next_id: 0 }
    }

    /// Total number of units the spec expands to, without expanding it.
    pub fn num_units(&self) -> usize {
        self.directives().iter().map(JobDirective::num_units).sum()
    }

    /// The fully expanded job list (units stripped of their ids; the id of
    /// `jobs()[i]` is `i`).
    pub fn jobs(&self) -> Vec<JobSpec> {
        self.units().map(|u| u.spec).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "scenario fir-bank index=0..2\n\
                        batch npsd=64 bits=8..9 methods=psd,flat\n\
                        scenario freq-filter\n\
                        refine npsd=64 budget=1e-6\n\
                        min-uniform npsd=64 budget=1e-6 min=2 max=20\n\
                        simulate npsd=64 bits=8,10 samples=1024 nfft=32 seed=3\n";

    #[test]
    fn ids_are_dense_and_ordered() {
        let spec = BatchSpec::parse(SPEC).unwrap();
        let units: Vec<WorkUnit> = spec.units().collect();
        assert_eq!(units.len(), spec.num_units());
        for (i, unit) in units.iter().enumerate() {
            assert_eq!(unit.id, i);
        }
    }

    #[test]
    fn jobs_equals_units_projection() {
        let spec = BatchSpec::parse(SPEC).unwrap();
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), spec.num_units());
        for (unit, job) in spec.units().zip(&jobs) {
            assert_eq!(&unit.spec, job);
        }
    }

    #[test]
    fn directives_expand_over_preceding_scenarios_only() {
        let spec = BatchSpec::parse(SPEC).unwrap();
        // batch: 3 fir-bank scenarios x 2 bits x 2 methods = 12 units; the
        // later-declared freq-filter must not appear in them.
        let units: Vec<WorkUnit> = spec.units().collect();
        assert_eq!(spec.num_units(), 12 + 4 + 4 + 4 * 2);
        for unit in &units[..12] {
            assert!(unit.spec.scenario.key().starts_with("fir-bank"), "{:?}", unit.spec.scenario);
            assert!(matches!(unit.spec.kind, JobKind::Estimate { .. }));
        }
        // refine / min-uniform / simulate cover all 4 scenarios.
        let refine = &units[12..16];
        assert!(refine.iter().any(|u| u.spec.scenario.key() == "freq-filter"));
        assert!(refine.iter().all(|u| matches!(u.spec.kind, JobKind::GreedyRefine { .. })));
        // simulate: scenario-outer, bits-inner ordering.
        let sim = &units[20..];
        assert_eq!(sim.len(), 8);
        assert!(matches!(sim[0].spec.kind, JobKind::Simulate { frac_bits: 8, .. }));
        assert!(matches!(sim[1].spec.kind, JobKind::Simulate { frac_bits: 10, .. }));
        assert_eq!(sim[0].spec.scenario, sim[1].spec.scenario);
    }

    #[test]
    fn size_hint_is_exact() {
        let spec = BatchSpec::parse(SPEC).unwrap();
        let mut units = spec.units();
        assert_eq!(units.len(), spec.num_units());
        units.next();
        units.next();
        assert_eq!(units.len(), spec.num_units() - 2);
        assert_eq!(units.count(), spec.num_units() - 2);
    }
}
