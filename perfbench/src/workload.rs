//! The benchmark's inputs and their reference answers.
//!
//! A request is what one designer sends while exploring word lengths for
//! one system: four uniform-precision PSD estimates, one noise-budget
//! attribution, and one search for the smallest uniform word length under
//! a noise budget. Systems rotate through six families so every layer of
//! the evaluation path carries work: single-rate FIR and IIR chains, a
//! seeded random graph (the dense frequency solve), a multirate codec
//! given as an inline GraphSpec, and two measured-signal sources (a Welch
//! estimate of a recorded trace, and a bit-true sigma-delta modulator).
//! Every parameter comes from the run's seed.

use psdacc_core::{AccuracyEvaluator, WordLengthPlan};
use psdacc_engine::json::{self, Json};
use psdacc_engine::{JobResult, Scenario};
use psdacc_fixed::RoundingMode;

/// PSD grid size of every request.
pub const NPSD: usize = 256;

/// Number of system families the rotation cycles through.
pub const FAMILIES: usize = 6;

/// Jobs per system in a request.
const JOBS_PER_SYSTEM: usize = 6;

/// Search range of the min-uniform job.
const MIN_BITS: i32 = 2;
const MAX_BITS: i32 = 32;

/// SplitMix64: a small seeded generator, so the inputs depend on the seed
/// and nothing else.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE4C_0000_0000)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seed for a scenario generator (the spec grammar takes it as a
    /// non-negative integer).
    fn seed(&mut self) -> u64 {
        self.next_u64() >> 1
    }
}

/// A new system of family `family % FAMILIES`, as the text after
/// `scenario` in a batch spec. Graph sizes are fixed per family, so the
/// seed changes values, not how much work a system is; continuous
/// parameters make every system a distinct cache key.
pub fn system(rng: &mut Rng, family: usize) -> String {
    match family % FAMILIES {
        0 => format!(
            "fir-cascade stages=2 taps={} cutoff={}",
            15 + 2 * rng.below(4),
            rng.uniform(0.1, 0.4)
        ),
        1 => format!(
            "iir-cascade stages=2 order={} cutoff={}",
            3 + rng.below(2),
            rng.uniform(0.1, 0.4)
        ),
        2 => format!("random-sfg nodes=16 seed={}", rng.seed()),
        3 => multirate_graph(rng),
        4 => format!(
            "measured-welch samples=4096 seed={} nfft=256 overlap=0.5 window=hann taps={}",
            rng.seed(),
            15 + 2 * rng.below(4)
        ),
        _ => format!(
            "sigma-delta order=2 osr=16 amp=0.5 samples=4096 seed={} nfft=256 taps={}",
            rng.seed(),
            15 + 2 * rng.below(4)
        ),
    }
}

/// A two-band decimate/interpolate codec with random filter taps, inline
/// as GraphSpec JSON.
fn multirate_graph(rng: &mut Rng) -> String {
    let mut taps = |n: usize| -> String {
        (0..n).map(|_| rng.uniform(-0.5, 0.5).to_string()).collect::<Vec<_>>().join(",")
    };
    let (analysis, band, synthesis) = (taps(9), taps(5), taps(9));
    format!(
        "graph={{\"nodes\":[{{\"name\":\"x\",\"block\":\"input\"}},\
         {{\"name\":\"h0\",\"block\":\"fir\",\"taps\":[{analysis}],\"inputs\":[\"x\"]}},\
         {{\"name\":\"d\",\"block\":\"downsample\",\"factor\":2,\"inputs\":[\"h0\"]}},\
         {{\"name\":\"h1\",\"block\":\"fir\",\"taps\":[{band}],\"inputs\":[\"d\"]}},\
         {{\"name\":\"u\",\"block\":\"upsample\",\"factor\":2,\"inputs\":[\"h1\"]}},\
         {{\"name\":\"g0\",\"block\":\"fir\",\"taps\":[{synthesis}],\"inputs\":[\"u\"]}}],\
         \"outputs\":[\"g0\"]}}"
    )
}

/// One request: a batch of systems, each evaluated at the same word
/// lengths.
#[derive(Debug, Clone)]
pub struct Request {
    /// The systems, as the text after `scenario`.
    pub systems: Vec<String>,
    /// Fractional bits of the four PSD estimates.
    pub bits: [i32; 4],
    /// Fractional bits of the budget attribution.
    pub budget_bits: i32,
    /// Noise-power budget of the min-uniform search. Measured-signal
    /// systems carry a noise floor no word length removes (about 1e-4 to
    /// 3e-3 here), so budgets stay above it and every search has an
    /// answer.
    pub budget: f64,
}

impl Request {
    /// A request on `systems` with seeded word lengths.
    pub fn new(rng: &mut Rng, systems: Vec<String>) -> Self {
        Request {
            systems,
            bits: std::array::from_fn(|_| 6 + rng.below(15) as i32),
            budget_bits: 6 + rng.below(15) as i32,
            budget: 10f64.powf(-rng.uniform(1.0, 2.0)),
        }
    }

    /// Jobs the request expands to.
    pub fn jobs(&self) -> usize {
        self.systems.len() * JOBS_PER_SYSTEM
    }

    /// The batch-spec text the client submits. Each job line expands over
    /// every system, so the answers come directive-major: the estimates of
    /// each system in turn, then the attributions, then the searches.
    pub fn spec(&self) -> String {
        let mut spec: String = self.systems.iter().map(|s| format!("scenario {s}\n")).collect();
        let bits: Vec<String> = self.bits.iter().map(i32::to_string).collect();
        spec.push_str(&format!(
            "batch npsd={NPSD} bits={} methods=psd\nbudget npsd={NPSD} bits={}\n\
             min-uniform npsd={NPSD} budget={} min={MIN_BITS} max={MAX_BITS}\n",
            bits.join(","),
            self.budget_bits,
            self.budget
        ));
        spec
    }
}

/// The fields of one job's answer the check reads, from either a local
/// result or a fleet result line.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Job label (`psd`, `budget`, `min-uniform`).
    pub kind: String,
    /// Fractional bits the job evaluated at.
    pub frac_bits: Option<i32>,
    /// Output noise power.
    pub power: Option<f64>,
    /// Min-uniform answer.
    pub min_frac_bits: Option<i32>,
    /// Failure text.
    pub error: Option<String>,
}

impl JobOutcome {
    /// From a local engine result.
    pub fn from_result(r: &JobResult) -> Self {
        JobOutcome {
            kind: r.kind.to_string(),
            frac_bits: r.frac_bits,
            power: r.power,
            min_frac_bits: r.min_frac_bits,
            error: r.error.clone(),
        }
    }

    /// From a fleet result line (floats travel in round-trip form).
    pub fn from_line(line: &str) -> Result<Self, String> {
        let v = json::parse(line).map_err(|e| format!("bad result line `{line}`: {e}"))?;
        let int = |k: &str| v.get(k).and_then(Json::as_i64).map(|n| n as i32);
        Ok(JobOutcome {
            kind: v.get("kind").and_then(Json::as_str).unwrap_or_default().to_string(),
            frac_bits: int("frac_bits"),
            power: v.get("power").and_then(Json::as_f64),
            min_frac_bits: int("min_frac_bits"),
            error: v.get("error").and_then(Json::as_str).map(str::to_string),
        })
    }
}

/// Checks every answer of `request`; `references[j]` holds the direct
/// answers for its system `j`.
pub fn check(
    request: &Request,
    references: &[&Reference],
    outcomes: &[JobOutcome],
) -> Result<(), String> {
    if outcomes.len() != request.jobs() {
        return Err(format!("{} answers for {} jobs", outcomes.len(), request.jobs()));
    }
    if let Some(e) = outcomes.iter().find_map(|o| o.error.as_ref()) {
        return Err(format!("job failed: {e}"));
    }
    references.iter().enumerate().try_for_each(|(j, r)| r.check(request, j, outcomes))
}

/// The answers for one system computed directly with the core library:
/// no spec parsing, cache, pool, or wire in between.
pub struct Reference {
    scenario: Scenario,
    evaluator: AccuracyEvaluator,
}

impl Reference {
    /// Builds the system and preprocesses it.
    pub fn build(system: &str) -> Result<Self, String> {
        let scenario = Scenario::parse_spec_line(system).map_err(|e| e.to_string())?;
        let sfg = scenario.build().map_err(|e| e.to_string())?;
        let evaluator = AccuracyEvaluator::new(&sfg, NPSD).map_err(|e| e.to_string())?;
        Ok(Reference { scenario, evaluator })
    }

    fn power(&self, frac_bits: i32) -> f64 {
        let plan = WordLengthPlan::uniform(frac_bits, RoundingMode::Truncate)
            .with_exact_nodes(self.scenario.exact_nodes());
        self.evaluator.estimate_psd(&plan).power
    }

    /// Checks the answers about system `j` of `request`: powers
    /// bit-identical to the direct evaluation, and the min-uniform answer
    /// the smallest word length whose power meets the budget.
    pub fn check(
        &self,
        request: &Request,
        j: usize,
        outcomes: &[JobOutcome],
    ) -> Result<(), String> {
        let n = request.systems.len();
        let expect_power = |o: &JobOutcome, kind: &str, bits: i32| -> Result<(), String> {
            let want = self.power(bits);
            let got = o.power.map(f64::to_bits);
            if o.kind != kind || o.frac_bits != Some(bits) || got != Some(want.to_bits()) {
                return Err(format!("{kind} at {bits} bits: got {o:?}, want power {want:e}"));
            }
            Ok(())
        };
        for (k, &bits) in request.bits.iter().enumerate() {
            expect_power(&outcomes[j * request.bits.len() + k], "psd", bits)?;
        }
        let base = n * request.bits.len();
        expect_power(&outcomes[base + j], "budget", request.budget_bits)?;
        let search = &outcomes[base + n + j];
        let d = match (search.kind.as_str(), search.min_frac_bits) {
            ("min-uniform", Some(d)) => d,
            _ => return Err(format!("min-uniform: got {search:?}")),
        };
        let meets = |bits: i32| self.power(bits) <= request.budget;
        if !(MIN_BITS..=MAX_BITS).contains(&d) || !meets(d) || (d > MIN_BITS && meets(d - 1)) {
            return Err(format!("min-uniform answered {d} bits for budget {:e}", request.budget));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdacc_engine::{BatchSpec, Engine};

    #[test]
    fn every_family_answers_correctly_through_the_engine() {
        let mut rng = Rng::new(7);
        for _ in 0..3 {
            let systems: Vec<String> = (0..FAMILIES).map(|f| system(&mut rng, f)).collect();
            let request = Request::new(&mut rng, systems);
            let jobs = BatchSpec::parse(&request.spec()).unwrap().jobs();
            assert_eq!(jobs.len(), request.jobs());
            let report = Engine::new(1).run(jobs);
            let answers: Vec<JobOutcome> =
                report.results.iter().map(JobOutcome::from_result).collect();
            let references: Vec<Reference> =
                request.systems.iter().map(|s| Reference::build(s).unwrap()).collect();
            let references: Vec<&Reference> = references.iter().collect();
            check(&request, &references, &answers).unwrap();
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            let systems = (0..FAMILIES).map(|f| system(&mut rng, f)).collect();
            Request::new(&mut rng, systems).spec()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }
}
