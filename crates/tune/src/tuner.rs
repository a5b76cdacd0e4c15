//! The search itself: enumerate → cost-select → persist, with every
//! decision driven by a deterministic cost model.

use crate::table::TunedTable;

/// One knob's search space.
#[derive(Debug, Clone)]
pub struct KnobSpec {
    /// Knob key as consumers resolve it (`fft.gather`, `fft.line_batch`, ...).
    pub key: String,
    /// Today's hard-coded constant — the fallback and the baseline.
    pub frozen: i64,
    /// Candidate values to enumerate (the frozen value is always
    /// considered even if absent here).
    pub candidates: Vec<i64>,
}

impl KnobSpec {
    pub fn new(key: &str, frozen: i64, candidates: &[i64]) -> Self {
        KnobSpec {
            key: key.to_string(),
            frozen,
            candidates: candidates.to_vec(),
        }
    }
}

/// A knob's cost model: virtual seconds from the machine model, or a
/// counted host-operation total. The only number that picks winners, so
/// `TUNED.json` is a pure function of the specs at any `EXA_THREADS`.
pub trait Probe {
    /// Deterministic model cost for `value` (lower is better).
    fn cost(&mut self, value: i64) -> f64;
}

/// Everything the tuner learned about one knob.
#[derive(Debug, Clone)]
pub struct KnobReport {
    pub key: String,
    pub frozen: i64,
    /// Candidate → model cost, in selection order (ascending cost, ties
    /// toward the frozen value, then the smaller value).
    pub costs: Vec<(i64, f64)>,
    /// The persisted winner: the head of `costs`.
    pub winner: i64,
}

/// The full run: the table to persist plus per-knob evidence.
#[derive(Debug, Clone)]
pub struct TuneReport {
    pub seed: u64,
    pub machine: String,
    pub table: TunedTable,
    pub knobs: Vec<KnobReport>,
}

/// Deterministic knob search. The seed is provenance (recorded into the
/// table) — the search itself draws no randomness, which is what makes
/// `TUNED.json` byte-identical across thread counts and repeated runs.
pub struct Tuner {
    seed: u64,
    machine: String,
    table: TunedTable,
    reports: Vec<KnobReport>,
}

impl Tuner {
    pub fn new(seed: u64, machine: &str) -> Self {
        Tuner {
            seed,
            machine: machine.to_string(),
            table: TunedTable::new(seed, machine),
            reports: Vec::new(),
        }
    }

    /// Search one knob and record the winner into the table.
    pub fn tune(&mut self, spec: &KnobSpec, probe: &mut dyn Probe) -> &KnobReport {
        // Enumerate: dedup, always include the frozen baseline, sort so
        // iteration order is independent of how the spec listed values.
        let mut candidates = spec.candidates.clone();
        candidates.push(spec.frozen);
        candidates.sort_unstable();
        candidates.dedup();

        // Cost-select: model every candidate and order by cost. Ties
        // break toward the frozen value, then the smaller value, so the
        // winner is deterministic.
        let mut costs: Vec<(i64, f64)> = candidates.iter().map(|&v| (v, probe.cost(v))).collect();
        costs.sort_by(|a, b| {
            a.1.total_cmp(&b.1)
                .then_with(|| (a.0 != spec.frozen).cmp(&(b.0 != spec.frozen)))
                .then_with(|| a.0.cmp(&b.0))
        });
        let winner = costs[0].0;
        self.table.set(&spec.key, winner);

        self.reports.push(KnobReport {
            key: spec.key.clone(),
            frozen: spec.frozen,
            costs,
            winner,
        });
        self.reports.last().expect("just pushed")
    }

    /// Finish the run.
    pub fn finish(self) -> TuneReport {
        TuneReport {
            seed: self.seed,
            machine: self.machine,
            table: self.table,
            knobs: self.reports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quadratic model with its minimum at `best`.
    struct Quad {
        best: i64,
    }

    impl Probe for Quad {
        fn cost(&mut self, v: i64) -> f64 {
            ((v - self.best) as f64).powi(2)
        }
    }

    fn spec() -> KnobSpec {
        KnobSpec::new("test.quad", 64, &[8, 16, 32, 48, 64, 96, 128])
    }

    #[test]
    fn winner_minimizes_the_model_and_search_is_repeatable() {
        let run = || {
            let mut tuner = Tuner::new(7, "test");
            tuner.tune(&spec(), &mut Quad { best: 16 });
            tuner.finish()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.table.to_json(), b.table.to_json());
        let order: Vec<i64> = a.knobs[0].costs.iter().take(3).map(|&(v, _)| v).collect();
        assert_eq!(order, vec![16, 8, 32], "three cheapest by model");
        assert_eq!(a.knobs[0].winner, 16);
    }

    #[test]
    fn tie_breaks_toward_frozen() {
        struct Flat;
        impl Probe for Flat {
            fn cost(&mut self, _: i64) -> f64 {
                1.0
            }
        }
        let mut tuner = Tuner::new(0, "test");
        let report = tuner.tune(&spec(), &mut Flat);
        assert_eq!(report.winner, 64, "all equal => keep the frozen value");
    }
}
