//! Figures of merit.
//!
//! Every CAAR/ECP team defined a project-specific FOM — GESTS used
//! `N³/t_wall` (§3.3), ExaSky a weak-scaling particle throughput (§3.4) —
//! and a target factor over the Summit baseline (GESTS: 4×, ExaSky: 4×).

use exa_machine::SimTime;
use serde::{Deserialize, Serialize};

/// Definition of a figure of merit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureOfMerit {
    /// Name, e.g. "grid points per second".
    pub name: &'static str,
    /// Units for display.
    pub units: &'static str,
    /// `true` when larger values are better (throughput-style FOMs).
    pub higher_is_better: bool,
}

impl FigureOfMerit {
    /// A throughput-style FOM (higher is better).
    pub fn throughput(name: &'static str, units: &'static str) -> Self {
        FigureOfMerit {
            name,
            units,
            higher_is_better: true,
        }
    }

    /// A time-style FOM (lower is better), e.g. time per cell per step.
    pub fn time(name: &'static str, units: &'static str) -> Self {
        FigureOfMerit {
            name,
            units,
            higher_is_better: false,
        }
    }

    /// Speed-up of `new` over `baseline` under this FOM's orientation
    /// (always ≥ 1 means improvement).
    pub fn speedup(&self, baseline: f64, new: f64) -> f64 {
        assert!(baseline > 0.0 && new > 0.0, "FOM values must be positive");
        if self.higher_is_better {
            new / baseline
        } else {
            baseline / new
        }
    }
}

/// One measured FOM value on one machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FomMeasurement {
    /// Machine the measurement was taken on.
    pub machine: String,
    /// Configuration note (node count, problem size, code state).
    pub config: String,
    /// The FOM value.
    pub value: f64,
    /// Simulated wall time of the challenge run.
    pub wall: SimTime,
}

impl FomMeasurement {
    /// Convenience constructor.
    pub fn new(
        machine: impl Into<String>,
        config: impl Into<String>,
        value: f64,
        wall: SimTime,
    ) -> Self {
        FomMeasurement {
            machine: machine.into(),
            config: config.into(),
            value,
            wall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_speedup_orientation() {
        let fom = FigureOfMerit::throughput("FOM", "pts/s");
        assert!((fom.speedup(100.0, 500.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn time_speedup_orientation() {
        let fom = FigureOfMerit::time("time/cell", "s");
        // Time dropped 10x -> speedup 10x.
        assert!((fom.speedup(1.0, 0.1) - 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nonpositive_fom_rejected() {
        FigureOfMerit::throughput("x", "y").speedup(0.0, 1.0);
    }
}
