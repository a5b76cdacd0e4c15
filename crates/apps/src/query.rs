//! Query adapters for the campaign service: construct applications and
//! machine models by name, and evaluate one "app × machine × scale ×
//! knobs × scenario" what-if question through [`Application::run_profiled`]
//! on the calling thread's evaluation scratch.
//!
//! This is the cost-model back end of the `exa-serve` crate: everything
//! here is pure virtual-time simulation, so an evaluation is a
//! deterministic function of its arguments — which is what makes the
//! service's answers cacheable and its cached answers provably
//! bit-identical to cold evaluations.

use std::cell::RefCell;
use std::sync::Arc;

use exa_core::{Application, Injection, RunContext, ScenarioSpec};
use exa_machine::MachineModel;
use exa_telemetry::TelemetryCollector;
use serde::Serialize;

use crate::{Named, APPLICATIONS};

/// Construct an application by its paper name (case-insensitive). Only
/// the named application is built.
pub fn app_by_name(name: &str) -> Option<Box<dyn Application>> {
    APPLICATIONS
        .iter()
        .find(|(paper, _)| paper.eq_ignore_ascii_case(name))
        .map(|(_, new)| new())
}

/// True when `name` names one of the ten applications. Allocation-free —
/// the service's per-query validation path calls this once per request.
pub fn is_known_app(name: &str) -> bool {
    APP_NAMES.iter().any(|a| a.eq_ignore_ascii_case(name))
}

/// The ten application names, in paper-section order: the names of
/// [`crate::all_applications`]'s table.
pub const APP_NAMES: [&str; 10] = names(&APPLICATIONS);

/// The machine models the query layer resolves, in timeline order: each
/// model's name with its constructor.
const MACHINES: [Named<MachineModel>; 10] = [
    ("Summit", MachineModel::summit),
    ("Frontier", MachineModel::frontier),
    ("Poplar", MachineModel::poplar),
    ("Tulip", MachineModel::tulip),
    ("Spock", MachineModel::spock),
    ("Birch", MachineModel::birch),
    ("Crusher", MachineModel::crusher),
    ("Cori", MachineModel::cori),
    ("Theta", MachineModel::theta),
    ("Eagle", MachineModel::eagle),
];

/// The machine-model names the query layer resolves, in timeline order.
pub const MACHINE_NAMES: [&str; 10] = names(&MACHINES);

/// The name column of a constructor table.
const fn names<T>(table: &[Named<T>; 10]) -> [&'static str; 10] {
    let mut out = [""; 10];
    let mut i = 0;
    while i < out.len() {
        out[i] = table[i].0;
        i += 1;
    }
    out
}

/// The catalog entry — name and constructor — of the machine `name`
/// names (case-insensitive).
fn machine_entry(name: &str) -> Option<&'static Named<MachineModel>> {
    MACHINES
        .iter()
        .find(|(model, _)| model.eq_ignore_ascii_case(name))
}

/// True when `name` names a known machine model. Allocation-free.
pub fn is_known_machine(name: &str) -> bool {
    MACHINE_NAMES.iter().any(|m| m.eq_ignore_ascii_case(name))
}

/// The bit-comparable answer of one query evaluation: the FOM, its
/// orientation, the simulated wall, and span-count provenance. Its names
/// come from the catalogs, so an answer owns no heap memory.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QueryAnswer {
    /// Application name (paper casing).
    pub app: &'static str,
    /// Machine model name (catalog casing).
    pub machine: &'static str,
    /// Node count the evaluation ran at.
    pub nodes: u32,
    /// Figure-of-merit value.
    pub fom_value: f64,
    /// FOM units.
    pub units: &'static str,
    /// FOM orientation.
    pub higher_is_better: bool,
    /// Simulated (virtual) wall time of the challenge run, seconds.
    pub wall_s: f64,
    /// Spans the profiled run recorded (provenance: a zero here means the
    /// evaluation path lost its instrumentation).
    pub spans: u64,
}

/// Evaluate one query cold: build the named app and machine (nothing else
/// from either catalog), apply the node override (0 keeps the model's
/// full scale), run the profiled challenge problem under the scenario the
/// knobs and tag describe (one injection per knob), and return the
/// answer. `None` when the app or machine name is unknown, or when the
/// app needs GPUs and the machine has none (every app but Pele on Cori,
/// Theta and Eagle).
///
/// The run records into the calling thread's evaluation scratch: a
/// collector cleared before each query, not rebuilt, so its track
/// registrations and span capacity carry over, and a scenario whose
/// knobs are overwritten in place. The answer reads only the spans of
/// its own run, so it is the same bits a fresh collector gives. What the
/// scratch retains is bounded by the largest query the thread has
/// evaluated: the union of the apps' tracks (tens), the most spans one
/// run recorded (about 300, a GESTS step) and the most knobs one query
/// carried, a few kilobytes, never growing with the number of queries.
pub fn evaluate_query<K: AsRef<str>>(
    app_name: &str,
    machine_name: &str,
    nodes: u32,
    knobs: &[(K, f64)],
    scenario: &str,
) -> Option<QueryAnswer> {
    SCRATCH
        .with_borrow_mut(|scratch| scratch.evaluate(app_name, machine_name, nodes, knobs, scenario))
}

/// What [`evaluate_query`] reuses from one query to the next on a thread.
struct Scratch {
    /// The collector each profiled run records into.
    collector: Arc<TelemetryCollector>,
    /// The run's scenario: a clean spec whose tag and injections each
    /// query overwrites.
    spec: ScenarioSpec,
}

impl Scratch {
    fn new() -> Self {
        Scratch {
            collector: TelemetryCollector::shared(),
            spec: ScenarioSpec::clean(),
        }
    }

    /// [`evaluate_query`] on this scratch.
    fn evaluate<K: AsRef<str>>(
        &mut self,
        app_name: &str,
        machine_name: &str,
        nodes: u32,
        knobs: &[(K, f64)],
        scenario: &str,
    ) -> Option<QueryAnswer> {
        let app = app_by_name(app_name)?;
        let &(machine_name, new_machine) = machine_entry(machine_name)?;
        let mut machine = new_machine();
        if app.needs_gpus() && !machine.node.has_gpus() {
            return None;
        }
        if nodes > 0 {
            machine.nodes = nodes;
        }
        let Scratch { collector, spec } = self;
        collector.clear();
        spec.tag.clear();
        spec.tag.push_str(scenario);
        spec.injections.truncate(knobs.len());
        for (i, (needle, factor)) in knobs.iter().enumerate() {
            match spec.injections.get_mut(i) {
                Some(injection) => {
                    injection.needle.clear();
                    injection.needle.push_str(needle.as_ref());
                    injection.factor = *factor;
                }
                None => spec
                    .injections
                    .push(Injection::new(needle.as_ref(), *factor)),
            }
        }
        let measurement = app.run_profiled(&machine, &RunContext::for_scenario(collector, spec));
        let fom = app.fom();
        Some(QueryAnswer {
            app: app.name(),
            machine: machine_name,
            nodes: machine.nodes,
            fom_value: measurement.value,
            units: fom.units,
            higher_is_better: fom.higher_is_better,
            wall_s: measurement.wall.secs(),
            spans: collector.with_timeline(|t| t.total_spans()) as u64,
        })
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No knobs: a clean query.
    const CLEAN: [(&str, f64); 0] = [];

    /// Every name, as listed and in lower and upper case, looks up the
    /// entry the catalog holds at its position; unknown names give `None`.
    #[test]
    fn lookups_resolve_every_name_to_its_catalog_entry() {
        let casings = |name: &str| [name.to_string(), name.to_lowercase(), name.to_uppercase()];
        let apps = crate::all_applications();
        assert_eq!(apps.len(), APP_NAMES.len());
        for (app, name) in apps.iter().zip(APP_NAMES) {
            assert_eq!(app.name(), name, "APP_NAMES out of order");
            for spelled in casings(name) {
                assert!(is_known_app(&spelled), "{spelled}");
                let found = app_by_name(&spelled).expect("known application");
                assert_eq!(found.name(), app.name(), "{spelled}");
            }
        }
        let machines = [
            MachineModel::summit(),
            MachineModel::frontier(),
            MachineModel::poplar(),
            MachineModel::tulip(),
            MachineModel::spock(),
            MachineModel::birch(),
            MachineModel::crusher(),
            MachineModel::cori(),
            MachineModel::theta(),
            MachineModel::eagle(),
        ];
        assert_eq!(machines.len(), MACHINE_NAMES.len());
        for (machine, name) in machines.iter().zip(MACHINE_NAMES) {
            assert_eq!(machine.name, name, "MACHINE_NAMES out of order");
            for spelled in casings(name) {
                assert!(is_known_machine(&spelled), "{spelled}");
                let (listed, new) = machine_entry(&spelled).expect("known machine");
                assert_eq!(*listed, name, "{spelled}");
                assert_eq!(format!("{:?}", new()), format!("{machine:?}"), "{spelled}");
            }
        }
        for unknown in ["HPL", "Aurora", "", "Frontier2", "GESTS "] {
            assert!(app_by_name(unknown).is_none(), "{unknown:?}");
            assert!(machine_entry(unknown).is_none(), "{unknown:?}");
            assert!(!is_known_app(unknown) && !is_known_machine(unknown));
        }
    }

    #[test]
    fn evaluation_is_deterministic_and_honors_the_scale_override() {
        let a = evaluate_query("CoMet", "Frontier", 0, &CLEAN, "").expect("valid query");
        let b = evaluate_query("CoMet", "Frontier", 0, &CLEAN, "").expect("valid query");
        assert_eq!(a, b, "same query, same bits");
        assert_eq!(a.nodes, MachineModel::frontier().nodes);
        assert!(a.fom_value.is_finite() && a.fom_value > 0.0);
        assert!(a.spans > 0, "profiled run must record spans");
        let half = evaluate_query("CoMet", "Frontier", 4704, &CLEAN, "").expect("valid query");
        assert_eq!(half.nodes, 4704);
    }

    /// `(fom_value bits, wall_s bits)` of every Table-2 app on
    /// [`GOLDEN_SHAPES`] under `knob:transform=1.5` — the shapes of a cold
    /// campaign batch.
    const GOLDEN: [(&str, [(u64, u64); 6]); 8] = [
        (
            "GAMESS",
            [
                (0x40cf4b3d9b4321cf, 0x3f105c6b3f0e3e19),
                (0x40cf4b3d9b4321cf, 0x3f105c6b3f0e3e19),
                (0x40cf4b3d9b4321cf, 0x3f105c6b3f0e3e19),
                (0x40a8d7a76b5a91e2, 0x3f349c2421a68f32),
                (0x40a8d7a76b5a91e2, 0x3f349c2421a68f32),
                (0x40a8d7a76b5a91e2, 0x3f349c2421a68f32),
            ],
        ),
        (
            "LSMS",
            [
                (0x408d6c95628663c3, 0x3f5166924e6465dd),
                (0x408d6c95628663c3, 0x3f5166924e6465dd),
                (0x408d6c95628663c3, 0x3f5166924e6465dd),
                (0x405ff9e16529a780, 0x3f80030fe35381ff),
                (0x405ff9e16529a780, 0x3f80030fe35381ff),
                (0x405ff9e16529a780, 0x3f80030fe35381ff),
            ],
        ),
        (
            "GESTS",
            [
                (0x4261f6ec600c7a26, 0x404c802642539097),
                (0x423c399086b211b7, 0x3fe223d9638ab83b),
                (0x4220ba850e1d12bc, 0x3ffe9b35308283d6),
                (0x4233b3d3b6518f12, 0x4052800f9929ebc9),
                (0x4233b3d3b6518f12, 0x4052800f9929ebc9),
                (0x4233b3d3b6518f12, 0x4052800f9929ebc9),
            ],
        ),
        (
            "ExaSky",
            [
                (0x42d3cbc357c01176, 0x3ffdb3fad52e590c),
                (0x42a3cbc357c01176, 0x3ff9dd2709bc626f),
                (0x4273cbc357c01176, 0x3ff9dd2709bc626f),
                (0x42b27650e1283172, 0x40076631ce9862a5),
                (0x4290692b72ce64d8, 0x40076631ce9862a3),
                (0x4260692b72ce64d8, 0x40076631ce9862a3),
            ],
        ),
        (
            "CoMet",
            [
                (0x41bff5c340000001, 0x3fe7df270dd877ee),
                (0x41bff5c340000001, 0x3fe7df270dd877ee),
                (0x41bff5c340000001, 0x3fe7df270dd877ee),
                (0x4198964020000000, 0x400f07c1f07c1f08),
                (0x4198964020000000, 0x400f07c1f07c1f08),
                (0x4198964020000000, 0x400f07c1f07c1f08),
            ],
        ),
        (
            "NuCCOR",
            [
                (0x406e7ecfbd43ffff, 0x3f70ca18cc854d07),
                (0x406e7ecfbd43ffff, 0x3f70ca18cc854d07),
                (0x406e7ecfbd43ffff, 0x3f70ca18cc854d07),
                (0x4043dd0571200001, 0x3f99c6ae471eb3c9),
                (0x4043dd0571200001, 0x3f99c6ae471eb3c9),
                (0x4043dd0571200001, 0x3f99c6ae471eb3c9),
            ],
        ),
        (
            "Pele",
            [
                (0x3e346bc3632e518a, 0x3e346bc3632e518a),
                (0x3e346bc3632e518a, 0x3e346bc3632e518a),
                (0x3e346bc3632e518a, 0x3e346bc3632e518a),
                (0x3e5575525a3914ab, 0x3e5575525a3914ab),
                (0x3e5575525a3914ab, 0x3e5575525a3914ab),
                (0x3e5575525a3914ab, 0x3e5575525a3914ab),
            ],
        ),
        (
            "COAST",
            [
                (0x408e93999a1373cd, 0x3ff0000000000000),
                (0x405a9fde909c4201, 0x3ff0000000000000),
                (0x402a9fde909c4201, 0x3ff0000000000000),
                (0x406064ff86dae33a, 0x3ff0000000000000),
                (0x403d25547df6e94c, 0x3ff0000000000000),
                (0x400d25547df6e94c, 0x3ff0000000000000),
            ],
        ),
    ];
    const GOLDEN_SHAPES: [(&str, u32); 6] = [
        ("Frontier", 0),
        ("Frontier", 1024),
        ("Frontier", 128),
        ("Summit", 0),
        ("Summit", 1024),
        ("Summit", 128),
    ];

    #[test]
    fn table2_answers_keep_their_bits() {
        let knobs = vec![("transform".to_string(), 1.5)];
        for (app, bits) in GOLDEN {
            for ((machine, nodes), want) in GOLDEN_SHAPES.into_iter().zip(bits) {
                let a = evaluate_query(app, machine, nodes, &knobs, "").expect("valid query");
                assert_eq!(
                    (a.fom_value.to_bits(), a.wall_s.to_bits()),
                    want,
                    "{app} on {machine} at {nodes} nodes: fom {} wall {}",
                    a.fom_value,
                    a.wall_s
                );
            }
        }
        let table2: Vec<_> = crate::table2_applications()
            .iter()
            .map(|a| a.name())
            .collect();
        let golden: Vec<_> = GOLDEN.iter().map(|g| g.0).collect();
        assert_eq!(golden, table2, "one golden row per Table-2 app");
    }

    /// One query of a scratch sweep: app, machine, nodes, knobs, tag.
    type SweepQuery = (
        &'static str,
        &'static str,
        u32,
        Vec<(&'static str, f64)>,
        &'static str,
    );

    /// Every app × machine, each query with zero to two knobs, so that a
    /// scratch's injections grow and shrink from one query to the next,
    /// and every other one tagged. The needles match spans of every app,
    /// so a knob left over from an earlier query would move the answer.
    fn sweep() -> Vec<SweepQuery> {
        let knobs = [("e", 1.25), ("a", 1.5)];
        let pairs = APP_NAMES
            .iter()
            .flat_map(|&app| MACHINE_NAMES.iter().map(move |&machine| (app, machine)));
        pairs
            .enumerate()
            .map(|(i, (app, machine))| {
                let nodes = [0, 1024, 128][i % 3];
                let tag = ["", "drill"][i % 2];
                (app, machine, nodes, knobs[..i % 3].to_vec(), tag)
            })
            .collect()
    }

    /// An answer's fields, its numbers as bits.
    type Bits = Option<(&'static str, &'static str, u32, u64, u64, u64)>;

    fn bits(answer: Option<QueryAnswer>) -> Bits {
        answer.map(|a| {
            let (fom, wall) = (a.fom_value.to_bits(), a.wall_s.to_bits());
            (a.app, a.machine, a.nodes, fom, wall, a.spans)
        })
    }

    /// `q` evaluated on the calling thread's scratch.
    fn on_scratch(q: &SweepQuery) -> Bits {
        bits(evaluate_query(q.0, q.1, q.2, &q.3, q.4))
    }

    /// Tracks the calling thread's scratch has registered.
    fn scratch_tracks() -> usize {
        SCRATCH.with_borrow(|s| s.collector.with_timeline(|t| t.tracks().len()))
    }

    /// Forward, reversed, interleaved with another app's query and on two
    /// threads at once, the scratch answers every query with the bits a
    /// fresh collector gives, and a second pass over the queries
    /// registers no track the first did not.
    #[test]
    fn the_scratch_answers_what_a_fresh_collector_answers() {
        let sweep = sweep();
        let n = sweep.len();
        let fresh: Vec<Bits> = sweep
            .iter()
            .map(|q| bits(Scratch::new().evaluate(q.0, q.1, q.2, &q.3, q.4)))
            .collect();
        assert!(fresh.iter().any(Option::is_none) && fresh.iter().any(Option::is_some));
        for (q, want) in sweep.iter().zip(&fresh) {
            if want.is_some() && !q.3.is_empty() {
                let clean = bits(Scratch::new().evaluate(q.0, q.1, q.2, &CLEAN, q.4));
                assert_ne!(&clean, want, "the knobs of {q:?} move its answer");
            }
        }
        let forward: Vec<Bits> = sweep.iter().map(on_scratch).collect();
        assert_eq!(forward, fresh, "forward app order");
        let tracks = scratch_tracks();
        let mut reverse: Vec<Bits> = sweep.iter().rev().map(on_scratch).collect();
        reverse.reverse();
        assert_eq!(reverse, fresh, "reverse app order");
        for (i, want) in fresh.iter().enumerate() {
            // The query before is another app's on another machine.
            on_scratch(&sweep[(i + 37) % n]);
            assert_eq!(&on_scratch(&sweep[i]), want, "interleaved: {:?}", sweep[i]);
        }
        assert_eq!(
            scratch_tracks(),
            tracks,
            "the scratch's tracks stop growing"
        );
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let forward = scope.spawn(|| {
                start.wait();
                sweep.iter().map(on_scratch).collect::<Vec<_>>()
            });
            let reverse = scope.spawn(|| {
                start.wait();
                let mut out: Vec<Bits> = sweep.iter().rev().map(on_scratch).collect();
                out.reverse();
                out
            });
            assert_eq!(forward.join().expect("forward thread"), fresh, "thread 1");
            assert_eq!(reverse.join().expect("reverse thread"), fresh, "thread 2");
        });
    }

    /// A drilled evaluation repeats the query on one thread; every repeat
    /// reports the first run's bits, span count included.
    #[test]
    fn a_repeated_evaluation_reports_the_same_spans() {
        let knobs = [("transform", 1.5)];
        for app in APP_NAMES {
            let first = evaluate_query(app, "Frontier", 0, &knobs, "drill");
            let fresh = Scratch::new().evaluate(app, "Frontier", 0, &knobs, "drill");
            assert!(first.as_ref().is_some_and(|a| a.spans > 0), "{app}");
            assert_eq!(bits(first.clone()), bits(fresh), "{app}");
            for _ in 0..3 {
                let again = evaluate_query(app, "Frontier", 0, &knobs, "drill");
                assert_eq!(bits(again), bits(first.clone()), "{app} repeated");
            }
        }
    }

    #[test]
    fn knob_injections_perturb_the_answer() {
        let clean = evaluate_query("COAST", "Frontier", 0, &CLEAN, "").expect("valid");
        let knobs = vec![("block".to_string(), 2.0)];
        let slowed = evaluate_query("COAST", "Frontier", 0, &knobs, "drill").expect("valid");
        // The knob stretches matching spans; a knob matching nothing
        // leaves the answer bit-identical.
        let dead = vec![("__nonexistent_span".to_string(), 3.0)];
        let unchanged = evaluate_query("COAST", "Frontier", 0, &dead, "").expect("valid");
        assert_eq!(clean.fom_value.to_bits(), unchanged.fom_value.to_bits());
        assert!(
            slowed.wall_s >= clean.wall_s,
            "a stretch never speeds the run up"
        );
    }
}
