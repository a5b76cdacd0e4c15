//! The lessons-learned registry — §5's dissemination machinery.
//!
//! "The lessons learned from the hackathons were then disseminated to the
//! rest of the early users ... through special webinar sessions. Then the
//! information was further distilled into new sections in the user guide."
//!
//! This module is that pipeline as data: structured [`Lesson`]s keyed by
//! paper section and topic, with a generator that distils them into a
//! Crusher-quick-start-style user guide. §6's triage ordering
//! (functionality → missing features → performance) is encoded in
//! [`IssueClass`] and validated by the registry's self-checks.

use serde::{Deserialize, Serialize};
use std::fmt;

/// What kind of problem a lesson addresses — §6: "Early access to software
/// and hardware helped identify: A) functionality problems, B) missing
/// features, and C) performance problems, typically in this order."
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum IssueClass {
    /// It does not work at all.
    Functionality,
    /// It works, but a needed capability is absent.
    MissingFeature,
    /// It works, slowly.
    Performance,
}

/// Training topic areas (§5: "Trainings covered a wide spectrum of topics
/// across hardware, software and system operations").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topic {
    /// Cache sizes, atomics, register spilling, launch latencies.
    Hardware,
    /// Library features, HIPifying, programming-model use.
    Software,
    /// Batch system, NUMA and affinity.
    SystemOperations,
}

/// One distilled lesson.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lesson {
    /// Paper section it comes from.
    pub section: &'static str,
    /// Topic area.
    pub topic: Topic,
    /// Issue class it mitigates.
    pub class: IssueClass,
    /// Short title.
    pub title: &'static str,
    /// The guidance, as the user guide prints it.
    pub guidance: &'static str,
}

/// The registry of COE lessons, in the order they were learned.
pub fn lessons() -> Vec<Lesson> {
    vec![
        Lesson {
            section: "2.1",
            topic: Topic::Software,
            class: IssueClass::MissingFeature,
            title: "Set HIP/CUDA parity expectations early",
            guidance: "Do not assume every CUDA feature from the latest CUDA version is, or \
                       will be, provided by HIP. Check the feature-parity table before \
                       designing around Graphs, dynamic parallelism, or legacy textures.",
        },
        Lesson {
            section: "2.1",
            topic: Topic::Software,
            class: IssueClass::Functionality,
            title: "hipify first, fix deprecated syntax second",
            guidance: "The hipify tool converts modern CUDA automatically; budget manual \
                       effort only for outdated syntax (texture references, unsynced \
                       shuffles) that it flags.",
        },
        Lesson {
            section: "2.2",
            topic: Topic::Software,
            class: IssueClass::Performance,
            title: "Use large structured TARGET DATA regions",
            guidance: "Keep persistent arrays device-resident via MAP/OMP_TARGET_ALLOC and \
                       synchronise with TARGET UPDATE TO/FROM; per-loop mapping pays the \
                       full transfer cost every iteration.",
        },
        Lesson {
            section: "2.2",
            topic: Topic::Software,
            class: IssueClass::Performance,
            title: "USE_DEVICE_PTR enables GPU-aware MPI",
            guidance: "Pass device pointers into MPI; host-staged communication roughly \
                       doubles the payload cost and adds latency.",
        },
        Lesson {
            section: "3.2",
            topic: Topic::Software,
            class: IssueClass::Performance,
            title: "Prefer library solvers over bespoke kernels",
            guidance: "rocSOLVER's getrf/getrs beat the lower-flop bespoke block inversion: \
                       a string of small custom launches loses to one tuned library call.",
        },
        Lesson {
            section: "3.2",
            topic: Topic::Hardware,
            class: IssueClass::Performance,
            title: "Keep integer address math out of FP streams",
            guidance: "Interleaved index calculations stall the MI250X floating-point \
                       pipes; precompute indices and keep the hot loop pure FP.",
        },
        Lesson {
            section: "3.4",
            topic: Topic::Hardware,
            class: IssueClass::Performance,
            title: "Audit warp-width assumptions",
            guidance: "AMD wavefronts are 64 lanes. Tiling tuned for 32-wide warps idles \
                       half the machine; retune tile shapes when porting from NVIDIA.",
        },
        Lesson {
            section: "3.5",
            topic: Topic::Software,
            class: IssueClass::Performance,
            title: "Manage launch latency deliberately",
            guidance: "Fuse small kernels, fission register-spilling ones, launch \
                       asynchronously in one stream, and use a pool allocator for \
                       device scratch.",
        },
        Lesson {
            section: "3.8",
            topic: Topic::Software,
            class: IssueClass::Performance,
            title: "UVM is a porting aid, not a production plan",
            guidance: "Managed memory lets code move to the device section by section, \
                       but page-fault migration must be replaced by explicit copies \
                       before the performance work is done.",
        },
        Lesson {
            section: "3.10",
            topic: Topic::Hardware,
            class: IssueClass::Performance,
            title: "Preprocess away control-flow divergence",
            guidance: "When cutoff checks leave a handful of active lanes, emit a compact \
                       interaction list with a cheap preprocessor kernel and evaluate it \
                       densely.",
        },
        Lesson {
            section: "3.10",
            topic: Topic::Hardware,
            class: IssueClass::Functionality,
            title: "Intermittent faults may be compiler bugs",
            guidance: "Run the same kernel on CPU and GPU over the same allocations (a \
                       portability-layer superpower) to bisect miscompiles from race \
                       conditions; register spills in divergent regions were the culprit.",
        },
        Lesson {
            section: "4",
            topic: Topic::SystemOperations,
            class: IssueClass::Performance,
            title: "Give library teams your problem sizes early",
            guidance: "Math libraries carry size-specialised kernels; handing target \
                       dimensions to vendors during early access means tuned paths exist \
                       at system delivery.",
        },
        Lesson {
            section: "6",
            topic: Topic::SystemOperations,
            class: IssueClass::Functionality,
            title: "Platforms are seldom too early",
            guidance: "Early hardware surfaces functionality problems first, then missing \
                       features, then performance problems — each found earlier is fixed \
                       earlier.",
        },
    ]
}

/// Render the lessons into a quick-start-guide section list, grouped by
/// topic, each section ordered by the §6 triage sequence.
pub fn render_user_guide() -> String {
    let mut out = String::new();
    use fmt::Write;
    writeln!(
        out,
        "# Early-access system quick-start: lessons from the COE\n"
    )
    .expect("write");
    for topic in [Topic::Hardware, Topic::Software, Topic::SystemOperations] {
        let mut section: Vec<Lesson> = lessons().into_iter().filter(|l| l.topic == topic).collect();
        section.sort_by_key(|l| l.class);
        writeln!(out, "## {topic:?}\n").expect("write");
        for l in section {
            writeln!(
                out,
                "### {} (§{}, {:?})\n\n{}\n",
                l.title, l.section, l.class, l.guidance
            )
            .expect("write");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_topics_and_classes() {
        let all = lessons();
        assert!(all.len() >= 12);
        for topic in [Topic::Hardware, Topic::Software, Topic::SystemOperations] {
            assert!(all.iter().any(|l| l.topic == topic), "{topic:?} uncovered");
        }
        for class in [
            IssueClass::Functionality,
            IssueClass::MissingFeature,
            IssueClass::Performance,
        ] {
            assert!(all.iter().any(|l| l.class == class), "{class:?} uncovered");
        }
    }

    #[test]
    fn triage_order_is_functionality_first() {
        // §6's ordering is encoded in the enum's Ord.
        assert!(IssueClass::Functionality < IssueClass::MissingFeature);
        assert!(IssueClass::MissingFeature < IssueClass::Performance);
    }

    #[test]
    fn guide_renders_every_lesson_in_triage_order() {
        let guide = render_user_guide();
        for l in lessons() {
            assert!(guide.contains(l.title), "guide missing {}", l.title);
        }
        // Within the Hardware section, a Functionality lesson precedes a
        // Performance one.
        let hw = guide.split("## Hardware").nth(1).expect("hardware section");
        let func = hw.find("Functionality").expect("functionality lesson");
        let perf = hw.find("Performance").expect("performance lesson");
        assert!(func < perf, "triage ordering violated");
    }

    #[test]
    fn sections_reference_real_paper_sections() {
        for l in lessons() {
            assert!(
                matches!(l.section, "2.1" | "2.2" | "4" | "5" | "6") || l.section.starts_with("3."),
                "{} has odd section {}",
                l.title,
                l.section
            );
        }
    }
}
