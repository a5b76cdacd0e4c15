//! §6 — the quantitative readiness-tracking artifacts: run every
//! application's porting campaign over the early-access timeline and write
//! the final readiness reports (the COE "final report detailing challenge
//! problem results") as JSON.

use crate::{Gate, header, write_json};
use exa_apps::all_applications;
use exa_core::{PortingCampaign, SpeedupTarget};

pub fn run() -> Gate {
    header("Readiness reports: all applications, full early-access timeline");
    let mut reports = Vec::new();
    for app in all_applications() {
        let mut campaign = PortingCampaign::new(app.as_ref(), SpeedupTarget::caar());
        campaign.run_standard_timeline();
        let report = campaign.report();
        println!(
            "{:<8} §{:<5} {:>6.2}x {}  (paper: {})",
            report.application,
            report.paper_section,
            report.measured_speedup,
            if report.target_met {
                "MET    "
            } else {
                "not met"
            },
            report
                .paper_speedup
                .map(|p| format!("{p}x"))
                .unwrap_or_else(|| "—".into())
        );
        reports.push(report);
    }
    let met = reports.iter().filter(|r| r.target_met).count();
    println!(
        "\n{met}/{} campaigns meet the CAAR 4x target",
        reports.len()
    );
    write_json("campaign_reports", &reports);
    Ok(())
}
