//! §2.1 — the hipify conversion study: run the translator over the full
//! benchmark corpus plus a deliberately problematic legacy file, and print
//! the conversion statistics the paper's assessment rests on. Also emits
//! the single-header macro table (the Cholla strategy).

use crate::{Gate, header, write_json};
use exa_hal::hipify::generate_compat_header;
use exa_hal::hipify_source;
use exa_shoc::all_benchmarks;
use serde::Serialize;

#[derive(Serialize)]
struct ConversionRow {
    source: String,
    api_lines: usize,
    auto_fraction: f64,
    manual_fixes: usize,
    diagnostics: usize,
}

/// A legacy file using the outdated syntax the paper says hipify cannot
/// handle automatically.
const LEGACY_SOURCE: &str = "\
texture<float, 2, cudaReadModeElementType> tex;
cudaBindTexture(0, tex, d_data, size);
float v = __shfl(value, lane);
cudaThreadSynchronize();
cudaGraphLaunch(graphExec, stream);
kernel<<<grid, block>>>(d_data);
cudaMemcpy(h, d_data, size, cudaMemcpyDeviceToHost);";

pub fn run() -> Gate {
    header("hipify conversion study (§2.1)");
    let mut rows = Vec::new();

    println!(
        "{:<22} {:>9} {:>10} {:>8} {:>12}",
        "source", "API lines", "auto %", "manual", "diagnostics"
    );
    for b in all_benchmarks() {
        let r = hipify_source(b.cuda_source());
        println!(
            "{:<22} {:>9} {:>9.0}% {:>8} {:>12}",
            b.name(),
            r.api_lines,
            r.auto_fraction() * 100.0,
            r.manual_fix_lines(),
            r.diagnostics.len()
        );
        rows.push(ConversionRow {
            source: b.name().to_string(),
            api_lines: r.api_lines,
            auto_fraction: r.auto_fraction(),
            manual_fixes: r.manual_fix_lines(),
            diagnostics: r.diagnostics.len(),
        });
    }

    let legacy = hipify_source(LEGACY_SOURCE);
    println!(
        "{:<22} {:>9} {:>9.0}% {:>8} {:>12}   <- outdated CUDA syntax",
        "legacy_code.cu",
        legacy.api_lines,
        legacy.auto_fraction() * 100.0,
        legacy.manual_fix_lines(),
        legacy.diagnostics.len()
    );
    rows.push(ConversionRow {
        source: "legacy_code.cu".into(),
        api_lines: legacy.api_lines,
        auto_fraction: legacy.auto_fraction(),
        manual_fixes: legacy.manual_fix_lines(),
        diagnostics: legacy.diagnostics.len(),
    });
    println!("\nlegacy diagnostics:");
    for d in &legacy.diagnostics {
        println!(
            "  line {:>2} [{:?}] {}: {}",
            d.line, d.kind, d.construct, d.note
        );
    }

    println!(
        "\n\"In most cases, the hipify tool converted the bulk of the code automatically, \
         with the primary exception being code that used outdated CUDA syntax.\""
    );

    println!("\n--- the §2.1 alternative: the single macro header ---\n");
    println!("{}", generate_compat_header());
    write_json("hipify_report", &rows);
    Ok(())
}
