//! Section 7 use case: timing abstraction of black-box IP blocks.
//!
//! A vendor characterizes a module once and ships only the timing
//! abstraction — accurate (false paths inside the block are already
//! accounted for) without revealing the netlist. The integrator loads
//! the text model and analyzes the surrounding design with no access to
//! the block's internals.
//!
//! Run with: `cargo run --example ip_abstraction`

use hfta::netlist::gen::{carry_skip_adder, CsaDelays};
use hfta::{AnalysisConfig, HierAnalyzer, ModuleTiming, Time};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // -------------------------------------------------------------
    // Vendor side: characterize the IP block and export the model.
    // -------------------------------------------------------------
    let design = carry_skip_adder(8, 2, CsaDelays::default());
    let block = design.leaf("csa_block2").expect("generator provides it");
    let timing = ModuleTiming::characterize(block, &AnalysisConfig::default())?;
    let exported = timing.to_text();
    println!("== exported IP timing abstraction ==\n{exported}");

    let path = std::env::temp_dir().join("csa_block2.hfta");
    std::fs::write(&path, &exported)?;
    println!("written to {}", path.display());

    // -------------------------------------------------------------
    // Integrator side: no netlist, only the text abstraction.
    // -------------------------------------------------------------
    let loaded = std::fs::read_to_string(&path)?;
    let black_box = ModuleTiming::from_text(&loaded)?;
    assert_eq!(black_box, timing, "lossless round trip");

    let mut hier = HierAnalyzer::with_config(&design, "csa8.2", &AnalysisConfig::default())?;
    hier.install_model(black_box);
    let analysis = hier.analyze(&[Time::ZERO; 17])?;
    println!("\n== integrator analysis using only the abstraction ==");
    println!("  estimated delay of csa8.2 = {}", analysis.delay);
    println!(
        "  modules characterized locally = {} (the block came from the vendor file)",
        analysis.stats.modules_characterized
    );
    assert_eq!(analysis.stats.modules_characterized, 0);
    assert_eq!(analysis.delay, Time::new(16));
    std::fs::remove_file(&path).ok();
    Ok(())
}
