//! Quickstart: characterize a module, analyze a hierarchy, compare
//! against flat and topological analysis.
//!
//! Run with: `cargo run --example quickstart`

use hfta::netlist::gen::{carry_skip_adder, carry_skip_adder_flat, CsaDelays};
use hfta::{functional_circuit_delay, AnalysisConfig, HierAnalyzer, ModuleTiming, Time, TopoSta};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // -------------------------------------------------------------
    // Step 1: characterize the leaf module (the paper's Figure 1
    // 2-bit carry-skip adder block).
    // -------------------------------------------------------------
    let design = carry_skip_adder(4, 2, CsaDelays::default());
    let block = design.leaf("csa_block2").expect("generator provides it");

    let timing = ModuleTiming::characterize(block, &AnalysisConfig::default())?;
    println!(
        "timing models of `{}` (inputs: {}):",
        timing.module(),
        timing.input_names().join(", ")
    );
    for (name, model) in timing.output_names().iter().zip(timing.models()) {
        println!("  T_{name} = {model}");
    }
    println!();

    // -------------------------------------------------------------
    // Step 2: hierarchical analysis of the 4-bit cascade (Figure 2).
    // -------------------------------------------------------------
    let arrivals = vec![Time::ZERO; 9];
    let mut hier = HierAnalyzer::with_config(&design, "csa4.2", &AnalysisConfig::default())?;
    let analysis = hier.analyze(&arrivals)?;
    let top = design.composite("csa4.2").expect("generator provides it");
    println!("hierarchical analysis of csa4.2 (all inputs at t = 0):");
    for (k, &po) in top.outputs().iter().enumerate() {
        println!(
            "  {:<4} arrives at {}",
            top.net_name(po),
            analysis.output_arrivals[k]
        );
    }
    println!("  estimated delay = {}", analysis.delay);
    println!();

    // -------------------------------------------------------------
    // Reference points: flat functional analysis and topological STA.
    // -------------------------------------------------------------
    let flat = carry_skip_adder_flat(4, 2, CsaDelays::default())?;
    let exact = functional_circuit_delay(&flat)?;
    let sta = TopoSta::new(&flat)?;
    let topo = sta.circuit_delay(&vec![Time::ZERO; flat.inputs().len()]);
    println!("flat functional delay  = {exact}  (ground truth under XBD0)");
    println!("topological delay      = {topo}  (ignores false paths)");
    println!(
        "hierarchical estimate  = {}  (conservative, matches flat here)",
        analysis.delay
    );
    assert!(analysis.delay >= exact && analysis.delay <= topo);
    Ok(())
}
