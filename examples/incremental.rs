//! Section 3.3: incremental timing analysis.
//!
//! Once leaf models exist, a module edit re-characterizes only the
//! edited module, and changing arrival conditions re-runs only the
//! cheap top-level propagation — unlike flat analysis, where every
//! change restarts from scratch.
//!
//! Run with: `cargo run --example incremental`

use hfta::netlist::gen::{carry_skip_adder, carry_skip_block, CsaDelays};
use hfta::{AnalysisConfig, IncrementalAnalyzer, Time};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = carry_skip_adder(16, 2, CsaDelays::default());
    let mut session =
        IncrementalAnalyzer::with_config(design, "csa16.2", &AnalysisConfig::default())?;

    // Initial analysis: the single distinct block is characterized once
    // and shared by all 8 instances.
    let arrivals = vec![Time::ZERO; 33];
    let first = session.analyze(&arrivals)?;
    println!(
        "initial analysis:      delay = {}, characterizations = {}",
        first.delay,
        session.characterizations()
    );

    // New arrival condition: no characterization at all.
    let mut skewed = arrivals.clone();
    skewed[0] = Time::new(12); // late carry-in
    let second = session.analyze(&skewed)?;
    println!(
        "skewed arrivals:       delay = {}, characterizations = {}",
        second.delay,
        session.characterizations()
    );
    assert_eq!(session.characterizations(), 1);

    // Module edit: swap in a slower block (XOR/MUX delay 3). Exactly
    // one re-characterization.
    let mut slower = carry_skip_block(
        2,
        CsaDelays {
            and_or: 1,
            xor: 3,
            mux: 3,
        },
    );
    slower.set_name("csa_block2");
    session.replace_module(slower)?;
    let third = session.analyze(&arrivals)?;
    println!(
        "after module edit:     delay = {}, characterizations = {}",
        third.delay,
        session.characterizations()
    );
    assert_eq!(session.characterizations(), 2);
    assert!(third.delay > first.delay);

    // Reverting to an identical body costs nothing (content hashing).
    let mut original = carry_skip_block(2, CsaDelays::default());
    original.set_name("csa_block2");
    session.replace_module(original)?;
    let fourth = session.analyze(&arrivals)?;
    println!(
        "after reverting edit:  delay = {}, characterizations = {}",
        fourth.delay,
        session.characterizations()
    );
    assert_eq!(fourth.delay, first.delay);
    assert_eq!(session.characterizations(), 3); // re-characterized once more

    println!("\nFour analyses, three characterizations — flat analysis would have\nre-analyzed the full {}-gate circuit every time.",
        16 / 2 * 12);
    Ok(())
}
