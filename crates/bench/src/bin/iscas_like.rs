//! Timings behind **Table 2**: hierarchical vs flat analysis of
//! partitioned ISCAS-like circuits.
//!
//! The paper's observation at these sizes: flat analysis is fast enough
//! that hierarchical analysis does not always win on CPU — its
//! advantage is scalability (false-path analysis runs on single leaf
//! modules instead of the whole circuit).
//!
//! Run with `cargo run --release -p hfta-bench --bin iscas_like`; see
//! [`hfta_testkit::Harness`] for the environment knobs.

use hfta_bench::{build_iscas_like, IscasLike};
use hfta_core::{AnalysisConfig, DemandDrivenAnalyzer};
use hfta_fta::DelayAnalyzer;
use hfta_netlist::partition::cascade_bipartition_min_cut;
use hfta_netlist::Time;
use hfta_testkit::Harness;

fn main() {
    let mut harness = Harness::new("iscas_like");
    {
        let mut group = harness.group("table2_iscas_like");
        for (gates, seed) in [(160usize, 432u64), (383, 880)] {
            let w = IscasLike {
                name: format!("c{seed}_like"),
                gates,
                seed,
            };
            let flat = build_iscas_like(&w);
            let design = cascade_bipartition_min_cut(&flat, 0.25, 0.75).expect("partitions");
            let top = format!("{}_top", w.name);
            let arrivals = vec![Time::ZERO; flat.inputs().len()];

            group.bench(&format!("hier_demand/{gates}"), || {
                let mut an =
                    DemandDrivenAnalyzer::with_config(&design, &top, &AnalysisConfig::default())
                        .expect("valid");
                an.analyze(&arrivals).expect("analyzes").delay
            });
            group.bench(&format!("flat_xbd0/{gates}"), || {
                let mut an = DelayAnalyzer::new_sat(&flat, &arrivals).expect("valid");
                an.circuit_delay()
            });
        }
    }
    harness.finish();
}
