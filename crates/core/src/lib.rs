//! Hierarchical functional timing analysis — the primary contribution
//! of Kukimoto & Brayton, *"Hierarchical Functional Timing Analysis"*,
//! DAC 1998.
//!
//! Functional (false-path-aware) timing analysis under tight
//! sensitization criteria traditionally required a flat netlist; this
//! crate implements the paper's hierarchical formulation, sound under
//! the XBD0 delay model:
//!
//! * [`ModuleTiming`] (from `hfta-fta`) — step 1: each leaf module is
//!   characterized once into per-output sets of incomparable timing
//!   tuples via required-time analysis, capturing false paths *inside*
//!   the module while remaining valid under any environment. Also the
//!   paper's black-box IP abstraction (Section 7), with a text
//!   serialization.
//! * [`HierAnalyzer`] ([`hier`]) — step 2: min–max propagation of
//!   arrival times through the instance DAG (Section 3). Conservative
//!   with respect to flat analysis (Theorem 1).
//! * [`DemandDrivenAnalyzer`] ([`demand`]) — the improved algorithm of
//!   Section 5: topological edge weights refined only where critical,
//!   one distinct path length at a time, each probe a functional
//!   stability check.
//! * [`IncrementalAnalyzer`] ([`incremental`]) — Section 3.3: module
//!   edits re-characterize only the edited module; arrival-condition
//!   changes re-run only the cheap top-level propagation.
//!
//! # Example
//!
//! ```
//! use hfta_core::{AnalysisConfig, HierAnalyzer};
//! use hfta_netlist::gen::{carry_skip_adder, CsaDelays};
//! use hfta_netlist::Time;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's Section 4 example: a 4-bit adder from two 2-bit
//! // carry-skip blocks, all inputs arriving at t = 0.
//! let design = carry_skip_adder(4, 2, CsaDelays::default());
//! let mut hier = HierAnalyzer::with_config(&design, "csa4.2", &AnalysisConfig::default())?;
//! let analysis = hier.analyze(&vec![Time::ZERO; 9])?;
//! // The final carry c4 arrives at 10 — matching flat XBD0 analysis,
//! // while topological analysis would claim 14.
//! assert_eq!(*analysis.output_arrivals.last().expect("c4"), Time::new(10));
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compose;
pub mod deadline;
pub mod demand;
pub mod hier;
pub mod incremental;
pub mod naive;

pub use compose::{analyze_multilevel, characterize_recursive, ComposeOptions};
pub use deadline::DeadlineToken;
pub use demand::{DemandAnalysis, DemandDrivenAnalyzer};
pub use hier::{propagate, HierAnalysis, HierAnalyzer, HierOptions, HierStats};
pub use incremental::{IncrementalAnalyzer, WarmSnapshot};
pub use naive::{find_underapproximation, independent_relaxation_model, Underapproximation};

// Re-export the model vocabulary, the analysis configuration and the
// trace types, so downstream users need only this crate plus the
// netlist crate.
pub use hfta_fta::{
    AnalysisConfig, ModelDbSpec, ModelSource, ModuleTiming, ParseModelError, SchedulerSeat,
    SolveBudget, TimingModel, TimingTuple, Trace, TraceSink, Tracer,
};
// The persistent model database analyzers warm-start from (name it in
// the config via AnalysisConfig::with_use_models / with_emit_models).
pub use hfta_modeldb::{ModelDb, ModelDbStats};
// The work-stealing pool parallel phases run on: build one, seat it in
// an AnalysisConfig, and analyzers share workers.
pub use hfta_sched::{SchedStats, Scheduler};
