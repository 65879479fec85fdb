//! `hfta serve`: a warm, batched timing-query daemon.
//!
//! The paper's hierarchical flow exists so a design is characterized
//! *once* and then queried *many times* by many consumers. Every
//! ingredient of that contract already lives in the workspace — the
//! incremental session with its content-hash model cache
//! (`hfta-core`), persistent stability oracles (`hfta-fta`), the
//! work-stealing pool (`hfta-sched`), budgets/deadlines, structured
//! tracing and the on-disk model database — but nothing kept them warm
//! across requests. This crate is that missing long-lived process:
//!
//! * [`ServeSession`] owns one [`IncrementalAnalyzer`] plus one
//!   persistent [`StabilityOracle`] per what-if-queried module, and
//!   answers [`protocol`] requests (report, delay, slack, what-if,
//!   ECO, stats, shutdown) as deterministic single-line JSON;
//! * [`serve_lines`] is the transport loop: newline-delimited JSON
//!   over any reader/writer pair, with reader-thread batching and
//!   pool-sharded read-only runs; [`serve_unix_socket`] lifts the same
//!   loop onto a unix socket and accepts any number of concurrent
//!   clients, multiplexed through a bounded queue with per-connection
//!   FIFO responses and an ECO/shutdown write barrier;
//! * [`json`] is the crate's hand-rolled (workspace-hermetic) JSON
//!   codec — integer-only numbers, capped nesting, byte-stable output.
//!   It is transport-only: the session's native API is the typed
//!   [`protocol::Request`] → [`protocol::Response`] pair served by
//!   [`ServeSession::dispatch`].
//!
//! Soundness stance: every answer is bit-identical to what a fresh
//! analysis of the current design would produce, unless the response
//! says `"degraded":true` — which only happens under an explicit
//! per-request deadline/budget and is then a sound (topological) upper
//! bound. Malformed input gets a structured error and mutates nothing.
//!
//! [`IncrementalAnalyzer`]: hfta_core::IncrementalAnalyzer
//! [`StabilityOracle`]: hfta_fta::StabilityOracle

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod protocol;
mod server;
mod session;

pub use server::{serve_lines, serve_unix_socket};
pub use session::{Action, ServeCounters, ServeSession, DEFAULT_MAX_LINE};

// The typed request/response vocabulary at the top level, so embedders
// can drive a session without touching the JSON transport.
pub use protocol::{parse_request, Outcome, Request, RequestKind, Response};

use hfta_netlist::{Composite, Design, Netlist};

/// Wraps a flat netlist into a depth-1 hierarchical design: one
/// composite (named after the netlist, suffixed `_top`) holding one
/// instance of the netlist as its sole leaf, ports mirrored by name.
/// This is how the daemon serves `.bench`/`.blif` inputs through the
/// hierarchy-shaped [`ServeSession`].
///
/// # Panics
///
/// Panics if the netlist fails design validation (the CLI validates on
/// load).
#[must_use]
pub fn wrap_flat(netlist: Netlist) -> (Design, String) {
    let top_name = format!("{}_top", netlist.name());
    let mut top = Composite::new(&top_name);
    let ins: Vec<_> = netlist
        .inputs()
        .iter()
        .map(|&n| top.add_input(netlist.net_name(n)))
        .collect();
    let outs: Vec<_> = netlist
        .outputs()
        .iter()
        .map(|&n| top.add_net(netlist.net_name(n)))
        .collect();
    top.add_instance("u0", netlist.name(), &ins, &outs);
    for &o in &outs {
        top.mark_output(o);
    }
    let mut design = Design::new();
    design.add_leaf(netlist).expect("flat netlist is valid");
    design.add_composite(top).expect("mirrored ports are valid");
    (design, top_name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_netlist::gen::{carry_skip_adder_flat, CsaDelays};
    use hfta_netlist::Time;

    /// A flat netlist served through the wrapper answers exactly like
    /// hierarchical analysis of the same one-leaf design, and stays a
    /// sound upper bound on the flat functional delay.
    #[test]
    fn wrapped_flat_report_matches_hier_analysis() {
        use hfta_core::{AnalysisConfig, HierAnalyzer};

        let flat = carry_skip_adder_flat(4, 2, CsaDelays::default()).unwrap();
        let exact = hfta_fta::functional_circuit_delay(&flat).unwrap();
        let inputs = flat.inputs().len();
        let (design, top) = wrap_flat(flat);
        let mut hier =
            HierAnalyzer::with_config(&design, &top, &AnalysisConfig::default()).unwrap();
        let want = hier.analyze(&vec![Time::ZERO; inputs]).unwrap().delay;
        assert!(want >= exact, "Theorem 1: conservative");

        let mut session = ServeSession::new(design, &top, &AnalysisConfig::default()).unwrap();
        session.warm().unwrap();
        let (resp, _) = session.handle_line(r#"{"id":1,"kind":"report"}"#);
        let resp = resp.unwrap();
        assert!(
            resp.contains(&format!(r#""delay":{}"#, want.raw())),
            "want {want}, got {resp}"
        );
    }
}
