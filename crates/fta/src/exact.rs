//! Exact required-time analysis for small modules.
//!
//! Two engines, both exhaustive over the candidate delay grid (the
//! distinct topological path lengths of each pin, plus `−∞`), with
//! BDD-backed stability so each probe is cheap:
//!
//! * [`exact_model`] — the exact *vector-independent* model: the Pareto
//!   frontier of all valid delay tuples. The approximate
//!   [`Characterizer`](crate::Characterizer) result is always a subset
//!   of valid tuples, which the test-suite exploits.
//! * [`exact_vector_relation`] — the paper's Section 2 relation
//!   `T_exact ⊆ Bⁿ × Rⁿ`: per input vector, the maximal required-time
//!   tuples (as delay tuples). Reproduces the AND-gate example: for
//!   vector (0,0) the incomparable tuples `(1, −∞)` and `(−∞, 1)`.

use hfta_netlist::{NetId, Netlist, NetlistError, Time};

use crate::boolalg::{BddAlg, BoolAlg};
use crate::model::{TimingModel, TimingTuple};
use crate::sta::TopoSta;
use crate::stability::StabilityAnalyzer;

/// Options for the exact engines.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExactOptions {
    /// Refuse modules with more primary inputs than this (the engines
    /// are exponential).
    pub max_inputs: usize,
    /// Cap on per-pin distinct path-length lists.
    pub lengths_cap: usize,
    /// Refuse candidate grids larger than this many tuples.
    pub max_candidates: usize,
}

impl Default for ExactOptions {
    fn default() -> ExactOptions {
        ExactOptions {
            max_inputs: 10,
            lengths_cap: 16,
            max_candidates: 200_000,
        }
    }
}

/// Errors from the exact engines.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExactError {
    /// The module exceeds [`ExactOptions::max_inputs`] or the candidate
    /// grid exceeds [`ExactOptions::max_candidates`].
    TooLarge {
        /// Human-readable reason.
        reason: String,
    },
    /// An underlying netlist error.
    Netlist(NetlistError),
}

impl std::fmt::Display for ExactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExactError::TooLarge { reason } => {
                write!(f, "module too large for exact analysis: {reason}")
            }
            ExactError::Netlist(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExactError {}

impl From<NetlistError> for ExactError {
    fn from(e: NetlistError) -> ExactError {
        ExactError::Netlist(e)
    }
}

/// Per-input candidate delay values: distinct path lengths descending,
/// then `−∞`.
fn candidate_grid(
    netlist: &Netlist,
    output: NetId,
    opts: &ExactOptions,
) -> Result<Vec<Vec<Time>>, ExactError> {
    if netlist.inputs().len() > opts.max_inputs {
        return Err(ExactError::TooLarge {
            reason: format!(
                "{} inputs exceeds limit {}",
                netlist.inputs().len(),
                opts.max_inputs
            ),
        });
    }
    let sta = TopoSta::new(netlist)?;
    let distinct = sta.distinct_lengths_to(output, opts.lengths_cap);
    let mut grid = Vec::with_capacity(netlist.inputs().len());
    let mut total: usize = 1;
    for &pi in netlist.inputs() {
        let mut vals = distinct[pi.index()].clone();
        vals.push(Time::NEG_INF);
        total = total.saturating_mul(vals.len());
        grid.push(vals);
    }
    if total > opts.max_candidates {
        return Err(ExactError::TooLarge {
            reason: format!(
                "{total} candidate tuples exceed limit {}",
                opts.max_candidates
            ),
        });
    }
    Ok(grid)
}

fn for_each_candidate(grid: &[Vec<Time>], mut f: impl FnMut(&[Time])) {
    let n = grid.len();
    let mut idx = vec![0usize; n];
    let mut tuple: Vec<Time> = grid.iter().map(|g| g[0]).collect();
    loop {
        f(&tuple);
        // Odometer increment.
        let mut k = 0;
        loop {
            if k == n {
                return;
            }
            idx[k] += 1;
            if idx[k] < grid[k].len() {
                tuple[k] = grid[k][idx[k]];
                break;
            }
            idx[k] = 0;
            tuple[k] = grid[k][0];
            k += 1;
        }
    }
}

/// The exact vector-independent timing model of `output`: the Pareto
/// frontier of all valid delay tuples over the candidate grid.
///
/// # Errors
///
/// Returns [`ExactError::TooLarge`] for modules beyond the configured
/// limits, or a wrapped netlist error.
pub fn exact_model(
    netlist: &Netlist,
    output: NetId,
    opts: &ExactOptions,
) -> Result<TimingModel, ExactError> {
    let grid = candidate_grid(netlist, output, opts)?;
    let mut valid: Vec<TimingTuple> = Vec::new();
    let mut candidates: Vec<Vec<Time>> = Vec::new();
    for_each_candidate(&grid, |tuple| candidates.push(tuple.to_vec()));
    for delays in candidates {
        // Skip candidates dominated by an already-valid tuple: they are
        // valid too but never on the frontier.
        let t = TimingTuple::new(delays.clone());
        if valid.iter().any(|v| v.dominates(&t)) {
            continue;
        }
        let arrivals: Vec<Time> = delays.iter().map(|&d| -d).collect();
        let mut analyzer = StabilityAnalyzer::new(netlist, &arrivals, BddAlg::new())?;
        if analyzer.is_stable_at(output, Time::ZERO) {
            valid.push(t);
        }
    }
    if valid.is_empty() {
        // At least the topological tuple is always valid; reaching here
        // means the grid missed it, which cannot happen (index 0 of
        // every list is the topological length).
        unreachable!("topological tuple must be valid");
    }
    Ok(TimingModel::from_tuples(valid))
}

/// The paper's exact relation `T_exact`: for every input vector, the
/// Pareto frontier of valid delay tuples *under that vector*.
///
/// Entry `k` of the result pairs the vector whose bit `i` is
/// `(k >> i) & 1` with its maximal tuples.
///
/// # Errors
///
/// Returns [`ExactError::TooLarge`] for modules beyond the configured
/// limits, or a wrapped netlist error.
pub fn exact_vector_relation(
    netlist: &Netlist,
    output: NetId,
    opts: &ExactOptions,
) -> Result<Vec<(u64, Vec<TimingTuple>)>, ExactError> {
    let n = netlist.inputs().len();
    if n > opts.max_inputs.min(16) {
        return Err(ExactError::TooLarge {
            reason: format!("{n} inputs exceeds per-vector limit"),
        });
    }
    let grid = candidate_grid(netlist, output, opts)?;
    let mut candidates: Vec<Vec<Time>> = Vec::new();
    for_each_candidate(&grid, |tuple| candidates.push(tuple.to_vec()));

    let vectors = 1u64 << n;
    let mut per_vector: Vec<Vec<TimingTuple>> = vec![Vec::new(); vectors as usize];
    for delays in candidates {
        let t = TimingTuple::new(delays.clone());
        let arrivals: Vec<Time> = delays.iter().map(|&d| -d).collect();
        let mut analyzer = StabilityAnalyzer::new(netlist, &arrivals, BddAlg::new())?;
        let (s0, s1) = analyzer.characteristic(output, Time::ZERO);
        let settled = analyzer.alg_mut().or(s0, s1);
        for v in 0..vectors {
            let assignment: Vec<bool> = (0..n).map(|i| (v >> i) & 1 == 1).collect();
            let stable = analyzer.alg_mut().manager_mut().eval(settled, &assignment);
            if stable {
                let frontier = &mut per_vector[v as usize];
                if frontier.iter().any(|f| f.dominates(&t)) {
                    continue;
                }
                frontier.retain(|f| !t.dominates(f));
                frontier.push(t.clone());
            }
        }
    }
    Ok(per_vector
        .into_iter()
        .enumerate()
        .map(|(v, mut ts)| {
            ts.sort();
            (v as u64, ts)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;
    use crate::required::characterize_module;
    use hfta_netlist::gen::{carry_skip_block, CsaDelays};
    use hfta_netlist::GateKind;

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    fn and2() -> Netlist {
        let mut nl = Netlist::new("and2");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::And, &[a, b], z, 1).unwrap();
        nl.mark_output(z);
        nl
    }

    /// The Section 2 example: unit-delay AND gate. For vector (0,0)
    /// either input alone suffices: incomparable tuples (1,−∞), (−∞,1).
    #[test]
    fn and_gate_exact_relation() {
        let nl = and2();
        let z = nl.outputs()[0];
        let rel = exact_vector_relation(&nl, z, &ExactOptions::default()).unwrap();
        // Vector (0,0) = index 0.
        let (_, tuples) = &rel[0];
        assert_eq!(
            tuples,
            &vec![
                TimingTuple::new(vec![Time::NEG_INF, t(1)]),
                TimingTuple::new(vec![t(1), Time::NEG_INF]),
            ]
        );
        // Vector (1,1) = index 3: both inputs needed.
        let (_, tuples) = &rel[3];
        assert_eq!(tuples, &vec![TimingTuple::new(vec![t(1), t(1)])]);
        // Index 1 is vector (a=1, b=0): the controlling 0 on b decides;
        // a is irrelevant.
        let (_, tuples) = &rel[1];
        assert_eq!(tuples, &vec![TimingTuple::new(vec![Time::NEG_INF, t(1)])]);
        // Index 2 is (a=0, b=1): symmetric.
        let (_, tuples) = &rel[2];
        assert_eq!(tuples, &vec![TimingTuple::new(vec![t(1), Time::NEG_INF])]);
    }

    /// The exact vector-independent model of the AND gate is the
    /// topological tuple (no vector-independent relaxation exists).
    #[test]
    fn and_gate_exact_model() {
        let nl = and2();
        let z = nl.outputs()[0];
        let model = exact_model(&nl, z, &ExactOptions::default()).unwrap();
        assert_eq!(model.tuples(), &[TimingTuple::new(vec![t(1), t(1)])]);
    }

    /// On the paper's carry-skip block the exact and approximate models
    /// coincide (the single tuple (2,8,8,6,6) for c_out).
    #[test]
    fn carry_skip_exact_matches_approximate() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let c_out = nl.find_net("c_out").unwrap();
        let exact = exact_model(&nl, c_out, &ExactOptions::default()).unwrap();
        let approx = &characterize_module(&nl, &AnalysisConfig::default()).unwrap()[2];
        assert_eq!(exact.tuples(), approx.tuples());
    }

    /// Every approximate tuple must be valid, i.e. dominated by (or on)
    /// the exact frontier.
    #[test]
    fn approximate_is_subset_of_valid() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let models = characterize_module(&nl, &AnalysisConfig::default()).unwrap();
        for (k, &out) in nl.outputs().iter().enumerate() {
            let exact = exact_model(&nl, out, &ExactOptions::default()).unwrap();
            for at in models[k].tuples() {
                assert!(
                    exact.tuples().iter().any(|et| et.dominates(at)),
                    "approximate tuple {at} not covered by exact frontier for output {k}"
                );
            }
        }
    }

    #[test]
    fn too_many_inputs_rejected() {
        let mut nl = Netlist::new("wide");
        let ins: Vec<NetId> = (0..12).map(|i| nl.add_input(format!("i{i}"))).collect();
        let z = nl.add_net("z");
        nl.add_gate(GateKind::And, &ins, z, 1).unwrap();
        nl.mark_output(z);
        let err = exact_model(&nl, z, &ExactOptions::default()).unwrap_err();
        assert!(matches!(err, ExactError::TooLarge { .. }));
    }

    /// Irrelevant select in Mux(s, a, a): exact model drops s.
    #[test]
    fn exact_drops_irrelevant_input() {
        let mut nl = Netlist::new("m");
        let s = nl.add_input("s");
        let a = nl.add_input("a");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Mux, &[s, a, a], z, 2).unwrap();
        nl.mark_output(z);
        let model = exact_model(&nl, z, &ExactOptions::default()).unwrap();
        assert_eq!(
            model.tuples(),
            &[TimingTuple::new(vec![Time::NEG_INF, t(2)])]
        );
        let _ = s;
    }
}
