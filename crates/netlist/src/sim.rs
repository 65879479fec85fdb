//! Two- and three-valued logic simulation.
//!
//! Simulation is used throughout the test suite to establish functional
//! equivalence (e.g. that [`Design::flatten`](crate::Design::flatten)
//! preserves behaviour) and by the exact timing engines on small cones.

use crate::{GateKind, NetId, Netlist, NetlistError, Time};

/// A three-valued logic value: `0`, `1` or unknown (`X`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Tri {
    /// Logic 0.
    F,
    /// Logic 1.
    T,
    /// Unknown.
    X,
}

impl Tri {
    /// Converts from `bool`.
    #[must_use]
    pub fn from_bool(b: bool) -> Tri {
        if b {
            Tri::T
        } else {
            Tri::F
        }
    }

    /// Returns the known Boolean value, or `None` for `X`.
    #[must_use]
    pub fn known(self) -> Option<bool> {
        match self {
            Tri::F => Some(false),
            Tri::T => Some(true),
            Tri::X => None,
        }
    }
}

/// Evaluates the netlist on a full input vector, returning the values of
/// the primary outputs in declaration order.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the number of primary inputs.
///
/// # Example
///
/// ```
/// use hfta_netlist::{Netlist, GateKind, sim};
///
/// # fn main() -> Result<(), hfta_netlist::NetlistError> {
/// let mut nl = Netlist::new("and2");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let z = nl.add_net("z");
/// nl.add_gate(GateKind::And, &[a, b], z, 1)?;
/// nl.mark_output(z);
/// assert_eq!(sim::eval(&nl, &[true, true])?, vec![true]);
/// assert_eq!(sim::eval(&nl, &[true, false])?, vec![false]);
/// # Ok(())
/// # }
/// ```
pub fn eval(netlist: &Netlist, inputs: &[bool]) -> Result<Vec<bool>, NetlistError> {
    let values = eval_all(netlist, inputs)?;
    Ok(netlist
        .outputs()
        .iter()
        .map(|&o| values[o.index()])
        .collect())
}

/// Evaluates the netlist on a full input vector, returning the value of
/// every net (undriven non-input nets read as `false`).
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the number of primary inputs.
pub fn eval_all(netlist: &Netlist, inputs: &[bool]) -> Result<Vec<bool>, NetlistError> {
    assert_eq!(
        inputs.len(),
        netlist.inputs().len(),
        "input vector length mismatch"
    );
    let mut values = vec![false; netlist.net_count()];
    for (k, &pi) in netlist.inputs().iter().enumerate() {
        values[pi.index()] = inputs[k];
    }
    let order = netlist.topo_gates()?;
    let mut buf = Vec::new();
    for g in order {
        let gate = netlist.gate(g);
        buf.clear();
        buf.extend(gate.inputs.iter().map(|n| values[n.index()]));
        values[gate.output.index()] = gate.kind.eval(&buf);
    }
    Ok(values)
}

/// Three-valued evaluation: unknown inputs propagate as `X` unless the
/// gate output is determined by controlling values.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the number of primary inputs.
pub fn eval_tri(netlist: &Netlist, inputs: &[Tri]) -> Result<Vec<Tri>, NetlistError> {
    assert_eq!(
        inputs.len(),
        netlist.inputs().len(),
        "input vector length mismatch"
    );
    let mut values = vec![Tri::X; netlist.net_count()];
    for (k, &pi) in netlist.inputs().iter().enumerate() {
        values[pi.index()] = inputs[k];
    }
    let order = netlist.topo_gates()?;
    for g in order {
        let gate = netlist.gate(g);
        let vals: Vec<Tri> = gate.inputs.iter().map(|n| values[n.index()]).collect();
        values[gate.output.index()] = eval_gate_tri(gate.kind, &vals);
    }
    Ok(netlist
        .outputs()
        .iter()
        .map(|&o| values[o.index()])
        .collect())
}

fn eval_gate_tri(kind: GateKind, inputs: &[Tri]) -> Tri {
    match kind {
        GateKind::Const0 => Tri::F,
        GateKind::Const1 => Tri::T,
        GateKind::Buf => inputs[0],
        GateKind::Not => match inputs[0] {
            Tri::F => Tri::T,
            Tri::T => Tri::F,
            Tri::X => Tri::X,
        },
        GateKind::And | GateKind::Nand => {
            let mut out = if inputs.contains(&Tri::F) {
                Tri::F
            } else if inputs.contains(&Tri::X) {
                Tri::X
            } else {
                Tri::T
            };
            if kind == GateKind::Nand {
                out = eval_gate_tri(GateKind::Not, &[out]);
            }
            out
        }
        GateKind::Or | GateKind::Nor => {
            let mut out = if inputs.contains(&Tri::T) {
                Tri::T
            } else if inputs.contains(&Tri::X) {
                Tri::X
            } else {
                Tri::F
            };
            if kind == GateKind::Nor {
                out = eval_gate_tri(GateKind::Not, &[out]);
            }
            out
        }
        GateKind::Xor | GateKind::Xnor => {
            let out = match (inputs[0].known(), inputs[1].known()) {
                (Some(a), Some(b)) => Tri::from_bool(a ^ b),
                _ => Tri::X,
            };
            if kind == GateKind::Xnor {
                eval_gate_tri(GateKind::Not, &[out])
            } else {
                out
            }
        }
        GateKind::Mux => match inputs[0] {
            Tri::T => inputs[1],
            Tri::F => inputs[2],
            Tri::X => {
                if inputs[1] == inputs[2] && inputs[1] != Tri::X {
                    inputs[1]
                } else {
                    Tri::X
                }
            }
        },
    }
}

/// Floating-mode (XBD0) settle time of every net under one input
/// vector: the earliest time from which the net is guaranteed to hold
/// its final value whatever the gate delays in `[0, d]` do, given the
/// primary-input arrival times (one per input, in input order; `±∞`
/// allowed).
///
/// One topological pass of per-gate rules:
///
/// * a primary input settles at its arrival; a constant settles at
///   `−∞`; an undriven, non-input net never settles (`+∞`);
/// * AND/NAND/OR/NOR: the earliest input at the controlling value if
///   any input has it, else the latest input;
/// * XOR/XNOR: the latest input;
/// * MUX `s·a + s̄·b`: the earliest of the primes the vector satisfies
///   (`s·a` when `s`, `s̄·b` when `s̄`, the consensus `a·b` when
///   `a = b`), each prime settling with its latest input;
///
/// and every rule then adds the gate delay. The maximum over all
/// `2^n` vectors is the exact XBD0 delay of a net; the maximum over
/// any subset is a lower bound on it. The rules are stated directly
/// here, apart from the characteristic-function recursion of the
/// timing engines, so the two can check each other.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
///
/// # Panics
///
/// Panics if `arrivals` or `vector` has the wrong length.
///
/// # Example
///
/// ```
/// use hfta_netlist::{sim, GateKind, Netlist, Time};
///
/// # fn main() -> Result<(), hfta_netlist::NetlistError> {
/// let mut nl = Netlist::new("and2");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let z = nl.add_net("z");
/// nl.add_gate(GateKind::And, &[a, b], z, 1)?;
/// let arrivals = [Time::new(0), Time::new(5)];
/// // a = 0 controls the AND: z settles one delay after a.
/// assert_eq!(sim::floating_settle_times(&nl, &arrivals, &[false, true])?[z.index()], Time::new(1));
/// // Both inputs at 1: z waits for the later one.
/// assert_eq!(sim::floating_settle_times(&nl, &arrivals, &[true, true])?[z.index()], Time::new(6));
/// # Ok(())
/// # }
/// ```
pub fn floating_settle_times(
    netlist: &Netlist,
    arrivals: &[Time],
    vector: &[bool],
) -> Result<Vec<Time>, NetlistError> {
    assert_eq!(
        arrivals.len(),
        netlist.inputs().len(),
        "arrival vector length mismatch"
    );
    assert_eq!(
        vector.len(),
        netlist.inputs().len(),
        "input vector length mismatch"
    );
    let mut values = vec![false; netlist.net_count()];
    let mut settle = vec![Time::POS_INF; netlist.net_count()];
    for (k, &pi) in netlist.inputs().iter().enumerate() {
        values[pi.index()] = vector[k];
        settle[pi.index()] = arrivals[k];
    }
    let mut buf = Vec::new();
    for g in netlist.topo_gates()? {
        let gate = netlist.gate(g);
        let ins = &gate.inputs[..];
        let at = |n: &NetId| settle[n.index()];
        let val = |n: &NetId| values[n.index()];
        let latest = || ins.iter().map(at).fold(Time::NEG_INF, Time::max);
        let ready = match gate.kind {
            GateKind::Const0 | GateKind::Const1 => Time::NEG_INF,
            GateKind::Buf | GateKind::Not | GateKind::Xor | GateKind::Xnor => latest(),
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                let controlling = matches!(gate.kind, GateKind::Or | GateKind::Nor);
                ins.iter()
                    .filter(|n| val(n) == controlling)
                    .map(at)
                    .reduce(Time::min)
                    .unwrap_or_else(latest)
            }
            GateKind::Mux => {
                let (s, a, b) = (&ins[0], &ins[1], &ins[2]);
                let chosen = at(s).max(if val(s) { at(a) } else { at(b) });
                let consensus = if val(a) == val(b) {
                    at(a).max(at(b))
                } else {
                    Time::POS_INF
                };
                chosen.min(consensus)
            }
        };
        buf.clear();
        buf.extend(ins.iter().map(val));
        values[gate.output.index()] = gate.kind.eval(&buf);
        settle[gate.output.index()] = ready + Time::from(gate.delay);
    }
    Ok(settle)
}

/// Per-net floating-mode settle times sampled over a set of input
/// vectors; see [`sampled_floating_settle`].
#[derive(Clone, Debug)]
pub struct SampledSettle {
    /// The simulated input vectors, each in input order.
    pub vectors: Vec<Vec<bool>>,
    /// Per net: the latest settle time over `vectors` and the index of
    /// the first vector reaching it. Each is a lower bound on the
    /// net's exact XBD0 delay.
    pub latest: Vec<(Time, usize)>,
}

/// Runs [`floating_settle_times`] on `samples` random input vectors —
/// the bits of a [`SplitMix64`](hfta_testkit::SplitMix64) stream seeded
/// with `seed`, so the same arguments give the same vectors — and keeps
/// each net's latest settle time.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
///
/// # Panics
///
/// Panics if `arrivals` has the wrong length.
pub fn sampled_floating_settle(
    netlist: &Netlist,
    arrivals: &[Time],
    samples: usize,
    seed: u64,
) -> Result<SampledSettle, NetlistError> {
    let mut rng = hfta_testkit::SplitMix64::new(seed);
    let vectors: Vec<Vec<bool>> = (0..samples)
        .map(|_| {
            let mut word = 0;
            (0..netlist.inputs().len())
                .map(|i| {
                    if i % 64 == 0 {
                        word = rng.next_u64();
                    }
                    (word >> (i % 64)) & 1 == 1
                })
                .collect()
        })
        .collect();
    let mut latest = vec![(Time::NEG_INF, 0); netlist.net_count()];
    for (k, vector) in vectors.iter().enumerate() {
        let settle = floating_settle_times(netlist, arrivals, vector)?;
        for (best, &t) in latest.iter_mut().zip(&settle) {
            if t > best.0 {
                *best = (t, k);
            }
        }
    }
    Ok(SampledSettle { vectors, latest })
}

/// Exhaustively checks that two netlists with identically ordered ports
/// compute the same Boolean functions (inputs ≤ `max_inputs`).
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
///
/// # Panics
///
/// Panics if the port counts differ or exceed `max_inputs`.
pub fn equivalent_exhaustive(
    a: &Netlist,
    b: &Netlist,
    max_inputs: usize,
) -> Result<bool, NetlistError> {
    assert_eq!(a.inputs().len(), b.inputs().len(), "input count mismatch");
    assert_eq!(
        a.outputs().len(),
        b.outputs().len(),
        "output count mismatch"
    );
    let n = a.inputs().len();
    assert!(n <= max_inputs, "too many inputs for exhaustive check");
    for v in 0u64..(1u64 << n) {
        let vector: Vec<bool> = (0..n).map(|i| (v >> i) & 1 == 1).collect();
        if eval(a, &vector)? != eval(b, &vector)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Returns the primary inputs in the transitive fanin of `net`.
#[must_use]
pub fn support(netlist: &Netlist, net: NetId) -> Vec<NetId> {
    let (_, sources) = netlist.cone(net);
    sources
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mux_netlist() -> Netlist {
        let mut nl = Netlist::new("m");
        let s = nl.add_input("s");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Mux, &[s, a, b], z, 2).unwrap();
        nl.mark_output(z);
        nl
    }

    #[test]
    fn eval_mux() {
        let nl = mux_netlist();
        assert_eq!(eval(&nl, &[true, true, false]).unwrap(), vec![true]);
        assert_eq!(eval(&nl, &[false, true, false]).unwrap(), vec![false]);
    }

    #[test]
    fn tri_unknown_select_with_agreeing_data() {
        let nl = mux_netlist();
        let out = eval_tri(&nl, &[Tri::X, Tri::T, Tri::T]).unwrap();
        assert_eq!(out, vec![Tri::T]);
        let out = eval_tri(&nl, &[Tri::X, Tri::T, Tri::F]).unwrap();
        assert_eq!(out, vec![Tri::X]);
    }

    #[test]
    fn tri_controlling_values_dominate() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::And, &[a, b], z, 1).unwrap();
        nl.mark_output(z);
        assert_eq!(eval_tri(&nl, &[Tri::F, Tri::X]).unwrap(), vec![Tri::F]);
        assert_eq!(eval_tri(&nl, &[Tri::T, Tri::X]).unwrap(), vec![Tri::X]);

        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Nor, &[a, b], z, 1).unwrap();
        nl.mark_output(z);
        assert_eq!(eval_tri(&nl, &[Tri::T, Tri::X]).unwrap(), vec![Tri::F]);
    }

    #[test]
    fn tri_xor_needs_both_known() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Xnor, &[a, b], z, 1).unwrap();
        nl.mark_output(z);
        assert_eq!(eval_tri(&nl, &[Tri::T, Tri::X]).unwrap(), vec![Tri::X]);
        assert_eq!(eval_tri(&nl, &[Tri::T, Tri::T]).unwrap(), vec![Tri::T]);
    }

    #[test]
    fn equivalence_check() {
        // NAND(a,b) == NOT(AND(a,b))
        let mut x = Netlist::new("x");
        let a = x.add_input("a");
        let b = x.add_input("b");
        let z = x.add_net("z");
        x.add_gate(GateKind::Nand, &[a, b], z, 1).unwrap();
        x.mark_output(z);

        let mut y = Netlist::new("y");
        let a = y.add_input("a");
        let b = y.add_input("b");
        let t = y.add_net("t");
        let z = y.add_net("z");
        y.add_gate(GateKind::And, &[a, b], t, 1).unwrap();
        y.add_gate(GateKind::Not, &[t], z, 1).unwrap();
        y.mark_output(z);

        assert!(equivalent_exhaustive(&x, &y, 8).unwrap());
    }

    #[test]
    fn support_lists_reaching_inputs() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let _c = nl.add_input("c");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Or, &[a, b], z, 1).unwrap();
        nl.mark_output(z);
        assert_eq!(support(&nl, z), vec![a, b]);
    }

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    /// The worst settle time of `net` over all input vectors.
    fn worst_settle(nl: &Netlist, arrivals: &[Time], net: NetId) -> Time {
        let n = nl.inputs().len();
        (0u32..1 << n)
            .map(|v| {
                let vector: Vec<bool> = (0..n).map(|i| (v >> i) & 1 == 1).collect();
                floating_settle_times(nl, arrivals, &vector).unwrap()[net.index()]
            })
            .fold(Time::NEG_INF, Time::max)
    }

    /// Paper Figure 5 on the 2-bit carry-skip block (inputs c_in a0 b0
    /// a1 b1): with c_in at 5 and the rest at 0, c_out settles by 8 on
    /// every vector (the c_in → c_out path is false), not the
    /// topological 11.
    #[test]
    fn floating_carry_skip_figure5() {
        let nl = crate::gen::carry_skip_block(2, crate::gen::CsaDelays::default());
        let c_out = nl.find_net("c_out").unwrap();
        let skewed = [t(5), t(0), t(0), t(0), t(0)];
        assert_eq!(worst_settle(&nl, &skewed, c_out), t(8));
        // All inputs at 0: s0, s1 and c_out at 4, 6 and 8.
        let zeros = [t(0); 5];
        let worst: Vec<Time> = nl
            .outputs()
            .iter()
            .map(|&o| worst_settle(&nl, &zeros, o))
            .collect();
        assert_eq!(worst, vec![t(4), t(6), t(8)]);
        // Only c_in late: the skip mux passes it in 2.
        let late_cin = [t(0), t(-10), t(-10), t(-10), t(-10)];
        assert_eq!(worst_settle(&nl, &late_cin, c_out), t(2));
    }

    #[test]
    fn floating_and_waits_for_earliest_controlling_input() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Nand, &[a, b], z, 2).unwrap();
        let arr = [t(1), t(7)];
        let at = |v: [bool; 2]| floating_settle_times(&nl, &arr, &v).unwrap()[z.index()];
        assert_eq!(at([false, false]), t(3)); // a controls first
        assert_eq!(at([true, false]), t(9)); // only b controls
        assert_eq!(at([true, true]), t(9)); // no control: latest input
    }

    #[test]
    fn floating_mux_consensus_masks_a_late_select() {
        let nl = mux_netlist();
        let z = nl.outputs()[0];
        let arr = [Time::POS_INF, t(0), t(2)];
        let at = |v: [bool; 3]| floating_settle_times(&nl, &arr, &v).unwrap()[z.index()];
        // a = b: the consensus prime settles without the select.
        assert_eq!(at([true, true, true]), t(4));
        assert_eq!(at([false, false, false]), t(4));
        // a ≠ b: the output waits for the select, which never comes.
        assert_eq!(at([true, true, false]), Time::POS_INF);
        // An early select picks its data input.
        let arr = [t(0), t(0), t(9)];
        let at = |v: [bool; 3]| floating_settle_times(&nl, &arr, &v).unwrap()[z.index()];
        assert_eq!(at([true, true, false]), t(2));
        assert_eq!(at([false, true, false]), t(11));
    }

    #[test]
    fn floating_constants_infinities_and_undriven_nets() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let k = nl.add_net("k");
        let x = nl.add_net("x");
        let u = nl.add_net("u");
        let y = nl.add_net("y");
        nl.add_gate(GateKind::Const1, &[], k, 3).unwrap();
        nl.add_gate(GateKind::Xor, &[a, b], x, 1).unwrap();
        nl.add_gate(GateKind::Or, &[u, k], y, 1).unwrap();
        let settle = floating_settle_times(&nl, &[Time::NEG_INF, t(4)], &[true, false]).unwrap();
        assert_eq!(settle[k.index()], Time::NEG_INF);
        assert_eq!(settle[x.index()], t(5));
        assert_eq!(settle[u.index()], Time::POS_INF);
        // The constant-1 input controls the OR; the floating one does not.
        assert_eq!(settle[y.index()], Time::NEG_INF);
        let settle =
            floating_settle_times(&nl, &[Time::NEG_INF, Time::NEG_INF], &[true, false]).unwrap();
        assert_eq!(settle[x.index()], Time::NEG_INF);
    }
}
