//! Property tests: domain-confined solves on one growing, shared
//! instance give the same verdicts as a fresh unrestricted solver, and
//! their models satisfy every clause that lies inside the domain.
//!
//! A script of random operations drives one dependency-tracking
//! [`CnfBuilder`]: gate definitions grow the encoding, queries run
//! `is_implied_domain` / `solve_domain` on random roots, `inprocess()`
//! rewrites the learnt database, and constant-false gates force the
//! solver to learn level-0 units. Every clause the builder emits is
//! mirrored in the test, so each verdict is checked against a fresh
//! [`Solver`] loaded with exactly those clauses.

use hfta_sat::{CnfBuilder, Domain, Lit, SatResult, Solver};
use hfta_testkit::{prop, vec_of};

/// The builder under test plus a mirror of every clause it holds.
struct Shared {
    cnf: CnfBuilder,
    clauses: Vec<Vec<Lit>>,
    pool: Vec<Lit>,
}

impl Shared {
    fn new(inputs: usize) -> Shared {
        let mut cnf = CnfBuilder::new();
        cnf.set_dep_tracking(true);
        let pool = (0..inputs).map(|_| cnf.new_lit()).collect();
        Shared {
            cnf,
            clauses: Vec::new(),
            pool,
        }
    }

    /// Pool literal `k`, negated when `neg`.
    fn operand(&self, k: usize, neg: bool) -> Lit {
        let l = self.pool[k % self.pool.len()];
        if neg {
            !l
        } else {
            l
        }
    }

    fn and(&mut self, a: Lit, b: Lit) -> Lit {
        let z = self.cnf.emit_and(&[a, b]);
        self.clauses.push(vec![!z, a]);
        self.clauses.push(vec![!z, b]);
        self.clauses.push(vec![!a, !b, z]);
        z
    }

    fn or(&mut self, a: Lit, b: Lit) -> Lit {
        let z = self.cnf.emit_or(&[a, b]);
        // `emit_or` defines ¬z as AND(¬a, ¬b).
        self.clauses.push(vec![z, !a]);
        self.clauses.push(vec![z, !b]);
        self.clauses.push(vec![a, b, !z]);
        z
    }

    fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let z = self.cnf.emit_xor(a, b);
        self.clauses.push(vec![!z, a, b]);
        self.clauses.push(vec![!z, !a, !b]);
        self.clauses.push(vec![z, !a, b]);
        self.clauses.push(vec![z, a, !b]);
        z
    }

    fn mux(&mut self, s: Lit, a: Lit, b: Lit) -> Lit {
        let z = self.cnf.emit_mux(s, a, b);
        self.clauses.push(vec![!s, !a, z]);
        self.clauses.push(vec![!s, a, !z]);
        self.clauses.push(vec![s, !b, z]);
        self.clauses.push(vec![s, b, !z]);
        self.clauses.push(vec![!a, !b, z]);
        self.clauses.push(vec![a, b, !z]);
        z
    }

    fn lit_true(&mut self) -> Lit {
        let t = self.cnf.lit_true();
        if !self.clauses.contains(&vec![t]) {
            self.clauses.push(vec![t]);
        }
        t
    }

    /// A fresh, unrestricted solver over exactly the mirrored clauses.
    fn reference(&self) -> Solver {
        let mut s = Solver::new();
        for _ in 0..self.cnf.solver().num_vars() {
            s.new_var();
        }
        for c in &self.clauses {
            s.add_clause(c);
        }
        s
    }

    /// Solves `assumptions` under `dom` and checks the verdict against
    /// the reference, and a `Sat` model against every in-domain clause.
    fn check_solve(&mut self, assumptions: &[Lit], dom: &Domain) {
        let got = self.cnf.solve_domain(assumptions, dom);
        let want = self.reference().solve_with(assumptions);
        assert_eq!(got, want, "verdict under {assumptions:?}");
        if got == SatResult::Sat {
            for a in assumptions {
                assert_eq!(self.cnf.lit_model(*a), Some(true), "assumption {a:?}");
            }
            for c in &self.clauses {
                if c.iter().all(|l| dom.contains(l.var())) {
                    assert!(
                        c.iter().any(|&l| self.cnf.lit_model(l) == Some(true)),
                        "model violates in-domain clause {c:?}"
                    );
                }
            }
        }
    }
}

/// One scripted operation: `(kind, a, b, c, negations)`.
type Op = (u8, usize, usize, usize, u8);

fn run_script(inputs: usize, ops: &[Op]) {
    let mut sh = Shared::new(inputs);
    for &(kind, a, b, c, neg) in ops {
        let (na, nb, nc) = (neg & 1 != 0, neg & 2 != 0, neg & 4 != 0);
        match kind {
            0 => {
                let (x, y) = (sh.operand(a, na), sh.operand(b, nb));
                let z = sh.and(x, y);
                sh.pool.push(z);
            }
            1 => {
                let (x, y) = (sh.operand(a, na), sh.operand(b, nb));
                let z = sh.or(x, y);
                sh.pool.push(z);
            }
            2 => {
                let (x, y) = (sh.operand(a, na), sh.operand(b, nb));
                let z = sh.xor(x, y);
                sh.pool.push(z);
            }
            3 => {
                let (s, x, y) = (sh.operand(a, na), sh.operand(b, nb), sh.operand(c, nc));
                let z = sh.mux(s, x, y);
                sh.pool.push(z);
            }
            4 | 5 => {
                // Implication query on one root.
                let root = sh.operand(a, na);
                let dom = sh.cnf.domain_of(&[root]);
                let got = sh.cnf.is_implied_domain(root, &dom);
                let want = sh.reference().solve_with(&[!root]) == SatResult::Unsat;
                assert_eq!(got, want, "is_implied({root:?})");
                // A two-root solve, which also checks the model.
                let other = sh.operand(b, nb);
                let dom = sh.cnf.domain_of(&[root, other]);
                sh.check_solve(&[root, other], &dom);
            }
            6 => {
                sh.cnf.solver_mut().inprocess();
            }
            7 => {
                // A constant-false gate: querying it makes the solver
                // learn ¬z as a level-0 unit, which then propagates at
                // level 0 into every later gate that reads z.
                let x = sh.operand(a, na);
                let z = sh.and(x, !x);
                let dom = sh.cnf.domain_of(&[z]);
                assert!(sh.cnf.is_implied_domain(!z, &dom));
                sh.pool.push(z);
            }
            _ => {
                let t = sh.lit_true();
                sh.pool.push(t);
            }
        }
    }
    // Finally, every pool literal in both polarities.
    for k in 0..sh.pool.len() {
        for neg in [false, true] {
            let root = sh.operand(k, neg);
            let dom = sh.cnf.domain_of(&[root]);
            sh.check_solve(&[root], &dom);
        }
    }
}

prop!(cases = 128, fn domain_solves_match_fresh_unrestricted_solver(
    inputs in 2usize..7,
    ops in vec_of((0u8..9, 0usize..64, 0usize..64, 0usize..64, 0u8..8), 1..48),
) {
    run_script(inputs, &ops);
});

// Longer scripts: wider encodings, more learnt clauses carried across
// queries, and several inprocessing passes between them.
prop!(cases = 8, fn long_scripts_match_fresh_unrestricted_solver(
    inputs in 4usize..10,
    ops in vec_of((0u8..9, 0usize..512, 0usize..512, 0usize..512, 0u8..8), 200..400),
) {
    run_script(inputs, &ops);
});

/// A level-0 unit learnt inside a narrow domain must still propagate,
/// at level 0, into a clause outside that domain: the next, wider
/// query finds its answer already on the trail.
#[test]
fn level0_unit_from_narrow_domain_propagates_outside_it() {
    let mut sh = Shared::new(2);
    let (p, y) = (sh.pool[0], sh.pool[1]);
    let z = sh.and(p, !p); // constant false
    let q = sh.and(z, y); // (¬q ∨ z) lies outside dom(z)
    let narrow = sh.cnf.domain_of(&[z]);
    assert!(!narrow.contains(q.var()));
    assert!(sh.cnf.is_implied_domain(!z, &narrow));

    let wide = sh.cnf.domain_of(&[q]);
    let before = *sh.cnf.solver().stats();
    assert!(sh.cnf.is_implied_domain(!q, &wide));
    let after = *sh.cnf.solver().stats();
    // ¬z at level 0 already forced ¬q: the assumption q is false on
    // entry, so the query needs no decision and no conflict.
    assert_eq!(after.decisions, before.decisions, "{after:?}");
    assert_eq!(after.conflicts, before.conflicts, "{after:?}");
    assert!(sh.reference().solve_with(&[q]) == SatResult::Unsat);
}
