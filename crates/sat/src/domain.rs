//! Per-query variable domains for a shared incremental solver.
//!
//! HFTA's shared-solver mode encodes an entire module into one
//! incremental SAT instance and answers each per-cone stability query
//! inside the variable domain of that cone's transitive fanin. A
//! [`Domain`] is that active-variable set: a flat, deduplicated list of
//! variables (cache-friendly to walk) plus a bitset for O(1) membership
//! tests.
//!
//! # What a domain solve does
//!
//! [`Solver::solve_domain`](crate::Solver::solve_domain) confines the
//! search to the domain `D` above decision level 0:
//!
//! * **Restricted decisions.** An out-of-domain variable is never
//!   decided: decisions come from a heap built at solve entry from the
//!   domain's unassigned variables, ordered by the same VSIDS
//!   activities. The main decision heap is left untouched for later
//!   unrestricted solves.
//! * **Restricted propagation.** A clause that becomes unit on an
//!   out-of-domain literal is left alone — the literal is not enqueued
//!   and the watcher does not move. Every other literal of the clause
//!   is false at the current level or below, so backtracking past it
//!   (at the latest, the return to level 0 that ends every solve)
//!   restores the two-watch invariant.
//! * **The level-0 exception.** Propagation at decision level 0 is
//!   never restricted. A unit learnt under a narrow domain therefore
//!   reaches every clause it touches at once, and the watch invariant
//!   holds at level 0 for the next query, whatever its domain.
//! * **The `Sat` test.** With every assumption enqueued, the query is
//!   `Sat` once every variable of `D` is assigned at a conflict-free
//!   propagation fixpoint. The model assigns all of `D`; variables
//!   outside it may be left unassigned.
//!
//! # Soundness contract
//!
//! A domain solve gives the same verdict as an unrestricted solve for
//! formulas that are **definitional extensions** over `D`:
//!
//! * `D` is *definition-closed*: for every non-input variable in `D`,
//!   the variables of its defining (Tseitin) clauses are also in `D`.
//!   Call those in-domain definitions `F_D`.
//! * Every clause not fully contained in `D` is either part of the
//!   gate definition of a variable outside `D`, or implied by the
//!   formula (e.g. a learnt clause or a level-0 unit).
//!
//! *`Sat` is exact.* At the `Sat` point every variable of `D` is
//! assigned and no clause of `F_D` is false: all its literals are in
//! `D` and assigned, and a clause with only in-domain literals is never
//! skipped, so it would have been found conflicting. Every model of
//! `F_D` extends to a model of the whole formula `F`: keep its values
//! on `D`'s inputs, assign the remaining inputs arbitrarily, and
//! evaluate each defined variable outside `D` from its definition in
//! topological order. The extension satisfies every gate definition by
//! construction and every learnt clause because learnt clauses are
//! implied by the definitions alone. *`Unsat` is exact* because every
//! conflict is a real clause of the formula falsified by the trail, and
//! conflict analysis only resolves real reason clauses: each learnt
//! clause, and so the refutation, follows from `F` and the assumptions.
//! Restriction only withholds assignments; it never invents one. See
//! `DESIGN.md` ("Why domain-restricted sharing is sound").
//!
//! [`crate::CnfBuilder::domain_of`] constructs domains satisfying the
//! contract for formulas built purely from its gate primitives.

use crate::types::Var;

/// A growable bitset over solver variables.
#[derive(Debug, Clone, Default)]
pub struct VarSet {
    words: Vec<u64>,
}

impl VarSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> VarSet {
        VarSet::default()
    }

    /// Inserts `v`, growing the backing store as needed. Returns
    /// `true` when `v` was not already present.
    pub fn insert(&mut self, v: Var) -> bool {
        let (w, b) = (v.index() / 64, v.index() % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Membership test; variables beyond the backing store are absent.
    #[must_use]
    pub fn contains(&self, v: Var) -> bool {
        let (w, b) = (v.index() / 64, v.index() % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Removes every element but keeps the allocation.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }
}

/// The active-variable set of one domain-restricted query: a flat,
/// deduplicated variable list (the order the builder discovered them
/// in) plus a bitset for membership tests.
#[derive(Debug, Clone)]
pub struct Domain {
    vars: Vec<Var>,
    set: VarSet,
}

impl Domain {
    /// Builds a domain from a variable list, dropping duplicates while
    /// preserving first-occurrence order.
    #[must_use]
    pub fn from_vars(vars: Vec<Var>) -> Domain {
        let mut set = VarSet::new();
        let mut uniq = Vec::with_capacity(vars.len());
        for v in vars {
            if set.insert(v) {
                uniq.push(v);
            }
        }
        Domain { vars: uniq, set }
    }

    /// A domain from a duplicate-free variable list and the set of
    /// exactly those variables.
    pub(crate) fn from_parts(vars: Vec<Var>, set: VarSet) -> Domain {
        debug_assert!(vars.iter().all(|&v| set.contains(v)));
        Domain { vars, set }
    }

    /// The domain's variables, deduplicated, in insertion order.
    #[must_use]
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Number of variables in the domain.
    #[must_use]
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether the domain is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, v: Var) -> bool {
        self.set.contains(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varset_insert_contains_clear() {
        let mut s = VarSet::new();
        assert!(!s.contains(Var::from_index(130)));
        assert!(s.insert(Var::from_index(130)));
        assert!(!s.insert(Var::from_index(130)));
        assert!(s.contains(Var::from_index(130)));
        assert!(!s.contains(Var::from_index(129)));
        s.clear();
        assert!(!s.contains(Var::from_index(130)));
    }

    #[test]
    fn domain_dedups_preserving_order() {
        let d = Domain::from_vars(vec![
            Var::from_index(5),
            Var::from_index(2),
            Var::from_index(5),
            Var::from_index(9),
            Var::from_index(2),
        ]);
        assert_eq!(
            d.vars(),
            &[Var::from_index(5), Var::from_index(2), Var::from_index(9)]
        );
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert!(d.contains(Var::from_index(9)));
        assert!(!d.contains(Var::from_index(3)));
    }
}
