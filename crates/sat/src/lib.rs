//! A CDCL SAT solver built for HFTA's functional timing analysis.
//!
//! Functional (false-path-aware) timing analysis reduces "is this output
//! stable by time *t*?" to a Boolean tautology check, which this crate
//! decides by refutation: the stability condition's complement is
//! encoded to CNF and handed to [`Solver`]. The solver is a
//! self-contained conflict-driven clause-learning implementation:
//!
//! * all clauses in one flat `u32` arena (header, learnt activity,
//!   literals), compacted in place once deleted clauses hold a fifth
//!   of it,
//! * two-literal watching for unit propagation, with problem binary
//!   clauses as implication entries that carry the implied literal,
//! * first-UIP conflict analysis with clause minimization, allocation
//!   free (reasons are read in place from the arena),
//! * exponential VSIDS decision heuristic with phase saving,
//! * Luby restarts and learnt-clause database reduction,
//! * incremental solving under assumptions ([`Solver::solve_with`]),
//! * domain-confined solving ([`Solver::solve_domain`]): above decision
//!   level 0 the search decides and propagates only the variables of a
//!   definition-closed [`Domain`], so one shared instance answers each
//!   query at the cost of its own cone,
//! * between-query inprocessing of the learnt clauses
//!   ([`Solver::inprocess`]).
//!
//! [`CnfBuilder`] provides Tseitin-style encodings of the gate
//! primitives used by the timing engine, and [`dimacs`] reads/writes the
//! standard DIMACS CNF exchange format.
//!
//! # Example
//!
//! ```
//! use hfta_sat::{Solver, SatResult};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! solver.add_clause(&[a.positive(), b.positive()]);
//! solver.add_clause(&[a.negative()]);
//! match solver.solve() {
//!     SatResult::Sat => assert_eq!(solver.value(b), Some(true)),
//!     SatResult::Unsat => unreachable!("formula is satisfiable"),
//! }
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cnf;
pub mod dimacs;
mod domain;
mod simplify;
mod solver;
mod types;

pub use cnf::CnfBuilder;
pub use domain::{Domain, VarSet};
pub use solver::{
    BudgetExhausted, BudgetedSatResult, SatResult, SolveBudget, SolveEpisode, Solver, SolverStats,
};
pub use types::{Lit, Var};
