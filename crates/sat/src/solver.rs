use std::time::Instant;

use crate::domain::Domain;
use crate::{Lit, Var};

/// Result of a satisfiability query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// A satisfying assignment was found; read it with
    /// [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
}

/// Resource limits for one [`Solver::solve_budgeted`] call.
///
/// Each limit is relative to the call (not the solver's lifetime
/// counters); `None` means unlimited. The default budget is unlimited
/// on every axis, in which case `solve_budgeted` behaves exactly like
/// [`Solver::solve_with`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SolveBudget {
    /// Maximum conflicts to analyze before giving up.
    pub conflicts: Option<u64>,
    /// Maximum unit propagations before giving up.
    pub propagations: Option<u64>,
    /// Maximum decisions before giving up.
    pub decisions: Option<u64>,
    /// Wall-clock instant past which the search gives up.
    pub deadline: Option<Instant>,
}

impl SolveBudget {
    /// The unlimited budget: `solve_budgeted` never returns `Unknown`.
    pub const UNLIMITED: SolveBudget = SolveBudget {
        conflicts: None,
        propagations: None,
        decisions: None,
        deadline: None,
    };

    /// `true` when no limit is set on any axis.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.conflicts.is_none()
            && self.propagations.is_none()
            && self.decisions.is_none()
            && self.deadline.is_none()
    }

    /// Returns this budget with a conflict limit.
    #[must_use]
    pub fn with_conflicts(mut self, n: u64) -> SolveBudget {
        self.conflicts = Some(n);
        self
    }

    /// Returns this budget with a propagation limit.
    #[must_use]
    pub fn with_propagations(mut self, n: u64) -> SolveBudget {
        self.propagations = Some(n);
        self
    }

    /// Returns this budget with a decision limit.
    #[must_use]
    pub fn with_decisions(mut self, n: u64) -> SolveBudget {
        self.decisions = Some(n);
        self
    }

    /// Returns this budget with a wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, at: Instant) -> SolveBudget {
        self.deadline = Some(at);
        self
    }

    /// Pointwise minimum of two budgets (tightest limit on each axis).
    #[must_use]
    pub fn tightened(self, other: &SolveBudget) -> SolveBudget {
        fn min_opt(a: Option<u64>, b: Option<u64>) -> Option<u64> {
            match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            }
        }
        SolveBudget {
            conflicts: min_opt(self.conflicts, other.conflicts),
            propagations: min_opt(self.propagations, other.propagations),
            decisions: min_opt(self.decisions, other.decisions),
            deadline: match (self.deadline, other.deadline) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            },
        }
    }
}

/// Which budget axis was exhausted by a [`Solver::solve_budgeted`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BudgetExhausted {
    /// The conflict limit was hit.
    Conflicts,
    /// The propagation limit was hit.
    Propagations,
    /// The decision limit was hit.
    Decisions,
    /// The wall-clock deadline passed.
    Deadline,
}

impl std::fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let label = match self {
            BudgetExhausted::Conflicts => "conflict budget",
            BudgetExhausted::Propagations => "propagation budget",
            BudgetExhausted::Decisions => "decision budget",
            BudgetExhausted::Deadline => "deadline",
        };
        f.write_str(label)
    }
}

/// Result of a budgeted satisfiability query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BudgetedSatResult {
    /// A satisfying assignment was found.
    Sat,
    /// Definitively unsatisfiable (under the given assumptions). A
    /// refutation found within budget is a real refutation — budget
    /// exhaustion can only lose answers, never fabricate them.
    Unsat,
    /// The budget ran out before the search concluded. Callers must
    /// treat this conservatively (for timing analysis: "not provably
    /// stable").
    Unknown(BudgetExhausted),
}

impl BudgetedSatResult {
    /// `Some(Sat)`/`Some(Unsat)` for decided queries, `None` for
    /// `Unknown`.
    #[must_use]
    pub fn known(self) -> Option<SatResult> {
        match self {
            BudgetedSatResult::Sat => Some(SatResult::Sat),
            BudgetedSatResult::Unsat => Some(SatResult::Unsat),
            BudgetedSatResult::Unknown(_) => None,
        }
    }
}

impl From<SatResult> for BudgetedSatResult {
    fn from(r: SatResult) -> BudgetedSatResult {
        match r {
            SatResult::Sat => BudgetedSatResult::Sat,
            SatResult::Unsat => BudgetedSatResult::Unsat,
        }
    }
}

/// Absolute (lifetime-counter) thresholds derived from a
/// [`SolveBudget`] at `solve_budgeted` entry.
#[derive(Clone, Copy, Debug)]
struct Limits {
    conflicts: Option<u64>,
    propagations: Option<u64>,
    decisions: Option<u64>,
    deadline: Option<Instant>,
}

/// Outcome of one [`Solver::search`] episode.
enum SearchOutcome {
    Done(SatResult),
    Restart,
    Exhausted(BudgetExhausted),
}

/// Counters describing the work a [`Solver`] has performed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SolverStats {
    /// Number of top-level `solve` calls.
    pub solves: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of unit propagations.
    pub propagations: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Current learnt-clause cap (`reduce_db` fires above it). Follows
    /// a Luby envelope of the base cap across restarts, so it returns
    /// to the base infinitely often and the database stays bounded over
    /// arbitrarily long runs.
    pub max_learnts: u64,
    /// Top-level solve calls answered under a variable [`Domain`]
    /// watch (see [`Solver::solve_domain`]).
    pub domain_solves: u64,
    /// Between-query inprocessing passes run (see
    /// [`Solver::inprocess`]).
    pub inprocessings: u64,
    /// Learnt clauses deleted by inprocessing because another (learnt)
    /// clause subsumes them or a level-0 unit satisfies them.
    pub clauses_subsumed: u64,
    /// Learnt clauses shortened by inprocessing (self-subsuming
    /// resolution or level-0 false-literal removal).
    pub clauses_strengthened: u64,
}

/// Work performed by a single top-level solve call, recorded when
/// episode recording is on (see [`Solver::set_episode_recording`]).
///
/// Counters are *deltas* over this one call, except `learnt_clauses`
/// and `max_learnts` which snapshot the database state at the end of
/// the call. Recording only appends to a side buffer — it never
/// changes the search itself.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SolveEpisode {
    /// `"sat"`, `"unsat"`, or `"unknown(<limit>)"` on budget exhaustion.
    pub outcome: &'static str,
    /// Decisions made during this call.
    pub decisions: u64,
    /// Unit propagations during this call.
    pub propagations: u64,
    /// Conflicts analyzed during this call.
    pub conflicts: u64,
    /// Restarts during this call.
    pub restarts: u64,
    /// Learnt clauses in the database after this call.
    pub learnt_clauses: u64,
    /// Learnt-clause cap in force at the end of this call.
    pub max_learnts: u64,
    /// Whether the call ran under a [`SolveBudget`].
    pub budgeted: bool,
    /// Wall-clock time of this call in nanoseconds. The clock is read
    /// only while episode recording is on.
    pub dur_ns: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum LBool {
    True,
    False,
    Undef,
}

/// A clause reference: the offset of the clause's header in the
/// [`ClauseArena`].
pub(crate) type CRef = u32;

/// The reason of a decision, an assumption or a level-0 unit.
const NO_REASON: CRef = CRef::MAX;

const LEARNT: u32 = 1;
const DELETED: u32 = 2;

/// All clauses of a solver in one flat `u32` arena. A clause is a
/// header word (`len << 2 | deleted << 1 | learnt`), then — for learnt
/// clauses only — its activity (the bits of an `f32`), then its literal
/// codes. Clauses are appended in creation order and never move except
/// during [`Solver::collect_garbage`], which compacts the arena in
/// order.
#[derive(Debug, Default)]
pub(crate) struct ClauseArena {
    words: Vec<u32>,
    /// Words held by deleted clauses, reclaimed by the next compaction.
    wasted: usize,
}

impl ClauseArena {
    fn alloc(&mut self, lits: &[Lit], learnt: bool) -> CRef {
        let c = CRef::try_from(self.words.len())
            .ok()
            .filter(|&c| c & BINARY == 0)
            .expect("clause arena overflow");
        let len = u32::try_from(lits.len()).expect("clause length overflow");
        if learnt {
            self.words.push(len << 2 | LEARNT);
            self.words.push(0f32.to_bits());
        } else {
            self.words.push(len << 2);
        }
        self.words.extend(lits.iter().map(|l| l.0));
        c
    }

    fn len(&self, c: CRef) -> usize {
        (self.words[c as usize] >> 2) as usize
    }

    /// Offset of clause `c`'s first literal.
    fn base(&self, c: CRef) -> usize {
        c as usize + 1 + (self.words[c as usize] & LEARNT) as usize
    }

    /// Words clause `c` occupies, header included.
    fn size(&self, c: CRef) -> usize {
        self.base(c) - c as usize + self.len(c)
    }

    fn is_learnt(&self, c: CRef) -> bool {
        self.words[c as usize] & LEARNT != 0
    }

    pub(crate) fn is_deleted(&self, c: CRef) -> bool {
        self.words[c as usize] & DELETED != 0
    }

    fn delete(&mut self, c: CRef) {
        debug_assert!(!self.is_deleted(c));
        self.words[c as usize] |= DELETED;
        self.wasted += self.size(c);
    }

    fn activity(&self, c: CRef) -> f32 {
        debug_assert!(self.is_learnt(c));
        f32::from_bits(self.words[c as usize + 1])
    }

    fn set_activity(&mut self, c: CRef, a: f32) {
        debug_assert!(self.is_learnt(c));
        self.words[c as usize + 1] = a.to_bits();
    }

    /// The `k`-th literal of clause `c`.
    pub(crate) fn lit(&self, c: CRef, k: usize) -> Lit {
        Lit(self.words[self.base(c) + k])
    }

    /// The literals of clause `c`.
    pub(crate) fn lits(&self, c: CRef) -> impl Iterator<Item = Lit> + '_ {
        let start = self.base(c);
        self.words[start..start + self.len(c)]
            .iter()
            .map(|&w| Lit(w))
    }

    fn swap_lits(&mut self, c: CRef, a: usize, b: usize) {
        let base = self.base(c);
        self.words.swap(base + a, base + b);
    }

    /// Every clause reference, in creation order (deleted ones too).
    fn refs(&self) -> impl Iterator<Item = CRef> + '_ {
        let mut c = 0usize;
        std::iter::from_fn(move || {
            (c < self.words.len()).then(|| {
                let r = CRef::try_from(c).expect("arena offsets fit a clause reference");
                c += self.size(r);
                r
            })
        })
    }
}

/// Tag bit on [`Watcher::clause`] marking a problem binary clause.
const BINARY: u32 = 1 << 31;

/// One entry of a literal's watch list (indexed by the code of the
/// literal whose truth falsifies the watched literal).
///
/// For a clause of three or more literals, and for a learnt binary
/// clause, `blocker` is some other literal of the clause, checked first
/// so a satisfied clause is skipped without touching the arena. A
/// problem binary clause `(¬p ∨ q)` instead sits in `p`'s list as an
/// implication entry: `clause` carries the [`BINARY`] tag and `blocker`
/// is the implied literal `q`, so propagating it never reads the arena.
#[derive(Clone, Copy, Debug)]
struct Watcher {
    clause: CRef,
    blocker: Lit,
}

/// A conflict-driven clause-learning (CDCL) SAT solver.
///
/// See the [crate docs](crate) for an overview and example. Clauses may
/// be added incrementally between [`Solver::solve`] calls, and
/// [`Solver::solve_with`] solves under temporary assumptions — the
/// workhorse of repeated stability queries in the timing engine.
#[derive(Debug)]
pub struct Solver {
    pub(crate) ca: ClauseArena,
    /// Learnt clauses in creation order; `reduce_db` and inprocessing
    /// walk this list, and drop deleted entries as they go.
    pub(crate) learnts: Vec<CRef>,
    /// Watch lists (with the implication entries of problem binary
    /// clauses), indexed by the code of the literal whose truth
    /// falsifies the watched literal.
    watches: Vec<Vec<Watcher>>,
    assign: Vec<LBool>,
    phase: Vec<bool>,
    /// Reason clause per variable, `NO_REASON` when unassigned, decided
    /// or a level-0 unit without a clause.
    reason: Vec<CRef>,
    level: Vec<u32>,
    trail: Vec<Lit>,
    pub(crate) trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    heap: VarHeap,
    seen: Vec<bool>,
    /// Scratch buffers reused by every conflict analysis.
    learnt_buf: Vec<Lit>,
    analyze_clear: Vec<Lit>,
    pub(crate) ok: bool,
    model: Vec<LBool>,
    pub(crate) stats: SolverStats,
    max_learnts: usize,
    max_learnts_base: usize,
    record_episodes: bool,
    episodes: Vec<SolveEpisode>,
    /// Stamp-based domain membership: `domain_mark[v] == domain_stamp`
    /// iff `v` is in the active domain. Avoids clearing a bitset per
    /// query.
    domain_mark: Vec<u32>,
    domain_stamp: u32,
    /// Whether the current solve is confined to a domain: above
    /// decision level 0 it neither decides nor propagates a variable
    /// outside the domain (see [`Domain`] for why that is exact).
    domain_active: bool,
    /// How many domain variables are still unassigned; maintained by
    /// `unchecked_enqueue`/`cancel_until` while `domain_active`, so the
    /// `Sat` test is O(1) per decision.
    domain_unassigned: usize,
    /// Decision heap of the current domain solve, holding only domain
    /// variables. The main heap is not popped while a domain is
    /// active, so it still holds every unassigned variable when the
    /// solve ends.
    domain_heap: VarHeap,
}

impl Solver {
    /// Creates an empty solver.
    #[must_use]
    pub fn new() -> Solver {
        Solver {
            ca: ClauseArena::default(),
            learnts: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            phase: Vec::new(),
            reason: Vec::new(),
            level: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            heap: VarHeap::default(),
            seen: Vec::new(),
            learnt_buf: Vec::new(),
            analyze_clear: Vec::new(),
            ok: true,
            model: Vec::new(),
            stats: SolverStats::default(),
            max_learnts: 4000,
            max_learnts_base: 4000,
            record_episodes: false,
            episodes: Vec::new(),
            domain_mark: Vec::new(),
            domain_stamp: 0,
            domain_active: false,
            domain_unassigned: 0,
            domain_heap: VarHeap::default(),
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assign.len());
        self.assign.push(LBool::Undef);
        self.phase.push(false);
        self.reason.push(NO_REASON);
        self.level.push(0);
        self.activity.push(0.0);
        self.seen.push(false);
        self.domain_mark.push(0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.insert(v, &self.activity);
        v
    }

    /// Number of allocated variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of clauses (problem + learnt, excluding deleted).
    #[must_use]
    pub fn num_clauses(&self) -> usize {
        self.ca.refs().filter(|&c| !self.ca.is_deleted(c)).count()
    }

    /// Work counters.
    #[must_use]
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Turns per-call [`SolveEpisode`] recording on or off. Off by
    /// default; recording never changes the search, it only appends to
    /// a buffer drained by [`Solver::take_episodes`].
    pub fn set_episode_recording(&mut self, on: bool) {
        self.record_episodes = on;
    }

    /// Drains the episodes recorded since the last call.
    pub fn take_episodes(&mut self) -> Vec<SolveEpisode> {
        std::mem::take(&mut self.episodes)
    }

    fn record_episode(
        &mut self,
        before: SolverStats,
        started: Option<Instant>,
        outcome: &'static str,
        budgeted: bool,
    ) {
        let Some(started) = started else {
            return;
        };
        self.episodes.push(SolveEpisode {
            outcome,
            decisions: self.stats.decisions - before.decisions,
            propagations: self.stats.propagations - before.propagations,
            conflicts: self.stats.conflicts - before.conflicts,
            restarts: self.stats.restarts - before.restarts,
            learnt_clauses: self.stats.learnt_clauses,
            max_learnts: self.stats.max_learnts,
            budgeted,
            dur_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        });
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Duplicate literals are removed; tautological clauses are
    /// dropped. Adding the empty clause (or a clause falsified at the
    /// top level) makes the solver permanently unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if called mid-solve (the solver is always at decision
    /// level 0 between `solve` calls) or if a literal references an
    /// unallocated variable.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        assert!(
            self.trail_lim.is_empty(),
            "clauses must be added at level 0"
        );
        if !self.ok {
            return;
        }
        let mut ls: Vec<Lit> = lits.to_vec();
        for &l in &ls {
            assert!(l.var().index() < self.num_vars(), "unallocated variable");
        }
        ls.sort_unstable();
        ls.dedup();
        // Tautology or satisfied/falsified at level 0?
        let mut filtered = Vec::with_capacity(ls.len());
        for &l in &ls {
            if ls.binary_search(&!l).is_ok() {
                return; // tautology: contains l and !l
            }
            match self.lit_value(l) {
                LBool::True => return, // satisfied at level 0
                LBool::False => {}     // drop falsified literal
                LBool::Undef => filtered.push(l),
            }
        }
        match filtered.len() {
            0 => {
                self.ok = false;
            }
            1 => {
                self.unchecked_enqueue(filtered[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
            }
            _ => {
                self.attach_clause(&filtered, false);
            }
        }
    }

    /// Stores a clause of two or more literals and watches it on its
    /// first two literals (problem binary clauses as implication
    /// entries, see [`Watcher`]).
    pub(crate) fn attach_clause(&mut self, lits: &[Lit], learnt: bool) -> CRef {
        debug_assert!(lits.len() >= 2);
        let c = self.ca.alloc(lits, learnt);
        if learnt {
            self.learnts.push(c);
            self.stats.learnt_clauses += 1;
        }
        let tag = if !learnt && lits.len() == 2 {
            BINARY
        } else {
            0
        };
        self.watches[(!lits[0]).code()].push(Watcher {
            clause: c | tag,
            blocker: lits[1],
        });
        self.watches[(!lits[1]).code()].push(Watcher {
            clause: c | tag,
            blocker: lits[0],
        });
        c
    }

    /// Deletes a learnt clause (its watchers are purged lazily).
    pub(crate) fn delete_learnt(&mut self, c: CRef) {
        self.ca.delete(c);
        self.stats.learnt_clauses = self.stats.learnt_clauses.saturating_sub(1);
    }

    /// The reason clause of variable `v`'s current assignment, if any.
    pub(crate) fn reason_of(&self, v: Var) -> Option<CRef> {
        let r = self.reason[v.index()];
        (r != NO_REASON && self.assign[v.index()] != LBool::Undef).then_some(r)
    }

    /// Whether clause `c` is the reason of a current assignment.
    pub(crate) fn is_locked(&self, c: CRef) -> bool {
        self.reason_of(self.ca.lit(c, 0).var()) == Some(c)
    }

    pub(crate) fn lit_value(&self, l: Lit) -> LBool {
        match self.assign[l.var().index()] {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if l.is_positive() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
            LBool::False => {
                if l.is_positive() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
        }
    }

    fn decision_level(&self) -> u32 {
        u32::try_from(self.trail_lim.len()).expect("level overflow")
    }

    pub(crate) fn unchecked_enqueue(&mut self, l: Lit, from: Option<CRef>) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        let v = l.var().index();
        self.assign[v] = if l.is_positive() {
            LBool::True
        } else {
            LBool::False
        };
        self.phase[v] = l.is_positive();
        self.reason[v] = from.unwrap_or(NO_REASON);
        self.level[v] = self.decision_level();
        if self.domain_active && self.in_domain(l.var()) {
            self.domain_unassigned -= 1;
        }
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause, if any.
    ///
    /// Inside a domain solve, above decision level 0, a clause that
    /// becomes unit on an out-of-domain literal is left alone: the
    /// literal is not enqueued and the watcher stays where it is. The
    /// clause's other literals are all false at this level or below,
    /// so backtracking past this level — at the latest, the return to
    /// level 0 that ends every solve — restores the two-watch
    /// invariant. Level-0 propagation is never restricted, so units
    /// stay complete for every later query whatever its domain.
    pub(crate) fn propagate(&mut self) -> Option<CRef> {
        let restrict = self.domain_active && !self.trail_lim.is_empty();
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let (mut i, mut j) = (0, 0);
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.lit_value(w.blocker) == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let (c, unit) = if w.clause & BINARY != 0 {
                    // Implication entry: the blocker is the implied
                    // literal.
                    ws[j] = w;
                    j += 1;
                    (w.clause & !BINARY, w.blocker)
                } else {
                    let c = w.clause;
                    if self.ca.is_deleted(c) {
                        continue; // purge the watcher of a deleted clause
                    }
                    // Normalize: the false literal !p goes to position 1.
                    if self.ca.lit(c, 0) == false_lit {
                        self.ca.swap_lits(c, 0, 1);
                    }
                    debug_assert_eq!(self.ca.lit(c, 1), false_lit);
                    let first = self.ca.lit(c, 0);
                    let kept = Watcher {
                        clause: c,
                        blocker: first,
                    };
                    if first != w.blocker && self.lit_value(first) == LBool::True {
                        ws[j] = kept;
                        j += 1;
                        continue;
                    }
                    // Look for a new literal to watch.
                    for k in 2..self.ca.len(c) {
                        let lk = self.ca.lit(c, k);
                        if self.lit_value(lk) != LBool::False {
                            self.ca.swap_lits(c, 1, k);
                            self.watches[(!lk).code()].push(kept);
                            continue 'watchers;
                        }
                    }
                    ws[j] = kept;
                    j += 1;
                    (c, first)
                };
                // No other literal can be watched: the clause is unit
                // on `unit`, or conflicting.
                if self.lit_value(unit) == LBool::False {
                    conflict = Some(c);
                    while i < ws.len() {
                        ws[j] = ws[i];
                        i += 1;
                        j += 1;
                    }
                } else if !restrict || self.in_domain(unit.var()) {
                    // Conflict analysis reads a reason's asserted
                    // literal at position 0; only an implication
                    // entry's clause can hold it at position 1.
                    if self.ca.lit(c, 0) != unit {
                        self.ca.swap_lits(c, 0, 1);
                    }
                    self.unchecked_enqueue(unit, Some(c));
                }
            }
            ws.truncate(j);
            debug_assert!(self.watches[p.code()].is_empty());
            self.watches[p.code()] = ws;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for k in (lim..self.trail.len()).rev() {
            let v = self.trail[k].var();
            self.assign[v.index()] = LBool::Undef;
            self.reason[v.index()] = NO_REASON;
            if self.domain_active {
                // Above level 0 a domain solve assigns only domain
                // variables, and the main heap still holds them.
                debug_assert!(self.in_domain(v));
                self.domain_unassigned += 1;
                self.domain_heap.insert(v, &self.activity);
            } else {
                self.heap.insert(v, &self.activity);
            }
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn in_domain(&self, v: Var) -> bool {
        self.domain_mark[v.index()] == self.domain_stamp
    }

    /// Confines the upcoming solve to `domain` (or lifts the
    /// confinement for `None`): marks the domain's variables, counts
    /// how many are still unassigned and heaps those for decisions.
    fn enter_mode(&mut self, domain: Option<&Domain>) {
        match domain {
            Some(d) => {
                self.stats.domain_solves += 1;
                self.domain_stamp = self.domain_stamp.wrapping_add(1);
                if self.domain_stamp == 0 {
                    // Stamp wrapped: old marks could alias the new
                    // stamp, so wipe them and restart at 1.
                    self.domain_mark.iter_mut().for_each(|m| *m = 0);
                    self.domain_stamp = 1;
                }
                for &v in d.vars() {
                    debug_assert!(v.index() < self.num_vars(), "domain var unallocated");
                    self.domain_mark[v.index()] = self.domain_stamp;
                }
                let assign = &self.assign;
                self.domain_heap.rebuild(
                    d.vars()
                        .iter()
                        .copied()
                        .filter(|v| assign[v.index()] == LBool::Undef),
                    &self.activity,
                );
                self.domain_unassigned = self.domain_heap.len();
                self.domain_active = true;
            }
            None => {
                self.domain_active = false;
            }
        }
    }

    /// Ends a solve's domain confinement (the solver is back at level
    /// 0).
    fn exit_mode(&mut self) {
        self.domain_active = false;
        self.domain_heap.clear();
    }

    fn var_bump(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(v, &self.activity);
        self.domain_heap.update(v, &self.activity);
    }

    fn cla_bump(&mut self, c: CRef) {
        let a = f64::from(self.ca.activity(c)) + self.cla_inc;
        #[allow(clippy::cast_possible_truncation)] // activities are f32 by design
        self.ca.set_activity(c, a as f32);
        if a > 1e20 {
            for &l in &self.learnts {
                #[allow(clippy::cast_possible_truncation)]
                self.ca
                    .set_activity(l, (f64::from(self.ca.activity(l)) * 1e-20) as f32);
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis.
    ///
    /// Leaves the learnt clause (asserting literal first) in
    /// `learnt_buf` and returns the backjump level.
    fn analyze(&mut self, mut confl: CRef) -> u32 {
        let mut learnt = std::mem::take(&mut self.learnt_buf);
        learnt.clear();
        learnt.push(Lit(0)); // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let current = self.decision_level();
        loop {
            if self.ca.is_learnt(confl) {
                self.cla_bump(confl);
            }
            for k in usize::from(p.is_some())..self.ca.len(confl) {
                let q = self.ca.lit(confl, k);
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.var_bump(v);
                    if self.level[v.index()] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal on the trail to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            p = Some(pl);
            if counter == 0 {
                break;
            }
            confl = self.reason[pl.var().index()];
            debug_assert_ne!(confl, NO_REASON, "non-decision has a reason");
        }
        learnt[0] = !p.expect("UIP found");

        // Conflict-clause minimization: drop literals implied by the
        // rest of the clause (single-step self-subsumption). Every
        // literal stays `seen` until all are judged.
        let mut to_clear = std::mem::take(&mut self.analyze_clear);
        to_clear.clear();
        to_clear.extend_from_slice(&learnt);
        let mut kept = 1;
        for i in 1..learnt.len() {
            if !self.lit_redundant(learnt[i]) {
                learnt[kept] = learnt[i];
                kept += 1;
            }
        }
        learnt.truncate(kept);
        for &l in &to_clear {
            self.seen[l.var().index()] = false;
        }
        self.analyze_clear = to_clear;

        // Find the backjump level: second-highest level in the clause.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        self.learnt_buf = learnt;
        bt_level
    }

    /// A learnt literal is redundant if its reason's literals are all
    /// already in the learnt clause (marked `seen`) or at level 0.
    fn lit_redundant(&self, l: Lit) -> bool {
        let r = self.reason[l.var().index()];
        if r == NO_REASON {
            return false;
        }
        self.ca.lits(r).skip(1).all(|q| {
            let qv = q.var().index();
            self.seen[qv] || self.level[qv] == 0
        })
    }

    /// The next decision variable. Inside a domain solve it comes from
    /// the domain heap, so an out-of-domain variable is never decided.
    fn pick_branch_var(&mut self) -> Option<Var> {
        let heap = if self.domain_active {
            &mut self.domain_heap
        } else {
            &mut self.heap
        };
        while let Some(v) = heap.pop(&self.activity) {
            if self.assign[v.index()] == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    fn reduce_db(&mut self) {
        let mut candidates: Vec<CRef> = self
            .learnts
            .iter()
            .copied()
            .filter(|&c| !self.ca.is_deleted(c) && self.ca.len(c) > 2)
            .collect();
        candidates.sort_by(|&a, &b| {
            self.ca
                .activity(a)
                .partial_cmp(&self.ca.activity(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let to_delete = candidates.len() / 2;
        for &c in &candidates[..to_delete] {
            if !self.is_locked(c) {
                self.delete_learnt(c);
            }
        }
        let ca = &self.ca;
        self.learnts.retain(|&c| !ca.is_deleted(c));
        // Watchers of deleted clauses are purged lazily in `propagate`;
        // their arena words are reclaimed by `collect_garbage`.
    }

    /// Compacts the arena once deleted clauses hold a fifth of it:
    /// live clauses move down in creation order, and every watcher,
    /// reason and learnt reference is rewritten. Runs only at decision
    /// level 0, between searches.
    pub(crate) fn collect_garbage(&mut self) {
        debug_assert!(self.trail_lim.is_empty());
        if self.ca.wasted * 5 <= self.ca.words.len() {
            return;
        }
        const NONE: u32 = u32::MAX;
        let mut old = std::mem::take(&mut self.ca.words);
        let mut words = Vec::with_capacity(old.len() - self.ca.wasted);
        // Copy live clauses down, then reuse each old clause's second
        // word as its forwarding address (`NONE` for deleted clauses).
        let mut c = 0usize;
        while c < old.len() {
            let size = 1 + (old[c] & LEARNT) as usize + (old[c] >> 2) as usize;
            old[c + 1] = if old[c] & DELETED == 0 {
                let to = u32::try_from(words.len()).expect("clause arena overflow");
                words.extend_from_slice(&old[c..c + size]);
                to
            } else {
                NONE
            };
            c += size;
        }
        let moved = |c: CRef| Some(old[c as usize + 1]).filter(|&n| n != NONE);
        for ws in &mut self.watches {
            ws.retain_mut(|w| match moved(w.clause & !BINARY) {
                Some(n) => {
                    w.clause = n | (w.clause & BINARY);
                    true
                }
                None => false,
            });
        }
        for r in &mut self.reason {
            if *r != NO_REASON {
                *r = moved(*r).unwrap_or(NO_REASON);
            }
        }
        self.learnts.retain_mut(|l| match moved(*l) {
            Some(n) => {
                *l = n;
                true
            }
            None => false,
        });
        self.ca.words = words;
        self.ca.wasted = 0;
    }

    /// Solves the current formula.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with(&[])
    }

    /// Solves under temporary assumptions.
    ///
    /// The assumptions hold only for this call; the clause database is
    /// untouched, so repeated queries with different assumptions are
    /// cheap. Returns [`SatResult::Unsat`] when the formula conjoined
    /// with the assumptions is unsatisfiable.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SatResult {
        self.solve_inner(assumptions, None)
    }

    /// Like [`Solver::solve_with`], but confined to `domain`: above
    /// decision level 0 the search decides and propagates only domain
    /// variables, and answers `Sat` once every domain variable is
    /// assigned at a conflict-free propagation fixpoint with all
    /// assumptions enqueued. Level-0 propagation is unrestricted.
    ///
    /// Exact (same verdict as an unrestricted solve) only under the
    /// definitional-extension contract documented on [`Domain`]; the
    /// caller is responsible for supplying a definition-closed domain
    /// containing every assumption variable
    /// ([`crate::CnfBuilder::domain_of`] does both). A `Sat` model
    /// assigns every domain variable; variables outside the domain may
    /// be left unassigned.
    pub fn solve_domain(&mut self, assumptions: &[Lit], domain: &Domain) -> SatResult {
        self.solve_inner(assumptions, Some(domain))
    }

    fn solve_inner(&mut self, assumptions: &[Lit], domain: Option<&Domain>) -> SatResult {
        let started = self.record_episodes.then(Instant::now);
        let before = self.stats;
        self.stats.solves += 1;
        if !self.ok {
            self.record_episode(before, started, "unsat", false);
            return SatResult::Unsat;
        }
        debug_assert_eq!(self.decision_level(), 0);
        debug_assert!(domain.is_none_or(|d| assumptions.iter().all(|a| d.contains(a.var()))));
        self.collect_garbage();
        self.enter_mode(domain);
        let mut restarts = 0u64;
        let result = loop {
            let budget = luby(restarts) * 256;
            self.set_learnt_cap(restarts);
            match self.search(assumptions, budget, None) {
                SearchOutcome::Done(r) => break r,
                SearchOutcome::Exhausted(_) => unreachable!("no limits were set"),
                SearchOutcome::Restart => {
                    restarts += 1;
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                }
            }
        };
        if result == SatResult::Sat {
            self.model.clone_from(&self.assign);
        }
        self.cancel_until(0);
        self.exit_mode();
        let outcome = match result {
            SatResult::Sat => "sat",
            SatResult::Unsat => "unsat",
        };
        self.record_episode(before, started, outcome, false);
        result
    }

    /// Like [`Solver::solve_with`], but interruptible: gives up with
    /// [`BudgetedSatResult::Unknown`] once any limit in `budget` is
    /// exceeded.
    ///
    /// With an unlimited budget this runs the exact same search as
    /// `solve_with` (identical decisions, restarts, and counters). On
    /// exhaustion the solver backtracks to level 0 and stays fully
    /// usable — learnt clauses from the partial search are kept, and a
    /// later call (budgeted or not) may finish the query. A `Sat` or
    /// `Unsat` answer is always definitive; only `Unknown` is
    /// inconclusive.
    pub fn solve_budgeted(
        &mut self,
        assumptions: &[Lit],
        budget: &SolveBudget,
    ) -> BudgetedSatResult {
        self.solve_budgeted_inner(assumptions, budget, None)
    }

    /// Budgeted counterpart of [`Solver::solve_domain`]: the same
    /// domain-confined search, interruptible by `budget`.
    pub fn solve_domain_budgeted(
        &mut self,
        assumptions: &[Lit],
        budget: &SolveBudget,
        domain: &Domain,
    ) -> BudgetedSatResult {
        self.solve_budgeted_inner(assumptions, budget, Some(domain))
    }

    fn solve_budgeted_inner(
        &mut self,
        assumptions: &[Lit],
        budget: &SolveBudget,
        domain: Option<&Domain>,
    ) -> BudgetedSatResult {
        let started = self.record_episodes.then(Instant::now);
        let before = self.stats;
        self.stats.solves += 1;
        if !self.ok {
            // Permanently UNSAT at the top level — definitive no matter
            // the budget.
            self.record_episode(before, started, "unsat", true);
            return BudgetedSatResult::Unsat;
        }
        debug_assert_eq!(self.decision_level(), 0);
        debug_assert!(domain.is_none_or(|d| assumptions.iter().all(|a| d.contains(a.var()))));
        self.collect_garbage();
        self.enter_mode(domain);
        let limits = Limits {
            conflicts: budget
                .conflicts
                .map(|n| self.stats.conflicts.saturating_add(n)),
            propagations: budget
                .propagations
                .map(|n| self.stats.propagations.saturating_add(n)),
            decisions: budget
                .decisions
                .map(|n| self.stats.decisions.saturating_add(n)),
            deadline: budget.deadline,
        };
        let mut restarts = 0u64;
        let result = loop {
            let max_conflicts = luby(restarts) * 256;
            self.set_learnt_cap(restarts);
            match self.search(assumptions, max_conflicts, Some(&limits)) {
                SearchOutcome::Done(r) => break r.into(),
                SearchOutcome::Exhausted(why) => break BudgetedSatResult::Unknown(why),
                SearchOutcome::Restart => {
                    restarts += 1;
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                }
            }
        };
        if result == BudgetedSatResult::Sat {
            self.model.clone_from(&self.assign);
        }
        self.cancel_until(0);
        self.exit_mode();
        let outcome = match result {
            BudgetedSatResult::Sat => "sat",
            BudgetedSatResult::Unsat => "unsat",
            BudgetedSatResult::Unknown(BudgetExhausted::Conflicts) => "unknown(conflicts)",
            BudgetedSatResult::Unknown(BudgetExhausted::Propagations) => "unknown(propagations)",
            BudgetedSatResult::Unknown(BudgetExhausted::Decisions) => "unknown(decisions)",
            BudgetedSatResult::Unknown(BudgetExhausted::Deadline) => "unknown(deadline)",
        };
        self.record_episode(before, started, outcome, true);
        result
    }

    /// Sets the learnt-clause cap for the upcoming search episode to
    /// `max_learnts_base × luby(restarts)`. Unlike a monotone geometric
    /// growth schedule, the Luby envelope returns to the base cap
    /// infinitely often, so the clause database stays bounded across
    /// arbitrarily many restarts — and across arbitrarily many
    /// (budgeted) `solve` calls, each of which restarts the envelope.
    fn set_learnt_cap(&mut self, restarts: u64) {
        let cap = (self.max_learnts_base as u64).saturating_mul(luby(restarts));
        self.max_learnts = usize::try_from(cap).unwrap_or(usize::MAX);
        self.stats.max_learnts = cap;
    }

    /// Checks the lifetime counters against absolute limits. The check
    /// order (conflicts, propagations, decisions, deadline) is fixed so
    /// the reported exhaustion reason is deterministic for
    /// deterministic budgets.
    fn budget_exceeded(&self, lim: &Limits) -> Option<BudgetExhausted> {
        if lim.conflicts.is_some_and(|n| self.stats.conflicts >= n) {
            return Some(BudgetExhausted::Conflicts);
        }
        if lim
            .propagations
            .is_some_and(|n| self.stats.propagations >= n)
        {
            return Some(BudgetExhausted::Propagations);
        }
        if lim.decisions.is_some_and(|n| self.stats.decisions >= n) {
            return Some(BudgetExhausted::Decisions);
        }
        if lim.deadline.is_some_and(|at| Instant::now() >= at) {
            return Some(BudgetExhausted::Deadline);
        }
        None
    }

    /// Runs CDCL search for at most `max_conflicts` conflicts.
    /// `Restart` means "restart requested"; `Exhausted` is only
    /// possible when `limits` is set.
    fn search(
        &mut self,
        assumptions: &[Lit],
        max_conflicts: u64,
        limits: Option<&Limits>,
    ) -> SearchOutcome {
        let mut conflicts = 0u64;
        loop {
            if let Some(lim) = limits {
                if let Some(why) = self.budget_exceeded(lim) {
                    return SearchOutcome::Exhausted(why);
                }
            }
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SearchOutcome::Done(SatResult::Unsat);
                }
                let bt = self.analyze(confl);
                self.cancel_until(bt);
                let learnt = std::mem::take(&mut self.learnt_buf);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], None);
                } else {
                    let c = self.attach_clause(&learnt, true);
                    self.cla_bump(c);
                    self.unchecked_enqueue(learnt[0], Some(c));
                }
                self.learnt_buf = learnt;
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
                if self.stats.learnt_clauses as usize > self.max_learnts {
                    self.reduce_db();
                }
                if conflicts >= max_conflicts {
                    return SearchOutcome::Restart;
                }
            } else {
                // Assumptions first, then VSIDS decisions.
                if (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.lit_value(p) {
                        LBool::True => {
                            // Already satisfied: open an empty level.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            return SearchOutcome::Done(SatResult::Unsat);
                        }
                        LBool::Undef => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(p, None);
                        }
                    }
                    continue;
                }
                // Inside a domain: every domain variable assigned at a
                // conflict-free fixpoint with every assumption enqueued
                // means the query is satisfiable (see `Domain`).
                if self.domain_active && self.domain_unassigned == 0 {
                    return SearchOutcome::Done(SatResult::Sat);
                }
                let Some(v) = self.pick_branch_var() else {
                    return SearchOutcome::Done(SatResult::Sat);
                };
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                self.unchecked_enqueue(v.lit(self.phase[v.index()]), None);
            }
        }
    }

    /// The value of `v` in the most recent satisfying assignment, or
    /// `None` if the last solve was unsatisfiable / the variable was
    /// created afterwards / a domain solve left it unassigned.
    #[must_use]
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.model.get(v.index()) {
            Some(LBool::True) => Some(true),
            Some(LBool::False) => Some(false),
            _ => None,
        }
    }

    /// The value of a literal in the most recent model.
    #[must_use]
    pub fn lit_model(&self, l: Lit) -> Option<bool> {
        self.value(l.var()).map(|b| b == l.is_positive())
    }
}

/// The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …
fn luby(mut i: u64) -> u64 {
    // Find the finite subsequence containing index i.
    let mut k = 1u32;
    loop {
        let len = (1u64 << k) - 1;
        if i + 1 == len {
            return 1 << (k - 1);
        }
        if i + 1 < len {
            i -= (1u64 << (k - 1)) - 1;
            k = 1;
            continue;
        }
        k += 1;
    }
}

/// Indexed binary max-heap over variable activities.
#[derive(Debug, Default)]
struct VarHeap {
    heap: Vec<Var>,
    pos: Vec<usize>, // usize::MAX = absent
}

impl VarHeap {
    fn contains(&self, v: Var) -> bool {
        self.pos.get(v.index()).is_some_and(|&p| p != usize::MAX)
    }

    fn insert(&mut self, v: Var, act: &[f64]) {
        if self.pos.len() <= v.index() {
            self.pos.resize(v.index() + 1, usize::MAX);
        }
        if self.contains(v) {
            return;
        }
        self.pos[v.index()] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    /// Replaces the contents with `vars` (distinct), heapified in
    /// linear time.
    fn rebuild(&mut self, vars: impl Iterator<Item = Var>, act: &[f64]) {
        self.clear();
        for v in vars {
            if self.pos.len() <= v.index() {
                self.pos.resize(v.index() + 1, usize::MAX);
            }
            self.pos[v.index()] = self.heap.len();
            self.heap.push(v);
        }
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, act);
        }
    }

    /// Empties the heap in time proportional to its size.
    fn clear(&mut self) {
        for v in self.heap.drain(..) {
            self.pos[v.index()] = usize::MAX;
        }
    }

    fn update(&mut self, v: Var, act: &[f64]) {
        if self.contains(v) {
            self.sift_up(self.pos[v.index()], act);
        }
    }

    fn pop(&mut self, act: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.pos[top.index()] = usize::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last.index()] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i].index()] <= act[self.heap[parent].index()] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l].index()] > act[self.heap[best].index()] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r].index()] > act[self.heap[best].index()] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].index()] = a;
        self.pos[self.heap[b].index()] = b;
    }
}

impl Default for Solver {
    /// Equivalent to [`Solver::new`].
    fn default() -> Solver {
        Solver::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| solver.new_var()).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0].positive(), v[1].positive()]);
        assert_eq!(s.solve(), SatResult::Sat);
        let a = s.value(v[0]).unwrap();
        let b = s.value(v[1]).unwrap();
        assert!(a || b);
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[v[0].positive()]);
        s.add_clause(&[v[0].negative()]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = Solver::new();
        let _ = lits(&mut s, 1);
        s.add_clause(&[]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn tautology_dropped() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[v[0].positive(), v[0].negative()]);
        assert_eq!(s.num_clauses(), 0);
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn chain_propagation() {
        // x1 & (x1->x2) & ... & (x9->x10) forces all true.
        let mut s = Solver::new();
        let v = lits(&mut s, 10);
        s.add_clause(&[v[0].positive()]);
        for i in 0..9 {
            s.add_clause(&[v[i].negative(), v[i + 1].positive()]);
        }
        assert_eq!(s.solve(), SatResult::Sat);
        for &x in &v {
            assert_eq!(s.value(x), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p[i][j]: pigeon i in hole j. Each pigeon somewhere; no two
        // pigeons share a hole.
        let mut s = Solver::new();
        let mut p = [[Var(0); 2]; 3];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[row[0].positive(), row[1].positive()]);
        }
        #[allow(clippy::needless_range_loop)] // j enumerates holes
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[p[i1][j].negative(), p[i2][j].negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_5_into_4_unsat() {
        let n = 5;
        let m = 4;
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..m).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let c: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&c);
        }
        #[allow(clippy::needless_range_loop)] // j enumerates holes
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[p[i1][j].negative(), p[i2][j].negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn assumptions_toggle_result() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0].negative(), v[1].positive()]); // a -> b
        assert_eq!(
            s.solve_with(&[v[0].positive(), v[1].negative()]),
            SatResult::Unsat
        );
        assert_eq!(s.solve_with(&[v[0].positive()]), SatResult::Sat);
        assert_eq!(s.value(v[1]), Some(true));
        // The clause database is unaffected by assumptions.
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn contradictory_assumptions_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert_eq!(
            s.solve_with(&[v[0].positive(), v[0].negative()]),
            SatResult::Unsat
        );
        // Solver still usable.
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[v[0].positive(), v[1].positive(), v[2].positive()]);
        assert_eq!(s.solve(), SatResult::Sat);
        s.add_clause(&[v[0].negative()]);
        s.add_clause(&[v[1].negative()]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(v[2]), Some(true));
        s.add_clause(&[v[2].negative()]);
        assert_eq!(s.solve(), SatResult::Unsat);
        // Once top-level UNSAT, stays UNSAT.
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn at_most_one_encoding() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        // Exactly one of four.
        let all: Vec<Lit> = v.iter().map(|x| x.positive()).collect();
        s.add_clause(&all);
        for i in 0..4 {
            for j in (i + 1)..4 {
                s.add_clause(&[v[i].negative(), v[j].negative()]);
            }
        }
        assert_eq!(s.solve(), SatResult::Sat);
        let count = v.iter().filter(|&&x| s.value(x) == Some(true)).count();
        assert_eq!(count, 1);
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..expect.len() as u64).map(luby).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn zero_budget_returns_unknown() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0].positive(), v[1].positive()]);
        let budget = SolveBudget::default().with_conflicts(0);
        assert_eq!(
            s.solve_budgeted(&[], &budget),
            BudgetedSatResult::Unknown(BudgetExhausted::Conflicts)
        );
        // Solver remains usable and still at level 0.
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn zero_decision_budget_reports_decisions() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0].positive(), v[1].positive()]);
        let budget = SolveBudget::default().with_decisions(0);
        assert_eq!(
            s.solve_budgeted(&[], &budget),
            BudgetedSatResult::Unknown(BudgetExhausted::Decisions)
        );
    }

    #[test]
    fn unlimited_budget_matches_solve() {
        let mut a = Solver::new();
        let mut b = Solver::new();
        let va = lits(&mut a, 4);
        let vb = lits(&mut b, 4);
        for (s, v) in [(&mut a, &va), (&mut b, &vb)] {
            let all: Vec<Lit> = v.iter().map(|x| x.positive()).collect();
            s.add_clause(&all);
            for i in 0..4 {
                for j in (i + 1)..4 {
                    s.add_clause(&[v[i].negative(), v[j].negative()]);
                }
            }
        }
        let plain = a.solve();
        let budgeted = b.solve_budgeted(&[], &SolveBudget::UNLIMITED);
        assert_eq!(BudgetedSatResult::from(plain), budgeted);
        // The searches are bit-identical: same work counters.
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn budgeted_finds_unsat_within_budget() {
        // A definitive answer within budget is a real answer.
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[v[0].positive()]);
        s.add_clause(&[v[0].negative()]);
        let budget = SolveBudget::default().with_conflicts(1_000);
        assert_eq!(s.solve_budgeted(&[], &budget), BudgetedSatResult::Unsat);
        // Top-level UNSAT is permanent regardless of future budgets.
        assert_eq!(
            s.solve_budgeted(&[], &SolveBudget::default().with_conflicts(0)),
            BudgetedSatResult::Unsat
        );
    }

    #[test]
    fn budget_exhaustion_keeps_solver_reusable() {
        // Pigeonhole 5→4 needs many conflicts; a 1-conflict budget
        // exhausts, then an unlimited call still proves UNSAT.
        let n = 5;
        let m = 4;
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..m).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let c: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&c);
        }
        #[allow(clippy::needless_range_loop)] // j enumerates holes
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[p[i1][j].negative(), p[i2][j].negative()]);
                }
            }
        }
        let tight = SolveBudget::default().with_conflicts(1);
        assert_eq!(
            s.solve_budgeted(&[], &tight),
            BudgetedSatResult::Unknown(BudgetExhausted::Conflicts)
        );
        assert_eq!(
            s.solve_budgeted(&[], &SolveBudget::UNLIMITED),
            BudgetedSatResult::Unsat
        );
    }

    #[test]
    fn past_deadline_exhausts_immediately() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0].positive(), v[1].positive()]);
        let budget = SolveBudget::default().with_deadline(std::time::Instant::now());
        assert_eq!(
            s.solve_budgeted(&[], &budget),
            BudgetedSatResult::Unknown(BudgetExhausted::Deadline)
        );
    }

    #[test]
    fn budget_tightening_takes_pointwise_min() {
        let a = SolveBudget::default().with_conflicts(10).with_decisions(5);
        let b = SolveBudget::default()
            .with_conflicts(3)
            .with_propagations(7);
        let t = a.tightened(&b);
        assert_eq!(t.conflicts, Some(3));
        assert_eq!(t.propagations, Some(7));
        assert_eq!(t.decisions, Some(5));
        assert!(SolveBudget::UNLIMITED.is_unlimited());
        assert!(!t.is_unlimited());
    }

    /// Long budgeted runs must not grow the learnt-clause database
    /// without bound. The cap follows a Luby envelope of the base
    /// (4000 × 1, 1, 2, 1, 1, 2, 4, …), which returns to the base
    /// infinitely often — unlike the monotone geometric schedule it
    /// replaced, which drifted past any fixed bound after enough
    /// conflicts had accumulated across repeated budgeted calls.
    #[test]
    fn budgeted_runs_keep_learnt_database_bounded() {
        // Pigeonhole 10→9 needs far more conflicts (~100k+) than the
        // total budget below, so every call is interrupted and the
        // solver keeps accumulating (and shedding) learnt clauses.
        let (n, m) = (10usize, 9usize);
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..m).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let c: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&c);
        }
        #[allow(clippy::needless_range_loop)] // j enumerates holes
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[p[i1][j].negative(), p[i2][j].negative()]);
                }
            }
        }
        let budget = SolveBudget::default().with_conflicts(2_000);
        for _ in 0..15 {
            let r = s.solve_budgeted(&[], &budget);
            assert_eq!(r, BudgetedSatResult::Unknown(BudgetExhausted::Conflicts));
            // Bounded at every observation point: a small multiple of
            // the base cap (slack for binary and locked clauses, which
            // reduce_db never deletes).
            assert!(
                s.stats().learnt_clauses <= 20_000,
                "learnt database grew unboundedly: {:?}",
                s.stats()
            );
            // The exposed cap is always base × a Luby term — the old
            // geometric schedule (4000, 4400, 4840, …) fails this from
            // its first reduction on.
            let cap = s.stats().max_learnts;
            assert_eq!(cap % 4000, 0, "cap {cap} is not a Luby multiple");
            assert!(
                (cap / 4000).is_power_of_two(),
                "cap {cap} is not a Luby multiple"
            );
        }
        assert!(s.stats().conflicts >= 29_000, "{:?}", s.stats());
    }

    /// Learnt-database reduction leaves deleted clauses in the arena;
    /// the compaction at the next solve entry must reclaim them without
    /// disturbing any watcher, reason or learnt reference.
    #[test]
    fn arena_compaction_preserves_verdicts() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut compactions = 0;
        for round in 0..6 {
            let nv = 90;
            let mut s = Solver::new();
            s.max_learnts_base = 40;
            let vars: Vec<Var> = (0..nv).map(|_| s.new_var()).collect();
            let mut clauses = Vec::new();
            for _ in 0..380 {
                let mut c: Vec<Lit> = Vec::new();
                while c.len() < 3 {
                    let lit = vars[(next() % nv as u64) as usize].lit(next() % 2 == 0);
                    if !c.contains(&lit) && !c.contains(&!lit) {
                        c.push(lit);
                    }
                }
                s.add_clause(&c);
                clauses.push(c);
            }
            let budget = SolveBudget::default().with_conflicts(30);
            let mut verdict = None;
            for _ in 0..200 {
                let words = s.ca.words.len();
                let r = s.solve_budgeted(&[], &budget);
                compactions += usize::from(s.ca.words.len() < words);
                if let Some(r) = r.known() {
                    verdict = Some(r);
                    break;
                }
            }
            let verdict = verdict.unwrap_or_else(|| s.solve());
            let mut fresh = Solver::new();
            for _ in 0..nv {
                fresh.new_var();
            }
            for c in &clauses {
                fresh.add_clause(c);
            }
            assert_eq!(verdict, fresh.solve(), "round {round}");
            if verdict == SatResult::Sat {
                for c in &clauses {
                    assert!(c.iter().any(|&l| s.lit_model(l) == Some(true)));
                }
            }
        }
        assert!(compactions > 0, "no compaction ran");
    }

    #[test]
    fn model_survives_new_vars() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[a.positive()]);
        assert_eq!(s.solve(), SatResult::Sat);
        let b = s.new_var();
        assert_eq!(s.value(a), Some(true));
        assert_eq!(s.value(b), None);
    }
}

#[cfg(test)]
mod stress_tests {
    use super::*;

    /// Random 3-SAT near the phase transition: just a smoke test that
    /// search with restarts and DB reduction stays sound on larger
    /// instances (models are verified clause by clause).
    #[test]
    fn random_3sat_models_are_valid() {
        // Simple deterministic LCG so the test needs no rand dep here.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..10 {
            let nv = 60;
            let nc = 240; // ratio 4.0 — mixed sat/unsat region
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..nv).map(|_| s.new_var()).collect();
            let mut clauses = Vec::new();
            for _ in 0..nc {
                let mut c = Vec::new();
                while c.len() < 3 {
                    let v = (next() % nv as u64) as usize;
                    let pos = next() % 2 == 0;
                    let lit = vars[v].lit(pos);
                    if !c.contains(&lit) && !c.contains(&!lit) {
                        c.push(lit);
                    }
                }
                clauses.push(c);
            }
            for c in &clauses {
                s.add_clause(c);
            }
            match s.solve() {
                SatResult::Sat => {
                    for c in &clauses {
                        assert!(
                            c.iter().any(|&l| s.lit_model(l) == Some(true)),
                            "round {round}: model violates a clause"
                        );
                    }
                }
                SatResult::Unsat => {
                    // Nothing cheap to verify; at least the solver must
                    // remain usable afterwards.
                    assert_eq!(s.solve(), SatResult::Unsat);
                }
            }
        }
    }

    /// XOR chains force long implication sequences through learning.
    #[test]
    fn xor_chain_parity() {
        // x0 ⊕ x1, x1 ⊕ x2, …, with endpoints pinned inconsistently:
        // an even chain of "not equal" constraints forcing x0 != x0.
        let n = 24;
        let mut s = Solver::new();
        let v: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        for i in 0..n - 1 {
            // v[i] != v[i+1]
            s.add_clause(&[v[i].positive(), v[i + 1].positive()]);
            s.add_clause(&[v[i].negative(), v[i + 1].negative()]);
        }
        // Even-length alternation: v[0] == v[n-1] iff n odd.
        // Pin both ends equal; with n even that is contradictory.
        s.add_clause(&[v[0].positive()]);
        s.add_clause(&[v[n - 1].positive()]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }
}
