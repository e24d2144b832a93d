//! SCC-stratified evaluation schedule.
//!
//! Compilation condenses the predicate dependency graph (Definition 9)
//! into strongly connected components and lays the components out in
//! topological order (callees first). The evaluator walks this
//! [`Schedule`] stratum by stratum, running semi-naive rounds only over
//! the current stratum's clauses and skipping strata whose inputs have
//! not changed — see [`crate::eval`] for the scheduling guarantee.

use super::graph::{Condensation, GraphBuilder, PredGraph};
use crate::compile::{CBody, CompiledClause, PredId};

/// Build the predicate dependency graph of a compiled clause list over
/// `n_preds` dense nodes. Every interned predicate is a node, so
/// body-only and (via an extended table) database-only predicates appear
/// as isolated sources.
pub(crate) fn clause_graph(clauses: &[CompiledClause], n_preds: usize) -> PredGraph {
    let mut b = GraphBuilder::new(n_preds);
    for clause in clauses {
        for lit in &clause.body {
            if let CBody::Atom(a) = lit {
                b.edge(clause.head.pred.0, a.pred.0, clause.constructive);
            }
        }
    }
    b.finish()
}

/// One stratum of the schedule: a strongly connected component of the
/// dependency graph together with the clauses whose heads define it.
#[derive(Clone, Debug, Default)]
pub struct Stratum {
    /// Indices into [`crate::compile::CompiledProgram::clauses`], in
    /// source order (the evaluator's commit order depends on it).
    pub clauses: Vec<u32>,
    /// Member predicates of the component, in ascending id order.
    pub preds: Vec<PredId>,
    /// True when some clause of the stratum is domain-sensitive, i.e. must
    /// be re-run when the extended active domain grows.
    pub domain_sensitive: bool,
    /// True when some clause of the stratum reads a predicate of the same
    /// component — the stratum feeds itself and needs an inner fixpoint.
    pub recursive: bool,
    /// True when some clause of the stratum is *constructive* (its head can
    /// create sequences not present in the body bindings: concatenations,
    /// transducer calls — the distinction Theorem 3 builds on). The
    /// evaluator uses this as a commit hint: a non-constructive stratum's
    /// rounds evaluate heads entirely against the epoch-frozen store, so
    /// the merge phase can skip the intern-merge scan outright.
    pub constructive: bool,
}

impl Stratum {
    /// The one stratum holding every clause, flags ORed over all of them:
    /// the schedule [`crate::eval::Scheduling::Global`] and
    /// [`crate::eval::Strategy::Naive`] run on, so each of their rounds
    /// plans every clause. It is a scheduling device, not a component of
    /// the condensation: `preds` stays empty and `recursive` false, since
    /// the evaluator reads only the clause list and the other two flags.
    pub fn single(clauses: &[CompiledClause]) -> Self {
        Self {
            clauses: (0..clauses.len() as u32).collect(),
            domain_sensitive: clauses.iter().any(|c| c.domain_sensitive),
            constructive: clauses.iter().any(|c| c.constructive),
            ..Self::default()
        }
    }
}

/// The stratified evaluation schedule of a compiled program.
///
/// `strata[i]` is the component with Tarjan id `i`; because component ids
/// come out in reverse topological order, ascending index order is a valid
/// topological order (a stratum's body predicates always belong to strata
/// `<=` itself, with equality exactly for recursive strata). Predicates
/// that head no clause (database-only inputs) occupy clause-less strata.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    /// Strata in topological (ascending component id) order.
    pub strata: Vec<Stratum>,
    /// Stratum index per predicate id.
    pub stratum_of: Vec<u32>,
}

impl Schedule {
    /// Build the schedule for a compiled clause list (called once by
    /// [`crate::compile::compile`]).
    pub fn build(clauses: &[CompiledClause], n_preds: usize) -> Self {
        let cond = clause_graph(clauses, n_preds).condense();
        Self::from_condensation(clauses, n_preds, &cond)
    }

    /// Build the schedule from an already-computed condensation (shared
    /// with [`super::ProgramReport`] so the graph is condensed once).
    pub fn from_condensation(
        clauses: &[CompiledClause],
        n_preds: usize,
        cond: &Condensation,
    ) -> Self {
        let mut strata = vec![Stratum::default(); cond.n_comps];
        for p in 0..n_preds {
            strata[cond.comp[p] as usize].preds.push(PredId(p as u32));
        }
        for (ci, clause) in clauses.iter().enumerate() {
            let comp = cond.comp[clause.head.pred.index()] as usize;
            let s = &mut strata[comp];
            s.clauses.push(ci as u32);
            s.domain_sensitive |= clause.domain_sensitive;
            s.constructive |= clause.constructive;
            for lit in &clause.body {
                if let CBody::Atom(a) = lit {
                    s.recursive |= cond.comp[a.pred.index()] as usize == comp;
                }
            }
        }
        Self {
            strata,
            stratum_of: cond.comp.clone(),
        }
    }

    /// The stratum defining a predicate.
    pub fn stratum_of(&self, pred: PredId) -> usize {
        self.stratum_of[pred.index()] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use seqlog_sequence::{Alphabet, SeqStore};

    fn schedule(src: &str) -> (crate::compile::CompiledProgram, Schedule) {
        let mut a = Alphabet::new();
        let mut st = SeqStore::new();
        let p = parse_program(src, &mut a, &mut st).unwrap();
        let cp = crate::compile::compile(&p).unwrap();
        let s = Schedule::build(&cp.clauses, cp.preds.len());
        (cp, s)
    }

    #[test]
    fn chain_program_stratifies_in_topological_order() {
        let (cp, s) = schedule("a(X) :- r(X).\nb(X) :- a(X).\nc(X) :- b(X).");
        let id = |n: &str| cp.preds.lookup(n).unwrap();
        assert!(s.stratum_of(id("r")) < s.stratum_of(id("a")));
        assert!(s.stratum_of(id("a")) < s.stratum_of(id("b")));
        assert!(s.stratum_of(id("b")) < s.stratum_of(id("c")));
        // r heads no clause: its stratum is clause-less.
        assert!(s.strata[s.stratum_of(id("r"))].clauses.is_empty());
        for st in &s.strata {
            assert!(!st.recursive);
        }
    }

    #[test]
    fn mutual_recursion_collapses_into_one_recursive_stratum() {
        let (cp, s) = schedule("p(X) :- q(X).\nq(X) :- p(X).\np(X) :- r(X).");
        let id = |n: &str| cp.preds.lookup(n).unwrap();
        assert_eq!(s.stratum_of(id("p")), s.stratum_of(id("q")));
        let st = &s.strata[s.stratum_of(id("p"))];
        assert!(st.recursive);
        assert_eq!(st.clauses, vec![0, 1, 2]);
        assert_eq!(st.preds.len(), 2);
    }

    #[test]
    fn constructiveness_is_lifted_to_the_stratum() {
        let (cp, s) = schedule("a(X) :- r(X).\ngrow(X ++ X) :- a(X).");
        let id = |n: &str| cp.preds.lookup(n).unwrap();
        assert!(!s.strata[s.stratum_of(id("a"))].constructive);
        assert!(s.strata[s.stratum_of(id("grow"))].constructive);
    }

    #[test]
    fn domain_sensitivity_is_lifted_to_the_stratum() {
        let (cp, s) = schedule("a(X) :- r(X).\nsuffix(X[N:end]) :- a(X).");
        let id = |n: &str| cp.preds.lookup(n).unwrap();
        assert!(!s.strata[s.stratum_of(id("a"))].domain_sensitive);
        assert!(s.strata[s.stratum_of(id("suffix"))].domain_sensitive);
    }
}
