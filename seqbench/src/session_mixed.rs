//! `session_mixed`: point queries beside one-edge writes on a settled
//! session.
//!
//! Setup settles an `anc` closure over disjoint parent chains whose node
//! names are sequences. The timed loop then repeats [`PATTERN`]: 60 %
//! `query_bound("anc", [Bound, Free])`, 20 % one-edge `assert_fact` +
//! `run`, 20 % one-edge `retract_fact`, on seeded targets. Set-up leaves
//! `removed` chain-tail edges out; retracts and asserts alternate, so the
//! database never moves more than one edge from its set-up size. The fixed
//! pattern keeps the mix, and so `ops_per_ref_s`, the same in every run.
//! Building the demand scratch state dominates a point query; the writes
//! run beside the reads, so a faster query that slows commits or
//! retraction shows up. Transducers and the WAL are bypassed.

use crate::common::{same, timed_loop, Ctx, Lap, Report, Rng, Stopwatch, BLOCK_OPS};
use crate::trace::{traced_loop, Counters, Tracer};
use seqlog_core::analysis::magic::{magic_transform, MagicOptions};
use seqlog_core::analysis::{Adornment, MagicProgram};
use seqlog_core::compile::{compile, CompiledProgram};
use seqlog_core::prelude::*;
use seqlog_core::Fixpoint;
use std::collections::{HashMap, HashSet};

pub const PROGRAM: &str = "\
anc(X, Y) :- par(X, Y).
anc(X, Z) :- par(X, Y), anc(Y, Z).
";

/// Input sizes.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub chains: usize,
    /// Nodes per chain (edges = nodes - 1).
    pub chain_nodes: usize,
    /// Letters in a node name.
    pub name_len: usize,
    /// Chain-tail edges left out at set-up, for asserts to draw from.
    pub removed: usize,
    /// Ops in each pass of a traced run.
    pub trace_ops: usize,
}

pub const SIZES: Sizes = Sizes {
    chains: 100,
    chain_nodes: 8,
    name_len: 10,
    removed: 8,
    trace_ops: 200,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Query,
    Assert,
    Retract,
}

/// The op kinds the loop cycles through: 6 queries, 2 retracts and 2
/// asserts in 10, a retract always before the next assert.
const PATTERN: [Kind; 10] = [
    Kind::Query,
    Kind::Retract,
    Kind::Query,
    Kind::Query,
    Kind::Assert,
    Kind::Query,
    Kind::Retract,
    Kind::Query,
    Kind::Query,
    Kind::Assert,
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    /// Descendants of node `node` of chain `chain`.
    Query { chain: usize, node: usize },
    /// Re-add a retracted chain-tail edge.
    Assert,
    /// Remove the tail edge of a chain.
    Retract,
}

/// The seeded inputs plus the reference model every answer is checked
/// against: a successor map kept in step with every write.
#[derive(Clone)]
struct Oracle {
    names: Vec<Vec<String>>,
    /// Current edge count of each chain (a prefix of its nodes).
    edges: Vec<usize>,
    /// Chains whose tail edge is currently retracted, one entry per edge.
    removed: Vec<usize>,
    next: HashMap<String, String>,
}

impl Oracle {
    fn new(seed: u64, sizes: &Sizes) -> Self {
        let mut rng = Rng::stream(seed, u64::MAX);
        let mut seen = HashSet::new();
        let names: Vec<Vec<String>> = (0..sizes.chains)
            .map(|_| {
                (0..sizes.chain_nodes)
                    .map(|_| loop {
                        let w = rng.word(b"acgt", sizes.name_len);
                        if seen.insert(w.clone()) {
                            break w;
                        }
                    })
                    .collect()
            })
            .collect();
        let mut next = HashMap::new();
        for chain in &names {
            for w in chain.windows(2) {
                next.insert(w[0].clone(), w[1].clone());
            }
        }
        let mut oracle = Self {
            edges: vec![sizes.chain_nodes - 1; sizes.chains],
            names,
            removed: Vec::new(),
            next,
        };
        for _ in 0..sizes.removed {
            oracle.write(Op::Retract, &mut rng);
        }
        oracle
    }

    /// The edges currently present.
    fn all_edges(&self) -> Vec<(&str, &str)> {
        self.names
            .iter()
            .zip(&self.edges)
            .flat_map(|(c, &n)| c[..=n].windows(2).map(|w| (w[0].as_str(), w[1].as_str())))
            .collect()
    }

    /// Op `i` of the run: its kind from [`PATTERN`], its target from the
    /// op's own seed stream.
    fn op(&self, seed: u64, i: usize) -> Op {
        match PATTERN[i % PATTERN.len()] {
            Kind::Query => {
                let mut rng = Rng::stream(seed, i as u64);
                let chain = rng.below(self.names.len());
                Op::Query {
                    chain,
                    node: rng.below(self.names[chain].len()),
                }
            }
            Kind::Assert => Op::Assert,
            Kind::Retract => Op::Retract,
        }
    }

    /// The edge op `op` writes, choosing its chain from `rng`, and the
    /// model update it implies.
    fn write(&mut self, op: Op, rng: &mut Rng) -> (String, String) {
        match op {
            Op::Retract => {
                let chain = loop {
                    let c = rng.below(self.names.len());
                    if self.edges[c] > 0 {
                        break c;
                    }
                };
                self.edges[chain] -= 1;
                self.removed.push(chain);
                let e = self.edges[chain];
                let (a, b) = (&self.names[chain][e], &self.names[chain][e + 1]);
                self.next.remove(a);
                (a.clone(), b.clone())
            }
            Op::Assert => {
                let k = rng.below(self.removed.len());
                let chain = self.removed.swap_remove(k);
                let e = self.edges[chain];
                self.edges[chain] += 1;
                let (a, b) = (&self.names[chain][e], &self.names[chain][e + 1]);
                self.next.insert(a.clone(), b.clone());
                (a.clone(), b.clone())
            }
            Op::Query { .. } => unreachable!("queries write nothing"),
        }
    }

    /// `anc(node, _)` rows, by walking the successor map.
    fn descendants(&self, node: &str) -> Vec<Vec<String>> {
        let mut out = Vec::new();
        let mut cur = node;
        while let Some(n) = self.next.get(cur) {
            out.push(vec![node.to_string(), n.clone()]);
            cur = n;
        }
        out
    }
}

struct State {
    session: EngineSession,
    oracle: Oracle,
}

fn open_session(oracle: &Oracle, ctx: &Ctx) -> Result<EngineSession, EvalError> {
    let mut engine = Engine::new();
    let program = engine.parse_program(PROGRAM).expect("program parses");
    let mut session = engine.into_session(&program, ctx.config())?;
    let edges = oracle.all_edges();
    let facts: Vec<(&str, [&str; 2])> = edges.iter().map(|&(a, b)| ("par", [a, b])).collect();
    let refs: Vec<(&str, &[&str])> = facts.iter().map(|(p, t)| (*p, &t[..])).collect();
    session.assert_facts(&refs)?;
    session.run()?;
    Ok(session)
}

fn setup(ctx: &Ctx, sizes: &Sizes) -> State {
    let oracle = Oracle::new(ctx.seed, sizes);
    let mut session = open_session(&oracle, ctx).expect("the base closure settles");
    // Warm-up: the first point query builds and caches the magic program.
    let node = &oracle.names[0][0];
    let _ = session.query_bound("anc", &[Bind::Bound(node), Bind::Free]);
    State { session, oracle }
}

/// Run op `i` untraced; returns its kind, latency and correctness.
fn step(state: &mut State, seed: u64, i: usize) -> (&'static str, Lap, bool) {
    let op = state.oracle.op(seed, i);
    let mut rng = Rng::stream(seed ^ 0x5EED, i as u64);
    let s = &mut state.session;
    match op {
        Op::Query { chain, node } => {
            let name = state.oracle.names[chain][node].clone();
            let t = Stopwatch::start();
            let got = s.query_bound("anc", &[Bind::Bound(&name), Bind::Free]);
            let latency = t.lap();
            let ok = check_query(&state.oracle, &name, got);
            ("query", latency, ok)
        }
        Op::Assert => {
            let (a, b) = state.oracle.write(op, &mut rng);
            let t = Stopwatch::start();
            let got = s.assert_fact("par", &[&a, &b]).and_then(|new| {
                s.run()?;
                Ok(new)
            });
            ("update", t.lap(), write_ok("assert", got))
        }
        Op::Retract => {
            let (a, b) = state.oracle.write(op, &mut rng);
            let t = Stopwatch::start();
            let got = s.retract_fact("par", &[&a, &b]);
            ("retract", t.lap(), write_ok("retract", got))
        }
    }
}

fn check_query(oracle: &Oracle, name: &str, got: Result<Vec<Vec<String>>, EvalError>) -> bool {
    match got {
        Ok(rows) => same("anc", rows, oracle.descendants(name)),
        Err(e) => {
            eprintln!("session_mixed query failed: {e}");
            false
        }
    }
}

/// A one-edge write must succeed and take effect.
fn write_ok(what: &str, got: Result<bool, EvalError>) -> bool {
    match got {
        Ok(true) => true,
        Ok(false) => {
            eprintln!("session_mixed {what} had no effect");
            false
        }
        Err(e) => {
            eprintln!("session_mixed {what} failed: {e}");
            false
        }
    }
}

pub fn run(ctx: &Ctx) -> Report {
    timed_loop(
        ctx,
        "query",
        BLOCK_OPS,
        |_| setup(ctx, &SIZES),
        |state, i| step(state, ctx.seed, i),
    )
}

/// The session's state rebuilt from public calls, for decomposing
/// `query_bound` (the session's own `Fixpoint` is private): every write the
/// session sees is applied here too.
struct Mirror {
    engine: Engine,
    program: CompiledProgram,
    fx: Fixpoint,
    magic: MagicProgram,
    config: EvalConfig,
}

impl Mirror {
    fn new(oracle: &Oracle, ctx: &Ctx) -> Self {
        let mut engine = Engine::new();
        let parsed = engine.parse_program(PROGRAM).expect("program parses");
        let program = compile(&parsed).expect("program compiles");
        let config = ctx.config();
        let mut fx = Fixpoint::new(&program);
        for (a, b) in oracle.all_edges() {
            let tuple = vec![engine.seq(a), engine.seq(b)];
            fx.assert_named(&mut engine.store, "par", tuple.into());
        }
        fx.run(&program, &mut engine.store, &engine.registry, &config)
            .expect("the base closure settles");
        let goal = program.preds.lookup("anc").expect("anc is declared");
        let pattern = Adornment::parse("bf").expect("valid adornment");
        let magic = magic_transform(&program, goal, &pattern, &MagicOptions::default());
        for id in magic.program.constants() {
            engine.store.close_windows(id);
        }
        Self {
            engine,
            program,
            fx,
            magic,
            config,
        }
    }

    fn write(&mut self, op: Op, a: &str, b: &str) {
        let e = &mut self.engine;
        let tuple: Box<[SeqId]> = vec![e.seq(a), e.seq(b)].into();
        match op {
            Op::Assert => {
                self.fx.assert_named(&mut e.store, "par", tuple);
                self.fx
                    .run(&self.program, &mut e.store, &e.registry, &self.config)
                    .expect("mirror assert settles");
            }
            Op::Retract => {
                let par = self.program.preds.lookup("par").expect("par is declared");
                self.fx
                    .retract_facts(
                        &self.program,
                        &mut e.store,
                        &e.registry,
                        &self.config,
                        &[(par, tuple)],
                    )
                    .expect("mirror retract settles");
            }
            Op::Query { .. } => {}
        }
    }

    /// `query_bound("anc", [Bound(name), Free])` from its public parts:
    /// scratch state, demand seed, cone fixpoint, filter and render.
    fn query(&mut self, name: &str, tr: &mut Tracer, counters: &mut Counters) -> Vec<Vec<String>> {
        let e = &mut self.engine;
        let syms = e.alphabet.seq_of_str(name);
        let id = e.store.intern_vec(syms);
        e.store.close_windows(id);
        let magic = &self.magic;
        let mut scratch = tr.span("demand.scratch_build", |_| {
            self.fx.demand_scratch(&magic.program.preds)
        });
        scratch.seed_demand(magic.seed, vec![id].into());
        tr.span("demand.cone_run", |_| {
            scratch.run(&magic.program, &mut e.store, &e.registry, &self.config)
        })
        .expect("cone fixpoint settles");
        let rows: Vec<Vec<String>> = scratch
            .facts()
            .relation(magic.goal)
            .iter()
            .filter(|t| t.len() == 2 && t[0] == id)
            .map(|t| t.iter().map(|&s| e.render(s)).collect())
            .collect();
        let scratch_facts = scratch.facts().total_facts() as f64;
        counters.mean("demand.scratch_facts", scratch_facts);
        counters.mean(
            "demand.answers_per_scratch_fact",
            rows.len() as f64 / scratch_facts,
        );
        counters.mean("sequence.store_seqs", e.store.count() as f64);
        rows
    }
}

/// Op `i`, traced. Session calls run inside the op span; the mirror's
/// decomposition of a query runs after it and must give the same answers.
fn traced_step(
    state: &mut State,
    mirror: &mut Mirror,
    seed: u64,
    i: usize,
    tr: &mut Tracer,
    counters: &mut Counters,
) -> bool {
    let op = state.oracle.op(seed, i);
    let mut rng = Rng::stream(seed ^ 0x5EED, i as u64);
    let s = &mut state.session;
    let before = s.stats();
    let ok = match op {
        Op::Query { chain, node } => {
            let name = state.oracle.names[chain][node].clone();
            let got = tr.span("op", |tr| {
                tr.span("demand.query_bound", |_| {
                    s.query_bound("anc", &[Bind::Bound(&name), Bind::Free])
                })
            });
            let decomposed = mirror.query(&name, tr, counters);
            let ok = match &got {
                Ok(rows) => same("anc (scratch decomposition)", decomposed, rows.clone()),
                Err(_) => true,
            };
            ok & check_query(&state.oracle, &name, got)
        }
        Op::Assert => {
            let (a, b) = state.oracle.write(op, &mut rng);
            let got = tr.span("op", |tr| -> Result<bool, EvalError> {
                let new = tr.span("session.assert", |_| s.assert_fact("par", &[&a, &b]))?;
                tr.span("session.run", |_| s.run())?;
                Ok(new)
            });
            let after = s.stats();
            counters.mean("eval.rounds", (after.rounds - before.rounds) as f64);
            counters.mean(
                "eval.derivations",
                (after.derivations - before.derivations) as f64,
            );
            counters.mean("eval.facts", after.facts as f64);
            counters.add(
                "admit.facts",
                after.facts as f64 - before.facts as f64 - 1.0,
            );
            counters.add(
                "admit.derivations",
                (after.derivations - before.derivations) as f64,
            );
            mirror.write(op, &a, &b);
            write_ok("assert", got)
        }
        Op::Retract => {
            let (a, b) = state.oracle.write(op, &mut rng);
            let got = tr.span("op", |tr| {
                tr.span("session.retract", |_| s.retract_fact("par", &[&a, &b]))
            });
            mirror.write(op, &a, &b);
            write_ok("retract", got)
        }
    };
    counters.mean("sequence.domain_size", s.stats().domain_size as f64);
    ok
}

pub fn run_traced(ctx: &Ctx, sizes: &Sizes) -> (Report, Tracer) {
    // Two sessions from the same seed see the same ops; each op runs on
    // the untraced one and then on the traced one.
    let mut untraced = setup(ctx, sizes);
    let mut traced = setup(ctx, sizes);
    let mut mirror = Mirror::new(&traced.oracle, ctx);
    traced_loop(
        sizes.trace_ops,
        |i| step(&mut untraced, ctx.seed, i),
        |i, tr, counters| traced_step(&mut traced, &mut mirror, ctx.seed, i, tr, counters),
    )
}
