//! `genome_batch`: the paper's motivating genome workload, batch style.
//!
//! Each op builds a fresh engine over one seeded set of DNA reads and
//! motifs, evaluates [`PROGRAM`] and renders its answers. Round work,
//! dedupe, interning and domain closure dominate; demand and the WAL are
//! bypassed.

use crate::common::{same, timed_loop, Ctx, Lap, Report, Rng, Stopwatch, BLOCK_OPS};
use crate::trace::{traced_loop, Counters, Tracer};
use seqlog_core::analysis::magic::{magic_transform, MagicOptions};
use seqlog_core::analysis::{fuse_program, Adornment, FuseLimits, ProgramReport};
use seqlog_core::compile::{compile, CompiledProgram};
use seqlog_core::prelude::*;
use seqlog_core::Fixpoint;
use seqlog_transducer::{library, ExecLimits, ExecStats};

/// The evaluated program:
/// * a fused `@translate(@transcribe(D))` head chain (Example 7.1);
/// * constructive reverse of every read prefix plus a palindrome join
///   (Example 1.4);
/// * every window of every read and a motif-hit join on it (the
///   Example 1.1 shape; the free head indexes make `win` domain-sensitive).
pub const PROGRAM: &str = "\
proteinseq(D, @translate(@transcribe(D))) :- dnaseq(D).
rev(\"\", \"\") :- true.
rev(X[1:N+1], X[N+1] ++ Y) :- dnaseq(X), rev(X[1:N], Y).
revread(X, Y) :- dnaseq(X), rev(X, Y).
pal(X, X[1:N]) :- dnaseq(X), rev(X[1:N], X[1:N]).
win(X, X[I:J]) :- dnaseq(X).
hit(X, M) :- motif(M), win(X, M).
";

/// The rendered relations an op returns and the oracle predicts.
const ANSWERS: [&str; 4] = ["proteinseq", "revread", "pal", "hit"];

/// Input sizes.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub reads: usize,
    pub read_len: usize,
    pub motifs: usize,
    pub motif_len: usize,
    /// Input sets generated per block of the timed loop; op `i` uses set
    /// `i % datasets` of its block. Every block draws new sets, so the op
    /// quantiles of a run are taken over thousands of inputs, not over one
    /// seed's few.
    pub datasets: usize,
    /// Ops in each pass of a traced run.
    pub trace_ops: usize,
}

pub const SIZES: Sizes = Sizes {
    reads: 12,
    read_len: 32,
    motifs: 16,
    motif_len: 4,
    datasets: 32,
    trace_ops: 32,
};

type Answers = Vec<Vec<Vec<String>>>;

struct Dataset {
    reads: Vec<String>,
    motifs: Vec<String>,
    expected: Answers,
}

/// Answers computed without the engine: proteins through a transducer
/// network, reverses, palindromes and motif hits through string code.
fn expected(reads: &[String], motifs: &[String]) -> Answers {
    let mut alphabet = Alphabet::new();
    let network = dna_to_protein(&mut alphabet);
    let mut proteins = Vec::new();
    let mut reverses = Vec::new();
    let mut pals = Vec::new();
    let mut hits = Vec::new();
    for r in reads {
        let syms = alphabet.seq_of_str(r);
        let protein = network.run_simple(&[&syms]).expect("translation runs");
        proteins.push(vec![r.clone(), alphabet.render(&protein)]);
        reverses.push(vec![r.clone(), r.chars().rev().collect()]);
        for n in 0..=r.len() {
            let p = &r[..n];
            if p.chars().eq(p.chars().rev()) {
                pals.push(vec![r.clone(), p.to_string()]);
            }
        }
        for m in motifs {
            if r.contains(m.as_str()) {
                hits.push(vec![r.clone(), m.clone()]);
            }
        }
    }
    vec![proteins, reverses, pals, hits]
}

fn dataset(seed: u64, index: usize, sizes: &Sizes) -> Dataset {
    let mut rng = Rng::stream(seed, index as u64);
    let reads: Vec<String> = (0..sizes.reads)
        .map(|_| rng.word(b"acgt", sizes.read_len))
        .collect();
    let motifs: Vec<String> = (0..sizes.motifs)
        .map(|_| rng.word(b"acgt", sizes.motif_len))
        .collect();
    let expected = expected(&reads, &motifs);
    Dataset {
        reads,
        motifs,
        expected,
    }
}

/// A fresh engine with the Example 7.1 transducers registered.
pub fn engine() -> Engine {
    let mut e = Engine::new();
    let transcribe = library::transcribe(&mut e.alphabet);
    let translate = library::translate(&mut e.alphabet);
    e.register_transducer("transcribe", transcribe);
    e.register_transducer("translate", translate);
    e
}

fn facts(d: &Dataset) -> impl Iterator<Item = (&'static str, &str)> {
    let reads = d.reads.iter().map(|r| ("dnaseq", r.as_str()));
    reads.chain(d.motifs.iter().map(|m| ("motif", m.as_str())))
}

fn render(e: &Engine, model: &Model) -> Answers {
    ANSWERS
        .iter()
        .map(|p| e.rendered_tuples(model, p))
        .collect()
}

/// One untraced op: fresh engine, parse, evaluate, render.
fn eval_once(d: &Dataset, config: &EvalConfig) -> Result<Answers, String> {
    let mut e = engine();
    let program = e.parse_program(PROGRAM).map_err(|err| err.to_string())?;
    let mut db = Database::new();
    for (pred, text) in facts(d) {
        e.add_fact(&mut db, pred, &[text]);
    }
    let model = e
        .evaluate_with(&program, &db, config)
        .map_err(|err| err.to_string())?;
    Ok(render(&e, &model))
}

fn check(d: &Dataset, got: Result<Answers, String>) -> bool {
    match got {
        Ok(answers) => ANSWERS
            .iter()
            .zip(answers)
            .zip(&d.expected)
            .all(|((pred, got), want)| same(pred, got, want.clone())),
        Err(err) => {
            eprintln!("genome_batch op failed: {err}");
            false
        }
    }
}

/// The input sets of block `block`.
fn setup(ctx: &Ctx, sizes: &Sizes, block: usize) -> Vec<Dataset> {
    let datasets: Vec<Dataset> = (0..sizes.datasets)
        .map(|i| dataset(ctx.seed, block * sizes.datasets + i, sizes))
        .collect();
    // Warm-up: one evaluation so lazy allocations settle before timing.
    let _ = eval_once(&datasets[0], &ctx.config());
    datasets
}

/// One untraced op, timed, with its answers checked.
fn step(d: &Dataset, config: &EvalConfig) -> (&'static str, Lap, bool) {
    let t = Stopwatch::start();
    let got = eval_once(d, config);
    let lap = t.lap();
    ("eval", lap, check(d, got))
}

pub fn run(ctx: &Ctx) -> Report {
    let config = ctx.config();
    timed_loop(
        ctx,
        "eval",
        BLOCK_OPS,
        |block| setup(ctx, &SIZES, block),
        |datasets, i| step(&datasets[i % datasets.len()], &config),
    )
}

/// One traced op: the same work as [`eval_once`], split at the public
/// calls `Engine::evaluate_with` is made of, followed (outside the op) by
/// the analysis and transducer calls that evaluation does not make.
fn traced_once(
    d: &Dataset,
    config: &EvalConfig,
    tr: &mut Tracer,
    counters: &mut Counters,
) -> Result<Answers, String> {
    let facts: Vec<(&str, &str)> = facts(d).collect();
    let (answers, compiled) = tr.span("op", |tr| -> Result<_, String> {
        let mut e = engine();
        let program = tr
            .span("parser.parse", |_| e.parse_program(PROGRAM))
            .map_err(|err| err.to_string())?;
        let (model, compiled) = evaluate_traced(&mut e, &program, &facts, config, tr, counters)?;
        let answers = tr.span("engine.render", |_| render(&e, &model));
        tr.span("engine.drop", |_| drop((model, e)));
        Ok((answers, compiled))
    })?;
    probe_analysis(&compiled, "hit", tr);
    probe_transducers(&d.reads, tr);
    Ok(answers)
}

/// The Example 7.1 pipeline as a serial transducer network.
pub fn dna_to_protein(alphabet: &mut Alphabet) -> Network {
    Network::chain(
        "dna_to_protein",
        vec![library::transcribe(alphabet), library::translate(alphabet)],
    )
}

/// Replay the transducer inputs of an op through the network directly,
/// without the engine.
pub fn probe_transducers(reads: &[String], tr: &mut Tracer) {
    let mut alphabet = Alphabet::new();
    let network = dna_to_protein(&mut alphabet);
    let inputs: Vec<Vec<Sym>> = reads.iter().map(|r| alphabet.seq_of_str(r)).collect();
    tr.span("transducer.run", |_| {
        let mut stats = ExecStats::default();
        for syms in &inputs {
            network
                .run(&[syms], &ExecLimits::default(), &mut stats)
                .expect("translation runs");
        }
    });
}

/// `Engine::evaluate_with` from its public parts: compile, fuse transducer
/// chains, seed the base facts (interning and window closure), run the
/// round loop. Records the evaluation counters.
pub fn evaluate_traced(
    e: &mut Engine,
    program: &Program,
    facts: &[(&str, &str)],
    config: &EvalConfig,
    tr: &mut Tracer,
    counters: &mut Counters,
) -> Result<(Model, CompiledProgram), String> {
    let compiled = tr
        .span("compile.compile", |_| compile(program))
        .map_err(|err| err.to_string())?;
    let pass = tr.span("analysis.fuse", |_| {
        fuse_program(&compiled, &e.registry, &FuseLimits::default())
    });
    let fused;
    let (program, registry) = match pass.fused {
        Some((rewritten, machines)) => {
            let mut registry = e.registry.clone();
            for (name, machine) in machines {
                registry.register(name, machine);
            }
            fused = (rewritten, registry);
            (&fused.0, &fused.1)
        }
        None => (&compiled, &e.registry),
    };
    let mut fx = Fixpoint::new(program);
    tr.span("sequence.seed", |_| {
        // Intern every fact before any closure, as `Engine::add_fact`
        // followed by `evaluate_with` does: interning order decides ids.
        let ids: Vec<SeqId> = facts
            .iter()
            .map(|&(_, text)| e.store.intern_vec(e.alphabet.seq_of_str(text)))
            .collect();
        for id in program.constants() {
            e.store.close_windows(id);
        }
        for (&(pred, _), id) in facts.iter().zip(ids) {
            fx.assert_named(&mut e.store, pred, vec![id].into());
        }
    });
    tr.span("eval.run", |_| {
        fx.run(program, &mut e.store, registry, config)
    })
    .map_err(|err| err.to_string())?;
    let model = fx.into_model();
    let s = &model.stats;
    counters.mean("eval.rounds", s.rounds as f64);
    counters.mean("eval.derivations", s.derivations as f64);
    counters.mean("eval.facts", s.facts as f64);
    counters.mean("sequence.domain_size", model.domain.len() as f64);
    counters.mean("sequence.store_seqs", e.store.count() as f64);
    counters.mean("transducer.calls", s.transducer_calls as f64);
    counters.mean("transducer.steps", s.transducer_steps as f64);
    counters.add("admit.facts", (s.facts - facts.len()) as f64);
    counters.add("admit.derivations", s.derivations as f64);
    Ok((model, compiled))
}

/// The compile-time analyses evaluation itself does not run: the program
/// report and a magic-set transformation for `goal` with its first
/// argument bound.
pub fn probe_analysis(compiled: &CompiledProgram, goal: &str, tr: &mut Tracer) {
    tr.span("analysis.analyze", |_| ProgramReport::analyze(compiled));
    if let Some(g) = compiled.preds.lookup(goal) {
        let arity = compiled
            .clauses
            .iter()
            .find(|c| c.head.pred == g)
            .map_or(1, |c| c.head.args.len());
        let mut pattern = Adornment::all_free(arity);
        pattern.0[0] = seqlog_core::analysis::Binding::Bound;
        tr.span("analysis.magic", |_| {
            magic_transform(compiled, g, &pattern, &MagicOptions::default())
        });
    }
}

pub fn run_traced(ctx: &Ctx, sizes: &Sizes) -> (Report, Tracer) {
    let datasets = setup(ctx, sizes, 0);
    let config = ctx.config();
    let data = |i: usize| &datasets[i % datasets.len()];
    traced_loop(
        sizes.trace_ops,
        |i| step(data(i), &config),
        |i, tr, counters| check(data(i), traced_once(data(i), &config, tr, counters)),
    )
}
