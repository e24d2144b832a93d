//! `paper_small`: the paper's example programs on tiny seeded databases.
//!
//! Each op runs the whole suite — Examples 1.1, 1.3, 1.4, 1.5 (`rep1`)
//! and 7.1 with a nested transducer chain — each as a fresh parse →
//! evaluate → render. Per-fact work is negligible, so compile, analysis,
//! fusion and the fixed cost of setting up an evaluation dominate.

use crate::common::{same, timed_loop, Ctx, Lap, Report, Rng, Stopwatch, BLOCK_OPS};
use crate::genome::{self, dna_to_protein, evaluate_traced, probe_analysis, probe_transducers};
use crate::trace::{traced_loop, Counters, Tracer};
use seqlog_core::prelude::*;

const SUFFIX: &str = "suffix(X[N:end]) :- r(X).";

const ANBNCN: &str = "\
answer(X) :- r(X), abcn(X[1:N1], X[N1+1:N2], X[N2+1:end]).
abcn(\"\", \"\", \"\") :- true.
abcn(X, Y, Z) :- X[1] = \"a\", Y[1] = \"b\", Z[1] = \"c\", abcn(X[2:end], Y[2:end], Z[2:end]).
";

const REVERSE: &str = "\
answer(Y) :- r(X), rev(X, Y).
rev(\"\", \"\") :- true.
rev(X[1:N+1], X[N+1] ++ Y) :- r(X), rev(X[1:N], Y).
";

const REP1: &str = "\
rep1(X, X) :- true.
rep1(X, X[1:N]) :- rep1(X[N+1:end], X[1:N]).
";

const PROTEIN: &str = "protein(D, @translate(@transcribe(D))) :- dnaseq(D).";

/// Input sizes.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Distinct seeded suites per run; op `i` uses suite `i % suites`.
    pub suites: usize,
    /// Ops in each pass of a traced run.
    pub trace_ops: usize,
}

pub const SIZES: Sizes = Sizes {
    suites: 16,
    trace_ops: 256,
};

/// One example program with its database and the answers it must give.
struct Case {
    program: &'static str,
    /// Unary base facts `(predicate, text)`.
    facts: Vec<(&'static str, String)>,
    /// The relation whose rendered tuples are checked.
    answer: &'static str,
    expected: Vec<Vec<String>>,
    /// Registers the Example 7.1 transducers.
    transducers: bool,
}

fn rows(items: impl IntoIterator<Item = Vec<String>>) -> Vec<Vec<String>> {
    items.into_iter().collect()
}

fn substrings(s: &str) -> Vec<String> {
    let mut out = vec![String::new()];
    for i in 0..s.len() {
        for j in i + 1..=s.len() {
            out.push(s[i..j].to_string());
        }
    }
    out
}

/// The suite for one seed stream, with answers computed by string code
/// (and, for Example 7.1, a transducer network) rather than the engine.
/// The seed picks letters, never lengths, so every suite costs about the
/// same and runs of different seeds can be compared.
fn suite(seed: u64, index: usize) -> Vec<Case> {
    let mut rng = Rng::stream(seed, index as u64);

    let words: Vec<String> = (0..3).map(|_| rng.word(b"abc", 5)).collect();
    let suffix = Case {
        program: SUFFIX,
        facts: words.iter().map(|w| ("r", w.clone())).collect(),
        answer: "suffix",
        expected: rows(
            words
                .iter()
                .flat_map(|w| (0..=w.len()).map(move |i| vec![w[i..].to_string()])),
        ),
        transducers: false,
    };

    let abc = |a: usize, b: usize, c: usize| "a".repeat(a) + &"b".repeat(b) + &"c".repeat(c);
    // (n, m) is (2, 3) or (3, 2): the same lengths either way.
    let n = 2 + rng.below(2);
    let m = 5 - n;
    let candidates = [
        abc(n, n, n),
        abc(m, m, m),
        abc(n, n + 1, n),
        abc(m + 1, m, m),
        abc(n, n, n) + &abc(m, m, m),
    ];
    let is_abcn = |s: &str| s == abc(s.len() / 3, s.len() / 3, s.len() / 3);
    let anbncn = Case {
        program: ANBNCN,
        facts: candidates.iter().map(|w| ("r", w.clone())).collect(),
        answer: "answer",
        expected: rows(
            candidates
                .iter()
                .filter(|w| is_abcn(w))
                .map(|w| vec![w.clone()]),
        ),
        transducers: false,
    };

    let bits: Vec<String> = (0..2).map(|_| rng.word(b"01", 6)).collect();
    let reverse = Case {
        program: REVERSE,
        facts: bits.iter().map(|w| ("r", w.clone())).collect(),
        answer: "answer",
        expected: rows(bits.iter().map(|w| vec![w.chars().rev().collect()])),
        transducers: false,
    };

    // Units of distinct letters, so every seed gives the same number of
    // distinct subsequences.
    let periodic: Vec<String> = [("ab", 3), ("abc", 2)]
        .iter()
        .map(|&(letters, reps)| {
            let mut unit = letters.as_bytes().to_vec();
            unit.rotate_left(rng.below(letters.len()));
            String::from_utf8(unit).expect("ASCII").repeat(reps)
        })
        .collect();
    let mut domain: Vec<String> = periodic.iter().flat_map(|p| substrings(p)).collect();
    domain.sort();
    domain.dedup();
    let rep1 = Case {
        program: REP1,
        facts: periodic.iter().map(|w| ("seq", w.clone())).collect(),
        answer: "rep1",
        expected: rows(domain.iter().flat_map(|x| {
            let periods: Vec<usize> = if x.is_empty() {
                vec![0]
            } else {
                (1..=x.len())
                    .filter(|d| x.len() % d == 0 && x[..*d].repeat(x.len() / d) == *x)
                    .collect()
            };
            periods
                .into_iter()
                .map(move |d| vec![x.clone(), x[..d].to_string()])
        })),
        transducers: false,
    };

    let dna: Vec<String> = (0..3).map(|_| rng.word(b"acgt", 9)).collect();
    let mut alphabet = Alphabet::new();
    let network = dna_to_protein(&mut alphabet);
    let protein = Case {
        program: PROTEIN,
        facts: dna.iter().map(|w| ("dnaseq", w.clone())).collect(),
        answer: "protein",
        expected: rows(dna.iter().map(|w| {
            let out = network
                .run_simple(&[&alphabet.seq_of_str(w)])
                .expect("translation runs");
            vec![w.clone(), alphabet.render(&out)]
        })),
        transducers: true,
    };

    vec![suffix, anbncn, reverse, rep1, protein]
}

fn engine(case: &Case) -> Engine {
    if case.transducers {
        genome::engine()
    } else {
        Engine::new()
    }
}

fn facts(case: &Case) -> impl Iterator<Item = (&'static str, &str)> {
    case.facts.iter().map(|(p, t)| (*p, t.as_str()))
}

/// One program, untraced: fresh engine, parse, evaluate, render.
fn eval_case(case: &Case, config: &EvalConfig) -> Result<Vec<Vec<String>>, String> {
    let mut e = engine(case);
    let program = e
        .parse_program(case.program)
        .map_err(|err| err.to_string())?;
    let mut db = Database::new();
    for (pred, text) in facts(case) {
        e.add_fact(&mut db, pred, &[text]);
    }
    let model = e
        .evaluate_with(&program, &db, config)
        .map_err(|err| err.to_string())?;
    Ok(e.rendered_tuples(&model, case.answer))
}

fn check(case: &Case, got: Result<Vec<Vec<String>>, String>) -> bool {
    match got {
        Ok(rows) => same(case.answer, rows, case.expected.clone()),
        Err(err) => {
            eprintln!("paper_small op failed: {err}");
            false
        }
    }
}

/// One op: the whole suite. Returns its kind, time and whether every
/// answer was right.
fn step(cases: &[Case], config: &EvalConfig) -> (&'static str, Lap, bool) {
    let t = Stopwatch::start();
    let results: Vec<_> = cases.iter().map(|c| eval_case(c, config)).collect();
    let elapsed = t.lap();
    let ok = cases.iter().zip(results).all(|(c, r)| check(c, r));
    ("eval", elapsed, ok)
}

fn setup(ctx: &Ctx, sizes: &Sizes) -> Vec<Vec<Case>> {
    let suites: Vec<Vec<Case>> = (0..sizes.suites).map(|i| suite(ctx.seed, i)).collect();
    // Warm-up: every suite once, so lazy allocations settle before timing.
    for cases in &suites {
        let _ = step(cases, &ctx.config());
    }
    suites
}

pub fn run(ctx: &Ctx) -> Report {
    let config = ctx.config();
    timed_loop(
        ctx,
        "eval",
        BLOCK_OPS,
        |_| setup(ctx, &SIZES),
        |suites, i| step(&suites[i % suites.len()], &config),
    )
}

/// One program, traced: the public calls `Engine::evaluate_with` is made
/// of inside the op span, then the analyses and (for Example 7.1) a
/// transducer-network replay outside it.
fn traced_case(
    case: &Case,
    config: &EvalConfig,
    tr: &mut Tracer,
    counters: &mut Counters,
) -> Result<Vec<Vec<String>>, String> {
    let facts: Vec<(&str, &str)> = facts(case).collect();
    let (rows, compiled) = tr.span("op", |tr| -> Result<_, String> {
        let mut e = engine(case);
        let program = tr
            .span("parser.parse", |_| e.parse_program(case.program))
            .map_err(|err| err.to_string())?;
        let (model, compiled) = evaluate_traced(&mut e, &program, &facts, config, tr, counters)?;
        let rows = tr.span("engine.render", |_| e.rendered_tuples(&model, case.answer));
        tr.span("engine.drop", |_| drop((model, e)));
        Ok((rows, compiled))
    })?;
    probe_analysis(&compiled, case.answer, tr);
    if case.transducers {
        let inputs: Vec<String> = case.facts.iter().map(|(_, t)| t.clone()).collect();
        probe_transducers(&inputs, tr);
    }
    Ok(rows)
}

pub fn run_traced(ctx: &Ctx, sizes: &Sizes) -> (Report, Tracer) {
    let suites = setup(ctx, sizes);
    let config = ctx.config();
    let cases = |i: usize| &suites[i % suites.len()];
    traced_loop(
        sizes.trace_ops,
        |i| step(cases(i), &config),
        |i, tr, counters| {
            let mut ok = true;
            for case in cases(i) {
                let got = traced_case(case, &config, tr, counters);
                ok &= check(case, got);
            }
            ok
        },
    )
}
