//! Pinned behavior of the SCC-stratified evaluation schedule
//! ([`seqlog_core::analysis::Schedule`], `Scheduling::Stratified` — the
//! default): extent equality against `Scheduling::Global` (the same round
//! loop over the one-stratum schedule holding every clause), bit-for-bit
//! thread determinism *within* the stratified mode, the downstream-cone
//! property for session delta updates (an assert that feeds only a late
//! stratum never pays rounds for settled upstream strata),
//! domain-feedback re-arming of domain-sensitive strata, and the
//! one-quiescence-round contract under both scheduling modes, which agree
//! bit for bit on single-stratum programs.

use seqlog_core::database::Database;
use seqlog_core::engine::Engine;
use seqlog_core::eval::{EvalConfig, Model, Scheduling, Strategy};
use seqlog_core::session::EngineSession;

/// One differential case: program source, base facts, observed predicates.
type Case = (
    &'static str,
    &'static [(&'static str, &'static str)],
    &'static [&'static str],
);

/// Representative programs spanning the evaluator's clause classes:
/// structural recursion, multi-stratum chains, constructive heads,
/// domain-sensitive enumeration, equality literals, and cross-stratum
/// joins.
const PROGRAMS: &[Case] = &[
    (
        // Example 1.1 — all suffixes.
        "suffix(X[N:end]) :- r(X).",
        &[("r", "abc"), ("r", "dd")],
        &["suffix"],
    ),
    (
        // Three-stratum chain with a cross-stratum join on top.
        "s1(X[2:end]) :- s0(X), X != \"\".\n\
         s2(X[2:end]) :- s1(X), X != \"\".\n\
         s3(X[2:end]) :- s2(X), X != \"\".\n\
         pairs(X, Y) :- s0(X), s3(Y).",
        &[("s0", "abcdef"), ("s0", "xyz")],
        &["s1", "s2", "s3", "pairs"],
    ),
    (
        // Constructive stratum grows the domain; the ground
        // domain-sensitive stratum must re-arm and enumerate the new
        // members (outer-pass feedback).
        "gd(X, X) :- true.\n\
         app(X ++ \"a\") :- r(X).\n\
         app2(X ++ Y) :- app(X), r(Y).",
        &[("r", "ab"), ("r", "c")],
        &["gd", "app", "app2"],
    ),
    (
        // Mutually recursive SCC between two predicates plus a consumer.
        "even(X[2:end]) :- odd(X), X != \"\".\n\
         odd(X[2:end]) :- even(X), X != \"\".\n\
         out(X) :- even(X).",
        &[("even", "aaaaaa")],
        &["even", "odd", "out"],
    ),
];

fn eval(src: &str, facts: &[(&str, &str)], config: &EvalConfig) -> (Engine, Model) {
    let mut e = Engine::new();
    let p = e.parse_program(src).unwrap();
    let mut db = Database::new();
    for (pred, w) in facts {
        e.add_fact(&mut db, pred, &[w]);
    }
    let m = e.evaluate_with(&p, &db, config).unwrap();
    (e, m)
}

/// Extents of `preds` in insertion order — the bit-for-bit shape.
fn extents(e: &Engine, m: &Model, preds: &[&str]) -> Vec<Vec<Vec<String>>> {
    preds.iter().map(|p| e.rendered_tuples(m, p)).collect()
}

/// Extents of `preds` as sets — the extensional shape.
fn extents_sorted(e: &Engine, m: &Model, preds: &[&str]) -> Vec<Vec<Vec<String>>> {
    let mut out = extents(e, m, preds);
    for rows in &mut out {
        rows.sort();
    }
    out
}

#[test]
fn stratified_matches_global_extensionally() {
    for (src, facts, preds) in PROGRAMS {
        let stratified = EvalConfig::default();
        assert_eq!(stratified.scheduling, Scheduling::Stratified, "default");
        let global = EvalConfig {
            scheduling: Scheduling::Global,
            ..EvalConfig::default()
        };
        let (es, ms) = eval(src, facts, &stratified);
        let (eg, mg) = eval(src, facts, &global);
        assert_eq!(
            extents_sorted(&es, &ms, preds),
            extents_sorted(&eg, &mg, preds),
            "stratified and global models differ as sets for\n{src}"
        );
        assert_eq!(
            ms.stats.facts, mg.stats.facts,
            "fact counts differ for\n{src}"
        );
        assert_eq!(
            ms.stats.domain_size, mg.stats.domain_size,
            "domain sizes differ for\n{src}"
        );
    }
}

#[test]
fn stratified_matches_naive_extensionally() {
    let naive = EvalConfig {
        strategy: Strategy::Naive,
        ..EvalConfig::default()
    };
    for (src, facts, preds) in PROGRAMS {
        let (es, ms) = eval(src, facts, &EvalConfig::default());
        let (en, mn) = eval(src, facts, &naive);
        assert_eq!(
            extents_sorted(&es, &ms, preds),
            extents_sorted(&en, &mn, preds),
            "stratified and naive models differ as sets for\n{src}"
        );
    }
}

#[test]
fn stratified_is_bit_for_bit_deterministic_across_threads() {
    for (src, facts, preds) in PROGRAMS {
        let (e1, m1) = eval(src, facts, &EvalConfig::with_threads(1));
        let reference = extents(&e1, &m1, preds);
        for t in [2usize, 4, 8] {
            let (et, mt) = eval(src, facts, &EvalConfig::with_threads(t));
            assert_eq!(
                extents(&et, &mt, preds),
                reference,
                "threads={t} not bit-for-bit identical for\n{src}"
            );
            assert_eq!(mt.stats, m1.stats, "stats differ at threads={t} for\n{src}");
        }
    }
}

fn session(src: &str, config: EvalConfig) -> EngineSession {
    let mut e = Engine::new();
    let p = e.parse_program(src).unwrap();
    e.into_session(&p, config).unwrap()
}

/// The downstream-cone property: after the model settles, an assert that
/// feeds only the *last* stratum re-runs that stratum alone — every
/// settled upstream stratum plans an empty delta and is skipped without
/// paying a round.
#[test]
fn assert_feeding_late_stratum_skips_settled_upstream_strata() {
    // `late` joins the chain's final output with its own feed predicate,
    // so `late`'s stratum is downstream of everything.
    let src = "s1(X[2:end]) :- s0(X), X != \"\".\n\
               s2(X[2:end]) :- s1(X), X != \"\".\n\
               s3(X[2:end]) :- s2(X), X != \"\".\n\
               late(X, Y) :- feed(X), s3(Y).";
    let mut s = session(src, EvalConfig::default());
    s.assert_fact("s0", &["abcdefgh"]).unwrap();
    s.run().unwrap();
    let after_chain = s.stats().rounds;
    // Populating the whole chain pays at least one round per stratum.
    assert!(after_chain >= 4, "chain run paid {after_chain} rounds");

    // A fact feeding only the final stratum: exactly one round — the
    // settled chain strata all plan empty deltas.
    s.assert_fact("feed", &["k"]).unwrap();
    s.run().unwrap();
    assert_eq!(
        s.stats().rounds - after_chain,
        1,
        "late-stratum assert must re-run only the downstream cone"
    );
    assert_eq!(s.query("late").len(), s.query("s3").len());

    // A fact at the chain's source re-runs the full cone again.
    let before = s.stats().rounds;
    s.assert_fact("s0", &["zzzzzz"]).unwrap();
    s.run().unwrap();
    assert!(
        s.stats().rounds - before >= 4,
        "source assert must re-run the whole chain"
    );
}

/// Quiescence contract, both scheduling modes: a run over a settled model
/// still pays exactly one round. The program's condensation has exactly
/// one clause-bearing stratum, so `Scheduling::Global` (the one-stratum
/// schedule on the same loop) schedules it identically and both modes
/// agree bit for bit, `EvalStats::rounds` included: neither counts a round
/// whose plan is empty.
#[test]
fn settled_run_costs_one_quiescence_round_in_both_modes() {
    let mut outcomes = Vec::new();
    for scheduling in [Scheduling::Stratified, Scheduling::Global] {
        let config = EvalConfig {
            scheduling,
            ..EvalConfig::default()
        };
        let mut s = session("suffix(X[N:end]) :- r(X).", config);
        s.assert_fact("r", &["abc"]).unwrap();
        s.run().unwrap();
        let settled = s.stats().rounds;
        s.run().unwrap();
        assert_eq!(
            s.stats().rounds,
            settled + 1,
            "settled run must cost one quiescence round under {scheduling:?}"
        );
        outcomes.push((s.query("suffix"), s.stats()));
    }
    assert_eq!(outcomes[0], outcomes[1], "scheduling modes differ");
}

/// Domain feedback across strata: a constructive stratum grows the
/// extended active domain *after* the ground domain-sensitive stratum
/// first ran, so the outer pass loop must re-arm it.
#[test]
fn domain_sensitive_stratum_rearms_after_downstream_domain_growth() {
    let src = "gd(X, X) :- true.\n\
               app(X ++ \"!\") :- r(X).";
    let mut s = session(src, EvalConfig::default());
    s.assert_fact("r", &["ab"]).unwrap();
    s.run().unwrap();
    let gd: Vec<String> = s.query("gd").into_iter().map(|t| t[0].clone()).collect();
    // "ab!" exists only because `app` created it; `gd` enumerating it
    // proves the earlier stratum re-armed on domain growth.
    assert!(
        gd.iter().any(|w| w == "ab!"),
        "gd must enumerate constructive results: {gd:?}"
    );
}

/// The session-level closed-world lint report: a self-recursive predicate
/// with no base facts is provably empty (`SL003`), and asserting a base
/// fact for it revives the clause in the next report.
#[test]
fn session_report_tracks_asserted_base_facts() {
    use seqlog_core::analysis::LintCode;
    let mut s = session("p(X[2:end]) :- p(X), X != \"\".", EvalConfig::default());
    let report = s.report();
    assert_eq!(report.with_code(LintCode::DeadClause).count(), 1);
    s.assert_fact("p", &["abc"]).unwrap();
    s.run().unwrap();
    let report = s.report();
    assert_eq!(report.with_code(LintCode::DeadClause).count(), 0);
    assert!(!report.has_errors());
}
