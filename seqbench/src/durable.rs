//! `durable_ingest`: one read committed per op to a durable session.
//!
//! The session logs to a write-ahead log with the default
//! `DurabilityOptions`: every record flushed to the OS, no fsync, a
//! snapshot every 64 records. The program is Example 1.1,
//! `suffix(X[N:end]) :- read(X)`, whose clause is domain-sensitive and so
//! refires in full on every commit. Set-up preloads a fixed base, and
//! every block of the timed loop starts from a fresh set-up, so a commit
//! sees at most a block's commits more than the base. Every
//! `recover_every`-th op instead opens a copy of the session's directory
//! with `open_durable`, which replays the newest snapshot plus the log
//! tail. Demand is bypassed.

use crate::common::{quantile, same, timed_loop, Ctx, Lap, Report, Rng, Stopwatch};
use crate::trace::{traced_loop, Counters, Tracer};
use seqlog_core::prelude::*;
use seqlog_core::snapshot::list_snapshots;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

pub const PROGRAM: &str = "suffix(X[N:end]) :- read(X).";

/// Input sizes.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Reads asserted during set-up.
    pub base_reads: usize,
    pub read_len: usize,
    /// Every `recover_every`-th op is a recovery instead of a commit.
    pub recover_every: usize,
    /// Ops in each pass of a traced run.
    pub trace_ops: usize,
}

pub const SIZES: Sizes = Sizes {
    base_reads: 250,
    read_len: 8,
    recover_every: 32,
    trace_ops: 128,
};

/// The reads and suffixes asserted so far, kept without the engine.
struct Oracle {
    reads: BTreeSet<String>,
    suffixes: BTreeSet<String>,
    /// Bytes of fact text asserted (base and commits).
    user_bytes: u64,
}

impl Oracle {
    fn add(&mut self, read: &str) {
        self.user_bytes += read.len() as u64;
        for i in 0..=read.len() {
            self.suffixes.insert(read[i..].to_string());
        }
        self.reads.insert(read.to_string());
    }

    /// The session holds exactly the reads and their suffixes.
    fn fact_count(&self) -> usize {
        self.reads.len() + self.suffixes.len()
    }
}

struct State {
    session: EngineSession,
    oracle: Oracle,
    dir: PathBuf,
    rng: Rng,
    /// Directories of recovered copies made so far.
    copies: usize,
}

impl Drop for State {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A read no earlier op asserted.
fn fresh_read(state: &mut State, len: usize) -> String {
    loop {
        let r = state.rng.word(b"acgt", len);
        if !state.oracle.reads.contains(&r) {
            return r;
        }
    }
}

fn parsed() -> (Engine, Program) {
    let mut engine = Engine::new();
    let program = engine.parse_program(PROGRAM).expect("program parses");
    (engine, program)
}

/// A session over the seed's base reads, in its own directory for
/// `(tag, stream)`; the reads later ops commit come from seed stream
/// `stream`.
fn setup(ctx: &Ctx, sizes: &Sizes, tag: &str, stream: u64) -> State {
    let dir = ctx
        .out_dir
        .join(format!("durable-{}-{tag}{stream}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (engine, program) = parsed();
    let session = EngineSession::open_durable(
        engine,
        &program,
        ctx.config(),
        &dir,
        DurabilityOptions::default(),
    )
    .expect("durable session opens");
    let mut state = State {
        session,
        oracle: Oracle {
            reads: BTreeSet::new(),
            suffixes: BTreeSet::new(),
            user_bytes: 0,
        },
        dir,
        rng: Rng::stream(ctx.seed, u64::MAX),
        copies: 0,
    };
    let base: Vec<String> = (0..sizes.base_reads)
        .map(|_| {
            let r = fresh_read(&mut state, sizes.read_len);
            state.oracle.add(&r);
            r
        })
        .collect();
    let facts: Vec<[&str; 1]> = base.iter().map(|r| [r.as_str()]).collect();
    let refs: Vec<(&str, &[&str])> = facts.iter().map(|t| ("read", &t[..])).collect();
    state.session.assert_facts(&refs).expect("base asserts");
    state.session.run().expect("base settles");
    state.rng = Rng::stream(ctx.seed, stream);
    state
}

/// Copy the session's directory; recovery opens the copy, so the live
/// session keeps its own log.
fn copy_dir(state: &mut State) -> PathBuf {
    state.copies += 1;
    let to = state.dir.with_extension(format!("copy{}", state.copies));
    let _ = std::fs::remove_dir_all(&to);
    std::fs::create_dir_all(&to).expect("create recovery copy");
    for entry in std::fs::read_dir(&state.dir).expect("list durable dir") {
        let entry = entry.expect("list durable dir");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy durable file");
    }
    to
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A commit must add a new fact, and leave exactly the oracle's facts.
fn commit_ok(state: &State, got: Result<bool, EvalError>) -> bool {
    match got {
        Ok(true) if state.session.stats().facts == state.oracle.fact_count() => true,
        Ok(new) => {
            eprintln!(
                "durable_ingest commit: new={new}, {} facts, expected {}",
                state.session.stats().facts,
                state.oracle.fact_count()
            );
            false
        }
        Err(e) => {
            eprintln!("durable_ingest commit failed: {e}");
            false
        }
    }
}

/// The recovered extent must equal the live one and the oracle's.
fn recovery_ok(state: &State, got: Result<EngineSession, EvalError>) -> bool {
    match got {
        Ok(recovered) => {
            let want: Vec<String> = state.oracle.suffixes.iter().cloned().collect();
            same(
                "suffix (recovered)",
                recovered.answers("suffix"),
                want.clone(),
            ) && same("suffix (live)", state.session.answers("suffix"), want)
        }
        Err(e) => {
            eprintln!("durable_ingest recovery failed: {e}");
            false
        }
    }
}

fn is_recovery(i: usize, sizes: &Sizes) -> bool {
    i % sizes.recover_every == sizes.recover_every - 1
}

/// Run op `i` untraced; returns its kind, latency and correctness.
fn step(state: &mut State, ctx: &Ctx, i: usize, sizes: &Sizes) -> (&'static str, Lap, bool) {
    if is_recovery(i, sizes) {
        let copy = copy_dir(state);
        let (engine, program) = parsed();
        let t = Stopwatch::start();
        let got = EngineSession::open_durable(
            engine,
            &program,
            ctx.config(),
            &copy,
            DurabilityOptions::default(),
        );
        let latency = t.lap();
        let ok = recovery_ok(state, got);
        let _ = std::fs::remove_dir_all(&copy);
        return ("recovery", latency, ok);
    }
    let read = fresh_read(state, sizes.read_len);
    state.oracle.add(&read);
    let s = &mut state.session;
    let t = Stopwatch::start();
    let got = s.assert_fact("read", &[&read]).and_then(|new| {
        s.run()?;
        Ok(new)
    });
    let latency = t.lap();
    ("update", latency, commit_ok(state, got))
}

/// Ops per block: twice the snapshot interval, so that every block writes
/// a snapshot during its commits.
fn block_ops() -> usize {
    2 * DurabilityOptions::default().snapshot_every
}

pub fn run(ctx: &Ctx) -> Report {
    // Bytes on disk over bytes of fact text asserted, at every recovery.
    let mut storage = Vec::new();
    let mut report = timed_loop(
        ctx,
        "update",
        block_ops(),
        |block| setup(ctx, &SIZES, "block", block as u64),
        |state, i| {
            let out = step(state, ctx, i, &SIZES);
            if out.0 == "recovery" {
                storage.push(dir_bytes(&state.dir) as f64 / state.oracle.user_bytes as f64);
            }
            out
        },
    );
    report.info("storage_bytes_per_user_byte", quantile(storage, 0.5), "B/B");
    report
}

/// Newest snapshot's covered record count.
fn newest_snapshot(dir: &Path) -> u64 {
    list_snapshots(dir)
        .ok()
        .and_then(|s| s.first().map(|e| e.0))
        .unwrap_or(0)
}

/// Op `i`, traced. A recovery op additionally writes a checkpoint of the
/// recovered copy outside the op span, to time and size one snapshot.
fn traced_step(
    state: &mut State,
    ctx: &Ctx,
    i: usize,
    sizes: &Sizes,
    tr: &mut Tracer,
    counters: &mut Counters,
) -> bool {
    if is_recovery(i, sizes) {
        let copy = copy_dir(state);
        let (engine, program) = parsed();
        let got = tr.span("op", |tr| {
            tr.span("wal.recover", |_| {
                EngineSession::open_durable(
                    engine,
                    &program,
                    ctx.config(),
                    &copy,
                    DurabilityOptions::default(),
                )
            })
        });
        let live_records = state.session.durable_records().unwrap_or(0);
        counters.mean(
            "wal.replay_records",
            (live_records - newest_snapshot(&copy)) as f64,
        );
        let ok = match got {
            Ok(mut recovered) => {
                let path = tr.span("snapshot.checkpoint", |_| recovered.checkpoint());
                if let Ok(path) = path {
                    let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
                    counters.mean("snapshot.bytes", bytes as f64);
                }
                recovery_ok(state, Ok(recovered))
            }
            Err(e) => recovery_ok(state, Err(e)),
        };
        let _ = std::fs::remove_dir_all(&copy);
        return ok;
    }
    let read = fresh_read(state, sizes.read_len);
    state.oracle.add(&read);
    let s = &mut state.session;
    let before = s.stats();
    let (wal_before, records_before) = (s.wal_len().unwrap_or(0), s.durable_records().unwrap_or(0));
    let snap_before = newest_snapshot(&state.dir);
    let got = tr.span("op", |tr| -> Result<bool, EvalError> {
        let new = tr.span("wal.append", |_| s.assert_fact("read", &[&read]))?;
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
    // Admitted = derived facts: the committed read itself is asserted.
    counters.add(
        "admit.facts",
        after.facts as f64 - before.facts as f64 - 1.0,
    );
    counters.add(
        "admit.derivations",
        (after.derivations - before.derivations) as f64,
    );
    counters.mean("sequence.domain_size", after.domain_size as f64);
    // A snapshot truncates nothing, so the log only grows.
    counters.mean(
        "wal.bytes_per_commit",
        (s.wal_len().unwrap_or(0) - wal_before) as f64,
    );
    counters.mean(
        "wal.records",
        (s.durable_records().unwrap_or(0) - records_before) as f64,
    );
    if newest_snapshot(&state.dir) != snap_before {
        counters.add("snapshot.count", 1.0);
    }
    commit_ok(state, got)
}

pub fn run_traced(ctx: &Ctx, sizes: &Sizes) -> (Report, Tracer) {
    // Two sessions from the same seed see the same ops; each op runs on
    // the untraced one and then on the traced one.
    let mut untraced = setup(ctx, sizes, "untraced", 0);
    let mut traced = setup(ctx, sizes, "traced", 0);
    traced_loop(
        sizes.trace_ops,
        |i| step(&mut untraced, ctx, i, sizes),
        |i, tr, counters| traced_step(&mut traced, ctx, i, sizes, tr, counters),
    )
}
