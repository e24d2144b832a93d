//! The repository benchmark: four workloads over the sequence-datalog
//! engine, one closed-loop client, answers checked on every op.
//!
//! ```text
//! cargo run --release --offline --manifest-path seqbench/Cargo.toml -- \
//!     --workload genome_batch --seed 1 --seconds 25 --trace 0
//! ```
//!
//! With `--trace 0` the timed loop runs untraced for `--seconds` seconds
//! and reports the end-to-end metrics. With `--trace 1` a fixed number of
//! ops runs twice from the same seed, untraced and then with spans around
//! every call into a library layer, and the per-layer metrics are
//! reported; the spans are written to `.bench_out/` under the working
//! directory. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Lines before it give
//! the host metadata and every figure by name and unit.

mod common;
mod durable;
mod genome;
mod paper;
mod session_mixed;
mod trace;

use common::{Ctx, Report, THREADS};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = [
    "genome_batch",
    "session_mixed",
    "durable_ingest",
    "paper_small",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Quote a string for JSON.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A metric value for JSON (non-finite values become `null`).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Host metadata, so results from different machines are never compared.
fn host_line(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let sha = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "host {{\"git_sha\":{},\"nproc\":{nproc},\"cpu\":{},\"threads\":{THREADS},\"seed\":{},\"workload\":{},\"seconds\":{},\"trace\":{}}}",
        json_str(&sha),
        json_str(&cpu),
        args.seed,
        json_str(&args.workload),
        args.seconds,
        args.trace
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("seqbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        out_dir: PathBuf::from(".bench_out"),
    };
    println!("{}", host_line(&args));
    let report: Report = if args.trace {
        let (report, tracer) = match args.workload.as_str() {
            "genome_batch" => genome::run_traced(&ctx, &genome::SIZES),
            "session_mixed" => session_mixed::run_traced(&ctx, &session_mixed::SIZES),
            "durable_ingest" => durable::run_traced(&ctx, &durable::SIZES),
            _ => paper::run_traced(&ctx, &paper::SIZES),
        };
        let path = ctx
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("seqbench: cannot write {}: {e}", path.display());
        }
        report
    } else {
        match args.workload.as_str() {
            "genome_batch" => genome::run(&ctx),
            "session_mixed" => session_mixed::run(&ctx),
            "durable_ingest" => durable::run(&ctx),
            _ => paper::run(&ctx),
        }
    };
    for (name, value, unit) in report.metrics.iter().chain(&report.info) {
        println!("metric {name} {value} {unit}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::Samples;

    fn ctx(seed: u64) -> Ctx {
        Ctx {
            seed,
            seconds: 1.0,
            out_dir: PathBuf::from(".bench_out/test"),
        }
    }

    /// Every count metric of a traced run (timings excluded).
    fn counts(report: &Report) -> Vec<(String, f64)> {
        assert!(report.attempted > 0);
        assert_eq!(report.failed, 0, "every traced op answers correctly");
        let names: Vec<String> = trace::per_layer_names()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let got: Vec<String> = report.metrics.iter().map(|m| m.0.clone()).collect();
        assert_eq!(got, names, "the traced run reports every per-layer metric");
        report
            .metrics
            .iter()
            .filter(|m| m.2 != "ms")
            .map(|m| (m.0.clone(), m.1))
            .collect()
    }

    /// Runs a traced workload twice from one seed: the counts must repeat
    /// bit for bit, and `expect_nonzero` must be counted.
    fn repeats(run: impl Fn(&Ctx) -> Report, expect_nonzero: &[&str]) {
        let a = counts(&run(&ctx(7)));
        let b = counts(&run(&ctx(7)));
        assert_eq!(a, b);
        for name in expect_nonzero {
            let v = a.iter().find(|m| m.0 == *name).expect("metric exists").1;
            assert!(v > 0.0, "{name} is {v}");
        }
    }

    #[test]
    fn genome_counts_repeat_exactly() {
        let sizes = genome::Sizes {
            reads: 3,
            read_len: 12,
            motifs: 4,
            motif_len: 2,
            datasets: 2,
            trace_ops: 3,
        };
        repeats(
            |c| genome::run_traced(c, &sizes).0,
            &["eval.derivations", "transducer.calls", "transducer.steps"],
        );
    }

    #[test]
    fn paper_counts_repeat_exactly() {
        let sizes = paper::Sizes {
            suites: 2,
            trace_ops: 3,
        };
        repeats(
            |c| paper::run_traced(c, &sizes).0,
            &["eval.rounds", "eval.derivations", "transducer.calls"],
        );
    }

    #[test]
    fn session_counts_repeat_exactly() {
        let sizes = session_mixed::Sizes {
            chains: 20,
            chain_nodes: 5,
            name_len: 6,
            removed: 3,
            trace_ops: 20,
        };
        repeats(
            |c| session_mixed::run_traced(c, &sizes).0,
            &["eval.derivations", "demand.scratch_facts"],
        );
    }

    #[test]
    fn durable_counts_repeat_exactly() {
        let sizes = durable::Sizes {
            base_reads: 10,
            read_len: 6,
            recover_every: 8,
            trace_ops: 40,
        };
        repeats(
            |c| durable::run_traced(c, &sizes).0,
            &[
                "eval.derivations",
                "wal.bytes_per_commit",
                "wal.replay_records",
                "snapshot.count",
                "snapshot.bytes",
            ],
        );
    }

    /// The `"name"` values of one section of `BENCHMARK.json`.
    fn names_in(section: &str) -> Vec<String> {
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let spec = include_str!("../../BENCHMARK.json");
        let e2e_at = spec.find("\"end_to_end\"").expect("end_to_end key");
        let layer_at = spec.find("\"per_layer\"").expect("per_layer key");
        assert!(e2e_at < layer_at);
        let mut report = Report::default();
        let mut samples = Samples::new(common::BLOCK_OPS);
        samples.start_block(0, common::Lap::default());
        samples.record(0, "eval", common::Lap::default());
        report.end_to_end(&samples, "eval");
        let e2e: Vec<String> = report.metrics.iter().map(|m| m.0.clone()).collect();
        assert_eq!(names_in(&spec[e2e_at..layer_at]), e2e);
        let layers: Vec<String> = trace::per_layer_names()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names_in(&spec[layer_at..]), layers);
        let workloads = names_in(&spec[..e2e_at]);
        assert_eq!(workloads, WORKLOADS);
    }
}
