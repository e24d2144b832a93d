//! Spans recorded around the benchmark's calls into each layer's public
//! functions, and the per-layer metrics derived from them.
//!
//! A span keeps its name, start, end, parent span and op id in memory; the
//! whole trace is written out once, when the run ends. Span names are
//! `<layer>.<call>`, where the layer is the library module the call enters
//! (`parser`, `compile`, `analysis`, `eval`, `sequence`, `transducer`,
//! `demand`, `session`, `wal`, `snapshot`, `engine`). The root span of each
//! timed op is named `op`; calls made outside it (probes: analyses
//! evaluation does not run, and replays that decompose a call the library
//! does not split, such as the demand scratch state) are roots of their
//! own. They show only in the per-call `*_ms` metrics, never in the traced
//! op time or a layer's self time.

use crate::common::{Lap, Report};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    /// Tag the spans that follow with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` inside a span named `name`; spans opened by `f` are its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        let span = &mut self.spans[idx as usize];
        span.start_ns = start;
        span.end_ns = end;
        out
    }

    /// Mean duration in ms of the spans named in `names`, 0 when none ran.
    fn mean_ms(&self, names: &[&str]) -> f64 {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .fold((0.0, 0usize), |(sum, n), s| (sum + s.ms(), n + 1));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Total duration in ms of the spans named `name`.
    fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Total self time per layer in ms over the spans inside `op` spans:
    /// each span's duration minus the durations of its children (children
    /// run inside their parent, one after another). Probe spans are left
    /// out, so the layers' self times add up to the traced op time.
    fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        let mut in_op = vec![false; self.spans.len()];
        // A parent is recorded before its children.
        for (i, s) in self.spans.iter().enumerate() {
            in_op[i] = match s.parent {
                Some(p) => {
                    child_ms[p as usize] += s.ms();
                    in_op[p as usize]
                }
                None => s.name == "op",
            };
        }
        let mut out = BTreeMap::new();
        for ((s, c), _) in self.spans.iter().zip(child_ms).zip(in_op).filter(|x| x.1) {
            *out.entry(s.layer()).or_insert(0.0) += s.ms() - c;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// Counts gathered at the same call boundaries as the spans: a name
/// recorded with `mean` reports the mean of its values, one recorded with
/// `add` their total.
#[derive(Default)]
pub struct Counters {
    sums: BTreeMap<&'static str, (f64, usize)>,
}

impl Counters {
    pub fn mean(&mut self, name: &'static str, value: f64) {
        let e = self.sums.entry(name).or_insert((0.0, 0));
        e.0 += value;
        e.1 += 1;
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        self.sums.entry(name).or_insert((0.0, 1)).0 += value;
    }

    fn get(&self, name: &str) -> f64 {
        self.sums.get(name).map_or(0.0, |&(s, n)| s / n as f64)
    }

    /// `eval.admit_ratio`: derived facts admitted over derivations
    /// attempted, both totalled over the run (`admit.facts`,
    /// `admit.derivations`).
    fn admit_ratio(&self) -> f64 {
        let attempted = self.get("admit.derivations");
        if attempted > 0.0 {
            self.get("admit.facts") / attempted
        } else {
            0.0
        }
    }
}

/// Timing metrics: `(metric, span names it averages over)`. A call may
/// feed two metrics: `EngineSession::run` is the session's round loop, so
/// it counts toward both `session.run_ms` and `eval.run_ms`.
const SPAN_METRICS: &[(&str, &[&str])] = &[
    ("parser.parse_ms", &["parser.parse"]),
    ("compile.compile_ms", &["compile.compile"]),
    ("analysis.analyze_ms", &["analysis.analyze"]),
    ("analysis.fuse_ms", &["analysis.fuse"]),
    ("analysis.magic_ms", &["analysis.magic"]),
    ("eval.run_ms", &["eval.run", "session.run"]),
    ("sequence.seed_ms", &["sequence.seed"]),
    ("transducer.run_ms", &["transducer.run"]),
    ("demand.query_ms", &["demand.query_bound"]),
    ("demand.scratch_build_ms", &["demand.scratch_build"]),
    ("demand.cone_run_ms", &["demand.cone_run"]),
    ("session.assert_ms", &["session.assert", "wal.append"]),
    ("session.run_ms", &["session.run"]),
    ("session.retract_ms", &["session.retract"]),
    ("wal.append_ms", &["wal.append"]),
    ("wal.recover_ms", &["wal.recover"]),
    ("snapshot.checkpoint_ms", &["snapshot.checkpoint"]),
    ("engine.render_ms", &["engine.render"]),
];

/// Count metrics set by the workloads, with their units.
const COUNT_METRICS: &[(&str, &str)] = &[
    ("eval.rounds", "count"),
    ("eval.derivations", "count"),
    ("eval.facts", "count"),
    ("eval.admit_ratio", "ratio"),
    ("sequence.domain_size", "count"),
    ("sequence.store_seqs", "count"),
    ("transducer.calls", "count"),
    ("transducer.steps", "count"),
    ("demand.scratch_facts", "count"),
    ("demand.answers_per_scratch_fact", "ratio"),
    ("wal.bytes_per_commit", "B"),
    ("wal.records", "count"),
    ("wal.replay_records", "count"),
    ("snapshot.bytes", "B"),
    ("snapshot.count", "count"),
];

/// The layers whose self time is reported, as `<layer>.self_ms`: those
/// with a call inside an op. Transducer calls run inside `eval.run` and
/// snapshots inside `wal.append`, with no public entry point of their own,
/// so their time is their caller's.
const LAYERS: &[&str] = &[
    "parser", "compile", "analysis", "eval", "sequence", "demand", "session", "wal", "engine",
];

/// Every per-layer metric name with its unit, in report order. The traced
/// run prints all of them on every workload; a layer a workload bypasses
/// reads 0.
#[cfg(test)]
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = SPAN_METRICS
        .iter()
        .map(|(m, _)| ((*m).to_string(), "ms"))
        .collect();
    out.extend(COUNT_METRICS.iter().map(|&(m, u)| (m.to_string(), u)));
    out.extend(LAYERS.iter().map(|l| (format!("{l}.self_ms"), "ms")));
    out.extend([
        ("trace.untraced_op_ms".to_string(), "ms"),
        ("trace.traced_op_ms".to_string(), "ms"),
        ("trace.overhead_ms".to_string(), "ms"),
        ("trace.spans_per_op".to_string(), "count"),
    ]);
    out
}

/// Derive every per-layer metric from a traced pass of `ops` ops, given
/// the untraced pass's mean op time over the same ops.
fn per_layer(
    tracer: &Tracer,
    counters: &Counters,
    ops: usize,
    untraced_op_ms: f64,
) -> Vec<(String, f64, &'static str)> {
    let ops_f = ops.max(1) as f64;
    let mut out = Vec::new();
    for (metric, names) in SPAN_METRICS {
        out.push(((*metric).to_string(), tracer.mean_ms(names), "ms"));
    }
    for &(metric, unit) in COUNT_METRICS {
        let value = if metric == "eval.admit_ratio" {
            counters.admit_ratio()
        } else {
            counters.get(metric)
        };
        out.push((metric.to_string(), value, unit));
    }
    let self_ms = tracer.self_ms_by_layer();
    for layer in LAYERS {
        let total = self_ms.get(layer).copied().unwrap_or(0.0);
        out.push((format!("{layer}.self_ms"), total / ops_f, "ms"));
    }
    let traced_op_ms = tracer.total_ms("op") / ops_f;
    out.push(("trace.untraced_op_ms".to_string(), untraced_op_ms, "ms"));
    out.push(("trace.traced_op_ms".to_string(), traced_op_ms, "ms"));
    out.push((
        "trace.overhead_ms".to_string(),
        traced_op_ms - untraced_op_ms,
        "ms",
    ));
    out.push((
        "trace.spans_per_op".to_string(),
        tracer.spans.len() as f64 / ops_f,
        "count",
    ));
    out
}

/// The traced run over `ops` ops. Op `i` runs untraced, through `step`,
/// which returns its kind, time and correctness, and then traced, through
/// `traced_step`, which returns its correctness; both passes see the same
/// machine conditions, so their difference is the tracing overhead.
pub fn traced_loop(
    ops: usize,
    mut step: impl FnMut(usize) -> (&'static str, Lap, bool),
    mut traced_step: impl FnMut(usize, &mut Tracer, &mut Counters) -> bool,
) -> (Report, Tracer) {
    let mut report = Report::default();
    let mut untraced_ms = 0.0;
    let mut tr = Tracer::default();
    let mut counters = Counters::default();
    for i in 0..ops {
        let (_, lap, ok) = step(i);
        untraced_ms += lap.wall_ms;
        report.op(ok);
        tr.set_op(i as u64);
        report.op(traced_step(i, &mut tr, &mut counters));
    }
    report.metrics = per_layer(&tr, &counters, ops, untraced_ms / ops.max(1) as f64);
    (report, tr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_skips_probes() {
        let mut t = Tracer::default();
        t.span("op", |t| {
            t.span("eval.run", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        t.span("analysis.analyze", |_| {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let by_layer = t.self_ms_by_layer();
        assert!(by_layer["eval"] >= 2.0);
        assert!(by_layer["op"] < by_layer["eval"]);
        assert!(!by_layer.contains_key("analysis"), "probes are not op time");
        let total: f64 = by_layer.values().sum();
        assert!((total - t.total_ms("op")).abs() < 1e-9);
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
