//! Shared pieces of every workload: the seeded generator, latency samples,
//! set-up timing, process metrics and the per-run report.

use seqlog_core::EvalConfig;
use std::time::Instant;

/// Match-phase workers (`EvalConfig::threads`), pinned. One: on a 2-vCPU
/// virtual machine shared with other guests, two workers made a round wait
/// on whichever vCPU was descheduled, which more than doubled
/// `durable_ingest`'s commit p90.
pub const THREADS: usize = 1;

/// What one workload run needs to know.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Generator seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Directory for trace files and durable-session state.
    pub out_dir: std::path::PathBuf,
}

impl Ctx {
    /// The evaluation configuration every workload uses: defaults with the
    /// pinned thread count.
    pub fn config(&self) -> EvalConfig {
        EvalConfig::with_threads(THREADS)
    }
}

/// SplitMix64: small, seedable, and stable across platforms.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`, so op `i` sees the same
    /// inputs whatever ran before it.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A random word of `len` letters drawn from `letters`.
    pub fn word(&mut self, letters: &[u8], len: usize) -> String {
        (0..len)
            .map(|_| letters[self.below(letters.len())] as char)
            .collect()
    }
}

/// Process CPU time in seconds (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// The gated timings use CPU time rather than wall time: on a virtual
/// machine whose vCPUs other guests share, the hypervisor deschedules the
/// benchmark for 5 to 20 % of a run, and that steal time, which varies from
/// minute to minute, moves wall-clock quantiles by more than any bound a
/// regression check could use. The engine runs on the calling thread
/// (`THREADS` is 1) and makes no blocking calls on these workloads (the
/// log is flushed to the OS, never fsynced), so CPU time is the op's
/// latency without the steal. Wall-clock figures are printed beside them.
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant the kernel
    // supports; the call writes only `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Wall-clock and CPU time of one op, in milliseconds, and the CPU time
/// at the reference clock (see [`RefClock`]; the CPU time itself until
/// the timed loop rescales it).
#[derive(Clone, Copy, Debug, Default)]
pub struct Lap {
    pub wall_ms: f64,
    pub cpu_ms: f64,
    pub ref_ms: f64,
}

/// A started stopwatch reading both clocks.
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    pub fn lap(&self) -> Lap {
        let cpu_ms = (process_cpu_s() - self.cpu_s) * 1e3;
        Lap {
            cpu_ms,
            wall_ms: self.wall.elapsed().as_secs_f64() * 1e3,
            ref_ms: cpu_ms,
        }
    }
}

/// Keys inserted by one reading of the reference kernel.
const REF_INSERTS: u32 = 2000;

/// The reference kernel's typical CPU time, in ms, on the 2-vCPU Xeon
/// guest the bounds were set on; it fixes the unit of `ref` times.
const REF_NOMINAL_MS: f64 = 0.3;

/// How often the timed loop reads the reference kernel, in seconds.
const REF_EVERY_S: f64 = 0.025;

/// Readings of the kernel whose median scales an op: one reading may land
/// in a burst that the op beside it missed.
const REF_READINGS: usize = 3;

/// The host's current speed, read from a fixed kernel of the kind of work
/// the engine does — boxed two-word keys allocated, hashed and inserted
/// into a `HashMap` — made only of standard-library code, so no change to
/// the engine moves it. On the guest the bounds were set on, other guests
/// switch every op's CPU time between two speeds, up to 1.9× apart, for
/// tens of milliseconds to several seconds at a time. A dependent
/// multiply chain, which touches no memory, did not see the switches (its
/// correlation with the query time of `session_mixed` was 0.5); this
/// kernel slows with them. The timed loop scales each CPU time by the
/// kernel's nominal time over the median of its latest readings, so a
/// `ref` time is CPU time at the reference speed.
struct RefClock {
    /// The latest readings, in ms, oldest first.
    readings: Vec<f64>,
    /// Every reading of the run, for the `ref_kernel_p50_ms` figure.
    all: Vec<f64>,
    read_at: Instant,
}

impl RefClock {
    fn new() -> Self {
        let first = Self::kernel_ms();
        Self {
            readings: vec![first],
            all: vec![first],
            read_at: Instant::now(),
        }
    }

    fn kernel_ms() -> f64 {
        let t = Stopwatch::start();
        let mut rng = Rng(7);
        let mut map = std::collections::HashMap::new();
        for _ in 0..REF_INSERTS {
            let key: Box<[u32]> = vec![rng.next_u64() as u32 & 4095, 3].into();
            *map.entry(key).or_insert(0u32) += 1;
        }
        std::hint::black_box(&map);
        // Freeing is timed too: the engine's ops free what they allocate.
        drop(map);
        t.lap().cpu_ms
    }

    /// Read the kernel when the last reading is older than [`REF_EVERY_S`].
    fn refresh(&mut self) {
        if self.read_at.elapsed().as_secs_f64() >= REF_EVERY_S {
            if self.readings.len() == REF_READINGS {
                self.readings.remove(0);
            }
            let ms = Self::kernel_ms();
            self.readings.push(ms);
            self.all.push(ms);
            self.read_at = Instant::now();
        }
    }

    /// `lap` with its reference-clock time set.
    fn scale(&self, lap: Lap) -> Lap {
        let kernel_ms = quantile(self.readings.clone(), 0.5);
        Lap {
            ref_ms: lap.cpu_ms * REF_NOMINAL_MS / kernel_ms,
            ..lap
        }
    }
}

/// Ops per block of the timed loop, unless a workload needs longer blocks.
/// Every block starts from a freshly built state, so each block makes the
/// same kind of ops on the same kind of state whatever the engine's speed.
pub const BLOCK_OPS: usize = 32;

/// Most blocks whose op times are stored. Past it every other stored block
/// is dropped and only every `stride`-th block is stored from then on, a
/// uniform sample over the run; this keeps the benchmark's own memory,
/// which `peak_rss_mb` includes, from growing with the engine's speed.
const STORED_BLOCKS: usize = 256;

/// One block of the timed loop.
#[derive(Debug)]
struct Block {
    index: usize,
    /// Time to build the block's state.
    build: Lap,
    /// The kinds and times of its ops.
    ops: Vec<(&'static str, Lap)>,
}

/// Op and build times by block.
#[derive(Debug)]
pub struct Samples {
    block_ops: usize,
    blocks: Vec<Block>,
    /// Only blocks whose index is a multiple of `stride` are stored.
    stride: usize,
}

impl Samples {
    /// Samples of a loop whose blocks hold `block_ops` ops.
    pub fn new(block_ops: usize) -> Self {
        Self {
            block_ops,
            blocks: Vec::new(),
            stride: 1,
        }
    }

    /// Start block `index`, whose state took `build` to make.
    pub fn start_block(&mut self, index: usize, build: Lap) {
        if !index.is_multiple_of(self.stride) {
            return;
        }
        if self.blocks.len() == STORED_BLOCKS {
            self.stride *= 2;
            self.blocks.retain(|b| b.index % self.stride == 0);
        }
        if index.is_multiple_of(self.stride) {
            let ops = Vec::with_capacity(self.block_ops);
            self.blocks.push(Block { index, build, ops });
        }
    }

    /// Record op `i` of the timed loop.
    pub fn record(&mut self, i: usize, kind: &'static str, lap: Lap) {
        if let Some(b) = self.blocks.last_mut() {
            if b.index == i / self.block_ops {
                b.ops.push((kind, lap));
            }
        }
    }

    fn laps(&self) -> impl Iterator<Item = &(&'static str, Lap)> {
        self.blocks.iter().flat_map(|b| &b.ops)
    }

    /// Reference-clock time spent in ops, in seconds: input generation and
    /// answer checks are not part of it.
    fn busy_ref_s(&self) -> f64 {
        self.laps().map(|l| l.1.ref_ms).sum::<f64>() / 1e3
    }

    /// The op kinds stored, in name order.
    fn kinds(&self) -> Vec<&'static str> {
        let mut kinds: Vec<_> = self.laps().map(|l| l.0).collect();
        kinds.sort_unstable();
        kinds.dedup();
        kinds
    }

    /// The stored times of one kind's ops, read by `f`.
    fn times(&self, kind: &str, f: fn(&Lap) -> f64) -> Vec<f64> {
        let of_kind = self.laps().filter(|l| l.0 == kind);
        of_kind.map(|l| f(&l.1)).collect()
    }

    /// The stored build times, read by `f`.
    fn builds(&self, f: fn(&Lap) -> f64) -> Vec<f64> {
        self.blocks.iter().map(|b| f(&b.build)).collect()
    }
}

/// Nearest-rank quantile of `values` (`NaN` when empty).
pub fn quantile(mut values: Vec<f64>, q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// The timed loop. Ops `i = 0, 1, …` run through `step`, which returns
/// the op's kind, time and correctness, until `ctx.seconds` have passed.
/// Each block of `block_ops` ops starts from a state built afresh by
/// `build(block)`, timed as set-up, so set-up is measured many times,
/// spread over the run. Reports the end-to-end metrics with `primary` the
/// kind behind the op quantiles.
pub fn timed_loop<S>(
    ctx: &Ctx,
    primary: &str,
    block_ops: usize,
    mut build: impl FnMut(usize) -> S,
    mut step: impl FnMut(&mut S, usize) -> (&'static str, Lap, bool),
) -> Report {
    let mut report = Report::default();
    let mut samples = Samples::new(block_ops);
    let mut clock = RefClock::new();
    let mut state = None;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds);
    let mut i = 0;
    while Instant::now() < deadline {
        if i % block_ops == 0 {
            drop(state.take());
            let t = Stopwatch::start();
            state = Some(build(i / block_ops));
            samples.start_block(i / block_ops, clock.scale(t.lap()));
        }
        clock.refresh();
        let (kind, lap, ok) = step(state.as_mut().expect("built above"), i);
        samples.record(i, kind, clock.scale(lap));
        report.op(ok);
        i += 1;
    }
    report.end_to_end(&samples, primary);
    report.info("blocks", i.div_ceil(block_ops) as f64, "count");
    report.info("ref_kernel_p50_ms", quantile(clock.all, 0.5), "ms");
    report
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Metrics for the final result line, `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Further figures printed for people, not part of the result line.
    pub info: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Count one op; `ok` is false when it errored or answered wrongly.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        self.info.push((name.to_string(), value, unit));
    }

    /// The end-to-end metrics every workload reports (see `BENCHMARK.json`)
    /// over every stored block, with `primary` naming the op kind behind
    /// the op quantiles; plus, as information, CPU and wall-clock figures
    /// and every kind's quantiles and sample counts.
    pub fn end_to_end(&mut self, all: &Samples, primary: &str) {
        let reference = |l: &Lap| l.ref_ms;
        let cpu = |l: &Lap| l.cpu_ms;
        let wall = |l: &Lap| l.wall_ms;
        let ref_q = |q| quantile(all.times(primary, reference), q);
        self.metric("setup_s", quantile(all.builds(reference), 0.5) / 1e3, "s");
        self.metric(
            "ops_per_ref_s",
            all.laps().count() as f64 / all.busy_ref_s(),
            "1/s",
        );
        self.metric("op_ref_p50_ms", ref_q(0.5), "ms");
        self.metric("op_ref_p90_ms", ref_q(0.9), "ms");
        self.metric("peak_rss_mb", peak_rss_mb(), "MB");
        self.info("setup_cpu_s", quantile(all.builds(cpu), 0.5) / 1e3, "s");
        self.info("setup_wall_s", quantile(all.builds(wall), 0.5) / 1e3, "s");
        self.info("blocks_stored", all.blocks.len() as f64, "count");
        let clocks = [
            ("ref", reference as fn(&Lap) -> f64),
            ("cpu", cpu),
            ("wall", wall),
        ];
        for kind in all.kinds() {
            for (clock, f) in clocks {
                for (q, label) in [(0.5, "p50"), (0.9, "p90")] {
                    self.info(
                        &format!("{kind}_{clock}_{label}_ms"),
                        quantile(all.times(kind, f), q),
                        "ms",
                    );
                }
            }
            let count = all.times(kind, cpu).len();
            self.info(&format!("{kind}_samples"), count as f64, "count");
        }
        self.info(
            "error_rate",
            self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
        );
    }
}

/// Compare two answer sets; on mismatch, say what differs on stderr.
pub fn same<T: Ord + std::fmt::Debug>(what: &str, mut got: Vec<T>, mut want: Vec<T>) -> bool {
    got.sort();
    got.dedup();
    want.sort();
    want.dedup();
    if got == want {
        return true;
    }
    let extra: Vec<_> = got
        .iter()
        .filter(|g| want.binary_search(g).is_err())
        .take(3)
        .collect();
    let missing: Vec<_> = want
        .iter()
        .filter(|w| got.binary_search(w).is_err())
        .take(3)
        .collect();
    eprintln!(
        "wrong answer for {what}: {} rows, expected {}; extra {extra:?}, missing {missing:?}",
        got.len(),
        want.len()
    );
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_blocks_stay_bounded_and_uniform() {
        let mut samples = Samples::new(BLOCK_OPS);
        let blocks = 5 * STORED_BLOCKS + 3;
        for i in 0..blocks * BLOCK_OPS {
            let lap = Lap {
                ref_ms: (i / BLOCK_OPS) as f64,
                ..Lap::default()
            };
            if i % BLOCK_OPS == 0 {
                samples.start_block(i / BLOCK_OPS, lap);
            }
            samples.record(i, "eval", lap);
        }
        assert!(samples.blocks.len() <= STORED_BLOCKS);
        // The stride doubled at blocks 256, 512 and 1024.
        assert_eq!(samples.stride, 8);
        for (k, b) in samples.blocks.iter().enumerate() {
            assert_eq!(b.index, k * samples.stride);
            assert_eq!(b.ops.len(), BLOCK_OPS);
            assert_eq!(b.ops[0].1.ref_ms, b.index as f64);
        }
    }
}
