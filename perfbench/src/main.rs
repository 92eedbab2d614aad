//! `perfbench` — the end-to-end benchmark of the OptiPart user paths.
//!
//! ```text
//! perfbench --workload <cold_ladder|amr_replay|serve_stream> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload makes its inputs from `--seed`, runs timed ops for about
//! `--seconds`, checks every output, and prints a human-readable report
//! followed, as the last line, by one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (tracing off); with `--trace 1` they are
//! the per-layer ones, from host spans the benchmark records around its own
//! calls into each layer (see `spans.rs`). `perfbench/run.sh` builds the
//! library and the `optipart-serve` binary and then runs this program.

mod alloc;
mod amr;
mod cold;
mod pinned;
mod serve;
mod spans;

use std::collections::BTreeMap;
use std::process::exit;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Virtual ranks of the partitioning workloads.
pub const P: usize = 64;

/// End-to-end metrics (tracing off), reported by every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), reported by every workload; a layer a
/// workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("core.optipart_s", "s"),
    ("core.quality_evals", "count"),
    ("core.quality_eval_s", "s"),
    ("core.quality_share", "ratio"),
    ("core.treesort_s", "s"),
    ("core.refine_rounds", "count"),
    ("core.redistribute_ms", "ms"),
    ("core.warm_hits", "count"),
    ("core.warm_replays", "count"),
    ("core.warm_colds", "count"),
    ("sfc.face_keys_s", "s"),
    ("octree.mesh_build_s", "s"),
    ("octree.step_mesh_ms", "ms"),
    ("fem.mesh_build_ms", "ms"),
    ("fem.ghost_elements", "count"),
    ("fem.cg_solve_ms", "ms"),
    ("fem.cg_iterations", "count"),
    ("mpisim.bytes", "B"),
    ("mpisim.msgs", "count"),
    ("mpisim.collectives", "count"),
    ("mpisim.sync_points", "count"),
    ("mpisim.par_speedup", "ratio"),
    ("alloc.count", "count"),
    ("alloc.bytes", "B"),
    ("serve.parse_us", "us"),
    ("scenario.build_tree_us", "us"),
    ("serve.engine_pass_hit_us", "us"),
    ("serve.engine_pass_cold_us", "us"),
    ("serve.write_us", "us"),
    ("serve.server_wall_p50_us", "us"),
    ("serve.wire_p50_us", "us"),
    ("serve.warm_request_rate", "ratio"),
    ("serve.batched_frac", "ratio"),
    ("serve.shard_imbalance", "ratio"),
    ("bench.generator_late_p99_ms", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
    ("ledger.sfc_frac", "ratio"),
    ("ledger.octree_frac", "ratio"),
    ("ledger.core_frac", "ratio"),
    ("ledger.mpisim_frac", "ratio"),
    ("ledger.fem_frac", "ratio"),
    ("ledger.scenario_frac", "ratio"),
    ("ledger.serve_frac", "ratio"),
    ("ledger.other_frac", "ratio"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Set when the run cannot be trusted as a measurement (the open-loop
    /// sender fell behind): reported as not correct, never as slow.
    pub invalid: Option<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable report lines (metrics under their workload names,
    /// ledger, checks).
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, v: f64) {
        self.metrics.insert(name.into(), v);
    }

    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Records a failed check; the first few are printed.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failed <= 5 {
            self.lines.push(format!("CHECK FAILED: {}", what.into()));
        }
    }

    /// The layer ledger: self time per layer as a share of the ops' total
    /// wall time, printed and stored as `ledger.<layer>_frac`. The self
    /// times tile the op spans by construction (see `Spans::ledgers`); the
    /// check is that the op spans cover the ops as the workload timed them,
    /// `op_wall_s` — each traced op's wall time from its own clock.
    pub fn ledger(&mut self, spans: &spans::Spans, op_name: &str, op_wall_s: &[f64]) {
        let ledgers = spans.ledgers(op_name);
        let wall: f64 = ledgers.iter().map(|l| l.wall_s).sum();
        let mut row = format!("ledger ({} traced ops, {:.3} s wall):", ledgers.len(), wall);
        for (k, layer) in spans::LAYERS.iter().enumerate() {
            let s: f64 = ledgers.iter().map(|l| l.self_s[k]).sum();
            let frac = if wall > 0.0 { s / wall } else { 0.0 };
            row.push_str(&format!(" {layer}={s:.4}s ({:.1}%)", 100.0 * frac));
            self.set(format!("ledger.{layer}_frac"), frac);
        }
        self.line(row);
        let mut calls: BTreeMap<&str, f64> = BTreeMap::new();
        for l in &ledgers {
            for (name, s) in &l.calls {
                *calls.entry(name).or_default() += s;
            }
        }
        let mut calls: Vec<(&str, f64)> = calls.into_iter().collect();
        calls.sort_by(|a, b| b.1.total_cmp(&a.1));
        let top: Vec<String> = calls
            .iter()
            .take(4)
            .map(|(n, s)| format!("{n} {:.1}%", 100.0 * s / wall.max(f64::MIN_POSITIVE)))
            .collect();
        self.line(format!("largest layer calls: {}", top.join(", ")));
        let timed: f64 = op_wall_s.iter().sum();
        self.line(format!(
            "ledger check: {} op spans cover {wall:.6} s; the same {} ops timed {timed:.6} s",
            ledgers.len(),
            op_wall_s.len()
        ));
        if ledgers.len() != op_wall_s.len() || (wall - timed).abs() > 0.01 * timed + 1e-3 {
            self.fail(format!(
                "the ledger's {} op spans ({wall} s) do not cover the {} timed ops ({timed} s)",
                ledgers.len(),
                op_wall_s.len()
            ));
        }
    }
}

/// Sets `core.optipart_s`, `core.quality_evals`, `core.quality_eval_s` and
/// the derived estimate `core.quality_share` = evals × eval_s / optipart_s
/// from per-op samples, and prints the estimate with its parts.
pub fn quality_share(o: &mut Outcome, evals: &[f64], eval_s: &[f64], optipart_s: &[f64]) {
    let (evals, eval_s, opt_s) = (median(evals), median(eval_s), median(optipart_s));
    let share = if opt_s > 0.0 {
        evals * eval_s / opt_s
    } else {
        0.0
    };
    o.set("core.optipart_s", opt_s);
    o.set("core.quality_evals", evals);
    o.set("core.quality_eval_s", eval_s);
    o.set("core.quality_share", share);
    o.line(format!(
        "core.quality_share = {share:.3} (estimate: {evals} evals x {eval_s:.4} s / {opt_s:.4} s optipart)"
    ));
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The tail: the highest percentile with at least 10 samples beyond it
/// (never below the median). Returns `(value, percentile, samples)`.
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    if v.is_empty() {
        return (0.0, 0.0, 0);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let i = n.saturating_sub(11).max(n / 2);
    (s[i], 100.0 * (i + 1) as f64 / n as f64, n)
}

/// Nearest-rank percentile `q` in `[0, 1]`.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let i = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1;
    s[i]
}

/// SplitMix64 finalizer folded over a value — the op signature mixer.
pub fn mix(h: u64, x: u64) -> u64 {
    let mut z = h ^ x.rotate_left(23);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Resets the peak resident set of process `pid` (`"self"` for this one)
/// to its current resident set, so the next `peak_rss_mb` reads the peak
/// since now.
pub fn reset_peak_rss(pid: &str) {
    let _ = std::fs::write(format!("/proc/{pid}/clear_refs"), "5");
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one), MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(busy, stolen)` CPU ticks of this machine since boot, summed over its
/// CPUs, from the first line of `/proc/stat`. Busy is user, nice, system,
/// irq and softirq time; stolen is the time the hypervisor ran other
/// tenants while this machine had work. Zeros where the kernel does not
/// report it.
pub fn cpu_ticks() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().unwrap_or(0.0))
        .collect();
    let at = |i: usize| f.get(i).copied().unwrap_or(0.0);
    (at(0) + at(1) + at(2) + at(5) + at(6), at(7))
}

/// Share of the busy-or-stolen CPU time between two `cpu_ticks` readings
/// that the hypervisor stole.
pub fn stolen_share(a: (f64, f64), b: (f64, f64)) -> f64 {
    let (busy, stolen) = (b.0 - a.0, b.1 - a.1);
    if busy + stolen > 0.0 {
        stolen / (busy + stolen)
    } else {
        0.0
    }
}

/// A wall-clock stopwatch net of hypervisor steal. On a shared virtual
/// machine the host preempts the guest's CPUs for other tenants; that
/// time passes on the wall clock while this program cannot run. Whether
/// an op keeps one CPU or all of them busy, its threads ran for the
/// unstolen share of the CPU time they asked for, so the op's time net of
/// steal is its wall time times that share. Reports both figures.
pub struct Stopwatch {
    start: std::time::Instant,
    ticks0: (f64, f64),
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: std::time::Instant::now(),
            ticks0: cpu_ticks(),
        }
    }

    /// `(wall seconds, wall seconds net of steal)`.
    pub fn read(&self) -> (f64, f64) {
        let wall = self.start.elapsed().as_secs_f64();
        (wall, wall * (1.0 - stolen_share(self.ticks0, cpu_ticks())))
    }
}

/// Prints the hypervisor's share of the busy CPU time since `ticks0`,
/// beside the op median before steal was taken out.
pub fn steal_line(o: &mut Outcome, ticks0: (f64, f64), raw_p50: f64) {
    o.line(format!(
        "host steal during the window: {:.1}% of busy CPU time; op p50 before taking steal out: {raw_p50:.6}",
        100.0 * stolen_share(ticks0, cpu_ticks())
    ));
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` with the engine's host thread budget pinned to `threads`, then
/// restores it to `nproc`.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let r = f();
    std::env::set_var("RAYON_NUM_THREADS", nproc().to_string());
    r
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: perfbench --workload <cold_ladder|amr_replay|serve_stream> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let Some(name) = k.strip_prefix("--") else {
            usage(&format!("unexpected argument '{k}'"));
        };
        let Some(v) = it.next() else {
            usage(&format!("--{name} needs a value"));
        };
        flags.insert(name.to_string(), v.clone());
    }
    let get = |k: &str| {
        flags
            .get(k)
            .cloned()
            .unwrap_or_else(|| usage(&format!("missing --{k}")))
    };
    let seconds: f64 = get("seconds")
        .parse()
        .unwrap_or_else(|_| usage("bad --seconds"));
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage("--seconds must be in (0, 600]");
    }
    Args {
        workload: get("workload"),
        seed: get("seed").parse().unwrap_or_else(|_| usage("bad --seed")),
        seconds,
        trace: match get("trace").as_str() {
            "0" => false,
            "1" => true,
            _ => usage("--trace must be 0 or 1"),
        },
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".to_string()
    }
}

fn main() {
    let args = parse_args();
    // The engine's host-thread budget equals the core count.
    std::env::set_var("RAYON_NUM_THREADS", nproc().to_string());
    let mut out = match args.workload.as_str() {
        "cold_ladder" => cold::run(&args),
        "amr_replay" => amr::run(&args),
        "serve_stream" => serve::run(&args),
        other => usage(&format!("unknown workload '{other}'")),
    };

    println!(
        "host: nproc={} thread_budget={} server_workers={} rustc=\"{}\" commit={} \
         workload={} seed={} seconds={} trace={} valid={}",
        nproc(),
        std::env::var("RAYON_NUM_THREADS").unwrap_or_default(),
        nproc(),
        std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        out.invalid.is_none(),
    );
    if let Some(why) = &out.invalid {
        out.line(format!("INVALID RUN: {why}"));
    }
    for l in &out.lines {
        println!("{l}");
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in table {
        let v = out.metrics.get(*name).copied().unwrap_or(0.0);
        println!("metric {name} = {v} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(v)
        ));
    }
    let attempted = out.attempted.max(1);
    println!(
        "metric failed_frac = {} ratio",
        out.failed as f64 / attempted as f64
    );
    let correct = out.failed == 0 && out.invalid.is_none() && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed,
        fields.join(", ")
    );
}

/// Where traced runs write their host-span trace (inside the checkout).
const OUT_DIR: &str = "perfbench/out";

/// Writes the traced run's host spans as Chrome `trace_event` JSON.
pub fn write_trace(sp: &spans::Spans, args: &Args, o: &mut Outcome) {
    let dir = std::path::Path::new(OUT_DIR);
    let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    let label = format!(
        "perfbench {} seed {} (host wall time)",
        args.workload, args.seed
    );
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, sp.chrome_json(&label))) {
        Ok(()) => o.line(format!("trace: {}", path.display())),
        Err(e) => o.fail(format!("cannot write {}: {e}", path.display())),
    }
}
