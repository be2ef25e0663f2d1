//! The repository benchmark: three seeded closed-loop workloads driven
//! through the public APIs, with output oracles, every end-to-end metric
//! printed by name and unit, a traced per-layer pass, and a steadiness
//! mode.
//!
//! ```text
//! perfbench --workload <image_stream|sensor_serve|cluster_churn>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --steady <runs> [--workload <w>]... [--seconds <s>] [--seed <first>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; with `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! The human-readable report goes to standard error. Traced runs write
//! their spans as JSON lines under `.perfbench/`.

mod cluster;
mod image;
mod json;
mod layers;
mod perlayer;
mod sensor;
mod stats;
mod steady;
mod tally;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mpart_ir::IrError;

use crate::json::{result_line, Metric};
use crate::perlayer::{LayerMetric, Traced, DESIGNATED, OWN};
use crate::sensor::JournalStream;
use crate::tally::Tally;
use crate::trace::{layer_stats, Tracer};

/// Where runs keep scratch files and span dumps, relative to the
/// working directory (the checkout root).
const OUT_DIR: &str = ".perfbench";

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §5.1 image streaming over loopback TCP.
    ImageStream,
    /// §5.2 sensor processing as a journaled session server.
    SensorServe,
    /// Routed control plane with reconfiguration, churn and failover.
    ClusterChurn,
}

impl Workload {
    const ALL: [Workload; 3] =
        [Workload::ImageStream, Workload::SensorServe, Workload::ClusterChurn];

    fn name(self) -> &'static str {
        match self {
            Workload::ImageStream => "image_stream",
            Workload::SensorServe => "sensor_serve",
            Workload::ClusterChurn => "cluster_churn",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// The only source of generated inputs.
    pub seed: u64,
    /// Scratch directory for this process (journal files).
    pub scratch: PathBuf,
}

/// SplitMix64 of `seed` and `salt`: independent sub-seeds per block.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// In-flight frames of the windowed closed loop: one per core, at most two.
pub fn window() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).clamp(1, 2)
}

fn proc_status_kib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

/// Current resident set (KiB).
pub fn rss_kib() -> f64 {
    proc_status_kib("VmRSS:")
}

/// Peak resident set since the last [`reset_peak_rss`] (KiB).
pub fn peak_rss_kib() -> f64 {
    proc_status_kib("VmHWM:")
}

/// Clock ticks per second in `/proc/stat` (USER_HZ, fixed at 100 on the
/// architectures Linux ships).
pub const TICKS_PER_S: f64 = 100.0;

/// Clock ticks the hypervisor has stolen from this machine's CPUs since
/// boot (0 where the kernel does not account steal).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Restarts the kernel's peak-RSS count at the current RSS, so each
/// block's peak is its own rather than the largest of all blocks so far.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Hands the previous block's freed heap pages, in every allocator arena,
/// back to the kernel. Without it a block's peak depends on whether its
/// threads happen to draw the arena that still holds the last block's
/// freed (but resident) pages.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and is safe to
        // call from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Longest a run may take, as a multiple of `--seconds`, while it waits
/// out steal for enough undisturbed time.
const MAX_STRETCH: f64 = 2.0;

/// Runs `block(0)`, `block(1)`, … until `seconds` of undisturbed timed
/// load are in, or `MAX_STRETCH` times that in wall time has passed.
/// Every run is whole blocks, so each block's deployment, event count and
/// journal length are fixed by the seed alone.
pub fn run_blocks(
    seconds: f64,
    tally: &mut Tally,
    mut block: impl FnMut(u64, &mut Tally) -> Result<(), IrError>,
) -> Result<(), IrError> {
    let start = Instant::now();
    let mut b = 0;
    loop {
        trim_heap();
        reset_peak_rss();
        block(b, tally)?;
        b += 1;
        let waited = start.elapsed().as_secs_f64();
        if tally.undisturbed_s() >= seconds || waited >= seconds * MAX_STRETCH {
            return Ok(());
        }
    }
}

fn run_workload(
    w: Workload,
    cfg: &Cfg,
    seconds: f64,
    tr: &mut Tracer,
    tally: &mut Tally,
    stream: &mut JournalStream,
) -> Result<(), IrError> {
    match w {
        Workload::ImageStream => image::run(cfg, seconds, tr, tally),
        Workload::SensorServe => sensor::run(cfg, seconds, tr, tally, stream),
        Workload::ClusterChurn => cluster::run(cfg, seconds, tr, tally),
    }
}

fn layer_pass(
    w: Workload,
    cfg: &Cfg,
    stream: &JournalStream,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<(), IrError> {
    match w {
        Workload::ImageStream => image::pass(cfg, tr, tally),
        Workload::SensorServe => sensor::pass(cfg, stream, tr, tally),
        Workload::ClusterChurn => cluster::pass(cfg, tr, tally),
    }
}

/// The end-to-end metrics of a finished run.
fn end_to_end(t: &Tally) -> Result<Vec<Metric>, String> {
    let p50 = t.latency(50.0).ok_or("too few samples for a p50")?.value;
    let p99 = t.latency(99.0).ok_or("too few samples for a p99")?.value;
    let metrics = vec![
        Metric { name: "setup_s", value: t.setup_s(), unit: "s" },
        Metric { name: "ops_per_s", value: t.ops_per_s(), unit: "ops/s" },
        Metric { name: "lat_p50_us", value: p50, unit: "us" },
        Metric { name: "lat_p99_us", value: p99, unit: "us" },
        Metric {
            name: "wire_bytes_per_event",
            value: t.wire_bytes as f64 / t.events.max(1) as f64,
            unit: "B",
        },
        Metric {
            name: "peak_rss_mib",
            value: t.block_median(|b| b.peak_kib) / 1024.0,
            unit: "MiB",
        },
    ];
    match metrics.iter().find(|m| !m.value.is_finite() || m.value <= 0.0) {
        Some(m) => Err(format!("{} is {}", m.name, m.value)),
        None => Ok(metrics),
    }
}

fn report_run(w: Workload, t: &Tally) {
    let lat = stats::sorted(t.lat_us.clone());
    eprintln!("== {} (closed loop, untraced)", w.name());
    eprintln!(
        "  attempted {} completed {} failed {} failed_ratio {:.6} (1)",
        t.attempted,
        t.completed,
        t.failed,
        t.failed_ratio()
    );
    let quiet_setups: Vec<f64> = t.setups.iter().filter(|s| s.1).map(|s| s.0 * 1e3).collect();
    let (q1, q2, q3) = stats::quartiles(&quiet_setups).unwrap_or((f64::NAN, f64::NAN, f64::NAN));
    eprintln!(
        "  setup_s: median of {} undisturbed of {} deployments (q1 {q1:.3} median {q2:.3} \
         q3 {q3:.3} ms); timed {:.3} s over {} events",
        quiet_setups.len(),
        t.setups.len(),
        t.timed_s,
        t.events
    );
    eprintln!(
        "  measured {} of {} blocks ({:.1} s undisturbed by steal): ops_per_s and peak_rss_mib \
         are medians over them, latencies pool their samples",
        t.measured().len(),
        t.blocks.len(),
        t.undisturbed_s()
    );
    for p in [50.0, 99.0] {
        if let Some(q) = stats::percentile(&lat, p) {
            eprintln!(
                "  lat_p{p}_us: {:.1} us ({} samples, {} beyond)",
                q.value, q.samples, q.beyond
            );
        }
    }
    if let Some((p, q)) = stats::highest_reportable(&lat, &[99.99, 99.9, 99.0, 90.0, 50.0]) {
        eprintln!(
            "  highest reportable percentile: p{p} = {:.1} us ({} samples, {} beyond)",
            q.value, q.samples, q.beyond
        );
    }
    for (i, b) in t.blocks.iter().enumerate() {
        eprintln!(
            "  block {i}: {} ops in {:.3} s ({:.1} ops/s), peak RSS {:.1} MiB{}",
            b.completed,
            b.secs,
            b.completed as f64 / b.secs,
            b.peak_kib / 1024.0,
            if b.undisturbed { "" } else { ", disturbed by steal" }
        );
    }
    for note in &t.notes {
        eprintln!("  FAILED: {note}");
    }
}

fn e2e_mode(w: Workload, cfg: &Cfg, seconds: f64) -> Result<String, String> {
    let mut tally = Tally::default();
    run_workload(w, cfg, seconds, &mut Tracer::off(), &mut tally, &mut JournalStream::default())
        .map_err(|e| format!("{}: {e}", w.name()))?;
    report_run(w, &tally);
    let metrics = end_to_end(&tally)?;
    for m in &metrics {
        eprintln!("  {} = {} {}", m.name, m.value, m.unit);
    }
    Ok(result_line(tally.correct(), tally.attempted, tally.failed, &metrics))
}

/// A traced run: the named workload untraced and traced (the difference
/// is the tracing overhead), every workload's traced run and layer pass,
/// and the per-layer metrics each from the workload that loads the layer.
fn trace_mode(named: Workload, cfg: &Cfg, seconds: f64) -> Result<String, String> {
    let share = seconds / 4.0;
    let mut untraced = Tally::default();
    run_workload(
        named,
        cfg,
        share,
        &mut Tracer::off(),
        &mut untraced,
        &mut JournalStream::default(),
    )
    .map_err(|e| format!("{} untraced: {e}", named.name()))?;

    let (mut attempted, mut failed) = (untraced.attempted, untraced.failed);
    let mut by_workload: Vec<(Workload, Vec<LayerMetric>)> = Vec::new();
    let mut own: Vec<Metric> = Vec::new();
    // The named workload's traced run follows its untraced run directly,
    // so machine drift between the two stays out of the overhead.
    let others = Workload::ALL.into_iter().filter(|&w| w != named);
    for w in std::iter::once(named).chain(others) {
        let (mut run_tr, mut run_tally, mut stream) =
            (Tracer::on(), Tally::default(), JournalStream::default());
        run_workload(w, cfg, share, &mut run_tr, &mut run_tally, &mut stream)
            .map_err(|e| format!("{} traced: {e}", w.name()))?;
        let (mut pass_tr, mut pass_tally) = (Tracer::on(), Tally::default());
        layer_pass(w, cfg, &stream, &mut pass_tr, &mut pass_tally)
            .map_err(|e| format!("{} layer pass: {e}", w.name()))?;
        for (tr, kind) in [(&run_tr, "run"), (&pass_tr, "pass")] {
            let path = PathBuf::from(OUT_DIR).join(format!("spans-{}-{kind}.jsonl", w.name()));
            tr.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        attempted += run_tally.attempted + pass_tally.attempted;
        failed += run_tally.failed + pass_tally.failed;
        for note in run_tally.notes.iter().chain(&pass_tally.notes) {
            eprintln!("  {} FAILED: {note}", w.name());
        }
        let (run_stats, pass_stats) = (layer_stats(run_tr.spans()), layer_stats(pass_tr.spans()));
        let metrics = perlayer::metrics(&Traced {
            workload: w,
            run: &run_stats,
            run_tally: &run_tally,
            pass: &pass_stats,
            pass_tally: &pass_tally,
            stream: &stream,
        });
        eprintln!("== {} per-layer (traced run + layer pass)", w.name());
        for m in &metrics {
            let self_time = m.self_us.map_or(String::new(), |s| format!(", self {s:.2} us"));
            eprintln!(
                "  {:<32} {:>14.4} {:<12} ({} samples{self_time})",
                m.name, m.value, m.unit, m.samples
            );
        }
        if w == named {
            let pct = |traced: f64, base: f64| (traced - base) / base * 100.0;
            let p50 = |t: &Tally| t.latency(50.0).map_or(f64::NAN, |q| q.value);
            let overhead_ops = -pct(run_tally.ops_per_s(), untraced.ops_per_s());
            let overhead_p50 = pct(p50(&run_tally), p50(&untraced));
            eprintln!(
                "  tracing overhead: ops/s {:.1} untraced vs {:.1} traced ({overhead_ops:.2}% fewer); \
                 p50 {:.1} vs {:.1} us ({overhead_p50:.2}% more)",
                untraced.ops_per_s(),
                run_tally.ops_per_s(),
                p50(&untraced),
                p50(&run_tally),
            );
            let growth = metrics.iter().find(|m| m.name == OWN[0]).map_or(0.0, |m| m.value);
            own = vec![
                Metric { name: OWN[0], value: growth, unit: "KiB/kevent" },
                Metric { name: OWN[1], value: overhead_ops, unit: "%" },
                Metric { name: OWN[2], value: overhead_p50, unit: "%" },
            ];
        }
        by_workload.push((w, metrics));
    }

    let mut out = Vec::with_capacity(DESIGNATED.len() + OWN.len());
    for &(name, w) in DESIGNATED {
        let m = by_workload
            .iter()
            .find(|(bw, _)| *bw == w)
            .and_then(|(_, ms)| ms.iter().find(|m| m.name == name))
            .ok_or_else(|| format!("{} measured no {name}", w.name()))?;
        out.push(Metric { name: m.name, value: m.value, unit: m.unit });
    }
    out.extend(own);
    if let Some(m) = out.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is {}", m.name, m.value));
    }
    Ok(result_line(failed == 0, attempted, failed, &out))
}

struct Args {
    workloads: Vec<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut a =
        Args { workloads: Vec::new(), seed: None, seconds: None, trace: false, steady: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workloads
                    .push(Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => a.seed = Some(value()?.parse().map_err(|_| "`--seed` takes an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "`--seconds` takes a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("`--seconds` must be positive".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("`--trace` takes 0 or 1".into()),
                }
            }
            "--steady" => {
                a.steady = Some(value()?.parse().map_err(|_| "`--steady` takes a run count")?)
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steady {
        return match steady::run(runs, &args.workloads, args.seconds, args.seed.unwrap_or(1)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (Some(seed), Some(seconds), [w]) = (args.seed, args.seconds, args.workloads.as_slice())
    else {
        eprintln!("perfbench: need exactly one `--workload`, plus `--seed` and `--seconds`");
        return ExitCode::from(2);
    };
    // A wedged run (a peer that never answers) must still end, and
    // without a result line.
    let limit = Duration::from_secs_f64((seconds * 4.0 + 60.0).min(170.0));
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: no result after {limit:?}; giving up");
        std::process::exit(3);
    });
    let scratch = PathBuf::from(OUT_DIR).join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let cfg = Cfg { seed, scratch: scratch.clone() };
    let result =
        if args.trace { trace_mode(*w, &cfg, seconds) } else { e2e_mode(*w, &cfg, seconds) };
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
