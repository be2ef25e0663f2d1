//! Steadiness mode: runs each workload several times with consecutive
//! seeds, each run in a fresh process (so `peak_rss_mib` is that run's
//! own), and prints the median and quartiles of every end-to-end metric
//! beside its bound from `BENCHMARK.json`, flagging any metric whose
//! spread — inter-quartile range over median — exceeds the bound.

use std::process::Command;

use mpart_obs::Json;

use crate::json::{self, Read};
use crate::stats;
use crate::Workload;

struct Bound {
    name: String,
    unit: String,
    bound: f64,
}

fn bounds(doc: &Json) -> Vec<Bound> {
    doc.get("end_to_end")
        .map(Read::arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some(Bound {
                name: m.get("name")?.text()?.to_string(),
                unit: m.get("unit")?.text()?.to_string(),
                bound: m.get("bound")?.num()?,
            })
        })
        .collect()
}

fn one_run(w: Workload, seed: u64, seconds: f64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed} exited {}: {}",
            w.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr).lines().last().unwrap_or_default()
        ));
    }
    json::parse(last)
}

/// Runs `runs` seeds per workload and prints the spread table.
pub fn run(
    runs: usize,
    only: &[Workload],
    seconds: Option<f64>,
    first_seed: u64,
) -> Result<(), String> {
    let doc = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|t| json::parse(&t))?;
    let seconds = seconds.or_else(|| doc.get("run_seconds").and_then(Read::num)).unwrap_or(10.0);
    let bounds = bounds(&doc);
    let workloads = if only.is_empty() { Workload::ALL.to_vec() } else { only.to_vec() };
    let mut over = 0;
    for w in workloads {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); bounds.len()];
        let mut failed_runs = 0;
        for i in 0..runs {
            let seed = first_seed + i as u64;
            let result = one_run(w, seed, seconds)?;
            if result.get("correct") != Some(&Json::Bool(true)) {
                failed_runs += 1;
            }
            let metrics = result.get("metrics").ok_or("result without metrics")?;
            let mut line = format!("  {} seed {seed}:", w.name());
            for (b, vs) in bounds.iter().zip(&mut values) {
                let v = metrics.get(&b.name).and_then(|m| m.get("value")).and_then(Read::num);
                let v = v.ok_or_else(|| format!("{} seed {seed}: no {}", w.name(), b.name))?;
                line.push_str(&format!(" {}={v:.6}", b.name));
                vs.push(v);
            }
            eprintln!("{line}");
        }
        println!(
            "{} — {runs} runs of {seconds} s, seeds {first_seed}..{}",
            w.name(),
            first_seed + runs as u64 - 1
        );
        println!(
            "  {:<22} {:>14} {:>14} {:>14} {:>8} {:>7}  unit",
            "metric", "q1", "median", "q3", "spread", "bound"
        );
        for (b, vs) in bounds.iter().zip(&values) {
            let (q1, q2, q3) = stats::quartiles(vs).ok_or("need at least two runs")?;
            let spread = stats::spread(vs).unwrap_or(f64::INFINITY);
            let flag = if spread > b.bound {
                over += 1;
                "  OVER BOUND"
            } else if spread > b.bound / 3.0 {
                "  (above a third of the bound)"
            } else {
                ""
            };
            println!(
                "  {:<22} {q1:>14.4} {q2:>14.4} {q3:>14.4} {spread:>8.4} {:>7.3}  {}{flag}",
                b.name, b.bound, b.unit
            );
        }
        if failed_runs > 0 {
            println!("  {failed_runs} runs reported correct=false");
            over += 1;
        }
    }
    if over > 0 {
        return Err(format!("{over} metrics or workloads out of bounds"));
    }
    Ok(())
}
