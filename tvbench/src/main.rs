//! `tvbench`: the repository benchmark.
//!
//! ```text
//! tvbench --workload <kb_cold|apps_tv|serve_repeat> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Runs one workload for about `S` seconds of whole rounds and prints, as
//! its last stdout line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The line before it holds the
//! details (sample counts, the base of every ratio, the layer → end-to-end
//! map, the input digest). Every verdict passes the verdict gate; a
//! mismatch names the pair on stderr and the exit code is 1.
//!
//! `tvbench serve ...` runs the validation daemon (`alive2-serve`) in this
//! process; `serve_repeat` spawns it that way.

mod apps_tv;
mod gate;
mod inputs;
mod kb_cold;
mod layers;
mod run;
mod serve_repeat;
mod stats;

use layers::{Value, E2E, LAYERS};
use run::{Plan, RunOutput};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["kb_cold", "apps_tv", "serve_repeat"];

/// Removes the run's scratch directory on every exit path.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Args {
    workload: String,
    plan: Plan,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or("--seconds must be a positive number")?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    // Scratch files go next to the binary, inside the build directory.
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let tmp = exe
        .parent()
        .ok_or("binary has no parent directory")?
        .join(format!("tvbench-run-{}", std::process::id()));
    Ok(Args {
        workload,
        plan: Plan {
            seed,
            seconds,
            trace,
            tmp,
        },
    })
}

fn metric_json(v: &Value) -> String {
    format!(
        "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
        v.name, v.value, v.unit
    )
}

/// The details line: samples per metric, bases and the layer map.
fn details_json(workload: &str, plan: &Plan, digest: u64, out: &RunOutput) -> String {
    let samples: Vec<String> = out
        .metrics
        .iter()
        .map(|v| format!("\"{}\":{}", v.name, v.samples))
        .collect();
    let map: Vec<String> = if plan.trace {
        LAYERS
            .iter()
            .map(|d| {
                format!(
                    "\"{}\":{{\"unit\":\"{}\",\"better\":\"{}\",\"base\":\"{}\",\
                     \"moves\":\"{}\",\"on\":\"{}\"}}",
                    d.name, d.unit, d.better, d.base, d.moves, d.on
                )
            })
            .collect()
    } else {
        E2E.iter()
            .map(|d| {
                format!(
                    "\"{}\":{{\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{}}}",
                    d.name, d.unit, d.better, d.bound
                )
            })
            .collect()
    };
    let notes: String = out
        .notes
        .iter()
        .map(|(k, v)| format!(",\"{k}\":{v}"))
        .collect();
    format!(
        "{{\"tvbench\":{{\"workload\":\"{workload}\",\"seed\":{},\"trace\":{},\
         \"input_digest\":\"{digest:016x}\",\"rounds\":{},\"verdicts_checked\":{}{notes},\
         \"samples\":{{{}}},\"metrics\":{{{}}}}}}}",
        plan.seed,
        u8::from(plan.trace),
        out.rounds,
        out.gate.checked(),
        samples.join(","),
        map.join(",")
    )
}

fn bench(args: &Args) -> Result<bool, String> {
    let plan = &args.plan;
    std::fs::create_dir_all(&plan.tmp)
        .map_err(|e| format!("cannot create {}: {e}", plan.tmp.display()))?;
    let _tmp = TmpDir(plan.tmp.clone());
    let digest = inputs::digest(&args.workload, plan.seed)?;
    let out = match args.workload.as_str() {
        "kb_cold" => kb_cold::run(plan)?,
        "apps_tv" => apps_tv::run(plan)?,
        _ => serve_repeat::run(plan)?,
    };
    if let Some(bad) = out.metrics.iter().find(|v| !v.value.is_finite()) {
        return Err(format!("metric {} is not a finite number", bad.name));
    }
    let mismatches = out.gate.mismatches();
    for m in mismatches {
        eprintln!("verdict gate: {m}");
    }
    println!("{}", details_json(&args.workload, plan, digest, &out));
    let metrics: Vec<String> = out.metrics.iter().map(metric_json).collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        mismatches.is_empty(),
        out.attempted,
        mismatches.len(),
        metrics.join(",")
    );
    Ok(mismatches.is_empty())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        return alive2::cli::alive2_serve_main();
    }
    let result = parse_args(&argv).and_then(|args| bench(&args));
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("tvbench: {e}");
            ExitCode::from(2)
        }
    }
}
