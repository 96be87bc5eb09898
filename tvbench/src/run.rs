//! What every workload shares: the run plan, the round schedule, the
//! end-to-end metrics, and the in-process round used by `kb_cold` and
//! `apps_tv`.

use crate::gate::{Expect, Gate};
use crate::layers::{layer_values, read_profile, LayerRound, SetupLayers, Value};
use crate::stats::{median, min_samples, percentile, ratio};
use alive2_core::engine::{Job, ValidationEngine};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Wall-clock cap per pair on the workloads whose inputs include pairs
/// that do not finish: the pairs that hit it also time out at 10 s, and
/// the slowest decided pair takes under a third of it.
pub const DEADLINE_MS: u64 = 3_000;

/// The command-line arguments of one run.
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for journals and profile files.
    pub tmp: PathBuf,
}

/// A finished run: the gate, the work attempted and the metrics.
pub struct RunOutput {
    pub gate: Gate,
    pub attempted: u64,
    pub metrics: Vec<Value>,
    pub rounds: u64,
    /// Extra fields for the details line: (key, JSON value).
    pub notes: Vec<(&'static str, String)>,
}

/// The rounds of one run: untraced, then (with `--trace 1`) traced.
#[derive(Default)]
pub struct Rounds {
    /// Per pair: time from the call into the engine until the verdict.
    pub verdict_us: Vec<f64>,
    /// Per request (one engine call in-process, one batch when serving).
    pub req_us: Vec<f64>,
    pub pairs: u64,
    pub decided: u64,
    pub wall_us: f64,
    /// Traced rounds' figures and their pairs/wall.
    pub traced: Vec<LayerRound>,
    pub traced_pairs: u64,
    pub traced_wall_us: f64,
    pub count: u64,
    /// Per untraced round: the median verdict and request time.
    pub round_verdict_p50: Vec<f64>,
    pub round_req_p50: Vec<f64>,
    pub gate: Gate,
}

impl Rounds {
    /// Runs the plan's schedule of whole rounds. With `--trace 0`: rounds
    /// until the budget is spent, at least `min_rounds` and enough
    /// requests for a p90. With `--trace 1`: half the budget untraced,
    /// then half traced, at least one round each.
    pub fn run(
        plan: &Plan,
        min_rounds: u64,
        mut round: impl FnMut(&mut Rounds, u64, bool) -> Result<(), String>,
    ) -> Result<Rounds, String> {
        let half = plan.seconds / 2.0;
        let phases: &[(f64, bool)] = if plan.trace {
            &[(half, false), (half, true)]
        } else {
            &[(plan.seconds, false)]
        };
        let need_reqs = if plan.trace { 0 } else { min_samples(90.0) };
        let need_rounds = if plan.trace { 1 } else { min_rounds };
        let mut r = Rounds::default();
        for &(budget_s, traced) in phases {
            let start = Instant::now();
            let first = r.count;
            while r.count - first < need_rounds
                || r.req_us.len() < need_reqs
                || start.elapsed().as_secs_f64() < budget_s
            {
                let i = r.count;
                let (v0, q0) = (r.verdict_us.len(), r.req_us.len());
                round(&mut r, i, traced)?;
                r.count += 1;
                if !traced {
                    r.round_verdict_p50.push(round_median(&r.verdict_us[v0..])?);
                    r.round_req_p50.push(round_median(&r.req_us[q0..])?);
                }
            }
        }
        Ok(r)
    }

    /// Adds one pair's result.
    pub fn pair(&mut self, us: f64, kind: &str) {
        self.verdict_us.push(us);
        self.pairs += 1;
        if matches!(kind, "correct" | "incorrect") {
            self.decided += 1;
        }
    }

    /// Adds one finished round's wall time.
    pub fn round_done(&mut self, wall_us: f64, pairs: u64, layer: Option<LayerRound>) {
        match layer {
            Some(l) => {
                self.traced_pairs += pairs;
                self.traced_wall_us += wall_us;
                self.traced.push(l);
            }
            None => self.wall_us += wall_us,
        }
    }

    fn untraced_pairs(&self) -> u64 {
        self.pairs - self.traced_pairs
    }
}

/// The median of one round's samples, refused below the p50 floor.
fn round_median(samples: &[f64]) -> Result<f64, String> {
    let need = min_samples(50.0);
    if samples.len() < need {
        return Err(format!(
            "a round's p50 needs {need} samples, got {}",
            samples.len()
        ));
    }
    Ok(median(samples))
}

/// The end-to-end metrics of an untraced run. The p50s are the median of
/// the rounds' medians: every round holds the same pairs, so a pooled
/// median would sit on the gap between two pairs' times and flip with
/// noise, while each round's median averages the two middle pairs.
fn e2e_values(setup_s: &[f64], rounds: &Rounds, peak_rss_mb: f64) -> Result<Vec<Value>, String> {
    let v = |name, unit, value, samples| Value {
        name,
        unit,
        value,
        samples,
    };
    let n = rounds.verdict_us.len();
    let reqs = rounds.req_us.len();
    Ok(vec![
        v("setup_s", "s", median(setup_s), setup_s.len()),
        v(
            "pairs_per_s",
            "1/s",
            rounds.pairs as f64 / (rounds.wall_us / 1e6),
            n,
        ),
        v(
            "verdict_ms_p50",
            "ms",
            median(&rounds.round_verdict_p50) / 1e3,
            n,
        ),
        v(
            "verdict_ms_p90",
            "ms",
            percentile(&rounds.verdict_us, 90.0)? / 1e3,
            n,
        ),
        v(
            "decided_frac",
            "frac",
            ratio(rounds.decided as f64, rounds.pairs as f64),
            n,
        ),
        v("peak_rss_mb", "MB", peak_rss_mb, 1),
        v(
            "req_ms_p50",
            "ms",
            median(&rounds.round_req_p50) / 1e3,
            reqs,
        ),
        v(
            "req_ms_p90",
            "ms",
            percentile(&rounds.req_us, 90.0)? / 1e3,
            reqs,
        ),
    ])
}

impl Rounds {
    /// The run's result: end-to-end metrics untraced, per-layer traced.
    pub fn finish(
        self,
        plan: &Plan,
        setup_s: &[f64],
        setup_layers: &SetupLayers,
        peak_rss_mb: f64,
        notes: Vec<(&'static str, String)>,
    ) -> Result<RunOutput, String> {
        let metrics = if plan.trace {
            let untraced = self.untraced_pairs() as f64 / (self.wall_us / 1e6);
            let traced = self.traced_pairs as f64 / (self.traced_wall_us / 1e6);
            layer_values(setup_layers, setup_s.len(), &self.traced, untraced, traced)?
        } else {
            e2e_values(setup_s, &self, peak_rss_mb)?
        };
        Ok(RunOutput {
            attempted: self.pairs,
            rounds: self.count,
            gate: self.gate,
            metrics,
            notes,
        })
    }
}

/// VmHWM (peak resident set) of a process, in MB, from
/// `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// One pair of an in-process workload.
pub struct Case<'a> {
    pub job: Job<'a>,
    pub expect: Expect,
}

/// Takes one timed set-up sample every `every` steps of a round, outside
/// the round's measured time. Spreading the samples over the whole run
/// keeps `setup_s` from resting on one moment of machine load.
pub struct SetupSampler<'a> {
    pub every: usize,
    pub sample: &'a mut dyn FnMut() -> Result<(), String>,
}

impl SetupSampler<'_> {
    /// Samples if step `k` is due; returns the time it took.
    pub fn at(&mut self, k: usize) -> Result<Duration, String> {
        if k % self.every != self.every / 2 {
            return Ok(Duration::ZERO);
        }
        let t = Instant::now();
        (self.sample)()?;
        Ok(t.elapsed())
    }
}

/// An in-process workload: its pairs and the engine that runs them.
pub struct Inproc<'a, 'p> {
    pub plan: &'p Plan,
    pub cases: Vec<Case<'a>>,
    pub engine: ValidationEngine,
}

impl Inproc<'_, '_> {
    /// One closed-loop round: the global query cache is emptied, then each
    /// pair (in `order`) is one call into the engine. A traced round arms
    /// the phase timers and the query-profile sink.
    pub fn round(
        &self,
        order: &[usize],
        rounds: &mut Rounds,
        traced: bool,
        setups: &mut SetupSampler,
    ) -> Result<(), String> {
        alive2_smt::cache::global().clear_memory();
        let profile = self.plan.tmp.join("profile.jsonl");
        alive2_obs::set_timing(traced);
        if traced {
            alive2_obs::profile::arm_sink(&profile)
                .map_err(|e| format!("cannot open {}: {e}", profile.display()))?;
        }
        let mut layer = LayerRound::default();
        let start = Instant::now();
        let mut paused = Duration::ZERO;
        for (k, &i) in order.iter().enumerate() {
            paused += setups.at(k)?;
            let case = &self.cases[i];
            let t = Instant::now();
            let outcome = self
                .engine
                .run(std::slice::from_ref(&case.job))
                .pop()
                .ok_or_else(|| format!("{}: the engine returned no outcome", case.job.name))?;
            let us = t.elapsed().as_secs_f64() * 1e6;
            let kind = outcome.verdict.kind();
            rounds.gate.verdict(&case.job.name, case.expect, kind);
            rounds.pair(us, kind);
            rounds.req_us.push(us);
            layer.pairs += 1.0;
            layer.engine_us += us;
            match kind {
                "unsupported" => layer.unsupported += 1.0,
                "timeout" => layer.timeout_us += us,
                _ => {}
            }
            layer.totals.add_job(&outcome.stats);
        }
        let wall_us = (start.elapsed() - paused).as_secs_f64() * 1e6;
        alive2_obs::set_timing(false);
        let layer = if traced {
            alive2_obs::profile::finish_sink(&layer.totals)
                .map_err(|e| format!("cannot finish {}: {e}", profile.display()))?;
            layer.queries = read_profile(&profile)?;
            layer.wall_us = wall_us;
            Some(layer)
        } else {
            None
        };
        rounds.round_done(wall_us, order.len() as u64, layer);
        Ok(())
    }
}
