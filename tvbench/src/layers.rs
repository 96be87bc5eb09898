//! The metrics: their definitions (kept equal to `BENCHMARK.json` by a
//! test), the layer → end-to-end map, and the per-layer figures computed
//! from a traced run.
//!
//! A traced run adds no spans inside the program. It arms the program's
//! own phase timers (`alive2_obs::set_timing`), reads the per-job
//! `JobStats` and the `alive2_obs::profile` query records, and times its
//! own calls into the layers. A layer a workload does not exercise
//! reports 0 there (for example `opt.pipeline_ms` on `kb_cold`).

use crate::stats::{median, percentile, ratio};
use alive2_obs::json::JsonValue;
use alive2_obs::StatsTotals;

/// One end-to-end metric.
pub struct E2eDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, reported on every workload. The bounds are
/// wide because the benchmark shares a 2-core machine: identical runs
/// moved by up to 12% (see README.md).
#[rustfmt::skip]
pub const E2E: &[E2eDef] = &[
    E2eDef { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    E2eDef { name: "pairs_per_s", unit: "1/s", better: "higher", bound: 0.2 },
    E2eDef { name: "verdict_ms_p50", unit: "ms", better: "lower", bound: 0.25 },
    E2eDef { name: "verdict_ms_p90", unit: "ms", better: "lower", bound: 0.25 },
    E2eDef { name: "decided_frac", unit: "frac", better: "higher", bound: 0.05 },
    E2eDef { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25 },
    E2eDef { name: "req_ms_p50", unit: "ms", better: "lower", bound: 0.25 },
    E2eDef { name: "req_ms_p90", unit: "ms", better: "lower", bound: 0.25 },
];

/// One per-layer metric and what it should move.
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The denominator of a ratio, or how the figure is aggregated.
    pub base: &'static str,
    /// The end-to-end metric(s) it should move.
    pub moves: &'static str,
    /// The workload(s) on which it should move them.
    pub on: &'static str,
}

macro_rules! layer {
    ($name:literal, $unit:literal, $better:literal, $base:literal, $moves:literal, $on:literal) => {
        LayerDef {
            name: $name,
            unit: $unit,
            better: $better,
            base: $base,
            moves: $moves,
            on: $on,
        }
    };
}

/// The per-layer metrics of a traced run: name, unit, better, base,
/// the end-to-end metric(s) it should move, and on which workload(s).
#[rustfmt::skip]
pub const LAYERS: &[LayerDef] = &[
    layer!("ir.parse_ms", "ms", "lower",
        "parse_module time per set-up (serve: daemon parse phase per round)",
        "setup_s", "kb_cold"),
    layer!("testgen.generate_ms", "ms", "lower",
        "testgen calls per set-up", "setup_s", "apps_tv"),
    layer!("opt.pipeline_ms", "ms", "lower",
        "run_with_snapshots time per set-up", "setup_s", "apps_tv"),
    layer!("opt.pairs_changed", "count", "lower",
        "pass pairs the pipeline changed", "setup_s", "apps_tv"),
    layer!("sema.encode_ms", "ms", "lower",
        "Env::new + encode_function time per round", "verdict_ms_p50", "apps_tv"),
    layer!("sema.unsupported_frac", "frac", "lower",
        "pairs attempted", "verdict_ms_p50", "apps_tv"),
    layer!("sema.terms", "count", "lower",
        "term-DAG nodes summed over a round's jobs", "peak_rss_mb", "apps_tv"),
    layer!("sema.hc_hit_frac", "frac", "higher",
        "hash-cons lookups", "peak_rss_mb", "apps_tv"),
    layer!("smt.rewrite_discharged_frac", "frac", "higher",
        "queries (profile records)", "verdict_ms_p50,pairs_per_s", "kb_cold"),
    layer!("smt.cnf_clauses_p90", "count", "lower",
        "queries that built a CNF, pooled over traced rounds",
        "verdict_ms_p90,pairs_per_s", "kb_cold"),
    layer!("smt.top3_query_share", "frac", "lower",
        "Solve time per round", "verdict_ms_p90,pairs_per_s", "kb_cold"),
    layer!("smt.cegqi_iters", "count", "lower",
        "per round", "verdict_ms_p90,pairs_per_s", "kb_cold"),
    layer!("smt.solve_ms", "ms", "lower",
        "Solve phase time per round", "pairs_per_s", "apps_tv,kb_cold"),
    layer!("smt.conflicts", "count", "lower",
        "CDCL conflicts per round", "pairs_per_s", "apps_tv,kb_cold"),
    layer!("smt.us_per_conflict", "us", "lower",
        "conflicts (wall time of live solves / conflicts)", "pairs_per_s", "apps_tv,kb_cold"),
    layer!("smt.cegqi_exhausted", "count", "lower",
        "CEGQI loops ended by the iteration cap, per round",
        "decided_frac,pairs_per_s", "apps_tv"),
    layer!("core.timeout_wall_share", "frac", "lower",
        "measured wall time per round", "decided_frac,pairs_per_s", "apps_tv"),
    layer!("smt.cache_hit_frac", "frac", "higher",
        "query-cache hits + live solves", "req_ms_p50", "serve_repeat"),
    layer!("smt.live_solves", "count", "lower",
        "one-shot + incremental solves per round", "req_ms_p50", "serve_repeat"),
    layer!("core.validate_ms", "ms", "lower",
        "engine call (serve: request) time minus parse, encode and solve, per round",
        "verdict_ms_p50", "kb_cold"),
    layer!("core.serve_overhead_ms_p50", "ms", "lower",
        "requests: wall time minus the busy time the daemon reports for the batch",
        "req_ms_p50", "serve_repeat"),
    layer!("trace.untraced_pairs_per_s", "1/s", "higher",
        "pairs per second of the untraced half of the traced run", "pairs_per_s", "all"),
    layer!("trace.traced_pairs_per_s", "1/s", "higher",
        "pairs per second of the traced half of the traced run", "pairs_per_s", "all"),
    layer!("trace.overhead_frac", "frac", "lower",
        "untraced pairs_per_s (untraced minus traced, over untraced)", "pairs_per_s", "all"),
];

/// One query record of the `alive2_obs::profile` sink.
pub struct QueryRec {
    pub wall_us: f64,
    pub clauses: f64,
    pub conflicts: f64,
    pub discharged: bool,
    pub solved: bool,
}

/// Reads a `--profile` JSON-lines file (the trailing metadata line,
/// which has no `job` field, is skipped).
pub fn read_profile(path: &std::path::Path) -> Result<Vec<QueryRec>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read profile {}: {e}", path.display()))?;
    let mut out = Vec::new();
    for line in text.lines() {
        let v = JsonValue::parse(line)
            .ok_or_else(|| format!("malformed profile line in {}: {line}", path.display()))?;
        if v.get("job").is_none() {
            continue;
        }
        out.push(QueryRec {
            wall_us: v.num("wall_us") as f64,
            clauses: v.num("clauses_post") as f64,
            conflicts: v.num("conflicts") as f64,
            discharged: v.num("discharged") == 1,
            solved: v.num("solved") == 1,
        });
    }
    Ok(out)
}

/// Per-set-up layer times (medians over the run's set-ups).
#[derive(Default)]
pub struct SetupLayers {
    pub parse_us: f64,
    pub generate_us: f64,
    pub pipeline_us: f64,
    pub pairs_changed: f64,
}

/// What one traced round measured.
#[derive(Default)]
pub struct LayerRound {
    pub pairs: f64,
    pub unsupported: f64,
    pub wall_us: f64,
    /// Time of pairs whose verdict was Timeout.
    pub timeout_us: f64,
    /// Time inside engine calls (serve: request wall time).
    pub engine_us: f64,
    /// Parse phase inside the daemon (serve only).
    pub parse_us: f64,
    pub totals: StatsTotals,
    pub queries: Vec<QueryRec>,
    /// Per-request wall time minus daemon busy time (serve only).
    pub overhead_us: Vec<f64>,
}

impl LayerRound {
    fn top3_us(&self) -> f64 {
        let mut walls: Vec<f64> = self.queries.iter().map(|q| q.wall_us).collect();
        walls.sort_by(|a, b| b.total_cmp(a));
        walls.iter().take(3).sum()
    }

    fn conflicts(&self) -> f64 {
        self.queries.iter().map(|q| q.conflicts).sum()
    }

    fn solved_wall_us(&self) -> f64 {
        self.queries
            .iter()
            .filter(|q| q.solved)
            .map(|q| q.wall_us)
            .sum()
    }

    fn live_solves(&self) -> f64 {
        (self.totals.sat_solves + self.totals.incremental_solves) as f64
    }
}

/// A computed metric with its sample count.
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// The per-layer figures of a traced run: per-round figures are medians
/// over the traced rounds.
pub fn layer_values(
    setup: &SetupLayers,
    setups: usize,
    rounds: &[LayerRound],
    untraced_pps: f64,
    traced_pps: f64,
) -> Result<Vec<Value>, String> {
    if rounds.is_empty() {
        return Err("a traced run needs at least one traced round".into());
    }
    let per_round = |f: &dyn Fn(&LayerRound) -> f64| -> f64 {
        median(&rounds.iter().map(f).collect::<Vec<_>>())
    };
    let clauses: Vec<f64> = rounds
        .iter()
        .flat_map(|r| {
            r.queries
                .iter()
                .filter(|q| !q.discharged)
                .map(|q| q.clauses)
        })
        .collect();
    let overhead: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.overhead_us.iter().copied())
        .collect();
    let n = rounds.len();
    let mut out = Vec::new();
    for def in LAYERS {
        let (value, samples) = match def.name {
            "ir.parse_ms" if setup.parse_us > 0.0 => (setup.parse_us / 1e3, setups),
            "ir.parse_ms" => (per_round(&|r| r.parse_us) / 1e3, n),
            "testgen.generate_ms" => (setup.generate_us / 1e3, setups),
            "opt.pipeline_ms" => (setup.pipeline_us / 1e3, setups),
            "opt.pairs_changed" => (setup.pairs_changed, setups),
            "sema.encode_ms" => (per_round(&|r| r.totals.encode_us as f64) / 1e3, n),
            "sema.unsupported_frac" => (per_round(&|r| ratio(r.unsupported, r.pairs)), n),
            "sema.terms" => (per_round(&|r| r.totals.terms as f64), n),
            "sema.hc_hit_frac" => (
                per_round(&|r| {
                    let hits = r.totals.hc_hits as f64;
                    ratio(hits, hits + r.totals.hc_misses as f64)
                }),
                n,
            ),
            "smt.rewrite_discharged_frac" => (
                per_round(&|r| ratio(r.totals.rewrite_discharged as f64, r.queries.len() as f64)),
                n,
            ),
            "smt.cnf_clauses_p90" => (percentile(&clauses, 90.0)?, clauses.len()),
            "smt.top3_query_share" => (
                per_round(&|r| ratio(r.top3_us(), r.totals.solve_us as f64)),
                n,
            ),
            "smt.cegqi_iters" => (per_round(&|r| r.totals.cegqi_iters as f64), n),
            "smt.solve_ms" => (per_round(&|r| r.totals.solve_us as f64) / 1e3, n),
            "smt.conflicts" => (per_round(&|r| r.conflicts()), n),
            "smt.us_per_conflict" => (per_round(&|r| ratio(r.solved_wall_us(), r.conflicts())), n),
            "smt.cegqi_exhausted" => (per_round(&|r| r.totals.cegqi_iter_exhausted as f64), n),
            "core.timeout_wall_share" => (per_round(&|r| ratio(r.timeout_us, r.wall_us)), n),
            "smt.cache_hit_frac" => (
                per_round(&|r| {
                    let hits = r.totals.cache_hits as f64;
                    ratio(hits, hits + r.live_solves())
                }),
                n,
            ),
            "smt.live_solves" => (per_round(&|r| r.live_solves()), n),
            "core.validate_ms" => (
                per_round(&|r| {
                    r.engine_us - r.parse_us - (r.totals.encode_us + r.totals.solve_us) as f64
                }) / 1e3,
                n,
            ),
            "core.serve_overhead_ms_p50" if overhead.is_empty() => (0.0, 0),
            "core.serve_overhead_ms_p50" => (percentile(&overhead, 50.0)? / 1e3, overhead.len()),
            "trace.untraced_pairs_per_s" => (untraced_pps, 1),
            "trace.traced_pairs_per_s" => (traced_pps, 1),
            "trace.overhead_frac" => (ratio(untraced_pps - traced_pps, untraced_pps), 1),
            other => return Err(format!("no rule computes layer metric `{other}`")),
        };
        out.push(Value {
            name: def.name,
            unit: def.unit,
            value,
            samples,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark")
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json = benchmark_json();
        for d in E2E {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name, d.unit, d.better, d.bound
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for d in LAYERS {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name, d.unit, d.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = E2E.len() + LAYERS.len() + crate::WORKLOADS.len();
        assert_eq!(json.matches("\"name\"").count(), names);
    }

    #[test]
    fn every_layer_metric_is_computed() {
        let round = LayerRound {
            pairs: 1.0,
            wall_us: 1.0,
            queries: (0..100)
                .map(|i| QueryRec {
                    wall_us: 1.0,
                    clauses: f64::from(i),
                    conflicts: 1.0,
                    discharged: false,
                    solved: true,
                })
                .collect(),
            ..LayerRound::default()
        };
        let values = layer_values(&SetupLayers::default(), 1, &[round], 2.0, 1.0).unwrap();
        assert_eq!(values.len(), LAYERS.len());
        let overhead = values
            .iter()
            .find(|v| v.name == "trace.overhead_frac")
            .unwrap();
        assert_eq!(overhead.value, 0.5);
    }
}
