//! `apps_tv`: the five Fig. 7 synthetic apps through the `opt -tv`
//! pipeline with `SelectToLogic` seeded, every changed pass validated
//! under a per-pair deadline. Each round empties the global query cache
//! and validates every pass pair once, in pipeline order (see `inputs`
//! for why this workload does not use the seed).
//! Set-up is `appgen::generate` plus `PassManager::run_with_snapshots`.

use crate::gate::Expect;
use crate::inputs::build_apps;
use crate::layers::SetupLayers;
use crate::run::{peak_rss_mb, Case, Inproc, Plan, Rounds, RunOutput, SetupSampler, DEADLINE_MS};
use crate::stats::median;
use alive2_core::engine::{Job, ValidationEngine};
use alive2_sema::config::EncodeConfig;
use std::hint::black_box;
use std::time::Instant;

/// One timed set-up every this many pairs (15 per round); `setup_s` is
/// their median.
const SETUP_EVERY: usize = 17;
/// Per-query solver budget, as in the Fig. 7 harness.
const SOLVER_TIMEOUT_MS: u64 = 10_000;

pub fn run(plan: &Plan) -> Result<RunOutput, String> {
    let (mut setup_s, mut generate_us, mut pipeline_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut sample = || {
        let t = Instant::now();
        let apps = black_box(build_apps());
        setup_s.push(t.elapsed().as_secs_f64());
        generate_us.push(apps.generate_us);
        pipeline_us.push(apps.pipeline_us);
        Ok(())
    };
    let mut setups = SetupSampler {
        every: SETUP_EVERY,
        sample: &mut sample,
    };
    let apps = build_apps();
    let cfg = EncodeConfig {
        solver_timeout_ms: SOLVER_TIMEOUT_MS,
        ..EncodeConfig::default()
    };
    let work = Inproc {
        plan,
        cases: apps
            .pairs
            .iter()
            .map(|p| Case {
                job: Job {
                    name: p.name.clone(),
                    module: &apps.modules[p.app],
                    src: &p.before,
                    tgt: &p.after,
                    cfg,
                },
                expect: Expect::SeededPass(p.pass),
            })
            .collect(),
        engine: ValidationEngine::sequential().with_deadline_ms(Some(DEADLINE_MS)),
    };
    let order: Vec<usize> = (0..work.cases.len()).collect();
    let rounds = Rounds::run(plan, 1, |rounds, _, traced| {
        work.round(&order, rounds, traced, &mut setups)
    })?;
    let setup = SetupLayers {
        generate_us: median(&generate_us),
        pipeline_us: median(&pipeline_us),
        pairs_changed: apps.pairs.len() as f64,
        ..SetupLayers::default()
    };
    rounds.finish(plan, &setup_s, &setup, peak_rss_mb("self")?, Vec::new())
}
