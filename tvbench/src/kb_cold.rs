//! `kb_cold`: the 36 §8.5 known-bug pairs in cold rounds. Each round
//! empties the global query cache and validates every pair once, in an
//! order the seed permutes. Set-up is parsing the corpus and building
//! the jobs.

use crate::gate::Expect;
use crate::inputs::kb_order;
use crate::layers::SetupLayers;
use crate::run::{peak_rss_mb, Case, Inproc, Plan, Rounds, RunOutput, SetupSampler};
use crate::stats::median;
use alive2_core::engine::{Job, ValidationEngine};
use alive2_ir::module::Module;
use alive2_ir::parser::parse_module;
use alive2_sema::config::EncodeConfig;
use alive2_testgen::known_bugs::{known_bugs, KnownBug};
use std::hint::black_box;
use std::time::Instant;

/// One timed set-up every this many pairs (three per round); `setup_s`
/// is their median.
const SETUP_EVERY: usize = 12;
/// Cold rounds per untraced run at the least: 5 × 36 = 180 samples.
const MIN_ROUNDS: u64 = 5;

fn parse_pairs(bugs: &[KnownBug]) -> Result<Vec<(Module, Module)>, String> {
    bugs.iter()
        .map(|b| {
            let parse = |text| parse_module(text).map_err(|e| format!("{}: {e}", b.name));
            Ok((parse(b.src)?, parse(b.tgt)?))
        })
        .collect()
}

fn cases<'a>(bugs: &[KnownBug], modules: &'a [(Module, Module)]) -> Result<Vec<Case<'a>>, String> {
    let cfg = EncodeConfig::default();
    bugs.iter()
        .zip(modules)
        .map(|(b, (src, tgt))| {
            let s = src
                .functions
                .first()
                .ok_or_else(|| format!("{}: no function", b.name))?;
            let t = tgt
                .function(&s.name)
                .ok_or_else(|| format!("{}: target lacks @{}", b.name, s.name))?;
            Ok(Case {
                job: Job {
                    name: b.name.to_string(),
                    module: src,
                    src: s,
                    tgt: t,
                    cfg,
                },
                expect: Expect::Known(b.expect),
            })
        })
        .collect()
}

/// One timed set-up: build the corpus, parse it, build the jobs.
fn setup_sample(
    setup_s: &mut Vec<f64>,
    parse_us: &mut Vec<f64>,
    generate_us: &mut Vec<f64>,
) -> Result<(), String> {
    let t = Instant::now();
    let bugs = known_bugs();
    let generated = Instant::now();
    let modules = parse_pairs(&bugs)?;
    let parsed = Instant::now();
    black_box(cases(&bugs, &modules)?);
    setup_s.push(t.elapsed().as_secs_f64());
    generate_us.push((generated - t).as_secs_f64() * 1e6);
    parse_us.push((parsed - generated).as_secs_f64() * 1e6);
    Ok(())
}

pub fn run(plan: &Plan) -> Result<RunOutput, String> {
    let (mut setup_s, mut parse_us, mut generate_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut sample = || setup_sample(&mut setup_s, &mut parse_us, &mut generate_us);
    let mut setups = SetupSampler {
        every: SETUP_EVERY,
        sample: &mut sample,
    };
    let bugs = known_bugs();
    let modules = parse_pairs(&bugs)?;
    let work = Inproc {
        plan,
        cases: cases(&bugs, &modules)?,
        engine: ValidationEngine::sequential(),
    };
    let rounds = Rounds::run(plan, MIN_ROUNDS, |rounds, i, traced| {
        let order = kb_order(plan.seed, i, work.cases.len());
        work.round(&order, rounds, traced, &mut setups)
    })?;
    let setup = SetupLayers {
        parse_us: median(&parse_us),
        generate_us: median(&generate_us),
        ..SetupLayers::default()
    };
    rounds.finish(plan, &setup_s, &setup, peak_rss_mb("self")?, Vec::new())
}
