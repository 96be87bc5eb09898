//! `serve_repeat`: one `alive2-serve --jobs 1 --journal <tmp>` daemon
//! per round (with the same per-pair deadline as `apps_tv`: the corpus
//! pair `dup-add/f/gvn` does not finish within minutes) and one
//! closed-loop stdin/stdout client. The client sends
//! the seeded request stream (every pool pair twice, 1–4 pairs per
//! request) and waits for each request's `done` line before sending the
//! next. Set-up is spawning the daemon until it answers its first `ping`.
//!
//! The daemon is this binary re-run as `tvbench serve ...`, which calls
//! the same `alive2::cli::alive2_serve_main` the `alive2-serve` binary
//! is a wrapper around.

use crate::inputs::{build_pool, serve_stream, Pool};
use crate::layers::{read_profile, LayerRound, SetupLayers};
use crate::run::{peak_rss_mb, Plan, Rounds, RunOutput, SetupSampler, DEADLINE_MS};
use crate::stats::median;
use alive2_obs::json::{esc, JsonValue};
use alive2_obs::StatsTotals;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// One timed daemon spawn every this many requests (about 7 per round);
/// `setup_s` is their median.
const SETUP_EVERY: usize = 8;

/// A running daemon; killed and reaped on drop if not closed.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    out: BufReader<ChildStdout>,
    closed: bool,
}

impl Daemon {
    fn spawn(journal: &Path, extra: &[String]) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .args(["--jobs", "1", "--deadline-ms", &DEADLINE_MS.to_string()])
            .arg("--journal")
            .arg(journal)
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn the daemon: {e}"))?;
        let out = child.stdout.take().expect("daemon stdout is piped");
        Ok(Daemon {
            stdin: child.stdin.take(),
            out: BufReader::new(out),
            child,
            closed: false,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let w = self.stdin.as_mut().ok_or("daemon stdin closed")?;
        writeln!(w, "{line}")
            .and_then(|()| w.flush())
            .map_err(|e| format!("cannot write to the daemon: {e}"))
    }

    /// The next response line, parsed. A batch's `done` line (the one
    /// response with a boolean, which the workspace codec does not read)
    /// comes back as `None`.
    fn recv(&mut self) -> Result<Option<JsonValue>, String> {
        let mut line = String::new();
        match self.out.read_line(&mut line) {
            Ok(0) => Err("daemon closed its stdout".into()),
            Ok(_) if line.contains("\"done\":true") => Ok(None),
            Ok(_) => JsonValue::parse(line.trim())
                .map(Some)
                .ok_or_else(|| format!("unexpected daemon line: {}", line.trim())),
            Err(e) => Err(format!("cannot read from the daemon: {e}")),
        }
    }

    /// Sends a control request and returns its response.
    fn control(&mut self, op: &str) -> Result<JsonValue, String> {
        self.send(&format!("{{\"id\":\"{op}\",\"op\":\"{op}\"}}"))?;
        match self.recv()? {
            Some(v) if v.get("id").and_then(JsonValue::as_str) == Some(op) => Ok(v),
            v => Err(format!("unexpected reply to {op}: {v:?}")),
        }
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Closes stdin (the daemon drains and exits), reads what is left of
    /// stdout, and reaps the process.
    fn close(&mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let mut rest = String::new();
        while self.out.read_line(&mut rest).map_err(|e| e.to_string())? > 0 {
            rest.clear();
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        self.closed = true;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.closed {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Busy time the daemon reports: the sum of its phase timers.
fn busy_us(stats: &JsonValue) -> f64 {
    let Some(p) = stats.get("phases") else {
        return 0.0;
    };
    [
        "parse_us",
        "opt_us",
        "encode_us",
        "solve_us",
        "journal_us",
        "teardown_us",
    ]
    .iter()
    .map(|k| p.num(k) as f64)
    .sum()
}

fn request_line(id: &str, pool: &Pool, pairs: &[usize]) -> String {
    let items: Vec<String> = pairs
        .iter()
        .map(|&i| {
            let p = &pool.pairs[i];
            format!(
                "{{\"name\":\"{}\",\"src\":\"{}\",\"tgt\":\"{}\"}}",
                esc(&p.name),
                esc(&p.src),
                esc(&p.tgt)
            )
        })
        .collect();
    format!(
        "{{\"id\":\"{id}\",\"op\":\"validate\",\"pairs\":[{}]}}",
        items.join(",")
    )
}

fn remove(path: &Path) {
    let _ = std::fs::remove_file(path);
}

/// One timed set-up: spawn a daemon until it answers `ping`, then shut
/// it down.
fn setup_sample(plan: &Plan, setup_s: &mut Vec<f64>) -> Result<(), String> {
    let journal = plan.tmp.join("journal-setup.jsonl");
    let t = Instant::now();
    let mut d = Daemon::spawn(&journal, &[])?;
    d.control("ping")?;
    setup_s.push(t.elapsed().as_secs_f64());
    d.close()?;
    remove(&journal);
    Ok(())
}

/// One round: a fresh daemon, the whole stream, then shutdown. Returns
/// the daemon's peak RSS in MB.
fn round(
    plan: &Plan,
    pool: &Pool,
    i: u64,
    traced: bool,
    rounds: &mut Rounds,
    setups: &mut SetupSampler,
) -> Result<f64, String> {
    let journal = plan.tmp.join(format!("journal-{i}.jsonl"));
    let profile = plan.tmp.join(format!("profile-{i}.jsonl"));
    let mut args = Vec::new();
    if traced {
        args.extend([
            "--stats".into(),
            "--profile".into(),
            profile.display().to_string(),
        ]);
    }
    let mut d = Daemon::spawn(&journal, &args)?;
    d.control("ping")?;
    let mut layer = LayerRound::default();
    let mut busy = if traced {
        busy_us(&d.control("stats")?)
    } else {
        0.0
    };
    let mut last_stats = None;
    let stream = serve_stream(plan.seed, i, pool.pairs.len());
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    for (k, req) in stream.iter().enumerate() {
        paused += setups.at(k)?;
        let id = format!("r{i}q{k}");
        let line = request_line(&id, pool, req);
        let sent = Instant::now();
        d.send(&line)?;
        let mut prev = sent;
        let mut got = 0;
        while let Some(v) = d.recv()? {
            if v.get("id").and_then(JsonValue::as_str) != Some(id.as_str()) {
                return Err(format!(
                    "response for another request while {id} is open: {v:?}"
                ));
            }
            let now = Instant::now();
            let us = (now - prev).as_secs_f64() * 1e6;
            prev = now;
            let name = v.get("pair").and_then(JsonValue::as_str).unwrap_or("");
            let kind = v.get("verdict").and_then(JsonValue::as_str).unwrap_or("");
            match req.get(got).map(|&p| &pool.pairs[p]) {
                Some(p) if p.name == name => {
                    rounds.gate.repeated_verdict(name, p.expect, kind);
                    rounds.pair(us, kind);
                    layer.pairs += 1.0;
                    match kind {
                        "unsupported" => layer.unsupported += 1.0,
                        "timeout" => layer.timeout_us += us,
                        _ => {}
                    }
                }
                _ => rounds
                    .gate
                    .fail(format!("{id}: unexpected verdict line for `{name}`")),
            }
            got += 1;
        }
        let req_us = sent.elapsed().as_secs_f64() * 1e6;
        rounds.req_us.push(req_us);
        layer.engine_us += req_us;
        if got != req.len() {
            rounds
                .gate
                .fail(format!("{id}: {got} verdict lines for {} pairs", req.len()));
        }
        if traced {
            let s = d.control("stats")?;
            let now_busy = busy_us(&s);
            layer.overhead_us.push(req_us - (now_busy - busy));
            busy = now_busy;
            last_stats = Some(s);
        }
    }
    let wall_us = (start.elapsed() - paused).as_secs_f64() * 1e6;
    let rss = d.peak_rss_mb()?;
    d.close()?;
    remove(&journal);
    let layer = match last_stats {
        Some(s) => {
            layer.totals = s
                .get("stats")
                .map(StatsTotals::from_json)
                .unwrap_or_default();
            layer.parse_us = s.get("phases").map_or(0.0, |p| p.num("parse_us") as f64);
            layer.queries = read_profile(&profile)?;
            layer.wall_us = wall_us;
            remove(&profile);
            Some(layer)
        }
        None => None,
    };
    let sent: usize = stream.iter().map(Vec::len).sum();
    rounds.round_done(wall_us, sent as u64, layer);
    Ok(rss)
}

pub fn run(plan: &Plan) -> Result<RunOutput, String> {
    let pool = build_pool();
    let setup_layers = SetupLayers {
        generate_us: pool.generate_us,
        pipeline_us: pool.pipeline_us,
        pairs_changed: pool.changed as f64,
        ..SetupLayers::default()
    };
    let mut setup_s = Vec::new();
    let mut sample = || setup_sample(plan, &mut setup_s);
    let mut setups = SetupSampler {
        every: SETUP_EVERY,
        sample: &mut sample,
    };
    let mut rss = Vec::new();
    let rounds = Rounds::run(plan, 1, |rounds, i, traced| {
        rss.push(round(plan, &pool, i, traced, rounds, &mut setups)?);
        Ok(())
    })?;
    let dropped: Vec<String> = pool
        .dropped
        .iter()
        .map(|n| format!("\"{}\"", esc(n)))
        .collect();
    let notes = vec![
        ("pool_pairs", pool.pairs.len().to_string()),
        ("pool_dropped", format!("[{}]", dropped.join(","))),
    ];
    rounds.finish(plan, &setup_s, &setup_layers, median(&rss), notes)
}
