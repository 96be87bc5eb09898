//! The verdict gate: every verdict the benchmark sees is checked against
//! what the pair is known to be. A benchmark run whose verdicts drift
//! measures a different program, so any mismatch fails the run and names
//! the pair.

use alive2_testgen::known_bugs::Expectation;
use std::collections::HashMap;

/// What a pair's verdict must be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// A §8.5 known bug: detected ones must be `incorrect`, missed ones
    /// must not be.
    Known(Expectation),
    /// A pass pair from a pipeline with no seeded bug: never `incorrect`.
    CleanPipeline,
    /// A pass pair from the Fig. 7 pipeline; only `instcombine` carries a
    /// seeded bug, so only its pairs may be `incorrect`.
    SeededPass(&'static str),
}

/// The only pass of the Fig. 7 pipeline with a seeded bug
/// (`SelectToLogic`).
pub const SEEDED_PASS: &str = "instcombine";

/// Checks one verdict (by its [`alive2_core::validator::Verdict::kind`]).
pub fn check(name: &str, expect: Expect, kind: &str) -> Result<(), String> {
    if kind == "crash" {
        return Err(format!("{name}: crash verdict"));
    }
    let incorrect = kind == "incorrect";
    match expect {
        Expect::Known(Expectation::Detected) if !incorrect => Err(format!(
            "{name}: known bug expected detected (incorrect), got {kind}"
        )),
        Expect::Known(Expectation::Missed(_)) if incorrect => {
            Err(format!("{name}: known bug expected missed, got incorrect"))
        }
        Expect::CleanPipeline if incorrect => Err(format!(
            "{name}: clean-pipeline pair reported incorrect (false alarm)"
        )),
        Expect::SeededPass(pass) if incorrect && pass != SEEDED_PASS => Err(format!(
            "{name}: incorrect verdict from `{pass}`, which has no seeded bug"
        )),
        _ => Ok(()),
    }
}

/// Collects mismatches over a run, including the repeat rule: a pair
/// seen again must get the verdict of its first sighting.
#[derive(Default)]
pub struct Gate {
    mismatches: Vec<String>,
    first: HashMap<String, String>,
    checked: u64,
}

impl Gate {
    /// Checks one verdict against its expectation.
    pub fn verdict(&mut self, name: &str, expect: Expect, kind: &str) {
        self.checked += 1;
        if let Err(e) = check(name, expect, kind) {
            self.mismatches.push(e);
        }
    }

    /// Like [`Gate::verdict`], also holding the pair to the verdict it got
    /// the first time it was seen in this run.
    pub fn repeated_verdict(&mut self, name: &str, expect: Expect, kind: &str) {
        self.verdict(name, expect, kind);
        match self.first.get(name) {
            Some(first) if first != kind => self.mismatches.push(format!(
                "{name}: repeat got {kind}, first sighting got {first}"
            )),
            Some(_) => {}
            None => {
                self.first.insert(name.to_string(), kind.to_string());
            }
        }
    }

    /// Records a failure that is not a verdict (a lost response, a
    /// protocol error).
    pub fn fail(&mut self, what: String) {
        self.mismatches.push(what);
    }

    /// Verdicts checked so far.
    pub fn checked(&self) -> u64 {
        self.checked
    }

    /// The mismatches found so far.
    pub fn mismatches(&self) -> &[String] {
        &self.mismatches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alive2_testgen::known_bugs::known_bugs;

    #[test]
    fn flipped_expectation_is_rejected_by_name() {
        let bug = known_bugs()
            .into_iter()
            .find(|b| b.expect == Expectation::Detected)
            .expect("a detected bug");
        assert!(check(bug.name, Expect::Known(bug.expect), "incorrect").is_ok());
        let flipped = Expect::Known(Expectation::Missed("flipped"));
        let err = check(bug.name, flipped, "incorrect").unwrap_err();
        assert!(err.contains(bug.name), "{err}");
        let mut gate = Gate::default();
        gate.verdict(bug.name, flipped, "incorrect");
        assert_eq!(gate.mismatches().len(), 1);
    }

    #[test]
    fn clean_pairs_and_unseeded_passes_may_not_be_incorrect() {
        assert!(check("p", Expect::CleanPipeline, "correct").is_ok());
        assert!(check("p", Expect::CleanPipeline, "incorrect").is_err());
        assert!(check(
            "f/instcombine",
            Expect::SeededPass("instcombine"),
            "incorrect"
        )
        .is_ok());
        assert!(check("f/gvn", Expect::SeededPass("gvn"), "incorrect").is_err());
        assert!(check("f/gvn", Expect::SeededPass("gvn"), "timeout").is_ok());
        assert!(check("f/gvn", Expect::SeededPass("gvn"), "crash").is_err());
    }

    #[test]
    fn repeat_must_match_first_sighting() {
        let mut gate = Gate::default();
        gate.repeated_verdict("p", Expect::CleanPipeline, "correct");
        gate.repeated_verdict("p", Expect::CleanPipeline, "correct");
        assert!(gate.mismatches().is_empty());
        gate.repeated_verdict("p", Expect::CleanPipeline, "timeout");
        assert_eq!(gate.mismatches().len(), 1);
        assert!(gate.mismatches()[0].starts_with("p:"));
    }
}
