//! What one measured pass of a workload produces.

use std::collections::BTreeMap;

use sheriff_core::records::PriceCheck;

use crate::gen::Request;
use crate::stats::{median, Ratio};

/// One reported figure and what it was computed from.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig {
    /// The value.
    pub value: f64,
    /// Its base, for the report: a ratio's numerator and denominator,
    /// or how many samples a median is over.
    pub basis: String,
}

impl Fig {
    /// A figure with an explicit basis.
    pub fn new(value: f64, basis: String) -> Fig {
        Fig { value, basis }
    }

    /// A ratio, keeping its base; `of` names the denominator's unit.
    pub fn ratio(r: Ratio, of: &str) -> Fig {
        Fig {
            value: r.value(),
            basis: format!("{} / {} {of}", r.total, r.base),
        }
    }

    /// The median of `samples` (0 over no samples).
    pub fn median(samples: &[f64]) -> Fig {
        Fig {
            value: if samples.is_empty() {
                0.0
            } else {
                median(samples)
            },
            basis: format!("median of {}", samples.len()),
        }
    }
}

/// One pass of a workload: end-to-end samples, counts, and the layer
/// figures the workload itself can see.
#[derive(Default)]
pub struct Outcome {
    /// Per-operation latency samples, ms (a check, a DES interval's
    /// share of one check, a k-means iteration).
    pub op_ms: Vec<f64>,
    /// Samples per chunk for the chunked tail: a fixed count of checks,
    /// a DES batch, a k-means cycle.
    pub chunk: usize,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations rejected, timed out or failing the correctness gate.
    pub failed: u64,
    /// Operations completed and verified.
    pub ok: u64,
    /// Wall seconds of the measured window.
    pub window_s: f64,
    /// Process CPU over the window, (user ms, system ms).
    pub cpu_ms: (f64, f64),
    /// One sample per set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Layer figures the workload measured directly.
    pub layer: BTreeMap<&'static str, Fig>,
    /// Observations across verified checks.
    pub pages: u64,
    /// The first gate failures, for the report.
    pub errors: Vec<String>,
    /// Reasons the run's outputs are wrong; empty when correct.
    pub wrong: Vec<String>,
    /// Observations missing across checks that came back short.
    pub shortfall: u64,
    /// Free-form facts for the report (digests, settings).
    pub notes: Vec<(&'static str, String)>,
    /// The requests issued, which the replay passes reuse.
    pub requests: Vec<Request>,
}

impl Outcome {
    /// Counts one failed operation, keeping the first few reasons.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// Marks the run's outputs wrong.
    pub fn incorrect(&mut self, why: String) {
        if self.wrong.len() < 8 {
            self.wrong.push(why);
        }
    }

    /// Applies the gate's verdict on a completed check; true on a pass.
    pub fn judge(&mut self, verdict: Verdict) -> bool {
        match verdict {
            Verdict::Pass => return true,
            Verdict::Short { missing, why } => {
                self.shortfall += missing as u64;
                self.fail(why);
            }
            Verdict::Failed(why) => self.fail(why),
            Verdict::Wrong(why) => {
                self.fail(why.clone());
                self.incorrect(why);
            }
        }
        false
    }

    /// Records a per-check layer ratio.
    pub fn per_check(&mut self, name: &'static str, r: Ratio) {
        self.layer.insert(name, Fig::ratio(r, "checks"));
    }
}

/// How a completed check fared at the correctness gate.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// Answers its request with every vantage's observation, none failed.
    Pass,
    /// Answers its request but carries `missing` fewer observations than
    /// vantages asked. The check counts as failed; the shortfall must be
    /// matched by replies the Measurement server's plausibility gate
    /// rejected (`defense.validation_rejects`), or the run is incorrect.
    Short {
        /// Observations missing.
        missing: usize,
        /// Why, for the report.
        why: String,
    },
    /// Answers its request but some observation failed: the check
    /// counts as failed.
    Failed(String),
    /// Answers another request, or holds more observations than
    /// vantages: the run is incorrect.
    Wrong(String),
}

/// The correctness gate for one completed check: it answers the request
/// it was issued for, and carries exactly `vantages` observations, none
/// failed.
pub fn verify(check: &PriceCheck, req: &Request, vantages: usize) -> Verdict {
    let url = format!("{}/product/{}", req.domain, req.product.0);
    if check.domain != req.domain || check.url != url {
        return Verdict::Wrong(format!("check for {url} answered {}", check.url));
    }
    let have = check.observations.len();
    if have > vantages {
        return Verdict::Wrong(format!(
            "{url}: {have} observations from {vantages} vantages"
        ));
    }
    if have < vantages {
        return Verdict::Short {
            missing: vantages - have,
            why: format!(
                "{url} from peer {}: {have} of {vantages} observations",
                req.peer
            ),
        };
    }
    let failed = check.observations.iter().filter(|o| o.failed).count();
    if failed > 0 {
        return Verdict::Failed(format!("{url}: {failed} failed observations"));
    }
    Verdict::Pass
}
