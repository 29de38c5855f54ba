//! Sample summaries and the run's metric record.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::check::Digest;

/// Linear-interpolated quantile `q` in `[0, 1]` of unsorted samples
/// (0 for no samples).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `part / whole`, 0 when `whole` is 0.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Every metric a run measured, by name, plus its counters of
/// attempted and failed operations and checks.
#[derive(Debug, Default)]
pub struct Record {
    /// Value, unit, and the sample count a timing summarizes.
    metrics: BTreeMap<String, (f64, &'static str, Option<usize>)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The content digest every pass of the run must reproduce.
    pub digest: Option<Digest>,
}

impl Record {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit, None));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|&(v, _, _)| v)
    }

    /// Set a timing summary of `n` samples.
    pub fn timing(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.metrics
            .insert(name.to_string(), (value, unit, Some(n)));
    }

    /// Count one attempted check; record its failure with a reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// The first digest becomes the run's; every later one must equal it.
    pub fn agree_digest(&mut self, digest: Digest) {
        match &self.digest {
            None => self.digest = Some(digest),
            Some(first) => {
                let same = *first == digest;
                let first = first.render();
                self.check(same, || {
                    format!("digest {} differs from {first}", digest.render())
                });
            }
        }
    }

    pub fn fail(&mut self, why: String) {
        eprintln!("perfbench: check failed: {why}");
        self.failed += 1;
        self.failures.push(why);
    }

    /// Print every metric as a report line, timings with their sample
    /// counts.
    pub fn print_all(&self) {
        for (name, (value, unit, n)) in &self.metrics {
            match n {
                Some(n) => println!("metric {name} = {value} {unit} (n={n})"),
                None => println!("metric {name} = {value} {unit}"),
            }
        }
    }

    /// The run's last line: the named metrics, in order, as JSON.
    pub fn result_line(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let (value, measured_unit, _) = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if *measured_unit != unit {
                return Err(format!(
                    "metric {name} has unit {measured_unit}, not {unit}"
                ));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        ))
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Restart `VmHWM` from the current resident set size, so that a later
/// `peak_rss_mb` covers only what runs after this call.
pub fn reset_peak_rss() {
    // Writing 5 to `clear_refs` resets the peak (Linux 4.0+).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
