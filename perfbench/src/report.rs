//! The run's output: an environment stamp, one line per metric with its
//! unit, notes, and a last line holding one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.

pub struct Report {
    stamp: String,
    notes: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

/// Median of a sample (mean of the middle two for an even count).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

impl Report {
    pub fn new() -> Report {
        Report {
            stamp: String::new(),
            notes: Vec::new(),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    pub fn stamp(&mut self, fields: &[(&str, String)]) {
        self.stamp = fields
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
    }

    pub fn note(&mut self, note: &str) {
        self.notes.push(note.to_string());
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn finish(&mut self, attempted: u64, failed: u64, notes: &[String]) {
        self.attempted = attempted.max(1);
        self.failed = failed;
        for n in notes {
            self.notes.push(format!("FAILED: {n}"));
        }
        self.notes.push(format!(
            "attempted={} failed={} fail_ratio={}",
            self.attempted,
            failed,
            failed as f64 / self.attempted as f64
        ));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn print(&self) {
        println!("# env {}", self.stamp);
        for n in &self.notes {
            println!("# {n}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median([]), 0.0);
    }
}
