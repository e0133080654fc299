//! The result line and the human-readable table.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How the value was obtained, for the table.
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            note: String::new(),
        }
    }

    /// Attaches a note.
    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// Everything one invocation reports.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Whether every output and check was right.
    pub correct: bool,
    /// Operations attempted over every run.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The metrics.
    pub metrics: Vec<Metric>,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
    /// Free-form lines for the table (runs made, sample counts).
    pub info: Vec<String>,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// The table printed above the JSON line.
    pub fn table(&self, title: &str) -> String {
        let mut s = format!("{title}\n");
        for line in &self.info {
            let _ = writeln!(s, "  {line}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "  {:<40} {:>16.6} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        for p in &self.problems {
            let _ = writeln!(s, "  CHECK FAILED: {p}");
        }
        s
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// platform does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_four_keys() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                Metric::new("setup_s", 0.25, "s"),
                Metric::new("host_ops_per_s", 1234.5678, "1/s"),
            ],
            ..Outcome::default()
        };
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"host_ops_per_s\": {\"value\": 1234.5678, \"unit\": \"1/s\"}}}"
        );
    }
}
