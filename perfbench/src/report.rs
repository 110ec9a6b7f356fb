//! Metric collection and the JSON the benchmark prints.

use std::fmt::Write as _;

use crate::stats::Summary;

/// One reported metric: the median of its samples.
#[derive(Debug, Clone)]
pub struct Entry {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
}

/// Metrics in the order they were added.
#[derive(Debug, Default)]
pub struct Report {
    pub entries: Vec<Entry>,
    /// Metrics that could not be measured (no finite samples).
    pub missing: Vec<String>,
}

impl Report {
    /// Add a metric measured by `samples`; it reports their median.
    pub fn add(&mut self, name: impl Into<String>, unit: &'static str, samples: &[f64]) {
        let name = name.into();
        match Summary::of(samples) {
            Some(summary) => self.entries.push(Entry {
                name,
                unit,
                summary,
            }),
            None => self.missing.push(name),
        }
    }

    /// Add a metric whose value is a sum over groups of samples — the
    /// matrix's cells — of each group's median. Its quartiles are the
    /// sums of the groups' quartiles and `n` the smallest group's size.
    pub fn add_sum_of_medians(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        groups: &[Vec<f64>],
    ) {
        let summaries: Option<Vec<Summary>> = groups.iter().map(|g| Summary::of(g)).collect();
        match summaries.filter(|s| !s.is_empty()) {
            Some(s) => self.entries.push(Entry {
                name: name.into(),
                unit,
                summary: Summary {
                    n: s.iter().map(|g| g.n).min().unwrap_or(0),
                    median: s.iter().map(|g| g.median).sum(),
                    q1: s.iter().map(|g| g.q1).sum(),
                    q3: s.iter().map(|g| g.q3).sum(),
                    tail: None,
                },
            }),
            None => self.missing.push(name.into()),
        }
    }

    /// Sum over groups of each group's median; `None` if a group is
    /// empty.
    pub fn sum_of_medians(groups: &[Vec<f64>]) -> Option<f64> {
        groups
            .iter()
            .map(|g| Summary::of(g).map(|s| s.median))
            .sum::<Option<f64>>()
            .filter(|_| !groups.is_empty())
    }

    /// The reported value of a metric already added.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.summary.median)
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
        );
        for (i, e) in self.entries.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                e.name,
                json_number(e.summary.median),
                e.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Every metric with its sample count, quartiles and tail, as a
    /// JSON object keyed by metric name.
    pub fn summaries_json(&self) -> String {
        let mut out = String::from("{");
        for (i, e) in self.entries.iter().enumerate() {
            let s = &e.summary;
            let sep = if i == 0 { "" } else { "," };
            let tail = s.tail.map_or_else(
                || "null".to_string(),
                |(p, v)| {
                    format!(
                        "{{\"percentile\":{},\"value\":{}}}",
                        json_number(p),
                        json_number(v)
                    )
                },
            );
            let _ = write!(
                out,
                "{sep}\"{}\":{{\"unit\":\"{}\",\"n\":{},\"median\":{},\"q1\":{},\"q3\":{},\"tail\":{tail}}}",
                e.name,
                e.unit,
                s.n,
                json_number(s.median),
                json_number(s.q1),
                json_number(s.q3),
            );
        }
        out.push('}');
        out
    }

    /// One human-readable line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let s = &e.summary;
            let tail = s
                .tail
                .map_or_else(String::new, |(p, v)| format!(" p{p}={v:.6}"));
            let _ = writeln!(
                out,
                "{:<40} {:>16.6} {:<8} n={:<4} q1={:.6} q3={:.6} iqr/median={:.3}{tail}",
                e.name,
                s.median,
                e.unit,
                s.n,
                s.q1,
                s.q3,
                s.relative_spread()
            );
        }
        out
    }
}

/// A finite number in JSON form, with all its digits; `null` otherwise.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Escape a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
