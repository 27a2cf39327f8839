//! The unified report: capture + Prometheus-text and JSON exporters.

use std::collections::BTreeMap;

use crate::hist::HistogramSnapshot;
use crate::json::{self, Json};
use crate::op::Op;
use crate::sampler::SeriesPoint;

/// Tracked quantiles: `(q, prometheus label, short name)`.
pub const QUANTILES: [(f64, &str, &str); 4] = [
    (0.5, "0.5", "p50"),
    (0.9, "0.9", "p90"),
    (0.99, "0.99", "p99"),
    (0.999, "0.999", "p999"),
];

/// One exported histogram.
#[derive(Debug, Clone)]
pub struct HistEntry {
    /// Metric label (the [`Op`] name).
    pub name: &'static str,
    /// Merged snapshot.
    pub snapshot: HistogramSnapshot,
}

/// A unified, machine-readable observability report: per-operation latency
/// histograms, flat counters (buffer metrics, device stats, …), gauges, and
/// the sampled time series. Counters and gauges are keyed by name, so a
/// name appears at most once per section however many sources report it.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Latency histograms for every operation that recorded at least once.
    pub histograms: Vec<HistEntry>,
    /// Dynamically-labeled histograms (e.g. per-tenant request latency),
    /// `(label, snapshot)`, sorted by label. See [`crate::labels`].
    pub labeled: Vec<(String, HistogramSnapshot)>,
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Sampler time series (empty unless the sampler ran).
    pub series: Vec<SeriesPoint>,
}

impl Report {
    /// Capture the whole process: histograms and the sampler series from
    /// the global registry, plus the counters and gauges of every live
    /// [`Source`](crate::Source) registered with
    /// [`register_source`](crate::register_source).
    pub fn capture() -> Report {
        let mut histograms = Vec::new();
        for op in Op::ALL {
            let snapshot = crate::registry().histogram(op).snapshot();
            if snapshot.count > 0 {
                histograms.push(HistEntry {
                    name: op.name(),
                    snapshot,
                });
            }
        }
        let mut report = Report {
            histograms,
            labeled: crate::labels::labeled_snapshots(),
            series: crate::sampler::series_snapshot(),
            ..Report::default()
        };
        crate::source::collect(&mut report);
        report
    }

    /// Set a monotonic counter.
    pub fn add_counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.insert(name.into(), value);
    }

    /// Set a gauge.
    pub fn add_gauge(&mut self, name: impl Into<String>, value: f64) {
        self.gauges.insert(name.into(), value);
    }

    /// Render in the Prometheus text exposition format. Histogram quantiles
    /// are exported as a `summary` in seconds.
    pub fn to_prometheus(&self) -> String {
        let mut s = String::new();
        if !self.histograms.is_empty() {
            s.push_str("# HELP spitfire_op_latency_seconds Per-operation latency quantiles.\n");
            s.push_str("# TYPE spitfire_op_latency_seconds summary\n");
            for h in &self.histograms {
                for (q, label, _) in QUANTILES {
                    if let Some(ns) = h.snapshot.quantile(q) {
                        s.push_str(&format!(
                            "spitfire_op_latency_seconds{{op=\"{}\",quantile=\"{}\"}} {}\n",
                            h.name,
                            label,
                            fmt_f64(ns as f64 / 1e9)
                        ));
                    }
                }
                s.push_str(&format!(
                    "spitfire_op_latency_seconds_sum{{op=\"{}\"}} {}\n",
                    h.name,
                    fmt_f64(h.snapshot.sum as f64 / 1e9)
                ));
                s.push_str(&format!(
                    "spitfire_op_latency_seconds_count{{op=\"{}\"}} {}\n",
                    h.name, h.snapshot.count
                ));
            }
        }
        if !self.labeled.is_empty() {
            s.push_str("# HELP spitfire_labeled_latency_seconds Labeled latency quantiles.\n");
            s.push_str("# TYPE spitfire_labeled_latency_seconds summary\n");
            for (label, snap) in &self.labeled {
                for (q, ql, _) in QUANTILES {
                    if let Some(ns) = snap.quantile(q) {
                        s.push_str(&format!(
                            "spitfire_labeled_latency_seconds{{label=\"{}\",quantile=\"{}\"}} {}\n",
                            json::escape(label),
                            ql,
                            fmt_f64(ns as f64 / 1e9)
                        ));
                    }
                }
                s.push_str(&format!(
                    "spitfire_labeled_latency_seconds_count{{label=\"{}\"}} {}\n",
                    json::escape(label),
                    snap.count
                ));
            }
        }
        for (name, value) in &self.counters {
            let metric = sanitize(name);
            s.push_str(&format!("# TYPE spitfire_{metric} counter\n"));
            s.push_str(&format!("spitfire_{metric} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let metric = sanitize(name);
            s.push_str(&format!("# TYPE spitfire_{metric} gauge\n"));
            s.push_str(&format!("spitfire_{metric} {}\n", fmt_f64(*value)));
        }
        s
    }

    /// The report as a JSON tree: `histograms`, `labeled`, `counters`,
    /// `gauges` (objects keyed by name) and `series` (array of ticks).
    pub fn json(&self) -> Json {
        let histograms = self.histograms.iter();
        json::object([
            (
                "histograms",
                json::object(histograms.map(|h| (h.name, snapshot_json(&h.snapshot)))),
            ),
            (
                "labeled",
                json::object(self.labeled.iter().map(|(l, s)| (l, snapshot_json(s)))),
            ),
            (
                "counters",
                json::object(self.counters.iter().map(|(n, v)| (n, Json::from(*v)))),
            ),
            (
                "gauges",
                json::object(self.gauges.iter().map(|(n, v)| (n, Json::from(*v)))),
            ),
            (
                "series",
                json::array(self.series.iter().map(|point| {
                    json::object([
                        ("t_ms", Json::from(point.t_ms)),
                        (
                            "values",
                            json::object(point.values.iter().map(|(n, v)| (n, Json::from(*v)))),
                        ),
                    ])
                })),
            ),
        ])
    }

    /// Render [`Self::json`] indented, for files.
    pub fn to_json(&self) -> String {
        self.json().pretty()
    }
}

/// One exported histogram (shared by the per-op and labeled sections).
fn snapshot_json(snap: &HistogramSnapshot) -> Json {
    let mut fields = vec![
        ("count".to_string(), Json::from(snap.count)),
        ("sum_ns".to_string(), snap.sum.into()),
        (
            "min_ns".to_string(),
            if snap.count == 0 { 0 } else { snap.min }.into(),
        ),
        ("max_ns".to_string(), snap.max.into()),
        ("mean_ns".to_string(), snap.mean().unwrap_or(0.0).into()),
    ];
    for (q, _, short) in QUANTILES {
        fields.push((format!("{short}_ns"), snap.quantile(q).unwrap_or(0).into()));
    }
    Json::Object(fields)
}

/// Format an f64 for Prometheus (finite; no NaN/inf in the output).
fn fmt_f64(v: f64) -> String {
    Json::from(v).compact()
}

/// Lowercase and replace non-`[a-z0-9_]` with `_` (Prometheus metric names).
fn sanitize(name: &str) -> String {
    name.to_lowercase()
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    fn sample_report() -> Report {
        let h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(i * 100);
        }
        let mut r = Report {
            histograms: vec![HistEntry {
                name: "fetch_dram_hit",
                snapshot: h.snapshot(),
            }],
            ..Report::default()
        };
        r.add_counter("dram_hits", 123);
        r.add_gauge("dram_occupied_frames", 64.0);
        r.series.push(crate::sampler::SeriesPoint {
            t_ms: 10,
            values: vec![("g".into(), 1.0)],
        });
        r
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = sample_report().to_prometheus();
        assert!(text.contains("# TYPE spitfire_op_latency_seconds summary"));
        assert!(
            text.contains("spitfire_op_latency_seconds{op=\"fetch_dram_hit\",quantile=\"0.99\"}")
        );
        assert!(text.contains("spitfire_op_latency_seconds_count{op=\"fetch_dram_hit\"} 1000"));
        assert!(text.contains("# TYPE spitfire_dram_hits counter"));
        assert!(text.contains("spitfire_dram_hits 123"));
        assert!(text.contains("spitfire_dram_occupied_frames 64"));
        // Every line is either a comment or `name{labels} value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split_whitespace().count() == 2,
                "bad line: {line}"
            );
        }
    }

    #[test]
    fn json_is_balanced_and_contains_quantiles() {
        let json = sample_report().to_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"p50_ns\""));
        assert!(json.contains("\"p999_ns\""));
        assert!(json.contains("\"dram_hits\": 123"));
        assert!(json.contains("\"t_ms\": 10"));
    }

    #[test]
    fn sanitize_maps_to_prometheus_names() {
        assert_eq!(sanitize("Device/NVM bytes"), "device_nvm_bytes");
    }

    #[test]
    fn quantile_label_mapping() {
        let labels: Vec<&str> = QUANTILES.iter().map(|(_, _, s)| *s).collect();
        assert_eq!(labels, ["p50", "p90", "p99", "p999"]);
    }
}
