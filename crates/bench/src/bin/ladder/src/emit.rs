//! JSON output: the driver's result line and the human report's
//! machine-readable twin. Writing is hand-rolled like the rest of the
//! workspace (offline build, no serde); reading back, for the child
//! results `ladder all` collects, goes through `trajcl_serve::json`.

use trajcl_serve::json::{escape, parse, Json};

use crate::spec::MetricSpec;

/// A JSON object under construction; fields keep insertion order.
#[derive(Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        self.body.push_str(&format!("\"{}\":", escape(key)));
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Obj {
        self.key(key);
        self.body.push_str(&format!("\"{}\"", escape(value)));
        self
    }

    /// Adds a number with every digit `f64` carries (shortest form that
    /// reads back to the same value); `null` when not finite.
    pub fn num(mut self, key: &str, value: f64) -> Obj {
        self.key(key);
        if value.is_finite() {
            self.body.push_str(&format!("{value}"));
        } else {
            self.body.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Obj {
        self.key(key);
        self.body.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds an already-encoded JSON value.
    pub fn raw(mut self, key: &str, json: &str) -> Obj {
        self.key(key);
        self.body.push_str(json);
        self
    }

    /// The encoded object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// One measured metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    /// Declared name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Declared unit.
    pub unit: String,
}

/// What one run of one workload reports: the driver's four keys.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Every answer checked was right, every generator-side validity
    /// rule held, and every declared metric is present and finite.
    pub correct: bool,
    /// Requests sent during the measured spans.
    pub attempted: u64,
    /// Requests that failed (error reply, transport error, timeout,
    /// wrong answer).
    pub failed: u64,
    /// The metrics, in declaration order.
    pub metrics: Vec<Measured>,
}

impl RunResult {
    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Names of `declared` metrics that are absent or not finite.
    pub fn missing(&self, declared: &[MetricSpec]) -> Vec<&'static str> {
        declared
            .iter()
            .filter(|d| !self.get(d.name).is_some_and(f64::is_finite))
            .map(|d| d.name)
            .collect()
    }

    /// The result as the single-line JSON object the driver reads.
    pub fn to_json(&self) -> String {
        let mut metrics = Obj::new();
        for m in &self.metrics {
            let value = Obj::new().num("value", m.value).str("unit", &m.unit);
            metrics = metrics.raw(&m.name, &value.finish());
        }
        Obj::new()
            .bool("correct", self.correct)
            .num("attempted", self.attempted as f64)
            .num("failed", self.failed as f64)
            .raw("metrics", &metrics.finish())
            .finish()
    }

    /// Reads a result line back. Metric order is not preserved by the
    /// parser's map, so metrics come back sorted by name.
    pub fn from_json(line: &str) -> Result<RunResult, String> {
        let doc = parse(line)?;
        let correct = match doc.get("correct") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("result line lacks \"correct\"".into()),
        };
        let count = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("result line lacks \"{key}\""))
        };
        let Some(Json::Obj(map)) = doc.get("metrics") else {
            return Err("result line lacks \"metrics\"".into());
        };
        let mut metrics = Vec::with_capacity(map.len());
        for (name, entry) in map {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name} has no numeric value"))?;
            let unit = entry
                .get("unit")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("metric {name} has no unit"))?;
            metrics.push(Measured {
                name: name.clone(),
                value,
                unit: unit.to_string(),
            });
        }
        Ok(RunResult {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_all_digits() {
        let result = RunResult {
            correct: true,
            attempted: 123_456,
            failed: 0,
            metrics: vec![
                Measured {
                    name: "knn_p50_us".into(),
                    value: 141.732_918_264_5,
                    unit: "us".into(),
                },
                Measured {
                    name: "setup_s".into(),
                    value: 0.1 + 0.2,
                    unit: "s".into(),
                },
            ],
        };
        let line = result.to_json();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\":true,\"attempted\":123456,\"failed\":0,"));
        let back = RunResult::from_json(&line).unwrap();
        assert_eq!(back, result);
        assert_eq!(
            back.get("setup_s").unwrap().to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
    }

    #[test]
    fn non_finite_values_are_null_and_reported_missing() {
        let result = RunResult {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: vec![Measured {
                name: "setup_s".into(),
                value: f64::NAN,
                unit: "s".into(),
            }],
        };
        assert!(result.to_json().contains("\"value\":null"));
        let declared = &crate::spec::END_TO_END[..2];
        assert_eq!(result.missing(declared), vec!["setup_s", "knn_qps"]);
        assert!(RunResult::from_json(&result.to_json()).is_err());
        assert!(RunResult::from_json("{\"correct\":true}").is_err());
    }

    #[test]
    fn strings_are_escaped() {
        let json = Obj::new().str("k\"ey", "line\nbreak").finish();
        let doc = parse(&json).unwrap();
        assert_eq!(doc.get("k\"ey").and_then(Json::as_str), Some("line\nbreak"));
    }
}
