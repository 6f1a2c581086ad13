//! What one run hands back: named metrics with units, the outcome
//! counts, measured workload properties and free-form notes, printed as
//! one JSON line for `run.py`.

use serde::{Number, Value};
use std::collections::BTreeMap;

/// One run's results.
#[derive(Debug, Default)]
pub struct Record {
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Measured properties of the workload's inputs (for BENCHMARK
    /// documentation, not gated).
    pub properties: BTreeMap<String, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: error, refused, missing or incorrect.
    pub failed: u64,
    /// Every checked output matched its reference.
    pub correct: bool,
    /// Human-readable remarks.
    pub notes: Vec<String>,
}

impl Record {
    /// A record that is correct until a check says otherwise.
    pub fn new() -> Record {
        Record {
            correct: true,
            ..Record::default()
        }
    }

    /// Sets a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Sets a property.
    pub fn property(&mut self, name: &str, value: f64) {
        self.properties.insert(name.to_string(), value);
    }

    /// Adds a remark.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.correct = false;
        }
    }

    /// The record as one JSON object.
    pub fn to_json(&self) -> String {
        let num = |x: f64| Value::Number(Number::F64(x));
        let metrics = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                let mut m = BTreeMap::new();
                m.insert("value".to_string(), num(*value));
                m.insert("unit".to_string(), Value::String(unit.to_string()));
                (name.clone(), Value::Object(m))
            })
            .collect();
        let properties = self
            .properties
            .iter()
            .map(|(name, value)| (name.clone(), num(*value)))
            .collect();
        let record = Value::Object(BTreeMap::from([
            ("metrics".to_string(), Value::Object(metrics)),
            ("properties".to_string(), Value::Object(properties)),
            (
                "attempted".to_string(),
                Value::Number(Number::U64(self.attempted)),
            ),
            (
                "failed".to_string(),
                Value::Number(Number::U64(self.failed)),
            ),
            ("correct".to_string(), Value::Bool(self.correct)),
            (
                "notes".to_string(),
                Value::Array(self.notes.iter().cloned().map(Value::String).collect()),
            ),
        ]));
        serde_json::to_string(&record).expect("a JSON value always serializes")
    }
}
