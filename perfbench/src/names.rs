//! The benchmark's contract: workload and metric names, units and
//! directions, read from `BENCHMARK.json` at the repository root (the
//! file is compiled in), so what the benchmark prints is what the file
//! lists. `output::result_line` refuses a run that measured a name the
//! file does not list, or missed one it does.

use rfjson_jsonstream::{parse, Value};
use std::sync::OnceLock;

/// The contract file, as compiled in.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One reported metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
}

/// Workload names and the metrics of each kind of run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contract {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// Metrics of the untraced run (`--trace 0`).
    pub end_to_end: Vec<MetricDef>,
    /// Metrics of the traced run (`--trace 1`).
    pub per_layer: Vec<MetricDef>,
}

impl Contract {
    /// Reads the contract from the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Contract, String> {
        let doc = parse(text.as_bytes()).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<&[Value], String> {
            doc.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))
        };
        let field = |entry: &Value, key: &str| -> Result<String, String> {
            entry
                .get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json entry without a string `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|e| {
                    Ok(MetricDef {
                        name: field(e, "name")?,
                        unit: field(e, "unit")?,
                        better: field(e, "better")?,
                    })
                })
                .collect()
        };
        Ok(Contract {
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Looks up a metric definition by name in either list.
    pub fn metric(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|d| d.name == name)
    }
}

/// The compiled-in contract.
///
/// # Panics
///
/// Panics if the compiled-in `BENCHMARK.json` is malformed; a test below
/// parses it.
pub fn contract() -> &'static Contract {
    static CONTRACT: OnceLock<Contract> = OnceLock::new();
    CONTRACT.get_or_init(|| Contract::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well formed"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn workloads_match_benchmark_json() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, contract().workloads);
    }

    #[test]
    fn every_per_layer_metric_has_a_prediction() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/LAYERS.md");
        let text = std::fs::read_to_string(path).expect("LAYERS.md sits next to Cargo.toml");
        for d in &contract().per_layer {
            assert!(
                text.contains(&format!("`{}`", d.name)),
                "LAYERS.md names `{}`",
                d.name
            );
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let c = contract();
        let all: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|d| d.name.as_str())
            .chain(c.workloads.iter().map(String::as_str))
            .collect();
        for (i, n) in all.iter().enumerate() {
            assert!(
                n.len() <= 64 && n.as_bytes()[0].is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{n}"
            );
            assert!(!all[..i].contains(n), "{n} used twice");
        }
        for d in c.end_to_end.iter().chain(&c.per_layer) {
            assert!(["higher", "lower"].contains(&d.better.as_str()), "{d:?}");
        }
        let setup = c.metric("setup_s").expect("setup_s is reported");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    }

    #[test]
    fn malformed_contracts_are_refused() {
        assert!(Contract::parse("{}").is_err());
        assert!(Contract::parse(r#"{"workloads": [{"name": 1}]}"#).is_err());
    }
}
