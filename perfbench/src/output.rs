//! The result line: one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`, every metric of the run's table by name with
//! its unit, and nothing else.

use crate::names::MetricDef;
use std::fmt::Write as _;

/// Formats the result line for `metrics`, which must hold every name of
/// `table` exactly once (and no other) with a finite value; the line
/// lists them in table order.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64)],
    table: &[MetricDef],
) -> Result<String, String> {
    if metrics.len() != table.len() {
        return Err(format!(
            "{} metrics measured, {} defined",
            metrics.len(),
            table.len()
        ));
    }
    let mut body = String::new();
    for (i, d) in table.iter().enumerate() {
        let mut found = metrics.iter().filter(|(n, _)| *n == d.name);
        let value = match (found.next(), found.next()) {
            (Some(&(_, v)), None) => v,
            (None, _) => return Err(format!("metric {} was not measured", d.name)),
            (Some(_), Some(_)) => return Err(format!("metric {} measured twice", d.name)),
        };
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", d.name));
        }
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            r#""{}": {{"value": {value}, "unit": "{}"}}"#,
            d.name, d.unit
        );
    }
    Ok(format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{body}}}}}"#
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::contract;
    use rfjson_jsonstream::{parse, Value};

    fn all(table: &[MetricDef]) -> Vec<(&str, f64)> {
        table
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name.as_str(), 0.125 + i as f64))
            .collect()
    }

    #[test]
    fn result_line_lists_every_metric_by_name_and_unit() {
        for table in [&contract().end_to_end, &contract().per_layer] {
            let line = result_line(true, 10, 0, &all(table), table).expect("complete");
            let v = parse(line.as_bytes()).expect("result line is JSON");
            let keys: Vec<&str> = v
                .as_object()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = v
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let expected: Vec<&str> = table.iter().map(|d| d.name.as_str()).collect();
            assert_eq!(names, expected);
            for (d, (_, m)) in table.iter().zip(metrics) {
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(d.unit.as_str()));
                assert!(m.get("value").and_then(Value::as_f64).is_some());
            }
        }
    }

    #[test]
    fn incomplete_or_invalid_metrics_are_refused() {
        let e2e = &contract().end_to_end;
        let mut m = all(e2e);
        m.pop();
        assert!(result_line(true, 1, 0, &m, e2e).is_err());
        let mut m = all(e2e);
        m[0].1 = f64::NAN;
        assert!(result_line(true, 1, 0, &m, e2e).is_err());
        let mut m = all(e2e);
        m[1].0 = m[0].0;
        assert!(result_line(true, 1, 0, &m, e2e).is_err());
    }

    #[test]
    fn values_keep_all_their_digits() {
        let e2e = &contract().end_to_end;
        let m: Vec<(&str, f64)> = e2e.iter().map(|d| (d.name.as_str(), 1.0 / 3.0)).collect();
        let line = result_line(false, 3, 1, &m, e2e).expect("complete");
        assert!(line.contains("0.3333333333333333"));
        assert!(line.starts_with(r#"{"correct": false, "attempted": 3, "failed": 1,"#));
    }
}
