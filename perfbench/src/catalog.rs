//! What the benchmark measures: its workloads, its end-to-end metrics and
//! its per-layer metrics, read from the repository's `BENCHMARK.json`
//! (compiled in, so the file is the only list). `README.md` says what
//! each metric is and which end-to-end metric it should move; a test
//! keeps it in step with the file.

use glitchlock_obs::json::{self, Value};
use std::sync::OnceLock;

/// The repository's benchmark description.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A metric's name and unit.
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
}

/// The parts of `BENCHMARK.json` the benchmark itself needs.
pub struct Catalog {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics, reported by untraced runs.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, reported by traced runs.
    pub per_layer: Vec<Metric>,
}

impl Catalog {
    /// True when `name` is a per-layer metric.
    pub fn has_layer_metric(&self, name: &str) -> bool {
        self.per_layer.iter().any(|m| m.name == name)
    }
}

/// The compiled-in catalog.
pub fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed"))
}

fn parse(text: &str) -> Result<Catalog, String> {
    let root = json::parse(text)?;
    let list = |key: &str| match root.get(key) {
        Some(Value::Arr(items)) => Ok(items.as_slice()),
        _ => Err(format!("`{key}` is not a list")),
    };
    let field = |v: &Value, key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("an entry lacks `{key}`"))
    };
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                })
            })
            .collect()
    };
    Ok(Catalog {
        workloads: list("workloads")?
            .iter()
            .map(|w| field(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_meets_the_file_limits() {
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        let root = json::parse(BENCHMARK_JSON).unwrap();
        let c = catalog();
        let mut all: Vec<&str> = c.workloads.iter().map(String::as_str).collect();
        let metrics = c.end_to_end.iter().chain(&c.per_layer);
        all.extend(metrics.clone().map(|m| m.name.as_str()));
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a name is used twice");
        assert!(all.iter().all(|n| well_formed_name(n)), "{all:?}");
        for m in metrics {
            let ok = m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'));
            assert!(ok, "{}", m.unit);
        }
        let Some(Value::Arr(workloads)) = root.get("workloads") else {
            panic!("no workloads");
        };
        assert!((2..=8).contains(&workloads.len()));
        for w in workloads {
            let why = w.get("why").and_then(Value::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let Some(Value::Arr(e2e)) = root.get("end_to_end") else {
            panic!("no end_to_end");
        };
        for e in e2e {
            let bound = e.get("bound").and_then(Value::as_num).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{bound}");
        }
        let setup = &c.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(setup.unit, "s");
        let secs = root.get("run_seconds").and_then(Value::as_num).unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
    }

    #[test]
    fn the_readme_documents_every_metric() {
        let readme = include_str!("../README.md");
        let c = catalog();
        let names = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|m| &m.name)
            .chain(&c.workloads);
        for name in names {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README lacks `{name}`"
            );
        }
    }
}
