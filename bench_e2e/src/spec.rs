//! The benchmark contract: `BENCHMARK.json` at the repository root,
//! embedded at build time so the binary, `--repeat` and the smoke test
//! all read workload names, metric names and bounds from one place.

use crate::json::Json;

/// The contract file, verbatim.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the median (end-to-end only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    let items = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: missing array '{key}'"))?;
    items
        .iter()
        .map(|item| {
            let field = |name: &str| {
                item.get(name)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: a '{key}' entry lacks '{name}'"))
            };
            Ok(MetricSpec {
                name: field("name")?,
                unit: field("unit")?,
                higher_is_better: field("better")? == "higher",
                bound: item.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parses the embedded contract.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed member.
    pub fn load() -> Result<Spec, String> {
        let doc = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: missing array 'workloads'")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "BENCHMARK.json: a workload lacks 'name'".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: missing 'run_seconds'")?,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }
}
