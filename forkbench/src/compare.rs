//! `compare`: applies the regression bounds in `BENCHMARK.json` to two
//! sets of recorded runs.
//!
//! Each input file holds one record per line, as written by
//! `run --json <file>`. Per workload, the median of each end-to-end
//! metric over the new runs is compared with the median over the base
//! runs. Traced records are ignored: end-to-end metrics come from
//! untraced runs only.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::median;
use crate::workloads::NAMES;

/// One end-to-end metric's regression rule.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// True when a higher value is better.
    pub higher_is_better: bool,
    /// Largest tolerated worsening, as a share of the base median.
    pub bound: f64,
}

impl Bound {
    /// How much worse `new` is than `base`, as a share of `base`
    /// (negative when better).
    pub fn worsening(&self, base: f64, new: f64) -> f64 {
        let delta = if self.higher_is_better {
            base - new
        } else {
            new - base
        };
        if base == 0.0 {
            if delta > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            delta / base.abs()
        }
    }

    /// True when `new` is worse than `base` by more than the bound.
    pub fn regressed(&self, base: f64, new: f64) -> bool {
        self.worsening(base, new) > self.bound
    }
}

/// Reads the `end_to_end` bounds out of a `BENCHMARK.json` document.
pub fn bounds(doc: &Json) -> Result<Vec<Bound>, String> {
    let list = doc
        .get("end_to_end")
        .and_then(Json::arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Json::str)
                .ok_or("metric without better")?;
            let bound = m
                .get("bound")
                .and_then(Json::num)
                .ok_or("metric without bound")?;
            Ok(Bound {
                name: name.to_string(),
                higher_is_better: better == "higher",
                bound,
            })
        })
        .collect()
}

/// The untraced runs of one workload in one file.
#[derive(Debug, Default)]
struct Runs {
    count: usize,
    bad: usize,
    values: BTreeMap<String, Vec<f64>>,
}

/// Groups a record file's untraced runs by workload.
fn load(text: &str) -> Result<BTreeMap<String, Runs>, String> {
    let mut by_workload: BTreeMap<String, Runs> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if rec.get("trace").and_then(Json::num) != Some(0.0) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Json::str)
            .ok_or("record without workload")?;
        let result = rec.get("result").ok_or("record without result")?;
        let runs = by_workload.entry(workload.to_string()).or_default();
        runs.count += 1;
        let correct = result.get("correct") == Some(&Json::Bool(true));
        if !correct || result.get("failed").and_then(Json::num) != Some(0.0) {
            runs.bad += 1;
        }
        for (name, m) in result
            .get("metrics")
            .and_then(Json::obj)
            .unwrap_or_default()
        {
            if let Some(v) = m.get("value").and_then(Json::num) {
                runs.values.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(by_workload)
}

/// Compares the new runs with the base runs; returns the report and
/// whether every workload passed.
pub fn compare(bounds: &[Bound], base: &str, new: &str) -> Result<(String, bool), String> {
    let (base, new) = (load(base)?, load(new)?);
    let mut ok = true;
    let mut out = format!(
        "{:<9} {:<20} {:>14} {:>14} {:>8} {:>6}  verdict\n",
        "workload", "metric", "base", "new", "worse", "bound"
    );
    for w in NAMES {
        let (Some(b), Some(n)) = (base.get(w), new.get(w)) else {
            continue;
        };
        if n.bad > 0 || b.bad > 0 {
            ok = false;
            out.push_str(&format!(
                "{w:<9} {} of {} base and {} of {} new runs incorrect or with failed operations\n",
                b.bad, b.count, n.bad, n.count
            ));
        }
        for bound in bounds {
            let (Some(bv), Some(nv)) = (b.values.get(&bound.name), n.values.get(&bound.name))
            else {
                ok = false;
                out.push_str(&format!("{w:<9} {:<20} missing\n", bound.name));
                continue;
            };
            let (bm, nm) = (median(bv), median(nv));
            let regressed = bound.regressed(bm, nm);
            ok &= !regressed;
            out.push_str(&format!(
                "{w:<9} {:<20} {bm:>14.5e} {nm:>14.5e} {:>+7.1}% {:>5.0}%  {}\n",
                bound.name,
                100.0 * bound.worsening(bm, nm),
                100.0 * bound.bound,
                if regressed { "REGRESSED" } else { "ok" }
            ));
        }
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher: bool, share: f64) -> Bound {
        Bound {
            name: "m".into(),
            higher_is_better: higher,
            bound: share,
        }
    }

    #[test]
    fn bounds_apply_in_the_metrics_direction() {
        let lower = bound(false, 0.1);
        assert!(!lower.regressed(100.0, 109.9));
        assert!(lower.regressed(100.0, 110.1));
        assert!(!lower.regressed(100.0, 50.0));
        let higher = bound(true, 0.1);
        assert!(!higher.regressed(100.0, 90.1));
        assert!(higher.regressed(100.0, 89.9));
        assert!(!higher.regressed(100.0, 500.0));
        assert!(bound(false, 0.0).regressed(0.0, 1.0));
        assert!(!bound(false, 0.0).regressed(0.0, 0.0));
    }

    #[test]
    fn compare_takes_medians_per_workload_and_skips_traced_runs() {
        let doc = Json::parse(
            r#"{"end_to_end": [{"name": "host_ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .expect("valid");
        let b = bounds(&doc).expect("bounds");
        let rec = |w: &str, trace: u8, v: f64| {
            format!(
                "{{\"workload\": \"{w}\", \"seed\": 1, \"trace\": {trace}, \"result\": {{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {{\"host_ops_per_s\": {{\"value\": {v}, \"unit\": \"1/s\"}}}}}}}}\n"
            )
        };
        let base = [
            rec("faas", 0, 100.0),
            rec("faas", 0, 102.0),
            rec("faas", 0, 98.0),
        ]
        .concat();
        let same = [
            rec("faas", 0, 95.0),
            rec("faas", 0, 99.0),
            rec("faas", 1, 1.0),
        ]
        .concat();
        let (_, ok) = compare(&b, &base, &same).expect("compare");
        assert!(ok, "a 3% drop is inside a 10% bound");
        let worse = [rec("faas", 0, 80.0), rec("faas", 0, 85.0)].concat();
        let (report, ok) = compare(&b, &base, &worse).expect("compare");
        assert!(!ok);
        assert!(report.contains("REGRESSED"), "{report}");
    }
}
