//! What a run prints, what it leaves on disk, and the comparison of two
//! result sets.

use crate::run::Report;
use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Seconds one driver run measures for, and the default of `--seconds`.
pub const RUN_SECONDS: u32 = 13;

/// The text of `BENCHMARK.json`, generated from the tables in `spec`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let list = |out: &mut String, key: &str, rows: Vec<String>, last: bool| {
        let _ = writeln!(out, "  \"{key}\": [");
        let _ = writeln!(out, "    {}", rows.join(",\n    "));
        let _ = writeln!(out, "  ]{}", if last { "" } else { "," });
    };
    let rows = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    list(&mut out, "workloads", rows, false);
    let rows = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \"bound\": {bound}}}",
                better.as_str()
            )
        })
        .collect();
    list(&mut out, "end_to_end", rows, false);
    let rows = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.as_str()
            )
        })
        .collect();
    list(&mut out, "per_layer", rows, true);
    out.push_str("}\n");
    out
}

/// `(name, unit)` of every metric of a mode, in table order.
fn metric_names(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    }
}

/// Prints every metric by name and unit, then the result object the
/// driver reads as the last line. A per-layer metric the workload does
/// not exercise prints `n/a` above and `0` in the object, whose values
/// must be numbers.
pub fn print(report: &Report) {
    println!(
        "workload {}  seed {}  trace {}",
        report.spec.name,
        report.seed,
        u8::from(report.trace)
    );
    for (key, value) in &report.info {
        println!("  {key:<24} {value}");
    }
    let names = metric_names(report.trace);
    for (name, unit) in &names {
        match report.values.get(name) {
            Some(v) => println!("  {name:<28} {v:>16.6} {unit}"),
            None => println!("  {name:<28} {:>16} {unit}", "n/a"),
        }
    }
    let t = &report.tally;
    println!(
        "  operations attempted {}, failed {}, failed_share {}",
        t.attempted,
        t.failed,
        t.failed as f64 / t.attempted.max(1) as f64
    );
    for failure in &t.failures {
        println!("  FAILED: {failure}");
    }
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = report.values.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed == 0,
        t.attempted.max(1),
        t.failed,
        metrics.join(", ")
    );
}

/// Appends the run to `<dir>/results.tsv`, one line per measured metric:
/// workload, seed, trace, metric, unit, value.
pub fn append_tsv(dir: &Path, report: &Report) -> Result<(), String> {
    use std::io::Write as _;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("results.tsv");
    let mut text = String::new();
    let head = format!(
        "{}\t{}\t{}",
        report.spec.name,
        report.seed,
        u8::from(report.trace)
    );
    for (key, value) in &report.info {
        if *key == "input_digest" {
            let _ = writeln!(text, "{head}\t{key}\thex\t{value}");
        }
    }
    for (name, unit) in metric_names(report.trace) {
        if let Some(v) = report.values.get(name) {
            let _ = writeln!(text, "{head}\t{name}\t{unit}\t{v}");
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    file.write_all(text.as_bytes())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `(workload, metric) → values`, plus the digests seen per
/// `(workload, seed)`.
#[derive(Default)]
struct ResultSet {
    values: BTreeMap<(String, String), Vec<f64>>,
    /// The same values keyed by `(workload, metric, seed)`, for the counts
    /// that must repeat exactly per seed.
    by_seed: BTreeMap<(String, String, String), Vec<f64>>,
    digests: BTreeMap<(String, String), String>,
}

fn load(path: &Path) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = ResultSet::default();
    for (k, line) in text.lines().enumerate() {
        let f: Vec<&str> = line.split('\t').collect();
        let [workload, seed, _trace, metric, _unit, value] = f.as_slice() else {
            return Err(format!("{}:{}: expected six fields", path.display(), k + 1));
        };
        if *metric == "input_digest" {
            set.digests
                .insert((workload.to_string(), seed.to_string()), value.to_string());
        } else {
            let v: f64 = value
                .parse()
                .map_err(|_| format!("{}:{}: bad value {value}", path.display(), k + 1))?;
            set.values
                .entry((workload.to_string(), metric.to_string()))
                .or_default()
                .push(v);
            set.by_seed
                .entry((workload.to_string(), metric.to_string(), seed.to_string()))
                .or_default()
                .push(v);
        }
    }
    Ok(set)
}

/// Interquartile distance over the median; zero for a single run.
fn spread_of(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    spread(xs)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// The run-to-run spread is wider than the bound, and the new runs do
    /// not all read better than every base run.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The rule of the choosing-metrics guide. With a spread (of either side)
/// wider than the bound nothing can be said — `unresolved` — unless every
/// new run reads better than every base run. Otherwise the metric is
/// `worse` when its median worsened by more than the bound, `better` when
/// it improved by more than the base's own spread, `within-bound` else.
/// One run a side has no spread to judge an improvement by, so it can
/// only read `within-bound` or `worse`.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worsened = sign * (median(new) - median(base)) / median(base).abs();
    let repeated = base.len() >= 2 && new.len() >= 2;
    let worst_new = new.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(sign * v));
    let best_base = base.iter().fold(f64::INFINITY, |m, &v| m.min(sign * v));
    if repeated && worst_new < best_base {
        Verdict::Better
    } else if spread_of(base).max(spread_of(new)) > bound {
        Verdict::Unresolved
    } else if worsened > bound {
        Verdict::Worse
    } else if repeated && -worsened > spread_of(base) {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// Counts that must repeat exactly between runs of one commit on one seed.
const EXACT: [&str; 7] = [
    "artifact_bytes",
    "rom.cache_hits",
    "rom.cache_misses",
    "rom.cache_evictions",
    "sparse.lu_factor_count",
    "sparse.lu_solve_count",
    "cluster.rpcs",
];

/// Prints one row per workload × metric found in both sets: medians,
/// their ratio with its base, spreads, and the verdict for end-to-end
/// metrics. Returns whether no row read `worse`, `unresolved` or
/// `differs`.
pub fn compare(base: &Path, new: &Path) -> Result<bool, String> {
    let (a, b) = (load(base)?, load(new)?);
    let mut clean = true;
    println!(
        "{:<18} {:<26} {:>14} {:>14} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "base median", "new median", "new/base", "spread a", "spread b"
    );
    for w in &WORKLOADS {
        for (key, digest) in a.digests.iter().filter(|(k, _)| k.0 == w.name) {
            if let Some(other) = b.digests.get(key) {
                let same = digest == other;
                clean &= same;
                println!(
                    "{:<18} {:<26} {:>14} {:>14} {:>8} {:>8} {:>8}  {}",
                    w.name,
                    format!("input_digest@seed{}", key.1),
                    &digest[..12.min(digest.len())],
                    &other[..12.min(other.len())],
                    "-",
                    "-",
                    "-",
                    if same { "equal" } else { "differs" }
                );
            }
        }
        let bounded = END_TO_END.iter().map(|m| (m.0, m.1, Some((m.2, m.3))));
        let layered = PER_LAYER.iter().map(|m| (m.0, m.1, None));
        for (name, unit, bound) in bounded.chain(layered) {
            let key = (w.name.to_string(), name.to_string());
            let (Some(x), Some(y)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let (mx, my) = (median(x), median(y));
            let mut word = match bound {
                Some((better, bound)) => verdict(x, y, better, bound).as_str(),
                None => "-",
            };
            if EXACT.contains(&name) {
                // Exactness is per seed: every seed both sets ran must
                // have read one value throughout.
                let mut shared = a.by_seed.iter().filter_map(|(k, xs)| {
                    let ys = b.by_seed.get(k)?;
                    (k.0 == w.name && k.1 == name).then(|| xs.iter().chain(ys))
                });
                if let Some(first) = shared.next() {
                    let same = |mut vs: std::iter::Chain<_, _>| {
                        let head: Option<&f64> = vs.next();
                        vs.all(|v| Some(v) == head)
                    };
                    word = if same(first) && shared.all(same) {
                        "equal"
                    } else {
                        "differs"
                    };
                }
            }
            clean &= !matches!(word, "worse" | "unresolved" | "differs");
            println!(
                "{:<18} {:<26} {:>14.6} {:>14.6} {:>8.4} {:>8.4} {:>8.4}  {word} (base {mx:.6} {unit}, {} vs {} runs)",
                w.name,
                name,
                mx,
                my,
                my / mx,
                spread_of(x),
                spread_of(y),
                x.len(),
                y.len()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        assert_eq!(include_str!("../../BENCHMARK.json"), manifest());
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'));
        }
        assert!(manifest().len() < 64 * 1024);
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        let lower = Better::Lower;
        assert_eq!(verdict(&base, &base, lower, 0.1), Verdict::WithinBound);
        assert_eq!(
            verdict(&base, &[11.5, 11.4, 11.6, 11.5, 11.5], lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &[10.5, 10.4, 10.6, 10.5, 10.5], lower, 0.1),
            Verdict::WithinBound
        );
        // Every new run beats every base run.
        assert_eq!(
            verdict(&base, &[9.0, 9.1, 8.9, 9.0, 9.0], lower, 0.1),
            Verdict::Better
        );
        // Wide spread, overlapping runs: nothing can be said.
        assert_eq!(
            verdict(&[8.0, 12.0, 10.0, 9.0, 13.0], &base, lower, 0.1),
            Verdict::Unresolved
        );
        // One run a side: an improvement cannot be told from noise.
        assert_eq!(verdict(&[10.0], &[9.0], lower, 0.1), Verdict::WithinBound);
        assert_eq!(verdict(&[10.0], &[11.5], lower, 0.1), Verdict::Worse);
        // Direction flips for a rate.
        let rate = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(
            verdict(&rate, &[80.0, 81.0, 79.0, 80.0, 80.0], Better::Higher, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(
                &rate,
                &[120.0, 121.0, 119.0, 120.0, 120.0],
                Better::Higher,
                0.1
            ),
            Verdict::Better
        );
    }
}
