//! `--compare BASE NEW`: per workload and metric, the median of each side,
//! the change, and each side's run-to-run spread (interquartile range over
//! median), from report lines appended with `--out`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use vgl_obs::json::{self, Json};

use crate::stats::{median, spread};

/// (workload, metric) → values, from a JSON-lines file of reports.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Samples::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let report = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let workload = report
            .get("provenance")
            .and_then(|p| p.get("workload"))
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: not a perfbench report", i + 1))?;
        let Some(Json::Obj(metrics)) = report.get("metrics") else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// The comparison table, one row per metric both sides measured.
pub fn table(base: &Samples, new: &Samples) -> String {
    let mut out = format!(
        "{:<13} {:<28} {:>14} {:>14} {:>9} {:>12} {:>12}\n",
        "workload", "metric", "base median", "new median", "change", "base spread", "new spread"
    );
    for (key, b) in base {
        let Some(n) = new.get(key) else { continue };
        let (mb, mn) = (median(b), median(n));
        let change = if mb == 0.0 { 0.0 } else { (mn - mb) / mb.abs() };
        out.push_str(&format!(
            "{:<13} {:<28} {:>14.4} {:>14.4} {:>+8.2}% {:>11.2}% {:>11.2}%\n",
            key.0,
            key.1,
            mb,
            mn,
            change * 100.0,
            spread(b) * 100.0,
            spread(n) * 100.0
        ));
    }
    out
}

pub fn run(base: &str, new: &str) -> ExitCode {
    match (load(base), load(new)) {
        (Ok(b), Ok(n)) => {
            print!("{}", table(&b, &n));
            ExitCode::SUCCESS
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_change_next_to_spread() {
        let mut base = Samples::new();
        base.insert(
            ("run_mixed".into(), "p50_ms".into()),
            vec![10.0, 11.0, 12.0],
        );
        let mut new = Samples::new();
        new.insert(("run_mixed".into(), "p50_ms".into()), vec![8.0, 8.8, 9.6]);
        let t = table(&base, &new);
        assert!(t.contains("-20.00%"), "{t}");
        assert!(t.contains("run_mixed"));
    }
}
