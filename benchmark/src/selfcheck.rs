//! `--selfcheck`: the benchmark measuring its own noise floor. The full
//! default benchmark runs as two interleaved sets of five (A, B, A, B, …)
//! of the same binary; for every workload × end-to-end metric the two
//! medians must agree within [`gate`], or the benchmark — not the code
//! under test — has failed. The reported-only `chain.*`
//! figures get the same rows without a verdict: their spread is the noise
//! floor a paired comparison has to clear.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::inputs::WORKLOADS;
use crate::report::{END_TO_END, REPORTED};
use crate::stats::{median, quartiles};

/// Runs per set.
pub const RUNS_PER_SET: usize = 5;

/// How far apart the two set medians of a metric with regression bound
/// `bound` may lie: half the bound, and never more than 5 %. (`setup_s`
/// carries the widest bound the benchmark contract allows, because the
/// contract does not let it move to the reported-only list; the
/// self-check still holds it to the 5 % every timing was meant to meet.)
pub fn gate(bound: f64) -> f64 {
    (bound / 2.0).min(0.05)
}

/// One workload × metric row of the noise table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// Largest median gap the self-check accepts; `None` for a
    /// reported-only metric.
    pub gate: Option<f64>,
    /// Values of set A and set B, in run order.
    pub sets: [Vec<f64>; 2],
}

impl Row {
    /// Relative difference of the two set medians, as a share of A's.
    pub fn median_gap(&self) -> f64 {
        let (a, b) = (median(&self.sets[0]), median(&self.sets[1]));
        if a == 0.0 {
            return if b == 0.0 { 0.0 } else { f64::INFINITY };
        }
        ((b - a) / a).abs()
    }

    /// The single run furthest from its own set's median, as a share of it.
    pub fn worst_run(&self) -> f64 {
        self.sets
            .iter()
            .flat_map(|set| {
                let m = median(set);
                set.iter()
                    .map(move |v| if m == 0.0 { 0.0 } else { ((v - m) / m).abs() })
            })
            .fold(0.0, f64::max)
    }

    /// Whether the two sets agree within the gate (always, for a metric
    /// that has none).
    pub fn passes(&self) -> bool {
        self.gate.is_none_or(|g| self.median_gap() <= g)
    }
}

/// Parses the `metric <workload> <name> <value> <unit>` lines of one run.
pub fn parse_metrics(stdout: &str) -> BTreeMap<(String, String), f64> {
    stdout
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            if f.next()? != "metric" {
                return None;
            }
            let (workload, name) = (f.next()?, f.next()?);
            Some((
                (workload.to_string(), name.to_string()),
                f.next()?.parse().ok()?,
            ))
        })
        .collect()
}

/// Runs the two sets by re-executing this binary and prints the table.
/// Returns whether every row passed.
///
/// # Errors
///
/// A child run that fails or prints no metrics.
pub fn run(seconds: u64, out_dir: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut rows: Vec<Row> = WORKLOADS
        .iter()
        .flat_map(|w| {
            let gated = END_TO_END.iter().map(|m| (m.name, Some(gate(m.bound))));
            let reported = REPORTED.iter().map(|&name| (name, None));
            gated.chain(reported).map(move |(metric, gate)| Row {
                workload: w.name,
                metric,
                gate,
                sets: [Vec::new(), Vec::new()],
            })
        })
        .collect();
    for i in 0..2 * RUNS_PER_SET {
        let (set, seed) = (i % 2, 1 + i / 2);
        eprintln!(
            "selfcheck: run {} of {} (set {}, seed {seed})",
            i + 1,
            2 * RUNS_PER_SET,
            ["A", "B"][set]
        );
        let output = Command::new(&exe)
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot re-run {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        if !output.status.success() {
            return Err(format!(
                "run {} failed ({}):\n{stdout}",
                i + 1,
                output.status
            ));
        }
        let metrics = parse_metrics(&stdout);
        for row in &mut rows {
            let key = (row.workload.to_string(), row.metric.to_string());
            let value = metrics
                .get(&key)
                .ok_or_else(|| format!("run {} printed no {} {}", i + 1, key.0, key.1))?;
            row.sets[set].push(*value);
        }
    }

    println!(
        "{:<8} {:<22} {:>12} {:>12} {:>7} {:>7}  {:<25} {:<25} verdict",
        "workload",
        "metric",
        "median A",
        "median B",
        "gap %",
        "worst %",
        "quartiles A",
        "quartiles B"
    );
    let mut json = String::from("{\"runs_per_set\": 5, \"rows\": [");
    let mut all_pass = true;
    for (i, row) in rows.iter().enumerate() {
        let (qa, qb) = (quartiles(&row.sets[0]), quartiles(&row.sets[1]));
        let pass = row.passes();
        all_pass &= pass;
        println!(
            "{:<8} {:<22} {:>12.4} {:>12.4} {:>7.2} {:>7.2}  {:<25} {:<25} {}",
            row.workload,
            row.metric,
            median(&row.sets[0]),
            median(&row.sets[1]),
            row.median_gap() * 100.0,
            row.worst_run() * 100.0,
            format!("{:.4}..{:.4}", qa.0, qa.1),
            format!("{:.4}..{:.4}", qb.0, qb.1),
            match (row.gate, pass) {
                (None, _) => "reported",
                (Some(_), true) => "ok",
                (Some(_), false) => "TOO NOISY",
            }
        );
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "\n{{\"workload\": \"{}\", \"metric\": \"{}\", \"gate\": {}, \"median_a\": {}, \"median_b\": {}, \"gap\": {}, \"worst_run\": {}, \"a\": {:?}, \"b\": {:?}, \"pass\": {pass}}}",
            row.workload,
            row.metric,
            row.gate.map_or("null".into(), |g| g.to_string()),
            median(&row.sets[0]),
            median(&row.sets[1]),
            row.median_gap(),
            row.worst_run(),
            row.sets[0],
            row.sets[1],
        ));
    }
    json.push_str("\n]}\n");
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let path = out_dir.join("noise.json");
    std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("selfcheck: wrote {}", path.display());
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_parse_and_other_lines_are_ignored() {
        let out = "env nproc=2\nmetric relay chain.goodput_eps 1234.5 1/s\nmetric match setup_s 0.5 s\n{\"correct\": true}\n";
        let m = parse_metrics(out);
        assert_eq!(m.len(), 2);
        assert_eq!(
            m[&("relay".to_string(), "chain.goodput_eps".to_string())],
            1234.5
        );
    }

    #[test]
    fn a_row_passes_within_half_its_bound() {
        let mut row = Row {
            workload: "relay",
            metric: "setup_s",
            gate: Some(gate(0.1)),
            sets: [vec![100.0, 101.0, 99.0], vec![104.0, 105.0, 103.0]],
        };
        assert!((row.median_gap() - 0.04).abs() < 1e-12);
        assert!(row.passes());
        row.sets[1] = vec![106.0, 107.0, 120.0];
        assert!(!row.passes());
        assert!((row.worst_run() - 13.0 / 107.0).abs() < 1e-12);
        row.gate = None;
        assert!(row.passes());
        assert_eq!(gate(0.25), 0.05);
        assert_eq!(gate(0.02), 0.01);
    }
}
