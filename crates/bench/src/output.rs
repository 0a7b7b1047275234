//! Plain-text table/series output for the experiment binaries.

use std::path::Path;

use preduce_trainer::RunResult;

/// Formats seconds compactly (`532.1s`).
pub fn fmt_seconds(s: f64) -> String {
    format!("{s:.1}s")
}

/// Prints one run as an aligned row: strategy, run time, #updates,
/// per-update time, convergence marker.
pub fn print_run_row(r: &RunResult) {
    let mark = if r.converged { "" } else { "  (N/A: hit cap)" };
    println!(
        "{:<22} {:>10} {:>9} {:>12.3}s  acc={:.3}{}",
        r.strategy,
        fmt_seconds(r.run_time),
        r.updates,
        r.per_update_time(),
        r.final_accuracy,
        mark
    );
}

/// A minimal fixed-width table writer for multi-column reports.
#[derive(Debug)]
pub struct TableWriter {
    widths: Vec<usize>,
}

impl TableWriter {
    /// Creates a writer and prints the header row.
    pub fn new(headers: &[&str], widths: &[usize]) -> Self {
        assert_eq!(headers.len(), widths.len(), "one width per header");
        let w = TableWriter {
            widths: widths.to_vec(),
        };
        w.row(headers);
        w.rule();
        w
    }

    /// Prints one row of cells.
    pub fn row(&self, cells: &[&str]) {
        let mut line = String::new();
        for (cell, &w) in cells.iter().zip(self.widths.iter()) {
            line.push_str(&format!("{cell:<w$} "));
        }
        println!("{}", line.trim_end());
    }

    /// Prints a horizontal rule.
    pub fn rule(&self) {
        let total: usize = self.widths.iter().sum::<usize>() + self.widths.len().saturating_sub(1);
        println!("{}", "-".repeat(total));
    }
}

/// If `PREDUCE_JSON` is set to a directory, serializes `results` to
/// `<dir>/<name>.json` (creating the directory if needed) so plots can be
/// regenerated without re-running experiments. Silent no-op otherwise.
///
/// # Panics
/// Panics if the directory or file cannot be written once requested.
pub fn maybe_dump_json(name: &str, results: &[RunResult]) {
    if let Some(dir) = std::env::var_os("PREDUCE_JSON") {
        dump_json(Path::new(&dir), name, results);
    }
}

fn dump_json(dir: &Path, name: &str, results: &[RunResult]) {
    std::fs::create_dir_all(dir).expect("create PREDUCE_JSON directory");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string(results).expect("RunResult serializes");
    std::fs::write(&path, json).expect("write experiment JSON");
    eprintln!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_seconds_one_decimal() {
        assert_eq!(fmt_seconds(12.345), "12.3s");
    }

    #[test]
    fn table_writer_accepts_rows() {
        let t = TableWriter::new(&["a", "b"], &[5, 5]);
        t.row(&["x", "y"]);
        t.rule();
    }

    #[test]
    #[should_panic(expected = "one width per header")]
    fn table_writer_checks_widths() {
        TableWriter::new(&["a"], &[1, 2]);
    }

    // Called with the directory, not through `PREDUCE_JSON`: the
    // environment is process-wide and tests run on parallel threads.
    #[test]
    fn json_dump_writes_the_named_file() {
        let dir = std::env::temp_dir().join(format!("preduce-json-test-{}", std::process::id()));
        let r = RunResult {
            strategy: "t".into(),
            run_time: 1.0,
            updates: 2,
            converged: true,
            final_accuracy: 0.5,
            trace: vec![],
            per_update_samples: vec![],
            stats: Default::default(),
        };
        dump_json(&dir, "unit", &[r]);
        let written = std::fs::read_to_string(dir.join("unit.json")).unwrap();
        assert!(written.contains("\"updates\":2"), "{written}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
