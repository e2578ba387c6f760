//! Table rendering, CSV output, and the standard CLI for the experiment
//! binaries.

use std::fmt;
use std::io;
use std::path::Path;

/// A simple column-aligned table with a title, printable and CSV-writable.
///
/// # Example
///
/// ```
/// use harness::Table;
///
/// let mut t = Table::new("demo", &["benchmark", "speedup"]);
/// t.row(vec!["429.mcf".into(), "1.35".into()]);
/// assert!(t.to_string().contains("429.mcf"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, columns: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "table '{}' expects {} cells",
            self.title,
            self.columns.len()
        );
        self.rows.push(cells);
    }

    /// The table's title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as CSV text (header row first).
    pub fn to_csv_string(&self) -> String {
        let mut out = String::new();
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        out.push_str(
            &self
                .columns
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the table as CSV (header row first) to `path`, creating
    /// parent directories. The write is atomic (tmp + fsync + rename via
    /// [`sim_core::persist`]): a crash mid-write leaves any previous
    /// artifact at `path` intact.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        sim_core::persist::atomic_write(path.as_ref(), self.to_csv_string().as_bytes())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let print_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                if i == 0 {
                    write!(f, "{cell:<w$}")?;
                } else {
                    write!(f, "{cell:>w$}")?;
                }
            }
            writeln!(f)
        };
        print_row(f, &self.columns)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            print_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a ratio as `1.234`.
pub fn fmt_ratio(v: f64) -> String {
    if v.is_nan() {
        "n/a".to_string()
    } else {
        format!("{v:.3}")
    }
}

/// Formats an optional summary statistic (e.g. the result of
/// [`geometric_mean`](crate::geometric_mean)): `n/a` when no usable
/// entries produced one, [`fmt_ratio`] otherwise.
pub fn fmt_geomean(v: Option<f64>) -> String {
    match v {
        Some(v) => fmt_ratio(v),
        None => "n/a".to_string(),
    }
}

/// Formats a percentage delta from 1.0, e.g. `+5.6%` for 1.056.
pub fn fmt_pct(v: f64) -> String {
    if v.is_nan() {
        "n/a".to_string()
    } else {
        format!("{:+.1}%", (v - 1.0) * 100.0)
    }
}

/// Parsed standard experiment CLI arguments.
///
/// Every experiment binary accepts `--scale quick|medium|paper`,
/// `--out DIR`, and `--wn1` (run true workload-neutral cross-validation —
/// GA per holdout — instead of the fast default that reuses the paper's
/// published workload-inclusive vectors). The resumable drivers
/// (`run-all`, `evolve-vectors`) additionally honor `--resume` (continue
/// an interrupted run from its manifest/checkpoints) and
/// `--only NAME[,NAME...]` (restrict to the named experiments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Experiment scale (`--scale`, default quick).
    pub scale: crate::Scale,
    /// Output directory for CSV artifacts (`--out`).
    pub out: Option<String>,
    /// Workload-neutral cross-validation requested (`--wn1`).
    pub wn1: bool,
    /// Resume an interrupted run (`--resume`).
    pub resume: bool,
    /// Restrict to the named experiments (`--only`, repeatable and
    /// comma-separable); empty means all.
    pub only: Vec<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: crate::Scale::Quick,
            out: None,
            wn1: false,
            resume: false,
            only: Vec::new(),
        }
    }
}

impl Args {
    /// Parses command-line arguments (without the program name).
    ///
    /// # Panics
    ///
    /// Panics with a usage hint on unknown flags or missing values.
    pub fn parse(args: &[String]) -> Args {
        let mut parsed = Args::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    parsed.scale = args
                        .get(i)
                        .and_then(|s| crate::Scale::parse(s))
                        .unwrap_or_else(|| panic!("--scale needs quick|medium|paper"));
                }
                "--out" => {
                    i += 1;
                    parsed.out = Some(args.get(i).expect("--out needs a directory").clone());
                }
                "--wn1" => parsed.wn1 = true,
                "--resume" => parsed.resume = true,
                "--only" => {
                    i += 1;
                    let names = args.get(i).expect("--only needs experiment name(s)");
                    parsed
                        .only
                        .extend(names.split(',').map(|n| n.trim().to_string()));
                }
                other => panic!("unknown argument {other:?} (try --scale quick|medium|paper)"),
            }
            i += 1;
        }
        parsed
    }

    /// Parses the current process's command line.
    pub fn from_env() -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Args::parse(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_alignment() {
        let mut t = Table::new("t", &["name", "x"]);
        t.row(vec!["a-long-name".into(), "1".into()]);
        t.row(vec!["b".into(), "12345".into()]);
        let s = t.to_string();
        assert!(s.contains("== t =="));
        assert!(s.contains("a-long-name"));
    }

    #[test]
    #[should_panic(expected = "expects 2 cells")]
    fn row_arity_checked() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_round_trip_with_escaping() {
        let dir = std::env::temp_dir().join("plru-test-csv");
        let path = dir.join("t.csv");
        let mut t = Table::new("t", &["name", "note"]);
        t.row(vec!["a,b".into(), "say \"hi\"".into()]);
        t.write_csv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("name,note\n"));
        assert!(text.contains("\"a,b\""));
        assert!(text.contains("\"say \"\"hi\"\"\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_geomean(Some(1.2345)), "1.234");
        assert_eq!(fmt_geomean(None), "n/a");
        assert_eq!(fmt_ratio(1.2345), "1.234");
        assert_eq!(fmt_pct(1.056), "+5.6%");
        assert_eq!(fmt_pct(0.973), "-2.7%");
        assert_eq!(fmt_ratio(f64::NAN), "n/a");
    }

    #[test]
    fn arg_parsing() {
        let a = Args::parse(&["--scale".into(), "medium".into(), "--wn1".into()]);
        assert_eq!(a.scale, crate::Scale::Medium);
        assert!(a.out.is_none());
        assert!(a.wn1);
        assert!(!a.resume);
        let a = Args::parse(&["--out".into(), "results".into()]);
        assert_eq!(a.scale, crate::Scale::Quick);
        assert_eq!(a.out.as_deref(), Some("results"));
        let a = Args::parse(&[
            "--resume".into(),
            "--only".into(),
            "fig01,fig04".into(),
            "--only".into(),
            "fig10".into(),
        ]);
        assert!(a.resume);
        assert_eq!(a.only, vec!["fig01", "fig04", "fig10"]);
    }

    #[test]
    fn csv_write_is_atomic_under_injected_torn_write() {
        if !sim_fault::COMPILED_IN {
            return;
        }
        let dir = std::env::temp_dir().join("plru-test-csv-torn");
        let path = dir.join("t.csv");
        let mut old = Table::new("t", &["a"]);
        old.row(vec!["old".into()]);
        old.write_csv(&path).unwrap();

        let mut new = Table::new("t", &["a"]);
        new.row(vec!["new".into()]);
        // Targeted, so a sibling test's write cannot take the fault.
        sim_fault::with_plan("torn@plru-test-csv-torn", || {
            let err = new.write_csv(&path).unwrap_err();
            assert!(err.to_string().contains("torn"), "unexpected error: {err}");
        });
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("old"),
            "old artifact must survive a torn write, got: {text}"
        );
        assert!(
            !sim_core::persist::tmp_path(&path).exists(),
            "torn tmp file must be cleaned up"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
