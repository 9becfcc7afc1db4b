//! Shared helpers for the figure-regeneration binaries.
//!
//! Every table and figure in the paper's evaluation (§VI) has a dedicated
//! binary in `src/bin`:
//!
//! | Binary | Reproduces | Series |
//! |---|---|---|
//! | `fig4` | Fig. 4(a)(b)(c) | overhead / Gini / delivery vs node count × data rate |
//! | `fig5` | Fig. 5(a)(b) | delivery / overhead vs node count × placement strategy |
//! | `fig6` | Fig. 6 | remaining battery vs blocks mined, PoW vs PoS |
//! | `ablation` | design-choice ablations | FDC weight `A`, solver variants, recent-cache, PoS `Q` term |
//!
//! Binaries accept `--full` for the paper-scale 500-minute runs and
//! default to shorter, shape-preserving runs (see each binary's header).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;

/// Options shared by the figure binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigureOptions {
    /// Simulated minutes per run.
    pub minutes: u64,
    /// Seeds averaged per cell (the paper averages 2 simulations).
    pub seeds: u64,
    /// Directory to also write each table as a CSV file (`--csv DIR`).
    pub csv_dir: Option<String>,
}

/// Parses the process's command-line options: `--full` selects the
/// paper-scale 500-minute runs; `--minutes N` and `--seeds N` override
/// individually. A value [`parse_from`] rejects prints the reason plus
/// usage and exits with status 2.
pub fn parse_options(default_minutes: u64, default_seeds: u64) -> FigureOptions {
    parse_from(std::env::args().skip(1), default_minutes, default_seeds).unwrap_or_else(|msg| {
        eprintln!("error: {msg}\nusage: [--full] [--minutes N] [--seeds N] [--csv DIR]");
        std::process::exit(2)
    })
}

/// Parses `args` (program name already stripped).
///
/// # Errors
///
/// Returns a message naming the flag when it is not one of the four above
/// (a mistyped `--minute 5` must not run the default horizon), or when its
/// value is missing, is not a number, or is zero (a zero-minute or
/// zero-seed run prints tables of means over empty samples).
pub fn parse_from(
    args: impl IntoIterator<Item = String>,
    default_minutes: u64,
    default_seeds: u64,
) -> Result<FigureOptions, String> {
    let mut opts = FigureOptions {
        minutes: default_minutes,
        seeds: default_seeds,
        csv_dir: None,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag}: missing value"));
        let positive = |text: String| match text.parse::<u64>() {
            Ok(0) => Err(format!("{flag}: must be at least 1")),
            Ok(n) => Ok(n),
            Err(_) => Err(format!("{flag}: cannot read {text:?} as a number")),
        };
        match flag.as_str() {
            "--full" => {
                opts.minutes = 500;
                opts.seeds = default_seeds.max(2);
            }
            "--minutes" => opts.minutes = positive(value()?)?,
            "--seeds" => opts.seeds = positive(value()?)?,
            "--csv" => opts.csv_dir = Some(value()?),
            _ => return Err(format!("{flag}: unknown flag")),
        }
    }
    Ok(opts)
}

/// Prints a table under `title` — one row per label in `rows` (header,
/// labels), one column per `col_labels` entry — and, when `--csv DIR` was
/// given, writes the same table as `DIR/name.csv` (row label in the first
/// column). A failed CSV write is reported to stderr and swallowed: it
/// must not abort a long figure run.
pub fn table<R: Display, C: Display>(
    opts: &FigureOptions,
    name: &str,
    title: &str,
    (row_header, row_labels): (&str, &[R]),
    col_labels: &[C],
    cells: &[Vec<f64>],
    precision: usize,
) {
    println!("\n{title}");
    print!("{:<14}", row_header);
    for c in col_labels {
        print!("{:>18}", format!("{c}"));
    }
    println!();
    for (r, row) in row_labels.iter().zip(cells) {
        print!("{:<14}", format!("{r}"));
        for v in row {
            print!("{:>18}", format!("{v:.precision$}"));
        }
        println!();
    }

    let Some(dir) = &opts.csv_dir else { return };
    let mut out = String::new();
    out.push_str(row_header);
    for c in col_labels {
        out.push(',');
        out.push_str(&format!("{c}"));
    }
    out.push('\n');
    for (r, row) in row_labels.iter().zip(cells) {
        out.push_str(&format!("{r}"));
        for v in row {
            out.push_str(&format!(",{v}"));
        }
        out.push('\n');
    }
    let path = std::path::Path::new(dir).join(format!("{name}.csv"));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, out)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Mean of a slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    fn parse(args: &[&str]) -> Result<FigureOptions, String> {
        parse_from(args.iter().map(|a| a.to_string()), 100, 2)
    }

    #[test]
    fn default_options() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.minutes, 100);
        assert_eq!(opts.seeds, 2);
        assert_eq!(opts.csv_dir, None);
    }

    #[test]
    fn flags_override_defaults() {
        let opts = parse(&["--minutes", "7", "--seeds", "3", "--csv", "out"]).unwrap();
        assert_eq!((opts.minutes, opts.seeds), (7, 3));
        assert_eq!(opts.csv_dir.as_deref(), Some("out"));
        assert_eq!(parse(&["--full"]).unwrap().minutes, 500);
    }

    #[test]
    fn bad_values_are_rejected() {
        for (args, flag) in [
            (&["--minutes", "x"][..], "--minutes"),
            (&["--seeds", "x"][..], "--seeds"),
            (&["--seeds"][..], "--seeds"),
            (&["--minutes", "0"][..], "--minutes"),
            (&["--seeds", "0"][..], "--seeds"),
            (&["--small"][..], "--small"),
            (&["--minute", "5"][..], "--minute"),
        ] {
            let err = parse(args).expect_err("must be rejected");
            assert!(err.starts_with(flag), "{args:?}: {err}");
        }
    }

    #[test]
    fn csv_writer_roundtrip() {
        let dir = std::env::temp_dir().join("edgechain-bench-csv-test");
        let dir = dir.to_str().unwrap();
        let opts = parse(&["--csv", dir]).unwrap();
        let (rows, cells) = (("nodes", &[10, 20][..]), [vec![1.5, 2.5], vec![3.0, 4.0]]);
        table(&opts, "unit", "t", rows, &["a", "b"], &cells, 1);
        let content = std::fs::read_to_string(format!("{dir}/unit.csv")).unwrap();
        assert_eq!(content, "nodes,a,b\n10,1.5,2.5\n20,3,4\n");
        let _ = std::fs::remove_dir_all(dir);
    }
}
