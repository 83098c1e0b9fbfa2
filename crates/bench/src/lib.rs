//! # sqvae-bench
//!
//! Experiment harness for the DATE 2022 SQ-VAE reproduction. Each paper
//! table/figure has a dedicated binary that regenerates its rows/series:
//!
//! | binary | regenerates |
//! |---|---|
//! | `exp_table1` | Table I — trainable parameter counts |
//! | `exp_table2` | Table II — QED/logP/SA of sampled ligands per LSD |
//! | `exp_fig4` | Fig. 4 — BQ-VAE vs CVAE curves + reconstructions |
//! | `exp_fig5` | Fig. 5 — baselines on PDBbind; loss vs LSD |
//! | `exp_fig6` | Fig. 6 — quantum layer-depth sweep |
//! | `exp_fig7` | Fig. 7 — heterogeneous learning-rate grid |
//! | `exp_fig8` | Fig. 8 — scalable models: loss vs LSD, CIFAR curves, art |
//! | `run_all` | everything above at quick scale |
//!
//! Every binary defaults to a **quick** scale (reduced samples/epochs so the
//! whole suite runs in minutes on a laptop); pass `--full` for paper-scale
//! runs. Results print as aligned text tables; EXPERIMENTS.md records the
//! measured numbers next to the paper's. Like every other entry point, the
//! binaries run each model on the execution policy it starts with, which
//! `SQVAE_THREADS` and `SQVAE_BACKEND` set (see `sqvae_nn::ExecPolicy`).

use sqvae_core::checkpoint;
use sqvae_core::Autoencoder;
use sqvae_nn::Matrix;

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced dataset sizes and epochs (default; minutes on a laptop).
    Quick,
    /// Paper-scale sample counts and epochs.
    Full,
}

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpArgs {
    /// Quick or full scale.
    pub scale: Scale,
    /// Optional `--panel <name>` selector within a figure.
    pub panel: Option<String>,
    /// Optional `--seed <n>` override.
    pub seed: u64,
    /// Optional `--save <path>` — checkpoint the trained model there.
    pub save: Option<String>,
    /// Optional `--load <path>` — restore a checkpoint instead of training
    /// from scratch.
    pub load: Option<String>,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            scale: Scale::Quick,
            panel: None,
            seed: 42,
            save: None,
            load: None,
        }
    }
}

impl ExpArgs {
    /// Parses `std::env::args()`-style arguments (skipping the binary name).
    ///
    /// Recognized: `--full`, `--quick`, `--panel <name>`, `--seed <n>`,
    /// `--save <path>`, `--load <path>`. Unknown flags are ignored so
    /// wrappers can pass extras through.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = ExpArgs::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--full" => out.scale = Scale::Full,
                "--quick" => out.scale = Scale::Quick,
                "--panel" => out.panel = it.next(),
                "--seed" => {
                    if let Some(s) = it.next() {
                        if let Ok(v) = s.parse() {
                            out.seed = v;
                        }
                    }
                }
                "--save" => out.save = it.next(),
                "--load" => out.load = it.next(),
                _ => {}
            }
        }
        out
    }

    /// Picks `quick` or `full` by scale.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self.scale {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }

    /// Whether a panel is selected (no selector = run everything).
    pub fn wants_panel(&self, name: &str) -> bool {
        self.panel.as_deref().map_or(true, |p| p == name)
    }

    /// Honors `--load` / `--save` around a training closure. With `--load`,
    /// the tagged checkpoint replaces training entirely (falling back to
    /// `train` when the file is missing or stale); otherwise `train` runs,
    /// and `--save` (if given) checkpoints the result. Experiments that
    /// train several models per run pass a distinct `tag` each — it is
    /// inserted before the path's extension (`out.ckpt` → `out.vae.ckpt`)
    /// so one flag fans out to one file per model. Checkpoint failures are
    /// reported but never abort an experiment.
    pub fn train_or_restore(
        &self,
        tag: &str,
        model: &mut Autoencoder,
        train: impl FnOnce(&mut Autoencoder),
    ) {
        if let Some(path) = &self.load {
            let path = tagged_path(path, tag);
            match checkpoint::load_model(&path) {
                Ok(m) => {
                    *model = m;
                    println!("  (restored checkpoint {path})");
                    return;
                }
                Err(e) => println!("  (cannot restore {path}: {e}; training instead)"),
            }
        }
        train(model);
        if let Some(path) = &self.save {
            let path = tagged_path(path, tag);
            match checkpoint::save_model(model, self.seed, &path) {
                Ok(()) => println!("  (saved checkpoint {path})"),
                Err(e) => println!("  (checkpoint save skipped: {e})"),
            }
        }
    }
}

/// Inserts `tag` before the path's extension (or appends it when there is
/// none); an empty tag leaves the path untouched.
fn tagged_path(path: &str, tag: &str) -> String {
    if tag.is_empty() {
        return path.to_string();
    }
    match path.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() => format!("{stem}.{tag}.{ext}"),
        _ => format!("{path}.{tag}"),
    }
}

/// Prints a header line for an experiment section.
pub fn section(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints an aligned table: a header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let parts: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("  {}", parts.join("  "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Prints a table and also writes it to `results/<name>.csv` (created on
/// demand), so external plotting tools can regenerate the paper's figures.
/// CSV failures are reported but never abort an experiment.
pub fn print_table_with_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    print_table(headers, rows);
    match write_csv(name, headers, rows) {
        Ok(path) => println!("  (saved {})", path.display()),
        Err(e) => println!("  (csv export skipped: {e})"),
    }
}

/// Writes a header + rows table as `results/<name>.csv`, returning the path.
///
/// # Errors
///
/// Returns I/O errors from directory creation or writing.
pub fn write_csv(
    name: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut out = headers.join(",");
    out.push('\n');
    for row in rows {
        // Quote cells containing commas.
        let cells: Vec<String> = row
            .iter()
            .map(|c| {
                if c.contains(',') {
                    format!("\"{c}\"")
                } else {
                    c.clone()
                }
            })
            .collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Prints a named loss series as one row of fixed-precision values.
pub fn print_series(name: &str, series: &[f64]) {
    let cells: Vec<String> = series.iter().map(|v| format!("{v:.4}")).collect();
    println!("  {name:<24} {}", cells.join(" "));
}

/// Renders a grayscale image (row-major, values scaled by `max`) as ASCII
/// art, darkest to brightest.
pub fn ascii_image(pixels: &[f64], width: usize, max: f64) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let mut out = String::new();
    for (i, &p) in pixels.iter().enumerate() {
        let level = ((p / max).clamp(0.0, 1.0) * (RAMP.len() - 1) as f64).round() as usize;
        out.push(RAMP[level] as char);
        if (i + 1) % width == 0 {
            out.push('\n');
        }
    }
    out
}

/// Renders two images side by side with a gutter (for input/reconstruction
/// panels).
pub fn ascii_side_by_side(left: &str, right: &str) -> String {
    let l: Vec<&str> = left.lines().collect();
    let r: Vec<&str> = right.lines().collect();
    let width = l.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut out = String::new();
    for i in 0..l.len().max(r.len()) {
        let a = l.get(i).copied().unwrap_or("");
        let b = r.get(i).copied().unwrap_or("");
        out.push_str(&format!("{a:<width$}  |  {b}\n"));
    }
    out
}

/// Converts a dataset batch of row slices into a matrix (harness-side
/// convenience mirroring the trainer's internal helper).
pub fn batch_matrix(rows: &[&[f64]]) -> Matrix {
    Matrix::from_rows(rows).expect("uniform dataset widths")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> ExpArgs {
        ExpArgs::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parse_defaults() {
        let a = args(&[]);
        assert_eq!(a.scale, Scale::Quick);
        assert_eq!(a.seed, 42);
        assert!(a.wants_panel("anything"));
    }

    #[test]
    fn parse_flags() {
        let a = args(&["--full", "--panel", "b", "--seed", "7"]);
        assert_eq!(a.scale, Scale::Full);
        assert_eq!(a.panel.as_deref(), Some("b"));
        assert_eq!(a.seed, 7);
        assert!(a.wants_panel("b"));
        assert!(!a.wants_panel("a"));
        assert_eq!(a.pick(1, 2), 2);
    }

    #[test]
    fn parse_ignores_unknown_and_bad_values() {
        let a = args(&["--wat", "--seed", "not-a-number"]);
        assert_eq!(a.seed, 42);
    }

    #[test]
    fn parse_save_and_load_paths() {
        let a = args(&["--save", "out.ckpt", "--load", "in.ckpt"]);
        assert_eq!(a.save.as_deref(), Some("out.ckpt"));
        assert_eq!(a.load.as_deref(), Some("in.ckpt"));
        assert_eq!(ExpArgs::default().save, None);
    }

    #[test]
    fn tagged_paths_insert_before_the_extension() {
        assert_eq!(tagged_path("out.ckpt", "vae"), "out.vae.ckpt");
        assert_eq!(tagged_path("a/b/out.ckpt", "sq-18"), "a/b/out.sq-18.ckpt");
        assert_eq!(tagged_path("out", "vae"), "out.vae");
        assert_eq!(tagged_path("out.ckpt", ""), "out.ckpt");
    }

    #[test]
    fn train_or_restore_round_trips_through_a_checkpoint() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use sqvae_core::models;

        let dir = std::env::temp_dir().join("sqvae-bench-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt").to_string_lossy().into_owned();

        // `--save`: the closure runs and the result lands on disk.
        let mut trained = models::sq_vae(16, 2, 1, &mut StdRng::seed_from_u64(1));
        let save_args = ExpArgs {
            save: Some(path.clone()),
            ..ExpArgs::default()
        };
        let mut ran = false;
        save_args.train_or_restore("t", &mut trained, |_| ran = true);
        assert!(ran);

        // `--load`: the closure is skipped and the weights come back
        // bit-identical.
        let mut restored = models::sq_vae(16, 2, 1, &mut StdRng::seed_from_u64(2));
        let load_args = ExpArgs {
            load: Some(path),
            ..ExpArgs::default()
        };
        let mut ran = false;
        load_args.train_or_restore("t", &mut restored, |_| ran = true);
        assert!(!ran, "--load must replace training");
        let x = Matrix::from_fn(2, 16, |r, c| (r * 16 + c) as f64 / 32.0);
        let a = trained.reconstruct(&x).unwrap();
        let b = restored.reconstruct(&x).unwrap();
        assert_eq!(
            a.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        // Missing checkpoint: falls back to training.
        let missing = ExpArgs {
            load: Some(dir.join("absent.ckpt").to_string_lossy().into_owned()),
            ..ExpArgs::default()
        };
        let mut ran = false;
        missing.train_or_restore("t", &mut restored, |_| ran = true);
        assert!(ran, "a missing checkpoint must fall back to training");
    }

    #[test]
    fn csv_writer_round_trips() {
        let dir = std::env::temp_dir().join("sqvae_csv_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let prev = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        let path = write_csv(
            "unit",
            &["a", "b"],
            &[vec!["1".into(), "x,y".into()], vec!["2".into(), "z".into()]],
        )
        .unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        std::env::set_current_dir(prev).unwrap();
        assert_eq!(content, "a,b\n1,\"x,y\"\n2,z\n");
    }

    #[test]
    fn ascii_image_dimensions() {
        let art = ascii_image(&[0.0, 1.0, 0.5, 0.25], 2, 1.0);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].len(), 2);
        assert_eq!(art.chars().next(), Some(' '));
        assert_eq!(lines[0].chars().nth(1), Some('@'));
    }

    #[test]
    fn side_by_side_aligns() {
        let joined = ascii_side_by_side("ab\ncd\n", "xy\nzw\n");
        assert!(joined.contains("ab  |  xy"));
        assert!(joined.contains("cd  |  zw"));
    }
}
