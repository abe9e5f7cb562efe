//! # agile-bench
//!
//! The benchmark harness: one binary per paper figure/table (see
//! `src/bin/`) plus self-contained micro- and ablation benches
//! (`benches/`, built on [`harness`]).
//!
//! | binary | regenerates |
//! |--------|-------------|
//! | `fig4_6_ycsb_timeline` | Figures 4–6 (YCSB throughput timelines) |
//! | `fig7_8_single_vm_sweep` | Figures 7–8 (migration time / data vs VM size) |
//! | `table1_3_app_perf` | Tables I–III (app perf, migration time, data) |
//! | `fig9_10_wss_tracking` | Figures 9–10 (WSS tracking) |
//! | `run_all` | everything above, writing CSVs under `--out` |
//!
//! All binaries accept `--scale N` (divide the paper's byte sizes by `N`;
//! default 8 — qualitatively identical in a fraction of the wall time) and
//! `--out DIR` for CSV output.

use std::path::{Path, PathBuf};

/// Minimal CLI argument scraper shared by the experiment binaries.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Parse the process arguments.
    pub fn parse() -> Self {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Value of `--name <v>`, parsed; `None` when the flag is absent. A
    /// flag that is present with a missing or unparsable value exits the
    /// process with an error naming the flag.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.try_get(name).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// [`Args::get`] without the exit: `Err` names the flag whose value is
    /// missing or does not parse.
    fn try_get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let flag = format!("--{name}");
        let Some(i) = self.raw.iter().position(|a| a == &flag) else {
            return Ok(None);
        };
        match self.raw.get(i + 1) {
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot parse value {v:?}")),
            None => Err(format!("{flag} needs a value")),
        }
    }

    /// The scale divisor (default 8).
    pub fn scale(&self) -> u64 {
        self.get("scale").unwrap_or(8)
    }

    /// The output directory for CSVs (default `target/experiments`).
    pub fn out_dir(&self) -> PathBuf {
        self.get::<String>("out")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target/experiments"))
    }

    /// Presence of a bare `--name` flag.
    pub fn flag(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.raw.iter().any(|a| a == &flag)
    }
}

impl Default for Args {
    fn default() -> Self {
        Self::parse()
    }
}

/// Map `f` over `items` on up to `available_parallelism()` scoped threads,
/// returning results in input order. The experiment binaries use this for
/// their embarrassingly parallel sweep points; each point is an
/// independent simulation, so ordering the results by input index keeps
/// the output deterministic regardless of scheduling.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1)
        .min(n);
    let next = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&items[i]);
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in rx {
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|o| o.expect("worker produced result"))
            .collect()
    })
}

/// Write a CSV file, creating the directory as needed.
pub fn write_csv(dir: &Path, name: &str, contents: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// Render a `(seconds, value)` series as CSV text.
pub fn series_csv(header: &str, series: &[(u64, f64)]) -> String {
    let mut s = String::with_capacity(series.len() * 12 + header.len() + 1);
    s.push_str(header);
    s.push('\n');
    for (t, v) in series {
        s.push_str(&format!("{t},{v:.2}\n"));
    }
    s
}

/// A BENCH file's pass/fail gate over `(condition, failure message)`
/// pairs. Build it before writing the JSON, record [`Gate::passed`] in
/// the file, then [`Gate::enforce`] it once the file is written.
pub struct Gate {
    first_failure: Option<String>,
}

impl Gate {
    /// Evaluate the checks, keeping the first failing message.
    pub fn new(checks: impl IntoIterator<Item = (bool, String)>) -> Gate {
        Gate {
            first_failure: checks.into_iter().find(|(ok, _)| !ok).map(|(_, msg)| msg),
        }
    }

    /// Whether every condition holds (the JSON `"passed"` field).
    pub fn passed(&self) -> bool {
        self.first_failure.is_none()
    }

    /// Panic with the first failing message, if any.
    pub fn enforce(self) {
        if let Some(msg) = self.first_failure {
            panic!("{msg}");
        }
    }
}

/// Format seconds for table cells.
pub fn fmt_secs(s: Option<f64>) -> String {
    match s {
        Some(v) => format!("{v:.1}"),
        None => "—".into(),
    }
}

pub mod seed_baseline;

/// Minimal wall-clock micro-benchmark harness. The `benches/` targets and
/// `perf_report` build on this instead of an external framework: calibrate
/// a batch size against the clock, run a few batches, keep the fastest
/// (least-interfered) one.
pub mod harness {
    pub use std::hint::black_box;
    use std::time::Instant;

    /// One measured benchmark.
    #[derive(Clone, Debug)]
    pub struct BenchResult {
        /// Benchmark label, e.g. `"event_queue/schedule_pop"`.
        pub name: String,
        /// Best observed nanoseconds per iteration.
        pub ns_per_iter: f64,
        /// Iterations per measured batch (after calibration).
        pub iters_per_batch: u64,
    }

    impl BenchResult {
        /// Iterations per second at the best observed rate.
        pub fn per_sec(&self) -> f64 {
            1e9 / self.ns_per_iter
        }
    }

    /// Measure `f`, printing one line and returning the result.
    ///
    /// Calibration doubles the batch until it runs ≥ 20 ms, then scales to
    /// a ~100 ms batch; five batches are measured and the fastest kept.
    pub fn bench(name: &str, mut f: impl FnMut()) -> BenchResult {
        let mut iters = 1u64;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            let dt = t0.elapsed();
            if dt.as_millis() >= 20 {
                let scale = 0.1 / dt.as_secs_f64().max(1e-9);
                iters = ((iters as f64 * scale).ceil() as u64).max(1);
                break;
            }
            iters *= 2;
        }
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
            if ns < best {
                best = ns;
            }
        }
        let r = BenchResult {
            name: name.to_string(),
            ns_per_iter: best,
            iters_per_batch: iters,
        };
        println!(
            "{:<44} {:>14.1} ns/iter {:>16.0} iter/s",
            r.name,
            r.ns_per_iter,
            r.per_sec()
        );
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_csv_renders() {
        let csv = series_csv("t,ops", &[(0, 1.0), (1, 2.5)]);
        assert_eq!(csv, "t,ops\n0,1.00\n1,2.50\n");
    }

    fn args(raw: &[&str]) -> Args {
        Args {
            raw: raw.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn get_parses_present_and_skips_absent_flags() {
        let a = args(&["--scale", "64"]);
        assert_eq!(a.try_get::<u64>("scale"), Ok(Some(64)));
        assert_eq!(a.try_get::<u64>("seed"), Ok(None));
        assert_eq!(a.get::<u64>("seed"), None);
        assert_eq!(a.scale(), 64);
    }

    #[test]
    fn get_rejects_unparsable_or_missing_values() {
        let e = args(&["--scale", "6x4"])
            .try_get::<u64>("scale")
            .unwrap_err();
        assert!(e.contains("--scale") && e.contains("6x4"), "{e}");
        let e = args(&["--out", "o", "--scale"])
            .try_get::<u64>("scale")
            .unwrap_err();
        assert!(e.contains("--scale"), "{e}");
    }

    #[test]
    fn gate_keeps_the_first_failure() {
        let ok = Gate::new([(true, "a".to_string()), (true, "b".to_string())]);
        assert!(ok.passed());
        ok.enforce();
        let bad = Gate::new([
            (true, "a".to_string()),
            (false, "b".to_string()),
            (false, "c".to_string()),
        ]);
        assert!(!bad.passed());
        let msg = std::panic::catch_unwind(|| bad.enforce()).unwrap_err();
        assert_eq!(msg.downcast_ref::<String>().map(String::as_str), Some("b"));
    }

    #[test]
    fn fmt_secs_handles_none() {
        assert_eq!(fmt_secs(None), "—");
        assert_eq!(fmt_secs(Some(1.25)), "1.2");
    }
}
