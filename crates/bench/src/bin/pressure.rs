//! Elastic-pool pressure smoke: run `scenario::pressure` (3 donor
//! servers, skewed demand ramp halving the pool) with tracing on and
//! write the deterministic pool report plus the raw event trace.
//!
//! ```sh
//! cargo run --release -p agile-bench --bin pressure -- --scale 64
//! ```
//!
//! Same seed + same scale ⇒ byte-identical `PRESSURE_report.txt` and
//! `PRESSURE_trace.jsonl` (CI runs this twice and diffs the outputs).

use agile_bench::{write_csv, Args};
use agile_cluster::scenario;
use agile_cluster::scenario::pressure::PressureConfig;

fn main() {
    let args = Args::parse();
    let scale = args.get("scale").unwrap_or(64);
    let seed = args.get("seed").unwrap_or(42);
    let out = args.out_dir();

    let r = scenario::run(&PressureConfig {
        scale,
        seed,
        trace: true,
        ..PressureConfig::default()
    });

    print!("{}", r.report);
    let report = write_csv(&out, "PRESSURE_report.txt", &r.report).expect("write report");
    let trace = r.trace_jsonl.as_deref().expect("tracing was enabled");
    write_csv(&out, "PRESSURE_trace.jsonl", trace).expect("write trace");
    write_csv(&out, "PRESSURE_metrics.json", &r.metrics_json).expect("write metrics");

    assert!(r.converged, "pool failed to quiesce before the deadline");
    assert_eq!(r.lost_placements, 0, "reclaim lost slot placements");
    assert_eq!(
        r.directory_replicas, r.stored_pages,
        "directory and server stores disagree"
    );
    println!("report -> {}", report.display());
}
