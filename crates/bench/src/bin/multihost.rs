//! Multihost watermark-rebalancing smoke: run `scenario::multihost`
//! (4 hosts × 8 VMs by default) with tracing on and write the
//! deterministic rebalance report plus the raw event trace.
//!
//! ```sh
//! cargo run --release -p agile-bench --bin multihost -- --scale 64
//! ```
//!
//! Same seed + same scale ⇒ byte-identical `MULTIHOST_report.txt` and
//! `MULTIHOST_trace.jsonl` (CI runs this twice and diffs the outputs).

use agile_bench::{write_csv, Args};
use agile_cluster::scenario;
use agile_cluster::scenario::multihost::MultihostConfig;

fn main() {
    let args = Args::parse();
    let scale = args.get("scale").unwrap_or(64);
    let seed = args.get("seed").unwrap_or(42);
    let out = args.out_dir();

    let r = scenario::run(&MultihostConfig {
        scale,
        seed,
        trace: true,
        ..MultihostConfig::default()
    });

    print!("{}", r.report);
    let report = write_csv(&out, "MULTIHOST_report.txt", &r.report).expect("write report");
    let trace = r.trace_jsonl.as_deref().expect("tracing was enabled");
    write_csv(&out, "MULTIHOST_trace.jsonl", trace).expect("write trace");
    write_csv(&out, "MULTIHOST_metrics.json", &r.metrics_json).expect("write metrics");

    assert!(
        r.converged,
        "cluster failed to rebalance below high watermarks"
    );
    assert!(
        r.max_vm_migrations <= 1,
        "ping-pong detected: a VM migrated {} times",
        r.max_vm_migrations
    );
    println!("report -> {}", report.display());
}
