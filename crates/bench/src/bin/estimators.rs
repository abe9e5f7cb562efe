//! WSS-estimator accuracy A/B: run `scenario::estimators` twice on the
//! same seed — swap-I/O (the paper's iostat path) vs simulated-PML
//! dirty-epoch sampling, both against the ground-truth oracle — and
//! write both reports plus `BENCH_4.json` with the signed deltas.
//!
//! ```sh
//! cargo run --release -p agile-bench --bin estimators -- --scale 64
//! ```
//!
//! Same seed + same scale ⇒ byte-identical reports and traces (CI runs
//! this twice and diffs the outputs). The bin asserts the headline
//! claim: on the no-swap ramp phase the PML estimator's mean error
//! against ground truth is strictly lower than swap-I/O's, and it
//! detects the working-set growth at least one full epoch earlier.

use agile_bench::{write_csv, Args};
use agile_cluster::config::WssEstimatorKind;
use agile_cluster::scenario;
use agile_cluster::scenario::estimators::{self, EstimatorsConfig};

fn main() {
    let args = Args::parse();
    let scale = args.get("scale").unwrap_or(64);
    let seed = args.get("seed").unwrap_or(42);
    let out = args.out_dir();

    let base = EstimatorsConfig {
        scale,
        seed,
        trace: true,
        ..EstimatorsConfig::default()
    };
    let swap = scenario::run(&EstimatorsConfig {
        estimator: WssEstimatorKind::SwapIo,
        ..base.clone()
    });
    let pml = scenario::run(&EstimatorsConfig {
        estimator: WssEstimatorKind::Pml,
        ..base.clone()
    });

    print!("{}", swap.report);
    print!("{}", pml.report);
    let ab = estimators::ab_summary(&swap, &pml);
    print!("{ab}");
    write_csv(&out, "ESTIMATORS_swap_io_report.txt", &swap.report).expect("write report");
    write_csv(&out, "ESTIMATORS_pml_report.txt", &pml.report).expect("write report");
    write_csv(&out, "ESTIMATORS_ab_summary.txt", &ab).expect("write summary");
    write_csv(
        &out,
        "ESTIMATORS_swap_io_trace.jsonl",
        swap.trace_jsonl.as_deref().expect("tracing enabled"),
    )
    .expect("write trace");
    write_csv(
        &out,
        "ESTIMATORS_pml_trace.jsonl",
        pml.trace_jsonl.as_deref().expect("tracing enabled"),
    )
    .expect("write trace");
    write_csv(&out, "ESTIMATORS_metrics.json", &pml.metrics_json).expect("write metrics");

    let epoch_ns = 4_000_000_000i128; // the PML arm's sampling epoch
    let d_mae_no_swap = pml.mae_no_swap_bytes as i128 - swap.mae_no_swap_bytes as i128;
    let d_mae_total = pml.mae_total_bytes as i128 - swap.mae_total_bytes as i128;
    let d_detect = pml.detect_ns as i128 - swap.detect_ns as i128;

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"config\": {{\"scale\": {scale}, \"seed\": {seed}, \"no_swap_secs\": {}, \
         \"detect_bytes\": {}, \"deadline_secs\": {}}},\n",
        base.no_swap_secs, base.detect_bytes, base.deadline_secs
    ));
    for (name, r) in [("swap_io", &swap), ("pml", &pml)] {
        json.push_str(&format!(
            "  \"{name}\": {{\"mae_no_swap_bytes\": {}, \"mae_total_bytes\": {}, \
             \"detect_ns\": {}, \"epochs_no_swap\": {}, \"epochs_total\": {}, \
             \"major_faults\": {}, \"completions\": {}, \"reservation_avg_bytes\": {}, \
             \"migrations\": {}, \"first_migration_ns\": {}, \"pml_overflows\": {}, \
             \"events_executed\": {}}},\n",
            r.mae_no_swap_bytes,
            r.mae_total_bytes,
            r.detect_ns,
            r.epochs_no_swap,
            r.epochs_total,
            r.major_faults,
            r.completions,
            r.reservation_avg_bytes,
            r.migrations,
            r.first_migration_ns,
            r.wss_counters.pml_overflows,
            r.events_executed
        ));
    }
    json.push_str(&format!(
        "  \"delta\": {{\"mae_no_swap_bytes\": {d_mae_no_swap}, \
         \"mae_total_bytes\": {d_mae_total}, \"detect_ns\": {d_detect}}},\n"
    ));
    let gate_passed =
        d_mae_no_swap < 0 && pml.detect_ns as i128 + epoch_ns <= swap.detect_ns as i128;
    json.push_str(&format!(
        "  \"gate\": {{\"requires\": \"delta.mae_no_swap_bytes < 0 && pml.detect_ns + epoch \
         <= swap_io.detect_ns\", \"passed\": {gate_passed}}}\n}}\n"
    ));
    let path = out.join("BENCH_4.json");
    std::fs::write(&path, &json).expect("write BENCH_4.json");
    println!("wrote {}", path.display());

    assert!(
        swap.detect_ns != u64::MAX,
        "swap-I/O arm never saw the working-set growth at all"
    );
    assert!(
        pml.wss_counters.pml_overflows > 0,
        "PML log never overflowed — the full-scan fallback went unexercised"
    );
    assert!(
        d_mae_no_swap < 0,
        "PML no-swap MAE {} >= swap-I/O {}",
        pml.mae_no_swap_bytes,
        swap.mae_no_swap_bytes
    );
    assert!(
        pml.detect_ns as i128 + epoch_ns <= swap.detect_ns as i128,
        "PML detected at {} ns, not >= one epoch before swap-I/O at {} ns",
        pml.detect_ns,
        swap.detect_ns
    );
}
