//! Diurnal cycle-prediction A/B: run `scenario::diurnal` twice on the
//! same seed — naive watermark firing vs the trough-aware predictor —
//! and write both reports plus `BENCH_3.json` with the signed deltas.
//!
//! ```sh
//! cargo run --release -p agile-bench --bin diurnal -- --scale 64
//! ```
//!
//! Same seed + same scale ⇒ byte-identical reports and traces (CI runs
//! this twice and diffs the outputs). The bin asserts the headline
//! claim: trough-scheduled migrations move strictly fewer bytes *and*
//! suffer strictly lower p99 downtime than naive firing.

use agile_bench::{write_csv, Args, Gate};
use agile_cluster::scenario;
use agile_cluster::scenario::diurnal::DiurnalConfig;

fn main() {
    let args = Args::parse();
    let scale = args.get("scale").unwrap_or(64);
    let seed = args.get("seed").unwrap_or(42);
    let out = args.out_dir();

    let base = DiurnalConfig {
        scale,
        seed,
        trace: true,
        ..DiurnalConfig::default()
    };
    let naive = scenario::run(&DiurnalConfig {
        predict: false,
        ..base.clone()
    });
    let predicted = scenario::run(&DiurnalConfig {
        predict: true,
        ..base.clone()
    });

    print!("{}", naive.report);
    print!("{}", predicted.report);
    write_csv(&out, "DIURNAL_naive_report.txt", &naive.report).expect("write report");
    write_csv(&out, "DIURNAL_predicted_report.txt", &predicted.report).expect("write report");
    write_csv(
        &out,
        "DIURNAL_naive_trace.jsonl",
        naive.trace_jsonl.as_deref().expect("tracing enabled"),
    )
    .expect("write trace");
    write_csv(
        &out,
        "DIURNAL_predicted_trace.jsonl",
        predicted.trace_jsonl.as_deref().expect("tracing enabled"),
    )
    .expect("write trace");
    write_csv(&out, "DIURNAL_metrics.json", &predicted.metrics_json).expect("write metrics");

    let p = predicted.predict.expect("predictor armed");
    let delta_bytes = predicted.total_bytes as i64 - naive.total_bytes as i64;
    let delta_pages = predicted.total_pages_full as i64 - naive.total_pages_full as i64;
    let delta_p99 = predicted.downtime_p99_ns as i64 - naive.downtime_p99_ns as i64;

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"config\": {{\"scale\": {scale}, \"seed\": {seed}, \"period_secs\": {}, \
         \"flash1_secs\": {}, \"flash2_secs\": {}, \"deadline_secs\": {}}},\n",
        base.period_secs, base.flash1_secs, base.flash2_secs, base.deadline_secs
    ));
    for (name, r) in [("naive", &naive), ("predicted", &predicted)] {
        json.push_str(&format!(
            "  \"{name}\": {{\"migrations\": {}, \"total_bytes\": {}, \"total_pages_full\": {}, \
             \"downtime_p99_ns\": {}, \"events_executed\": {}}},\n",
            r.migrations.len(),
            r.total_bytes,
            r.total_pages_full,
            r.downtime_p99_ns,
            r.events_executed
        ));
    }
    json.push_str(&format!(
        "  \"predict_counters\": {{\"cycles_detected\": {}, \"deferrals\": {}, \
         \"window_expiries\": {}, \"trough_hits\": {}, \"trough_misses\": {}, \
         \"cancelled\": {}}},\n",
        p.cycles_detected,
        p.deferrals,
        p.window_expiries,
        p.trough_hits,
        p.trough_misses,
        p.cancelled
    ));
    json.push_str(&format!(
        "  \"delta\": {{\"bytes\": {delta_bytes}, \"pages_full\": {delta_pages}, \
         \"downtime_p99_ns\": {delta_p99}}},\n"
    ));
    let gate = Gate::new([
        (
            delta_bytes < 0,
            format!(
                "predicted run moved {} bytes vs naive {}",
                predicted.total_bytes, naive.total_bytes
            ),
        ),
        (
            delta_p99 < 0,
            format!(
                "predicted p99 downtime {} ns vs naive {} ns",
                predicted.downtime_p99_ns, naive.downtime_p99_ns
            ),
        ),
    ]);
    json.push_str(&format!(
        "  \"gate\": {{\"requires\": \"delta.bytes < 0 && delta.downtime_p99_ns < 0\", \
         \"passed\": {}}}\n}}\n",
        gate.passed()
    ));
    let path = out.join("BENCH_3.json");
    std::fs::write(&path, &json).expect("write BENCH_3.json");
    println!("wrote {}", path.display());

    assert!(p.deferrals > 0, "predictor never deferred a migration");
    // An arm with no finished migration would read as a negative delta:
    // its p99 is the `u64::MAX` sentinel (-1 as i64) and its bytes 0.
    for (name, r) in [("naive", &naive), ("predicted", &predicted)] {
        assert!(
            r.migrations.iter().any(|m| m.finished) && r.downtime_p99_ns != u64::MAX,
            "{name} arm finished no migration with a measured downtime"
        );
    }
    gate.enforce();
}
