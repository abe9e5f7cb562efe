//! The headline claim of the cycle predictor, pinned as a hard gate:
//! on the diurnal/flash-crowd scenario, arming the trough-aware
//! deferral layer makes migrations strictly cheaper on BOTH axes —
//! total bytes on the migration channels AND p99 downtime — versus
//! naive watermark firing on the same seed. `BENCH_3.json` records the
//! same comparison at the same scale.

use agile_cluster::scenario;
use agile_cluster::scenario::diurnal::DiurnalConfig;

fn base() -> DiurnalConfig {
    DiurnalConfig {
        scale: 64,
        seed: 42,
        ..DiurnalConfig::default()
    }
}

/// Trough-scheduled migrations beat naive firing on bytes AND downtime.
#[test]
fn predictor_beats_naive_on_bytes_and_downtime() {
    let naive = scenario::run(&DiurnalConfig {
        predict: false,
        ..base()
    });
    let predicted = scenario::run(&DiurnalConfig {
        predict: true,
        ..base()
    });

    // Both arms observe the same breaches and migrate the same VMs.
    assert!(!naive.migrations.is_empty(), "naive run never migrated");
    assert_eq!(
        naive.migrations.len(),
        predicted.migrations.len(),
        "arms migrated different VM counts"
    );
    let mut nv: Vec<usize> = naive.migrations.iter().map(|m| m.vm).collect();
    let mut pv: Vec<usize> = predicted.migrations.iter().map(|m| m.vm).collect();
    nv.sort_unstable();
    pv.sort_unstable();
    assert_eq!(nv, pv, "arms migrated different VMs");

    // The predictor actually engaged: every migration was deferred and
    // every deferral landed on a genuine trough.
    let p = predicted.predict.expect("predictor armed");
    assert_eq!(p.deferrals, predicted.migrations.len() as u64);
    assert_eq!(p.trough_hits, p.deferrals);
    assert_eq!(p.window_expiries, 0);
    assert_eq!(p.cancelled, 0);
    assert!(p.cycles_detected > 0);

    // The acceptance gate: strictly fewer bytes AND strictly lower p99
    // downtime.
    assert!(
        predicted.total_bytes < naive.total_bytes,
        "predicted moved {} bytes, naive {}",
        predicted.total_bytes,
        naive.total_bytes
    );
    assert!(
        predicted.total_pages_full < naive.total_pages_full,
        "predicted shipped {} full pages, naive {}",
        predicted.total_pages_full,
        naive.total_pages_full
    );
    assert!(
        predicted.downtime_p99_ns < naive.downtime_p99_ns,
        "predicted p99 downtime {} ns, naive {} ns",
        predicted.downtime_p99_ns,
        naive.downtime_p99_ns
    );
}

/// Same seed twice ⇒ byte-identical report and event count (the
/// determinism contract the golden suite relies on).
#[test]
fn predicted_run_is_deterministic() {
    let cfg = DiurnalConfig {
        predict: true,
        trace: true,
        ..base()
    };
    let a = scenario::run(&cfg);
    let b = scenario::run(&cfg);
    assert_eq!(a.report, b.report);
    assert_eq!(a.trace_jsonl, b.trace_jsonl);
    assert_eq!(a.metrics_json, b.metrics_json);
    assert_eq!(a.events_executed, b.events_executed);
}
