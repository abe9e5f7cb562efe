//! The headline estimator-blindness fix, pinned as a regression test
//! from the *trace export* (not the internals that produced it).
//!
//! A guest whose working set grows while still fitting under its
//! reservation never swaps — so the paper's iostat estimator (§IV-D)
//! reads a flat zero rate the whole time and keeps the reservation
//! shrunk at the operator floor. The simulated-PML estimator watches
//! dirty-page epochs instead and both *sees* the growth (non-zero,
//! rising WSS estimates crossing the detect threshold well inside the
//! no-swap window) and *acts* on it (reservation sized above the floor
//! and the initial grant). Asserted from the exported JSONL event
//! stream of `scenario::estimators`, one arm per estimator on the same
//! seed.

use agile_cluster::config::WssEstimatorKind;
use agile_cluster::scenario;
use agile_cluster::scenario::estimators::{EstimatorsConfig, EstimatorsResult};

/// Scenario constants at scale 64 (mirrors `EstimatorsConfig::setup`).
const SCALE: u64 = 64;
const MIB: u64 = 1 << 20;
/// Initial per-VM reservation grant.
const RESV_INIT: u64 = 2304 * MIB / SCALE;
/// Operator floor the swap-I/O controller shrinks to on zero rate.
const RESV_FLOOR: u64 = 2048 * MIB / SCALE;
/// Detect threshold (`EstimatorsConfig::detect_bytes` / scale).
const DETECT: u64 = 512 * MIB / SCALE;
/// End of the guaranteed-no-swap phase.
const NO_SWAP_NS: u64 = 90 * 1_000_000_000;
/// The swap-I/O controller's rate threshold τ (KB/s).
const TAU_KBPS: f64 = 4.0;

fn run(estimator: WssEstimatorKind) -> EstimatorsResult {
    scenario::run(&EstimatorsConfig {
        estimator,
        scale: SCALE,
        deadline_secs: 140,
        trace: true,
        seed: 42,
        ..EstimatorsConfig::default()
    })
}

/// Extract `"key":value` from one exported JSONL line (no quotes around
/// the value — numbers and booleans).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

fn field_u64(line: &str, key: &str) -> u64 {
    field(line, key)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no u64 {key} in {line}"))
}

fn field_f64(line: &str, key: &str) -> f64 {
    field(line, key)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no f64 {key} in {line}"))
}

#[test]
fn growth_without_swap_is_invisible_to_swap_io_but_not_pml() {
    let swap = run(WssEstimatorKind::SwapIo);
    let pml = run(WssEstimatorKind::Pml);
    let swap_trace = swap.trace_jsonl.as_deref().expect("tracing enabled");
    let pml_trace = pml.trace_jsonl.as_deref().expect("tracing enabled");

    // --- Swap-I/O arm, inside the no-swap window: every sample reads a
    // zero rate and the sized reservation never exceeds the initial
    // grant (the controller only ever shrank toward the floor).
    let mut samples_in_window = 0u64;
    for line in swap_trace.lines().filter(|l| l.contains("\"wss_sample\"")) {
        if field_u64(line, "t_ns") >= NO_SWAP_NS {
            continue;
        }
        samples_in_window += 1;
        let rate = field_f64(line, "rate_kbps");
        assert!(
            rate == 0.0,
            "swap arm saw a non-zero rate inside the no-swap window: {line}"
        );
        assert!(rate <= TAU_KBPS, "τ crossed inside the no-swap window");
        assert!(
            field_u64(line, "reservation") <= RESV_INIT,
            "swap arm grew the reservation with zero swap traffic: {line}"
        );
    }
    assert!(samples_in_window >= 10, "swap arm barely sampled");

    // --- Meanwhile the ground-truth oracle riding the same arm shows
    // the working set actually grew past the detect threshold: the
    // estimator was blind, not the guest idle.
    let swap_truths: Vec<u64> = swap_trace
        .lines()
        .filter(|l| l.contains("\"wss_estimate\"") && l.contains("\"estimator\":\"swap_io\""))
        .filter(|l| field_u64(l, "t_ns") < NO_SWAP_NS)
        .map(|l| field_u64(l, "truth_bytes"))
        .collect();
    assert!(!swap_truths.is_empty(), "oracle never drained on swap arm");
    let truth_peak = *swap_truths.iter().max().unwrap();
    assert!(
        truth_peak >= DETECT,
        "ground truth never crossed the detect threshold ({truth_peak} < {DETECT}) — \
         the blindness window is vacuous"
    );
    assert!(
        truth_peak >= 2 * swap_truths[0],
        "working set did not grow inside the window"
    );
    // And the arm's detection (first above-τ rate) happened only after
    // the window, if at all.
    assert!(
        swap.detect_ns >= NO_SWAP_NS,
        "swap arm detected at {} ns, inside the no-swap window",
        swap.detect_ns
    );

    // --- PML arm: non-zero, rising estimates cross the detect
    // threshold well inside the window...
    assert!(
        pml.detect_ns < NO_SWAP_NS,
        "PML arm failed to detect inside the no-swap window ({} ns)",
        pml.detect_ns
    );
    let pml_ests: Vec<(u64, u64, u64)> = pml_trace
        .lines()
        .filter(|l| l.contains("\"wss_estimate\"") && l.contains("\"estimator\":\"pml\""))
        .map(|l| {
            (
                field_u64(l, "t_ns"),
                field_u64(l, "est_bytes"),
                field_u64(l, "reservation"),
            )
        })
        .collect();
    assert!(
        pml_ests
            .iter()
            .any(|&(t, est, _)| t < NO_SWAP_NS && est >= DETECT),
        "no in-window PML estimate reached the detect threshold"
    );
    // ... and the reservation sizing *reacted*: sized above both the
    // floor the swap arm is stuck at and the initial grant.
    let resv_peak = pml_ests.iter().map(|&(_, _, r)| r).max().unwrap_or(0);
    assert!(
        resv_peak > RESV_FLOOR,
        "PML reservation never left the floor ({resv_peak} <= {RESV_FLOOR})"
    );
    assert!(
        resv_peak > RESV_INIT,
        "PML reservation never exceeded the initial grant ({resv_peak} <= {RESV_INIT})"
    );

    // The arms ran the same workload: same guests, same ramp — so the
    // oracle truths should peak in the same ballpark (within 2x).
    let pml_truth_peak = pml_trace
        .lines()
        .filter(|l| l.contains("\"wss_estimate\""))
        .filter(|l| field_u64(l, "t_ns") < NO_SWAP_NS)
        .map(|l| field_u64(l, "truth_bytes"))
        .max()
        .expect("pml arm estimates");
    assert!(
        pml_truth_peak * 2 >= truth_peak && truth_peak * 2 >= pml_truth_peak,
        "arms saw wildly different ground truths: {pml_truth_peak} vs {truth_peak}"
    );
}
