//! Tier-stack crossover bench: sweep pool-DRAM scarcity under the
//! scarce-DRAM (SSD-spill) and far-memory stacks and write
//! `BENCH_5.json` pinning where cheap far memory starts beating scarce
//! remote DRAM on guest-visible fault latency and migration downtime.
//!
//! ```sh
//! cargo run --release -p agile-bench --bin tiers -- --scale 64
//! ```
//!
//! Same seed + same scale ⇒ byte-identical reports and JSON (CI runs
//! this twice and diffs the outputs, then compares against the
//! checked-in baseline). The bin asserts the headline claim: at the
//! ample end of the sweep the all-DRAM stack wins the fault-latency
//! p99, at the scarce end the far-memory stack wins — the curves cross.

use agile_bench::{write_csv, Args};
use agile_cluster::scenario;
use agile_cluster::scenario::tiers::{self, TierArm, TiersResult};

fn main() {
    let args = Args::parse();
    let scale = args.get("scale").unwrap_or(64);
    let seed = args.get("seed").unwrap_or(42);
    let workers = args.get("workers").unwrap_or(4);
    let out = args.out_dir();

    let cfgs = tiers::sweep(scale, seed);
    let results = scenario::run_replicated(&cfgs, workers);

    let mut report = String::new();
    for r in &results {
        report.push_str(&r.report);
    }
    print!("{report}");
    write_csv(&out, "TIERS_report.txt", &report).expect("write report");

    // Pair the two arms per sweep point (sweep() emits them adjacent).
    let points: Vec<(u64, &TiersResult, &TiersResult)> = cfgs
        .chunks(2)
        .zip(results.chunks(2))
        .map(|(c, r)| {
            assert_eq!(c[0].arm, TierArm::ScarceDram);
            assert_eq!(c[1].arm, TierArm::FarMemory);
            assert_eq!(c[0].dram_pct, c[1].dram_pct);
            (c[0].dram_pct, &r[0], &r[1])
        })
        .collect();

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"config\": {{\"scale\": {scale}, \"seed\": {seed}}},\n  \"points\": [\n"
    ));
    for (i, (pct, a, b)) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"dram_pct\": {pct}, \
             \"scarce_dram\": {{\"fault_mean_ns\": {}, \"fault_p50_ns\": {}, \
             \"fault_p99_ns\": {}, \"fault_max_ns\": {}, \"faults\": {}, \
             \"downtime_ns\": {}, \"migration_ns\": {}, \"tier_pages\": {:?}}}, \
             \"far_memory\": {{\"fault_mean_ns\": {}, \"fault_p50_ns\": {}, \
             \"fault_p99_ns\": {}, \"fault_max_ns\": {}, \"faults\": {}, \
             \"downtime_ns\": {}, \"migration_ns\": {}, \"tier_pages\": {:?}}}}}{}\n",
            a.fault_mean_ns,
            a.fault_p50_ns,
            a.fault_p99_ns,
            a.fault_max_ns,
            a.faults,
            a.downtime_ns,
            a.migration_ns,
            a.tier_pages,
            b.fault_mean_ns,
            b.fault_p50_ns,
            b.fault_p99_ns,
            b.fault_max_ns,
            b.faults,
            b.downtime_ns,
            b.migration_ns,
            b.tier_pages,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");

    // The crossover. Ample end: remote DRAM strictly wins mean fault
    // latency (the p99 ties — the tail is the migration-time swap-in
    // queue, identical under both stacks, and the power-of-two buckets
    // cannot see a microsecond-scale device cost), and downtime must
    // not regress beyond noise (0.1 %). Scarce end: far memory strictly
    // wins mean, p99 *and* downtime — the advantage appears only under
    // scarcity, which is the crossover the stack exists for.
    let (ample_pct, ample_a, ample_b) = points.first().expect("non-empty sweep");
    let (scarce_pct, scarce_a, scarce_b) = points.last().expect("non-empty sweep");
    let ample_dram_wins = ample_a.fault_mean_ns < ample_b.fault_mean_ns
        && ample_a.fault_p99_ns <= ample_b.fault_p99_ns
        && ample_a.downtime_ns <= ample_b.downtime_ns + ample_b.downtime_ns / 1000;
    let scarce_far_wins = scarce_a.fault_mean_ns > scarce_b.fault_mean_ns
        && scarce_a.fault_p99_ns > scarce_b.fault_p99_ns
        && scarce_a.downtime_ns > scarce_b.downtime_ns;
    let crossover_pct = points
        .iter()
        .find(|(_, a, b)| a.fault_p99_ns > b.fault_p99_ns && a.downtime_ns > b.downtime_ns)
        .map(|(pct, _, _)| *pct as i64)
        .unwrap_or(-1);
    let gate_passed = ample_dram_wins && scarce_far_wins && crossover_pct > *scarce_pct as i64;
    json.push_str(&format!(
        "  \"crossover\": {{\"ample_pct\": {ample_pct}, \"scarce_pct\": {scarce_pct}, \
         \"first_far_memory_win_pct\": {crossover_pct}}},\n"
    ));
    json.push_str(&format!(
        "  \"gate\": {{\"requires\": \"mean(scarce_dram) < mean(far_memory) at \
         dram_pct={ample_pct} with p99 and downtime no worse, && mean+p99+downtime(scarce_dram) \
         > mean+p99+downtime(far_memory) at dram_pct={scarce_pct}\", \
         \"passed\": {gate_passed}}}\n}}\n"
    ));
    let path = out.join("BENCH_5.json");
    std::fs::write(&path, &json).expect("write BENCH_5.json");
    println!("wrote {}", path.display());

    for (pct, a, b) in &points {
        assert!(
            a.finished && b.finished,
            "migration unfinished at dram_pct={pct}"
        );
        assert!(
            a.faults > 100 && b.faults > 100,
            "too few faults at dram_pct={pct} for a meaningful p99"
        );
    }
    assert!(
        ample_dram_wins,
        "ample DRAM ({ample_pct}%) must beat far memory on mean fault latency without \
         regressing p99 or downtime: mean {} vs {}, p99 {} vs {}, downtime {} vs {}",
        ample_a.fault_mean_ns,
        ample_b.fault_mean_ns,
        ample_a.fault_p99_ns,
        ample_b.fault_p99_ns,
        ample_a.downtime_ns,
        ample_b.downtime_ns
    );
    assert!(
        scarce_far_wins,
        "scarce DRAM ({scarce_pct}%) must lose to far memory on mean, p99 and downtime: \
         mean {} vs {}, p99 {} vs {}, downtime {} vs {}",
        scarce_a.fault_mean_ns,
        scarce_b.fault_mean_ns,
        scarce_a.fault_p99_ns,
        scarce_b.fault_p99_ns,
        scarce_a.downtime_ns,
        scarce_b.downtime_ns
    );
    assert!(
        crossover_pct > *scarce_pct as i64,
        "the far-memory win must first appear strictly inside the sweep \
         (first win at {crossover_pct}%, scarce end {scarce_pct}%)"
    );
}
