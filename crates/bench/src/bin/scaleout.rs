//! Rapid scale-out bench: a flash crowd spawns 16 clones off a sealed
//! gold image under streamed (post-copy style) and full pre-copy
//! cloning, and `BENCH_6.json` pins the A/B: time-to-first-page-served,
//! time-to-fleet-ready, clone-attributable fabric bytes, and the
//! master-host interference probe.
//!
//! ```sh
//! cargo run --release -p agile-bench --bin scaleout -- --scale 16
//! ```
//!
//! Same seed + same scale ⇒ byte-identical reports and JSON (CI runs
//! this twice and diffs the outputs, then compares against the
//! checked-in baseline). The bin asserts the headline claim: streamed
//! cloning serves first pages orders of magnitude sooner AND moves
//! fewer fabric bytes for a short-lived crowd — teardown cancels the
//! hydration that precopy pays up front.

use agile_bench::{write_csv, Args, Gate};
use agile_cluster::scenario;
use agile_cluster::scenario::scaleout::{self, CloneArm, ScaleoutConfig};

fn main() {
    let args = Args::parse();
    let scale = args.get("scale").unwrap_or(16);
    let seed = args.get("seed").unwrap_or(42);
    let workers = args.get("workers").unwrap_or(2);
    let clones = args.get("clones").unwrap_or(16);
    let out = args.out_dir();

    let cfgs: Vec<ScaleoutConfig> = [CloneArm::Streamed, CloneArm::Precopy]
        .into_iter()
        .map(|arm| ScaleoutConfig {
            arm,
            clones,
            scale,
            seed,
            ..ScaleoutConfig::default()
        })
        .collect();
    let results = scenario::run_replicated(&cfgs, workers);
    let (s, p) = (&results[0], &results[1]);

    let mut report = String::new();
    for r in &results {
        report.push_str(&r.report);
    }
    print!("{report}");
    write_csv(&out, "SCALEOUT_report.txt", &report).expect("write report");

    let arm_json = |r: &scaleout::ScaleoutResult| {
        format!(
            "{{\"spawned\": {}, \"ready\": {}, \"ttfps_mean_ns\": {}, \
             \"ttfps_max_ns\": {}, \"all_ready_ns\": {}, \"fabric_bytes\": {}, \
             \"hydrated_pages\": {}, \"cow_breaks\": {}, \"torn_down\": {}, \
             \"lost_reads\": {}, \"bystander_ops\": {}, \"digest\": \"{:#018x}\", \
             \"events_executed\": {}}}",
            r.spawned,
            r.ready,
            r.ttfps_mean_ns,
            r.ttfps_max_ns,
            r.all_ready_ns,
            r.fabric_bytes,
            r.hydrated_pages,
            r.cow_breaks,
            r.torn_down,
            r.lost_reads,
            r.bystander_ops,
            r.digest,
            r.events_executed,
        )
    };

    // Signed deltas, streamed minus precopy: negative = streamed wins.
    let d_ttfps = s.ttfps_mean_ns as i64 - p.ttfps_mean_ns as i64;
    let d_all_ready = s.all_ready_ns as i64 - p.all_ready_ns as i64;
    let d_fabric = s.fabric_bytes as i64 - p.fabric_bytes as i64;
    let d_bystander = s.bystander_ops as i64 - p.bystander_ops as i64;

    let n = clones as u64;
    let mut checks = Vec::new();
    for (arm, r) in [("streamed", s), ("precopy", p)] {
        checks.extend([
            (
                r.ready == n,
                format!("{arm} fleet served {} of {n} clones", r.ready),
            ),
            (
                r.torn_down == n,
                format!("{arm} fleet tore down {} of {n} clones", r.torn_down),
            ),
            (
                r.lost_reads == 0,
                format!("{arm} arm lost {} reads without chaos", r.lost_reads),
            ),
            (
                r.cow_breaks > 0,
                format!("{arm} clones never diverged from the gold image"),
            ),
        ]);
    }
    checks.push((
        d_ttfps < 0,
        format!(
            "streamed must serve first pages sooner: {} vs {} ns",
            s.ttfps_mean_ns, p.ttfps_mean_ns
        ),
    ));
    checks.push((
        d_fabric < 0,
        format!(
            "streamed must move fewer fabric bytes: {} vs {}",
            s.fabric_bytes, p.fabric_bytes
        ),
    ));
    let gate = Gate::new(checks);

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"config\": {{\"scale\": {scale}, \"seed\": {seed}, \"clones\": {clones}}},\n"
    ));
    json.push_str(&format!("  \"streamed\": {},\n", arm_json(s)));
    json.push_str(&format!("  \"precopy\": {},\n", arm_json(p)));
    json.push_str(&format!(
        "  \"delta_streamed_minus_precopy\": {{\"ttfps_mean_ns\": {d_ttfps}, \
         \"all_ready_ns\": {d_all_ready}, \"fabric_bytes\": {d_fabric}, \
         \"bystander_ops\": {d_bystander}}},\n"
    ));
    json.push_str(&format!(
        "  \"gate\": {{\"requires\": \"both arms spawn, serve and tear down all \
         {clones} clones with nothing lost, clones diverge (cow_breaks > 0), && \
         streamed beats precopy on ttfps_mean_ns and fabric_bytes\", \
         \"passed\": {}}}\n}}\n",
        gate.passed()
    ));
    let path = out.join("BENCH_6.json");
    std::fs::write(&path, &json).expect("write BENCH_6.json");
    println!("wrote {}", path.display());

    gate.enforce();
}
