//! Randomized tests: distribution bounds, dataset mapping totality, and
//! op-spec well-formedness across the workload models, driven by the
//! deterministic simulation RNG (fixed seeds, so failures reproduce).

use agile_sim_core::DetRng;
use agile_vm::PageRange;
use agile_workload::{Dataset, KeyDist, SysbenchOltp, YcsbParams, YcsbRedis, Zipfian};

/// Zipfian samples always land in range for arbitrary n and θ.
#[test]
fn zipfian_in_range() {
    for case in 0..100u64 {
        let mut g = DetRng::seed_from(0x21f * 3 + case);
        let n = 1 + g.index(100_000 - 1);
        let theta = g.range_f64(0.0, 0.999);
        let seed = g.index(1000);
        let z = Zipfian::scrambled(n, theta);
        let mut rng = DetRng::seed_from(seed);
        for _ in 0..200 {
            assert!(z.sample(&mut rng) < n, "case {case}");
        }
    }
}

/// Every record of a dataset maps to pages inside its region, and
/// consecutive records never go backwards.
#[test]
fn dataset_mapping_total_and_monotone() {
    for case in 0..100u64 {
        let mut g = DetRng::seed_from(0x22f * 5 + case);
        let region_len = 16 + g.index(4096 - 16) as u32;
        let record_bytes = 64 + g.index(8192 - 64);
        let region = PageRange {
            start: 1000,
            len: region_len,
        };
        let d = Dataset::filling(region, record_bytes, 4096);
        if d.n_records() == 0 {
            continue;
        }
        let mut prev = 0u32;
        let step = (d.n_records() / 512).max(1);
        for key in (0..d.n_records()).step_by(step as usize) {
            let first = d.page_of(key);
            assert!(region.contains(first), "case {case}");
            assert!(first >= prev, "case {case}: mapping went backwards");
            prev = first;
            for p in d.pages_of(key) {
                assert!(region.contains(p), "case {case}: record {key} spills out");
            }
        }
    }
}

/// YCSB ops always touch the index region then the data region, and
/// honour the active window.
#[test]
fn ycsb_ops_well_formed() {
    for case in 0..100u64 {
        let mut g = DetRng::seed_from(0x23f * 7 + case);
        let active_kb = 64 + g.index(4096 - 64);
        let read_ratio = g.unit_f64();
        let seed = g.index(500);
        let index = PageRange { start: 0, len: 64 };
        let data = PageRange {
            start: 64,
            len: 2048,
        };
        let dataset = Dataset::filling(data, 1024, 4096);
        let mut m = YcsbRedis::new(
            dataset,
            index,
            KeyDist::UniformPrefix,
            YcsbParams {
                read_ratio,
                ..YcsbParams::default()
            },
        );
        m.set_active_bytes(active_kb * 1024);
        let active_pages = (m.active_bytes() / 4096) as u32 + 1;
        let mut rng = DetRng::seed_from(seed);
        for _ in 0..200 {
            let op = m.next_op(&mut rng);
            assert!(op.touches.len() >= 2, "case {case}");
            let (ip, iw) = op.touches.get(0);
            assert!(index.contains(ip), "case {case}");
            assert!(!iw, "case {case}: index is never written");
            let (dp, _) = op.touches.get(1);
            assert!(data.contains(dp), "case {case}");
            assert!(
                dp < data.start + active_pages,
                "case {case}: outside active window"
            );
            assert!(op.cpu.as_nanos() > 0, "case {case}");
        }
    }
}

/// OLTP transactions always contain exactly one commit per 17 statements,
/// and write touches only occur in updates/commits.
#[test]
fn oltp_plan_structure() {
    for case in 0..100u64 {
        let mut g = DetRng::seed_from(0x24f * 11 + case);
        let seed = g.index(500);
        let rows_region = PageRange {
            start: 600,
            len: 8192,
        };
        let index = PageRange { start: 0, len: 128 };
        let log = PageRange {
            start: 128,
            len: 16,
        };
        let rows = Dataset::filling(rows_region, 256, 4096);
        let mut m = SysbenchOltp::new(rows, index, log, KeyDist::UniformPrefix);
        let mut rng = DetRng::seed_from(seed);
        for _txn in 0..5 {
            let mut commits = 0;
            for stmt in 0..SysbenchOltp::STATEMENTS_PER_TXN {
                let (op, is_commit) = m.next_op(&mut rng);
                if is_commit {
                    commits += 1;
                    assert_eq!(stmt, SysbenchOltp::STATEMENTS_PER_TXN - 1, "case {case}");
                }
                let writes = op.write_touches();
                if stmt < 14 {
                    assert_eq!(writes, 0, "case {case}: selects are read-only");
                }
                for (p, _) in op.touches.iter() {
                    assert!(
                        rows_region.contains(p) || index.contains(p) || log.contains(p),
                        "case {case}: touch outside the layout: {p}"
                    );
                }
            }
            assert_eq!(commits, 1, "case {case}");
        }
    }
}
