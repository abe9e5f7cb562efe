//! Sysbench OLTP client + MySQL/InnoDB server model (fused).
//!
//! The paper's second application (§V-C): four MySQL servers each holding
//! an 8 GB dataset, queried by external Sysbench clients; throughput is
//! reported in transactions/second. The default Sysbench OLTP transaction
//! is a fixed statement mix; we model each *statement* as one [`OpSpec`]
//! and flag the COMMIT so the executor can count whole transactions:
//!
//! * 10 point SELECTs — B-tree descent (2 hot index pages) + 1 row page;
//! * 4 range SELECTs — B-tree descent + 4 consecutive row pages;
//! * 2 UPDATEs — descent + row page written + log page written;
//! * 1 COMMIT — log flush (log page written, larger CPU burst).
//!
//! The buffer pool (the dataset region) is larger than the cgroup
//! reservation in the paper's setup, so statements fault continuously —
//! and UPDATE/COMMIT statements keep dirtying pages, which is what makes
//! Sysbench "moderately write intensive" for pre-copy (Table III).

use agile_sim_core::{DetRng, SimDuration};
use agile_vm::PageRange;

use crate::dataset::Dataset;
use crate::dist::KeyDist;
use crate::ops::{OpSpec, TouchList};

/// Statement position within the OLTP transaction plan.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stmt {
    PointSelect(u8),
    RangeSelect(u8),
    Update(u8),
    Commit,
}

/// Guest CPU per SELECT statement.
const CPU_SELECT: SimDuration = SimDuration::from_micros(120);
/// Guest CPU per UPDATE statement.
const CPU_UPDATE: SimDuration = SimDuration::from_micros(180);
/// Guest CPU for COMMIT (log serialization + fsync path).
const CPU_COMMIT: SimDuration = SimDuration::from_micros(700);
/// Rows touched by a range select.
const RANGE_ROWS: u32 = 4;
/// Client threads (Sysbench `--num-threads`).
const CLIENT_THREADS: u32 = 8;
/// Server worker threads processing statements concurrently.
const SERVER_CONCURRENCY: u32 = 4;

/// The fused Sysbench-client / MySQL-server workload model.
#[derive(Clone, Debug)]
pub struct SysbenchOltp {
    rows: Dataset,
    index: PageRange,
    log: PageRange,
    dist: KeyDist,
    plan_pos: usize,
    log_head: u32,
}

impl SysbenchOltp {
    /// Build over `rows` (the InnoDB buffer pool region), `index` (hot
    /// B-tree upper levels), and `log` (redo log circular buffer).
    pub fn new(rows: Dataset, index: PageRange, log: PageRange, dist: KeyDist) -> Self {
        assert!(index.len >= 2 && log.len >= 1);
        SysbenchOltp {
            rows,
            index,
            log,
            dist,
            plan_pos: 0,
            log_head: 0,
        }
    }

    /// Statements per transaction (10 + 4 + 2 + 1).
    pub const STATEMENTS_PER_TXN: usize = 17;

    fn stmt_at(&self, pos: usize) -> Stmt {
        match pos {
            0..=9 => Stmt::PointSelect(pos as u8),
            10..=13 => Stmt::RangeSelect((pos - 10) as u8),
            14..=15 => Stmt::Update((pos - 14) as u8),
            16 => Stmt::Commit,
            _ => unreachable!(),
        }
    }

    /// Sysbench worker concurrency at the server.
    pub fn server_concurrency(&self) -> u32 {
        SERVER_CONCURRENCY
    }

    /// Closed-loop client threads.
    pub fn client_threads(&self) -> u32 {
        CLIENT_THREADS
    }

    /// B-tree descent: two pages from the hot index region.
    fn index_touches(&self, key: u64, touches: &mut TouchList) {
        let h1 = (key.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) % self.index.len as u64;
        let h2 = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % self.index.len as u64;
        touches.push(self.index.page(h1 as u32), false);
        touches.push(self.index.page(h2 as u32), false);
    }

    /// Generate the next statement. `OpSpec::completions` (via
    /// [`crate::ops::OpSpec`] response sizing) — the COMMIT statement is
    /// identified by `is_commit` on the returned pair.
    pub fn next_op(&mut self, rng: &mut DetRng) -> (OpSpec, bool) {
        let stmt = self.stmt_at(self.plan_pos);
        self.plan_pos = (self.plan_pos + 1) % Self::STATEMENTS_PER_TXN;
        let n = self.rows.n_records();
        let mut touches = TouchList::new();
        let (cpu, is_commit, resp) = match stmt {
            Stmt::PointSelect(_) => {
                let key = self.dist.sample(rng, n);
                self.index_touches(key, &mut touches);
                touches.push(self.rows.page_of(key), false);
                (CPU_SELECT, false, 256)
            }
            Stmt::RangeSelect(_) => {
                let key = self.dist.sample(rng, n);
                self.index_touches(key, &mut touches);
                let first = self.rows.page_of(key);
                let end = self.rows.region().end();
                for i in 0..RANGE_ROWS {
                    let p = first + i;
                    if p < end {
                        touches.push(p, false);
                    }
                }
                (CPU_SELECT, false, 1024)
            }
            Stmt::Update(_) => {
                let key = self.dist.sample(rng, n);
                self.index_touches(key, &mut touches);
                touches.push(self.rows.page_of(key), true);
                // Redo log append.
                touches.push(self.log.page(self.log_head), true);
                (CPU_UPDATE, false, 64)
            }
            Stmt::Commit => {
                // Log flush: advance the circular log head.
                touches.push(self.log.page(self.log_head), true);
                self.log_head = (self.log_head + 1) % self.log.len;
                (CPU_COMMIT, true, 64)
            }
        };
        (
            OpSpec {
                touches,
                cpu,
                request_bytes: 128,
                response_bytes: resp,
            },
            is_commit,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SysbenchOltp {
        let rows_region = PageRange {
            start: 10_000,
            len: 100_000,
        };
        let index_region = PageRange {
            start: 100,
            len: 500,
        };
        let log_region = PageRange {
            start: 700,
            len: 32,
        };
        let rows = Dataset::filling(rows_region, 256, 4096);
        SysbenchOltp::new(rows, index_region, log_region, KeyDist::UniformPrefix)
    }

    #[test]
    fn plan_has_seventeen_statements_one_commit() {
        let mut m = model();
        let mut rng = DetRng::seed_from(1);
        let mut commits = 0;
        for _ in 0..SysbenchOltp::STATEMENTS_PER_TXN {
            let (_, is_commit) = m.next_op(&mut rng);
            if is_commit {
                commits += 1;
            }
        }
        assert_eq!(commits, 1);
        // The next statement starts a fresh transaction (not a commit).
        let (_, is_commit) = m.next_op(&mut rng);
        assert!(!is_commit);
    }

    #[test]
    fn updates_dirty_row_and_log_pages() {
        let mut m = model();
        let mut rng = DetRng::seed_from(2);
        // Statements 14 and 15 are updates.
        for _ in 0..14 {
            m.next_op(&mut rng);
        }
        let (op, _) = m.next_op(&mut rng);
        assert_eq!(op.write_touches(), 2, "row + log");
        // Log page is in the log region.
        let (log_page, w) = op.touches.get(op.touches.len() - 1);
        assert!(w);
        assert!((700..732).contains(&log_page));
    }

    #[test]
    fn selects_are_read_only() {
        let mut m = model();
        let mut rng = DetRng::seed_from(3);
        for _ in 0..14 {
            let (op, _) = m.next_op(&mut rng);
            assert_eq!(op.write_touches(), 0);
        }
    }

    #[test]
    fn range_select_touches_consecutive_pages() {
        let mut m = model();
        let mut rng = DetRng::seed_from(4);
        for _ in 0..10 {
            m.next_op(&mut rng);
        }
        let (op, _) = m.next_op(&mut rng); // first range select
                                           // 2 index + up to 4 row pages.
        assert!(op.touches.len() >= 3 && op.touches.len() <= 6);
        let rows: Vec<u32> = op.touches.iter().skip(2).map(|(p, _)| p).collect();
        for w in rows.windows(2) {
            assert_eq!(w[1], w[0] + 1, "range rows must be consecutive");
        }
    }

    #[test]
    fn log_head_wraps() {
        let mut m = model();
        let mut rng = DetRng::seed_from(5);
        let mut log_pages = std::collections::HashSet::new();
        for _ in 0..SysbenchOltp::STATEMENTS_PER_TXN * 40 {
            let (op, is_commit) = m.next_op(&mut rng);
            if is_commit {
                log_pages.insert(op.touches.get(0).0);
            }
        }
        assert_eq!(log_pages.len(), 32, "circular log uses its whole region");
    }
}
