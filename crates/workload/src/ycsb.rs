//! YCSB client + Redis server model (fused).
//!
//! The paper's primary workload: an external YCSB client issues read
//! (GET) and update (SET) requests against a Redis server holding a large
//! in-memory dataset inside the VM. The model produces one [`OpSpec`] per
//! request:
//!
//! * one *index* touch — Redis's hash table occupies a compact, hot region
//!   proportional to the record count; every operation hits it;
//! * the record's *value* page(s) — read for GET, written for SET;
//! * a guest CPU burst sized so a single Redis thread peaks near the
//!   paper's observed ~18 k ops/s per VM.
//!
//! Redis is single-threaded: [`YcsbRedis::server_concurrency`] is 1, so a
//! major fault on the value page stalls the whole server — the mechanism
//! behind the deep throughput dips of Figures 4–6.
//!
//! The *active fraction* is runtime-adjustable: the Fig. 4–6 scenario
//! starts each client on 200 MB of the dataset and later widens it to
//! 6 GB, creating the memory pressure that triggers migration.

use agile_sim_core::{DetRng, SimDuration};
use agile_vm::PageRange;

use crate::dataset::Dataset;
use crate::dist::KeyDist;
use crate::ops::{OpSpec, TouchList};

/// Guest CPU per GET.
const CPU_READ: SimDuration = SimDuration::from_micros(55);
/// Guest CPU per SET.
const CPU_UPDATE: SimDuration = SimDuration::from_micros(65);
/// Request size on the wire.
const REQUEST_BYTES: u64 = 64;
/// GET response size on the wire (≈ the 1 KB YCSB record).
const RESPONSE_BYTES: u64 = 1100;

/// Tunable knobs of the YCSB/Redis model (per-request CPU and wire
/// sizes are the constants above).
#[derive(Clone, Copy, Debug)]
pub struct YcsbParams {
    /// Fraction of operations that are reads (YCSB workload mix).
    pub read_ratio: f64,
    /// Number of closed-loop client threads.
    pub client_threads: u32,
}

impl Default for YcsbParams {
    fn default() -> Self {
        YcsbParams {
            read_ratio: 1.0, // §V-A uses read-only querying
            client_threads: 16,
        }
    }
}

impl YcsbParams {
    /// YCSB workload-A-style mix (50% updates) — the "busy VM" of the
    /// Fig. 7/8 sweep, which must dirty pages during migration.
    pub fn update_heavy() -> Self {
        YcsbParams {
            read_ratio: 0.5,
            ..YcsbParams::default()
        }
    }
}

/// The fused YCSB-client / Redis-server workload model.
#[derive(Clone, Debug)]
pub struct YcsbRedis {
    params: YcsbParams,
    dataset: Dataset,
    index: PageRange,
    dist: KeyDist,
    active_records: u64,
    active_start: u64,
}

impl YcsbRedis {
    /// Build over `dataset`, with `index` the Redis hash-table region and
    /// `dist` the key distribution. Starts with the whole dataset active.
    pub fn new(dataset: Dataset, index: PageRange, dist: KeyDist, params: YcsbParams) -> Self {
        assert!(index.len > 0, "index region required");
        let active = dataset.n_records();
        YcsbRedis {
            params,
            dataset,
            index,
            dist,
            active_records: active,
            active_start: 0,
        }
    }

    /// Model parameters.
    pub fn params(&self) -> &YcsbParams {
        &self.params
    }

    /// The dataset being served.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Restrict querying to the first `bytes` of the dataset (the paper's
    /// "query a fraction" knob). Clamped to at least one record.
    pub fn set_active_bytes(&mut self, bytes: u64) {
        let records = (bytes / self.dataset.record_bytes()).clamp(1, self.dataset.n_records());
        self.active_records = records;
    }

    /// Rotate the active window to start at record `start` (wrapped into
    /// the dataset). Key selection stays within the same *number* of
    /// active records but maps onto `start .. start + active` modulo the
    /// dataset — a working-set *remap* (memory phase change) rather than
    /// a resize. An offset of 0 reproduces the legacy key stream exactly
    /// and consumes no extra RNG draws.
    pub fn set_active_start(&mut self, start: u64) {
        self.active_start = start % self.dataset.n_records();
    }

    /// First record of the active window.
    pub fn active_start(&self) -> u64 {
        self.active_start
    }

    /// Currently active records.
    pub fn active_records(&self) -> u64 {
        self.active_records
    }

    /// Bytes of dataset currently being queried.
    pub fn active_bytes(&self) -> u64 {
        self.active_records * self.dataset.record_bytes()
    }

    /// Redis serves requests on one thread.
    pub fn server_concurrency(&self) -> u32 {
        1
    }

    /// Closed-loop client threads.
    pub fn client_threads(&self) -> u32 {
        self.params.client_threads
    }

    /// Generate the next request.
    pub fn next_op(&mut self, rng: &mut DetRng) -> OpSpec {
        let key = (self.active_start + self.dist.sample(rng, self.active_records))
            % self.dataset.n_records();
        let is_read = rng.chance(self.params.read_ratio);
        let mut touches = TouchList::new();
        // Hash-table bucket: spread keys across the index region.
        let bucket = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % self.index.len as u64;
        touches.push(self.index.page(bucket as u32), false);
        for page in self.dataset.pages_of(key) {
            touches.push(page, !is_read);
        }
        OpSpec {
            touches,
            cpu: if is_read { CPU_READ } else { CPU_UPDATE },
            request_bytes: REQUEST_BYTES,
            response_bytes: if is_read {
                RESPONSE_BYTES
            } else {
                64 // SET acknowledgement
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(read_ratio: f64) -> YcsbRedis {
        let data_region = PageRange {
            start: 1000,
            len: 10_000,
        };
        let index_region = PageRange {
            start: 100,
            len: 200,
        };
        let dataset = Dataset::filling(data_region, 1024, 4096);
        YcsbRedis::new(
            dataset,
            index_region,
            KeyDist::UniformPrefix,
            YcsbParams {
                read_ratio,
                ..YcsbParams::default()
            },
        )
    }

    #[test]
    fn reads_touch_index_then_value_readonly() {
        let mut m = model(1.0);
        let mut rng = DetRng::seed_from(1);
        let op = m.next_op(&mut rng);
        assert_eq!(op.touches.len(), 2);
        let (index_page, w0) = op.touches.get(0);
        let (value_page, w1) = op.touches.get(1);
        assert!((100..300).contains(&index_page));
        assert!((1000..11_000).contains(&value_page));
        assert!(!w0 && !w1);
        assert_eq!(op.cpu, SimDuration::from_micros(55));
        assert_eq!(op.response_bytes, 1100);
    }

    #[test]
    fn updates_write_the_value_page() {
        let mut m = model(0.0);
        let mut rng = DetRng::seed_from(2);
        let op = m.next_op(&mut rng);
        assert_eq!(op.write_touches(), 1);
        let (_, index_write) = op.touches.get(0);
        assert!(!index_write, "index is read-only");
        assert_eq!(op.cpu, SimDuration::from_micros(65));
        assert_eq!(op.response_bytes, 64);
    }

    #[test]
    fn active_fraction_restricts_pages() {
        let mut m = model(1.0);
        // 200 records × 1 KiB = 200 KiB active → first 50 value pages.
        m.set_active_bytes(200 * 1024);
        assert_eq!(m.active_records(), 200);
        let mut rng = DetRng::seed_from(3);
        for _ in 0..500 {
            let op = m.next_op(&mut rng);
            let (value_page, _) = op.touches.get(1);
            assert!(value_page < 1000 + 50, "page {value_page} outside window");
        }
    }

    #[test]
    fn active_fraction_clamps() {
        let mut m = model(1.0);
        m.set_active_bytes(0);
        assert_eq!(m.active_records(), 1);
        m.set_active_bytes(u64::MAX);
        assert_eq!(m.active_records(), m.dataset().n_records());
    }

    #[test]
    fn wide_window_touches_many_pages() {
        let mut m = model(1.0);
        let mut rng = DetRng::seed_from(4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5000 {
            let op = m.next_op(&mut rng);
            seen.insert(op.touches.get(1).0);
        }
        assert!(
            seen.len() > 2000,
            "only {} distinct value pages",
            seen.len()
        );
    }

    #[test]
    fn window_rotation_remaps_without_extra_rng_draws() {
        // Offset 0 is the legacy key stream, bit for bit.
        let mut a = model(1.0);
        let mut b = model(1.0);
        b.set_active_start(0);
        let mut ra = DetRng::seed_from(9);
        let mut rb = DetRng::seed_from(9);
        for _ in 0..200 {
            assert_eq!(
                a.next_op(&mut ra).touches.get(1),
                b.next_op(&mut rb).touches.get(1)
            );
        }
        // A rotated window with the same width consumes the identical
        // RNG stream and lands every touch inside the rotated range.
        let mut c = model(1.0);
        c.set_active_bytes(200 * 1024);
        c.set_active_start(5000);
        let mut d = model(1.0);
        d.set_active_bytes(200 * 1024);
        let mut rc = DetRng::seed_from(9);
        let mut rd = DetRng::seed_from(9);
        for _ in 0..200 {
            let op = c.next_op(&mut rc);
            let _ = d.next_op(&mut rd);
            let (page, _) = op.touches.get(1);
            // records 5000..5200 at 1 KiB over 4 KiB pages → pages 2250..2300.
            assert!(
                (2250..2300).contains(&page),
                "page {page} outside rotated window"
            );
        }
        assert_eq!(
            rc.next_u64(),
            rd.next_u64(),
            "rotation must not consume RNG"
        );
    }

    #[test]
    fn redis_is_single_threaded() {
        let m = model(1.0);
        assert_eq!(m.server_concurrency(), 1);
        assert_eq!(m.client_threads(), 16);
    }
}
