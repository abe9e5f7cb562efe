//! Sharded parallel execution with conservative epoch synchronization.
//!
//! A *shard* is one complete world — its own event queue, hosts, VM
//! slots, fluid network, and VMD traffic — so all intra-shard simulation
//! is the ordinary single-threaded executor, untouched. Cross-shard
//! coupling goes through one explicit boundary: in-world code pushes
//! [`BoundaryMsg`]s into its [`BoundaryState::outbox`]; the harness
//! drains every outbox at an *epoch barrier*, merges the messages in the
//! deterministic order `(send_time, shard_id, seq)`, hands them to a
//! [`Coordinator`], and schedules the coordinator's [`GlobalSignal`]s
//! back into target shards one full lookahead later.
//!
//! # Conservative lookahead
//!
//! Shards advance independently up to `epoch_start + lookahead` and then
//! synchronize. Because a signal emitted from epoch *k*'s merge is
//! delivered at `epoch_end + lookahead` — i.e. no earlier than the end of
//! epoch *k+1* — no shard ever receives a message in simulated time it
//! has already executed past. `lookahead` is therefore the minimum
//! cross-shard latency: the classic conservative-PDES contract
//! (null-message-free because barriers are global).
//!
//! # Thread ownership
//!
//! `Simulation<World>` is `!Send` (worlds hold `Rc` handles and boxed
//! event closures), and no world ever crosses a thread: [`run`] gives
//! each scoped worker thread one contiguous chunk of [`Scenario`]
//! configs, and that worker builds, steps and finishes its own shards.
//! Only plain data crosses threads — the configs (`Scenario: Sync`),
//! barrier commands, drained outboxes and the results
//! (`Scenario::Result: Send`) — so the compiler checks the invariant.
//! A one-worker run still spawns one worker thread; the calling thread
//! only merges and calls the coordinator.
//!
//! # Determinism at any worker count
//!
//! The `workers` knob maps shards onto OS threads and nothing else.
//! Logical shards are fixed by construction (one world per rack),
//! barriers are global, outboxes are merged in shard order, and the
//! merge sort key is independent of thread scheduling — so a run with 1
//! worker and a run with 16 produce byte-identical worlds, traces, and
//! reports. The equivalence tests pin this at 1, 2, and 4 workers.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

use agile_sim_core::{SimDuration, SimTime};

use crate::scenario::Scenario;

/// A message crossing the shard boundary, drained at the next barrier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoundaryMsg {
    /// Periodic per-rack load report for the cluster coordinator.
    LoadReport {
        /// Reporting rack (== shard id).
        rack: usize,
        /// Sum of managed-host aggregate WSS (bytes).
        aggregate: u64,
        /// Managed hosts currently above their high watermark.
        hot_hosts: u32,
    },
}

/// A control signal the coordinator injects into a shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GlobalSignal {
    /// Cluster-wide load summary, delivered to every rack.
    ClusterLoad {
        /// Mean managed-host aggregate across all racks (bytes).
        mean_aggregate: u64,
        /// Racks reporting at least one hot host.
        hot_racks: u32,
    },
}

/// Per-world boundary state. Empty — and free — when the world runs
/// standalone outside a sharded harness.
#[derive(Debug, Default)]
pub struct BoundaryState {
    /// Outgoing `(send_time, message)` pairs; in-world code appends in
    /// event-execution order, the harness drains at each barrier.
    pub outbox: Vec<(SimTime, BoundaryMsg)>,
    /// Signals received from the coordinator, in delivery order.
    pub signals: Vec<(SimTime, GlobalSignal)>,
}

/// One boundary message after the deterministic epoch merge.
#[derive(Clone, Debug)]
pub struct MergedMsg {
    /// Simulated send instant.
    pub time: SimTime,
    /// Emitting shard.
    pub shard: usize,
    /// Merge sequence number (emission order within the epoch).
    pub seq: u64,
    /// The message.
    pub msg: BoundaryMsg,
}

/// The cross-shard decision maker, invoked once per epoch barrier with
/// the merged message stream.
pub trait Coordinator {
    /// Consume this epoch's messages (sorted by `(time, shard, seq)`) and
    /// return `(target shard, signal)` pairs. Each signal is delivered at
    /// `epoch_end + lookahead`, which every shard has yet to simulate.
    fn merge(&mut self, epoch_end: SimTime, msgs: &[MergedMsg]) -> Vec<(usize, GlobalSignal)>;
}

/// A coordinator that never replies — fully independent shards
/// (replicated scenario runs).
pub struct NullCoordinator;

impl Coordinator for NullCoordinator {
    fn merge(&mut self, _epoch_end: SimTime, _msgs: &[MergedMsg]) -> Vec<(usize, GlobalSignal)> {
        Vec::new()
    }
}

/// Wall-clock accounting for one sharded run. Measurement only — never
/// part of any deterministic output.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Epoch barriers executed.
    pub epochs: u64,
    /// Per-shard busy wall time summed over epochs.
    pub shard_busy: Vec<Duration>,
    /// Sum over epochs of the slowest shard's time — the floor a
    /// perfectly parallel executor cannot beat.
    pub critical_path: Duration,
    /// Wall time of the epoch loop, from the moment every shard is built
    /// until the last barrier's signals are sent; excludes `setup` and
    /// `finish`.
    pub wall: Duration,
}

impl RunStats {
    /// Total busy wall time across every shard.
    pub fn busy_total(&self) -> Duration {
        self.shard_busy.iter().sum()
    }

    /// Available parallelism: total busy work over the critical path —
    /// the speedup a machine with enough cores could extract from this
    /// decomposition, independent of how many cores this machine has.
    pub fn available_parallelism(&self) -> f64 {
        let cp = self.critical_path.as_secs_f64();
        if cp <= 0.0 {
            1.0
        } else {
            self.busy_total().as_secs_f64() / cp
        }
    }
}

/// What the calling thread sends a worker at each barrier.
struct Barrier {
    /// The previous merge's signals for this worker's shards, as
    /// `(global shard, signal)`, delivered at `deliver_at`.
    signals: Vec<(usize, GlobalSignal)>,
    deliver_at: SimTime,
    /// The next epoch end; `None` after the last barrier.
    target: Option<SimTime>,
}

/// A worker's reply: per shard, in shard order, the drained outbox, the
/// epoch's busy time and whether the shard is still active.
type Reply = Vec<(Vec<(SimTime, BoundaryMsg)>, Duration, bool)>;

/// Run `cfgs` as shards 0..n in lockstep epochs of `lookahead`, until
/// every shard's [`Scenario::done`] holds at a barrier or the shared
/// deadline is reached. A shard whose predicate fires is frozen — it
/// stops advancing while the rest finish. `lookahead` is the epoch length
/// and the minimum cross-shard signal latency; `workers` is purely a
/// wall-clock knob (see the module docs). Returns the results in shard
/// order.
pub fn run<S: Scenario>(
    cfgs: &[S],
    workers: usize,
    lookahead: SimDuration,
    coordinator: &mut dyn Coordinator,
) -> (Vec<S::Result>, RunStats) {
    assert!(!cfgs.is_empty());
    let deadline = cfgs[0].deadline();
    assert!(
        cfgs.iter().all(|c| c.deadline() == deadline),
        "sharded runs share one deadline (epoch targets must coincide)"
    );
    let n = cfgs.len();
    let chunk = n.div_ceil(workers.clamp(1, n));
    let mut stats = RunStats {
        epochs: 0,
        shard_busy: vec![Duration::ZERO; n],
        critical_path: Duration::ZERO,
        wall: Duration::ZERO,
    };
    let results = std::thread::scope(|s| {
        let threads: Vec<_> = cfgs
            .chunks(chunk)
            .enumerate()
            .map(|(k, cc)| {
                let (cmd_tx, cmd_rx) = channel();
                let (reply_tx, reply_rx) = channel();
                let h = s.spawn(move || shard_worker(cc, k * chunk, cmd_rx, reply_tx));
                (cmd_tx, reply_rx, h)
            })
            .collect();
        let recv = |rx: &Receiver<Reply>| rx.recv().expect("shard worker panicked");
        // Each worker replies once its shards are built.
        for (_, rx, _) in &threads {
            recv(rx);
        }
        let t0 = Instant::now();

        let mut signals: Vec<Vec<(usize, GlobalSignal)>> = vec![Vec::new(); threads.len()];
        let mut deliver_at = SimTime::ZERO;
        let mut seq = 0u64;
        let mut epoch_start = SimTime::ZERO;
        loop {
            let target = (epoch_start + lookahead).min(deadline);
            for ((tx, _, _), sigs) in threads.iter().zip(&mut signals) {
                let signals = std::mem::take(sigs);
                let _ = tx.send(Barrier {
                    signals,
                    deliver_at,
                    target: Some(target),
                });
            }
            // Deterministic merge: collect outboxes in shard order, stamp
            // sequence numbers, sort by (send time, shard, seq). Nothing
            // here depends on worker count or thread interleaving.
            let mut merged: Vec<MergedMsg> = Vec::new();
            let mut slowest = Duration::ZERO;
            let mut active = false;
            let replies = threads.iter().flat_map(|(_, rx, _)| recv(rx));
            for (shard, (outbox, busy, still)) in replies.enumerate() {
                stats.shard_busy[shard] += busy;
                slowest = slowest.max(busy);
                active |= still;
                for (time, msg) in outbox {
                    merged.push(MergedMsg {
                        time,
                        shard,
                        seq,
                        msg,
                    });
                    seq += 1;
                }
            }
            stats.epochs += 1;
            stats.critical_path += slowest;
            merged.sort_by_key(|m| (m.time, m.shard, m.seq));
            deliver_at = target + lookahead;
            for (shard, sig) in coordinator.merge(target, &merged) {
                signals[shard / chunk].push((shard, sig));
            }
            if !active || target >= deadline {
                break;
            }
            epoch_start = target;
        }
        for ((tx, _, _), signals) in threads.iter().zip(signals) {
            let _ = tx.send(Barrier {
                signals,
                deliver_at,
                target: None,
            });
        }
        stats.wall = t0.elapsed();
        threads
            .into_iter()
            .flat_map(|(_, _, h)| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    (results, stats)
}

/// One worker thread: build the shards `first..first + cfgs.len()`,
/// follow the barrier commands, then finish them in shard order.
fn shard_worker<S: Scenario>(
    cfgs: &[S],
    first: usize,
    commands: Receiver<Barrier>,
    replies: Sender<Reply>,
) -> Vec<S::Result> {
    let mut shards: Vec<_> = cfgs
        .iter()
        .zip(first..)
        .map(|(cfg, i)| {
            let (mut sim, meta) = cfg.setup();
            sim.state_mut().shard_id = i;
            (sim, meta, true)
        })
        .collect();
    let _ = replies.send(Vec::new());
    for cmd in commands {
        for (shard, sig) in cmd.signals {
            shards[shard - first]
                .0
                .schedule_at(cmd.deliver_at, move |sim| {
                    let now = sim.now();
                    sim.state_mut().boundary.signals.push((now, sig));
                });
        }
        let Some(target) = cmd.target else { break };
        let reply = shards
            .iter_mut()
            .map(|(sim, meta, active)| {
                let mut busy = Duration::ZERO;
                if *active {
                    let t0 = Instant::now();
                    sim.run_until(target);
                    busy = t0.elapsed();
                    *active = !S::done(sim, meta);
                }
                let outbox = std::mem::take(&mut sim.state_mut().boundary.outbox);
                (outbox, busy, *active)
            })
            .collect();
        let _ = replies.send(reply);
    }
    cfgs.iter()
        .zip(shards)
        .map(|(cfg, (sim, meta, _))| cfg.finish(sim, meta))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ClusterBuilder;
    use crate::config::ClusterConfig;
    use crate::world::World;
    use agile_sim_core::{Simulation, GIB};

    /// A test shard: `build` makes and arms the world, which is done from
    /// `done_at` on.
    struct Shard {
        build: fn() -> Simulation<World>,
        done_at: SimTime,
        deadline: SimTime,
    }

    /// What a test reads back from a finished shard.
    #[derive(Debug)]
    struct Seen {
        now: SimTime,
        events: u64,
        signals: Vec<(SimTime, GlobalSignal)>,
        polls: u64,
        armed: bool,
    }

    impl Scenario for Shard {
        type Meta = SimTime;
        type Result = Seen;
        fn setup(&self) -> (Simulation<World>, SimTime) {
            ((self.build)(), self.done_at)
        }
        fn deadline(&self) -> SimTime {
            self.deadline
        }
        fn done(sim: &Simulation<World>, done_at: &SimTime) -> bool {
            sim.now() >= *done_at
        }
        fn finish(&self, sim: Simulation<World>, _: SimTime) -> Seen {
            let w = sim.state();
            Seen {
                now: sim.now(),
                events: sim.events_executed(),
                signals: w.boundary.signals.clone(),
                polls: w.netdrv.polls,
                armed: w.netdrv.armed.is_some(),
            }
        }
    }

    /// A shard that runs `build`'s world to `deadline`.
    fn to_deadline(build: fn() -> Simulation<World>, deadline: SimTime) -> Shard {
        Shard {
            build,
            done_at: deadline,
            deadline,
        }
    }

    fn empty_world(seed: u64) -> Simulation<World> {
        let b = ClusterBuilder::new(ClusterConfig {
            seed,
            ..ClusterConfig::default()
        });
        b.build()
    }

    fn report(sim: &mut Simulation<World>, rack: usize) {
        let now = sim.now();
        sim.state_mut().boundary.outbox.push((
            now,
            BoundaryMsg::LoadReport {
                rack,
                aggregate: 0,
                hot_hosts: 0,
            },
        ));
    }

    #[test]
    fn merge_orders_by_time_then_shard_then_seq() {
        struct Capture(Vec<(u64, usize, BoundaryMsg)>);
        impl Coordinator for Capture {
            fn merge(&mut self, _end: SimTime, msgs: &[MergedMsg]) -> Vec<(usize, GlobalSignal)> {
                self.0.extend(
                    msgs.iter()
                        .map(|m| (m.time.as_nanos(), m.shard, m.msg.clone())),
                );
                Vec::new()
            }
        }
        // Shard 1 emits earlier in simulated time than shard 0; shard 0
        // emits twice at the same instant (seq breaks the tie in emission
        // order).
        let shard0 = || {
            let mut sim = empty_world(1);
            sim.schedule_at(SimTime::from_millis(500), |sim| {
                report(sim, 10);
                report(sim, 11);
            });
            sim
        };
        let shard1 = || {
            let mut sim = empty_world(2);
            sim.schedule_at(SimTime::from_millis(100), |sim| report(sim, 20));
            sim
        };
        let end = SimTime::from_secs(1);
        let mut cap = Capture(Vec::new());
        run(
            &[to_deadline(shard0, end), to_deadline(shard1, end)],
            2,
            SimDuration::from_secs(1),
            &mut cap,
        );
        let racks: Vec<usize> = cap
            .0
            .iter()
            .map(|(_, _, m)| match m {
                BoundaryMsg::LoadReport { rack, .. } => *rack,
            })
            .collect();
        assert_eq!(racks, vec![20, 10, 11]);
        assert!(cap.0[0].0 < cap.0[1].0);
    }

    #[test]
    fn signals_arrive_one_lookahead_after_the_barrier() {
        struct Echo;
        impl Coordinator for Echo {
            fn merge(&mut self, _end: SimTime, msgs: &[MergedMsg]) -> Vec<(usize, GlobalSignal)> {
                msgs.iter()
                    .map(|_| {
                        (
                            0usize,
                            GlobalSignal::ClusterLoad {
                                mean_aggregate: 7,
                                hot_racks: 1,
                            },
                        )
                    })
                    .collect()
            }
        }
        let shard = || {
            let mut sim = empty_world(3);
            sim.schedule_at(SimTime::from_millis(250), |sim| report(sim, 0));
            sim
        };
        let (seen, _) = run(
            &[to_deadline(shard, SimTime::from_secs(3))],
            1,
            SimDuration::from_secs(1),
            &mut Echo,
        );
        let signals = &seen[0].signals;
        assert_eq!(signals.len(), 1);
        // Barrier at t=1s, delivery one lookahead later.
        assert_eq!(signals[0].0, SimTime::from_secs(2));
    }

    #[test]
    fn idle_shard_schedules_zero_net_polls() {
        // A shard with hosts but no traffic must never arm a poll event;
        // a busy neighbor polling its own network must not change that.
        use crate::scenario::RedisLayout;
        use agile_sim_core::MIB;
        use agile_vm::VmConfig;
        use agile_workload::YcsbParams;

        let busy = || {
            let mut b = ClusterBuilder::new(ClusterConfig {
                seed: 7,
                ..ClusterConfig::default()
            });
            let page = b.world().cfg.page_size;
            let host = b.add_host("work", GIB, 32 * MIB, true);
            let client_host = b.add_host("client", GIB, 32 * MIB, false);
            let vm = b.add_vm(
                host,
                VmConfig {
                    mem_bytes: 256 * MIB,
                    page_size: page,
                    vcpus: 1,
                    reservation_bytes: 256 * MIB,
                    guest_os_bytes: 16 * MIB,
                },
                crate::build::SwapKind::HostSsd,
            );
            let model = RedisLayout::alloc(&mut b, vm, 8 * MIB).ycsb(YcsbParams::update_heavy());
            b.attach_workload(vm, client_host, crate::world::WorkloadKind::Ycsb(model));
            b.preload_layout(vm);
            let mut sim = b.build();
            crate::build::start_all_workloads(&mut sim, SimTime::from_millis(10));
            sim
        };
        let idle = || {
            let mut b = ClusterBuilder::new(ClusterConfig {
                seed: 8,
                ..ClusterConfig::default()
            });
            b.add_host("quiet", GIB, 0, false);
            b.build()
        };
        let end = SimTime::from_secs(2);
        let (seen, _) = run(
            &[to_deadline(busy, end), to_deadline(idle, end)],
            2,
            SimDuration::from_secs(1),
            &mut NullCoordinator,
        );
        assert!(seen[0].polls > 0, "busy shard polled");
        assert_eq!(
            seen[1].polls, 0,
            "idle shard must schedule zero net-poll events"
        );
        assert!(!seen[1].armed);
    }

    #[test]
    fn a_done_shard_freezes_while_the_rest_run_to_the_deadline() {
        // Both shards tick every 100 ms. Shard 0 is done from the first
        // barrier on, so it must stop there; shard 1 never is.
        fn ticking() -> Simulation<World> {
            let mut sim = empty_world(4);
            let period = SimDuration::from_millis(100);
            sim.schedule_every(SimTime::ZERO + period, period, |_| true);
            sim
        }
        let lookahead = SimDuration::from_secs(1);
        let first_barrier = SimTime::ZERO + lookahead;
        let deadline = SimTime::from_secs(3);
        let mut alone = ticking();
        alone.run_until(first_barrier);
        let cfgs = [
            Shard {
                build: ticking,
                done_at: first_barrier,
                deadline,
            },
            to_deadline(ticking, deadline),
        ];
        for workers in [1, 2] {
            let (seen, stats) = run(&cfgs, workers, lookahead, &mut NullCoordinator);
            assert_eq!(seen[0].now, first_barrier, "workers={workers}");
            assert_eq!(seen[0].events, alone.events_executed(), "workers={workers}");
            assert_eq!(seen[1].now, deadline, "workers={workers}");
            assert!(seen[1].events > seen[0].events, "workers={workers}");
            assert_eq!(stats.epochs, 3);
        }
    }
}
