//! Property tests of the channel engine's two load-bearing invariants:
//!
//! 1. **Airtime conservation** — at every reallocation point (after every
//!    `enqueue`/`complete` the engine processes) the sum of allocated rates
//!    within any contention domain never exceeds the channel capacity.
//! 2. **FIFO ordering** — frames accepted by a node's transmit queue complete
//!    in enqueue order, per node and therefore per link, no matter how
//!    contention stretches and reshuffles their completion deadlines.
//!
//! A metamorphic property ties the two channel models together: when every
//! transmitter sits in a contention domain of its own, shared airtime has
//! nothing to share and must replay constant bandwidth exactly.
//!
//! The driver below replays a generated workload through a [`Phy`] the same
//! way the netsim world does: reschedule directives become ordered events,
//! stale sequence numbers are ignored, and time only moves forward.

use std::collections::BTreeMap;

use phy::{Channel, Enqueue, Phy, PhyModel, Resched, TxId};
use proptest::collection::vec;
use proptest::prelude::*;
use simkern::SimTime;

/// One offered frame: transmitter, destination (used only as a label for the
/// per-link ordering check), contention cells, size and inter-arrival gap.
#[derive(Debug, Clone)]
struct Job {
    node: usize,
    dest: usize,
    domains: (u32, u32),
    wire_bytes: usize,
    gap_us: u64,
}

fn arb_jobs() -> impl Strategy<Value = Vec<Job>> {
    vec(
        (
            0usize..6,
            0usize..6,
            (0u32..4, 0u32..4),
            1usize..2048,
            0u64..5_000,
        ),
        1..48,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(node, dest, domains, wire_bytes, gap_us)| Job {
                node,
                dest,
                domains,
                wire_bytes,
                gap_us,
            })
            .collect()
    })
}

/// A completion-tape entry: transmitter plus its `(dest, job index)` payload.
type Completion = (usize, (usize, u64));

/// A timed completion: `(at µs, node, payload, airtime µs, queue wait µs)`.
type Timed = (u64, usize, (usize, u64), u64, u64);

/// Event-loop driver mirroring the world's scheduling contract.
struct Sim {
    phy: Phy<(usize, u64)>,
    /// (deadline µs, insertion tie-break) → (tx, seq).
    events: BTreeMap<(u64, u64), (TxId, u64)>,
    tie: u64,
    /// Completions in delivery order, with their times.
    tape: Vec<Timed>,
    capacity: f64,
    /// Conservation is an invariant of the shared model only; constant
    /// bandwidth intentionally gives every transmitter the full rate.
    shared: bool,
}

impl Sim {
    fn new(model: PhyModel) -> Sim {
        let shared = matches!(model, PhyModel::SharedAirtime(_));
        let phy = Phy::new(&model, 6).expect("non-ideal model");
        let capacity = phy.capacity_bps();
        Sim {
            phy,
            events: BTreeMap::new(),
            tie: 0,
            tape: Vec::new(),
            capacity,
            shared,
        }
    }

    fn schedule(&mut self, rescheds: Vec<Resched>) {
        for r in rescheds {
            self.events
                .insert((r.at.as_micros(), self.tie), (r.tx, r.seq));
            self.tie += 1;
        }
    }

    fn assert_conservation(&self) {
        if !self.shared {
            return;
        }
        for (domain, sum) in self.phy.domain_allocations() {
            assert!(
                sum <= self.capacity * (1.0 + 1e-6),
                "domain {domain} oversubscribed: {sum} > {}",
                self.capacity
            );
        }
    }

    /// The completions in delivery order: (node, payload).
    fn completed(&self) -> Vec<Completion> {
        self.tape
            .iter()
            .map(|&(_, node, payload, _, _)| (node, payload))
            .collect()
    }

    /// Fires every pending completion due at or before `horizon`.
    fn run_until(&mut self, horizon: u64) {
        while let Some((&(at, tie), &(tx, seq))) = self.events.iter().next() {
            if at > horizon {
                break;
            }
            self.events.remove(&(at, tie));
            if let Some((done, rescheds)) = self.phy.complete(SimTime::from_micros(at), tx, seq) {
                self.tape.push((
                    at,
                    done.node,
                    done.payload,
                    done.airtime.as_micros(),
                    done.queued.as_micros(),
                ));
                self.schedule(rescheds);
                self.assert_conservation();
            }
        }
    }
}

fn drive(model: PhyModel, jobs: &[Job]) -> (Sim, Vec<Completion>) {
    let mut sim = Sim::new(model);
    let mut accepted: Vec<Completion> = Vec::new();
    let mut now = 0u64;
    for (i, job) in jobs.iter().enumerate() {
        now += job.gap_us;
        sim.run_until(now);
        let payload = (job.dest, i as u64);
        let (outcome, rescheds) = sim.phy.enqueue(
            SimTime::from_micros(now),
            job.node,
            job.domains,
            job.wire_bytes,
            payload,
        );
        sim.schedule(rescheds);
        sim.assert_conservation();
        if !matches!(outcome, Enqueue::Dropped(_)) {
            accepted.push((job.node, payload));
        }
    }
    sim.run_until(u64::MAX);
    (sim, accepted)
}

fn check_fifo_and_drain(model: PhyModel, jobs: &[Job]) {
    let (sim, accepted) = drive(model, jobs);
    // Everything accepted eventually left the air.
    prop_assert_eq!(sim.phy.active_count(), 0);
    let completed = sim.completed();
    prop_assert_eq!(completed.len(), accepted.len());
    // Per-node FIFO: each node's completions replay its accept order.
    for node in 0..6 {
        let sent: Vec<_> = accepted.iter().filter(|(n, _)| *n == node).collect();
        let got: Vec<_> = completed.iter().filter(|(n, _)| *n == node).collect();
        prop_assert_eq!(sent, got, "node {} completions out of order", node);
    }
    // Per-link FIFO: the (node, dest) subsequences are ordered too.
    for node in 0..6 {
        for dest in 0..6 {
            let link = |(n, (d, _)): &&(usize, (usize, u64))| *n == node && *d == dest;
            let sent: Vec<_> = accepted.iter().filter(link).collect();
            let got: Vec<_> = completed.iter().filter(link).collect();
            prop_assert_eq!(sent, got, "link {}->{} out of order", node, dest);
        }
    }
}

fn channel(bps: u64) -> Channel {
    Channel {
        bits_per_sec: bps,
        queue_frames: 4,
    }
}

proptest! {
    /// Shared airtime: conservation holds at every reallocation point and
    /// contention never reorders a queue.
    #[test]
    fn shared_airtime_conserves_and_keeps_fifo(jobs in arb_jobs()) {
        check_fifo_and_drain(PhyModel::SharedAirtime(channel(500_000)), &jobs);
    }

    /// Constant bandwidth is the degenerate single-transmitter case: the same
    /// invariants hold and deadlines, once issued, never move.
    #[test]
    fn constant_bandwidth_conserves_and_keeps_fifo(jobs in arb_jobs()) {
        check_fifo_and_drain(PhyModel::ConstantBandwidth(channel(500_000)), &jobs);
    }

    /// Double-drive determinism: the engine is a pure function of its call
    /// sequence — identical workloads produce identical completion tapes.
    #[test]
    fn replay_is_deterministic(jobs in arb_jobs()) {
        let (a, _) = drive(PhyModel::SharedAirtime(channel(250_000)), &jobs);
        let (b, _) = drive(PhyModel::SharedAirtime(channel(250_000)), &jobs);
        prop_assert_eq!(a.tape, b.tape);
    }

    /// Metamorphic: with every transmitter alone in its own domain, shared
    /// airtime gives each the full channel, so its completion tape (times,
    /// payloads, airtime and queue wait) equals constant bandwidth's.
    #[test]
    fn own_domains_make_shared_airtime_constant(jobs in arb_jobs(), bps in 1_000u64..2_000_000) {
        let own: Vec<Job> = jobs
            .into_iter()
            .map(|j| Job { domains: (7 * j.node as u32 + 3, 7 * j.node as u32 + 3), ..j })
            .collect();
        let (shared, _) = drive(PhyModel::SharedAirtime(channel(bps)), &own);
        let (constant, _) = drive(PhyModel::ConstantBandwidth(channel(bps)), &own);
        prop_assert!(!constant.tape.is_empty());
        prop_assert_eq!(shared.tape, constant.tape);
    }
}
