//! The per-layer ledger, measured from outside the program: a traced run
//! that times every call into the layers' public functions, plus probes
//! that exercise single layers on inputs taken from the workload.
//!
//! * `netsim` and `simkern`: the traced run advances the world in 100 ms
//!   chunks of simulated time, timing each `World::run_until` and sampling
//!   `World::pending_events`; a hold model replays the measured queue
//!   depth on a bare `simkern::EventQueue`.
//! * `core`: every node's `RoutingAgent` is wrapped by [`Timed`], which
//!   times each callback and captures the frames the node receives.
//! * `packetbb` and Table 1: the captured frames are replayed through the
//!   codec, and into a standalone `Deployment` against the monolithic
//!   baselines.
//! * `phy`: a `phy::Phy` driven on a `simkern` queue with the workload's
//!   node count, contention-cell layout and offered load.
//! * `adapt` and stats: the benchmark's own copy of
//!   `AdaptiveEngine::run_until` times each `tick`.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::{Duration, Instant};

use adapt::{AdaptConfig, AdaptiveEngine};
use campaign::TrafficSpec;
use manetkit::prelude::{ConcurrencyModel, Deployment};
use manetkit_baseline::{Dymoum, Olsrd, OlsrdConfig};
use netsim::phy::{Phy, Resched};
use netsim::{
    ContextSample, DataPacket, FilterEvent, NodeId, NodeOs, PhyModel, RoutingAgent, SimDuration,
    SimTime, Topology, World,
};
use packetbb::{Address, Packet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simkern::EventQueue;

use crate::workload::{finish, setup, Outcome, Ready, Spec};

/// Simulated time between two samples of the world's event queue.
const SAMPLE: SimDuration = SimDuration::from_millis(100);

/// Frames kept per capture bucket for the codec and Table 1 replays.
const CAPTURE: usize = 20_000;

/// Capture buckets: frames received while the fleet runs its proactive
/// stack (OLSR), and while it runs a reactive one.
const PROACTIVE: usize = 0;
const REACTIVE: usize = 1;

/// What the wrapped agents recorded.
#[derive(Debug, Default)]
pub struct Agents {
    /// Host nanoseconds spent inside agent callbacks.
    pub callback_ns: u64,
    /// Agent callbacks made.
    pub callbacks: u64,
    /// Host nanoseconds of each `on_frame` call.
    pub frame_ns: Vec<u64>,
    /// Host nanoseconds of each `on_timer` call.
    pub timer_ns: Vec<u64>,
    /// Bytes of every frame handed to an agent.
    pub frame_bytes: u64,
    /// The capture bucket new frames go to.
    phase: usize,
    /// Received frames and their senders, per bucket.
    pub captured: [Vec<(Address, Vec<u8>)>; 2],
}

thread_local! {
    static AGENTS: RefCell<Agents> = RefCell::new(Agents::default());
}

fn agents<R>(f: impl FnOnce(&mut Agents) -> R) -> R {
    AGENTS.with(|a| f(&mut a.borrow_mut()))
}

/// A routing agent wrapped with a timer. It forwards every callback
/// unchanged, so the simulation it takes part in is the untraced one.
pub struct Timed(pub Box<dyn RoutingAgent>);

impl Timed {
    fn time<R>(&mut self, call: impl FnOnce(&mut dyn RoutingAgent) -> R) -> (R, u64) {
        let start = Instant::now();
        let r = call(self.0.as_mut());
        let ns = start.elapsed().as_nanos() as u64;
        agents(|a| {
            a.callback_ns += ns;
            a.callbacks += 1;
        });
        (r, ns)
    }
}

impl RoutingAgent for Timed {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn start(&mut self, os: &mut NodeOs) {
        self.time(|a| a.start(os));
    }
    fn on_frame(&mut self, os: &mut NodeOs, from: Address, bytes: &[u8]) {
        let ((), ns) = self.time(|a| a.on_frame(os, from, bytes));
        agents(|a| {
            a.frame_ns.push(ns);
            a.frame_bytes += bytes.len() as u64;
            let bucket = &mut a.captured[a.phase];
            if bucket.len() < CAPTURE {
                bucket.push((from, bytes.to_vec()));
            }
        });
    }
    fn on_timer(&mut self, os: &mut NodeOs, token: u64) {
        let ((), ns) = self.time(|a| a.on_timer(os, token));
        agents(|a| a.timer_ns.push(ns));
    }
    fn on_filter_event(&mut self, os: &mut NodeOs, event: FilterEvent) {
        self.time(|a| a.on_filter_event(os, event));
    }
    fn on_context(&mut self, os: &mut NodeOs, sample: ContextSample) {
        self.time(|a| a.on_context(os, sample));
    }
    fn inspect_packet(&mut self, os: &mut NodeOs, packet: &DataPacket) -> bool {
        self.time(|a| a.inspect_packet(os, packet)).0
    }
    fn stop(&mut self, os: &mut NodeOs) {
        self.time(|a| a.stop(os));
    }
    fn on_crash(&mut self, os: &mut NodeOs) {
        self.time(|a| a.on_crash(os));
    }
}

/// Advances a world in [`SAMPLE`] chunks, timing `World::run_until`
/// net of the agent callbacks it made, and sampling the queue depth.
#[derive(Debug, Default)]
struct Sampler {
    netsim_ns: u64,
    pending: Vec<usize>,
}

impl Sampler {
    fn advance(&mut self, world: &mut World, until: SimTime) {
        while world.now() < until {
            let next = (world.now() + SAMPLE).min(until);
            let callbacks = agents(|a| a.callback_ns);
            let start = Instant::now();
            world.run_until(next);
            let ns = start.elapsed().as_nanos() as u64;
            self.netsim_ns += ns.saturating_sub(agents(|a| a.callback_ns) - callbacks);
            self.pending.push(world.pending_events());
        }
    }
}

/// The traced run of a workload.
pub struct Traced {
    /// The run's outcome (its fingerprint must equal the untraced run's).
    pub outcome: Outcome,
    /// Host seconds of the traced run.
    pub run_s: f64,
    /// Host nanoseconds inside `World::run_until` net of agent callbacks.
    pub netsim_ns: u64,
    /// `World::pending_events` every 100 ms of simulated time.
    pub pending: Vec<usize>,
    /// Host nanoseconds of each adaptive tick that held.
    pub tick_ns: Vec<u64>,
    /// Host nanoseconds of each adaptive tick that enacted a switch.
    pub switch_ns: Vec<u64>,
    /// Host microseconds of the closing stats snapshot (`World::stats`,
    /// `StatsWindow::advance` and `canonical`).
    pub snapshot_us: f64,
    /// What the wrapped agents recorded.
    pub agents: Agents,
}

/// Sets up `spec` with timed agents and runs it, driving the adaptive
/// engine's ticks from the benchmark's own copy of its epoch loop.
pub fn traced_run(spec: &Spec) -> Traced {
    let ready = setup(spec, &|agent| Box::new(Timed(agent)));
    agents(|a| *a = Agents::default());
    let start = Instant::now();
    let Ready { mut world, fleet } = ready;
    let mut sampler = Sampler::default();
    let mut window = world.stats_window();
    sampler.advance(&mut world, SimTime::ZERO + spec.scenario.warmup());
    window.skip(&world);
    let end = spec.end();
    let (mut tick_ns, mut switch_ns) = (Vec::new(), Vec::new());
    let (mut switches, mut final_stack) = (0, None);
    if let Some(fleet) = fleet {
        let config = AdaptConfig::default();
        let epoch = config.epoch;
        let mut engine = AdaptiveEngine::new(&world, fleet, config);
        // `AdaptiveEngine::run_until`, with each tick timed.
        while world.now() < end {
            let next = (world.now() + epoch).min(end);
            sampler.advance(&mut world, next);
            let before = engine.log().len();
            let tick = Instant::now();
            engine.tick(&mut world);
            let ns = tick.elapsed().as_nanos() as u64;
            if engine.log().len() > before {
                switch_ns.push(ns);
            } else {
                tick_ns.push(ns);
            }
            let bucket = if engine.current().is_reactive() {
                REACTIVE
            } else {
                PROACTIVE
            };
            agents(|a| a.phase = bucket);
        }
        switches = engine.log().len();
        final_stack = Some(engine.current());
    } else {
        sampler.advance(&mut world, end);
    }
    let snapshot = Instant::now();
    let outcome = finish(&world, &mut window, switches, final_stack);
    let snapshot_us = snapshot.elapsed().as_secs_f64() * 1e6;
    let run_s = start.elapsed().as_secs_f64();
    Traced {
        outcome,
        run_s,
        netsim_ns: sampler.netsim_ns,
        pending: sampler.pending,
        tick_ns,
        switch_ns,
        snapshot_us,
        agents: agents(std::mem::take),
    }
}

/// Host nanoseconds of one schedule-plus-pop on a `simkern::EventQueue`
/// held at `depth` pending events (the classic hold model: pop the
/// earliest event, reschedule it up to 2 s of simulated time later).
pub fn hold_ns(depth: usize, seed: u64) -> f64 {
    const SPREAD_US: u64 = 2_000_000;
    const OPS: usize = 1 << 20;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queue = EventQueue::new();
    for i in 0..depth.max(1) {
        queue.schedule(SimTime::from_micros(rng.gen_range(0..SPREAD_US)), i);
    }
    let mut hold = |queue: &mut EventQueue<usize>, ops: usize| {
        for _ in 0..ops {
            let (at, event) = queue
                .pop_due(SimTime::MAX)
                .expect("a held queue is never empty");
            let delay = SimDuration::from_micros(rng.gen_range(0..SPREAD_US));
            queue.schedule(at + delay, black_box(event));
        }
    };
    hold(&mut queue, depth.max(1)); // cycle every initial event once
    let start = Instant::now();
    hold(&mut queue, OPS);
    start.elapsed().as_nanos() as f64 / OPS as f64
}

/// The phy probe's measurements.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhyLedger {
    /// Host nanoseconds per `Phy::enqueue`.
    pub enqueue_ns: f64,
    /// Host nanoseconds per `Phy::complete`.
    pub complete_ns: f64,
    /// `complete` calls that returned `None` ÷ all completion events.
    pub stale_share: f64,
    /// Deadlines reissued per `enqueue`/`complete` call.
    pub resched_per_call: f64,
    /// Mean transmissions on the air, sampled at every call.
    pub active_mean: f64,
    /// Frames that left the air.
    pub frames: u64,
}

/// Drives a `phy::Phy` on a `simkern` queue: every flow of `traffic`
/// injects 128-byte frames on its CBR schedule for `span` of simulated
/// time, and each frame is relayed hop by hop along greedy geographic
/// next hops over the static `topology` (the contention cells are its
/// grid cells). Frames leave the air and are relayed at once: the probe
/// models airtime, not propagation or loss.
pub fn phy_probe(
    model: &PhyModel,
    topology: &Topology,
    traffic: &TrafficSpec,
    span: SimDuration,
) -> PhyLedger {
    /// A frame on a hop: the receiver, the final destination, hops left.
    struct Frame {
        to: NodeId,
        dst: NodeId,
        ttl: u8,
    }
    enum Event {
        Send(usize),
        Done(Resched),
    }
    const WIRE_BYTES: usize = 24 + 20 + crate::workload::PHY_PAYLOAD;

    let TrafficSpec::RandomFlows {
        flows,
        interval,
        seed,
        ..
    } = *traffic
    else {
        panic!("the phy probe replays random flows");
    };
    let n = topology.len();
    let mut phy: Phy<Frame> = Phy::new(model, n).expect("a non-ideal channel model");
    // The endpoints `TrafficSpec::install` draws for the same seed.
    let mut rng = StdRng::seed_from_u64(seed);
    let endpoints: Vec<(NodeId, NodeId)> = (0..flows)
        .map(|_| {
            let src = NodeId(rng.gen_range(0..n));
            let dst = loop {
                let d = NodeId(rng.gen_range(0..n));
                if d != src {
                    break d;
                }
            };
            (src, dst)
        })
        .collect();
    let cell = |node: NodeId| topology.contention_cell(node).unwrap_or(0);
    let end = SimTime::ZERO + span;
    let mut queue = EventQueue::new();
    for f in 0..flows {
        let phase = interval.as_micros() * f as u64 / flows as u64;
        let first = SimDuration::from_micros(interval.as_micros() / 2 + phase);
        queue.schedule(SimTime::ZERO + first, Event::Send(f));
    }

    /// Call counts and host time of the driven engine.
    #[derive(Default)]
    struct Calls {
        enqueues: u64,
        completes: u64,
        stale: u64,
        enqueue_ns: u64,
        complete_ns: u64,
        rescheds: u64,
        active_sum: u64,
        frames: u64,
    }
    let mut calls = Calls::default();
    let hop = |phy: &mut Phy<Frame>,
               queue: &mut EventQueue<Event>,
               calls: &mut Calls,
               now: SimTime,
               (node, dst, ttl): (NodeId, NodeId, u8)| {
        let Some(next) = topology.geo_next_hop(node, dst).filter(|_| ttl > 0) else {
            return;
        };
        let frame = Frame { to: next, dst, ttl };
        let domains = (cell(node), cell(next));
        let start = Instant::now();
        let (_, moved) = phy.enqueue(now, node.0, domains, WIRE_BYTES, frame);
        calls.enqueue_ns += start.elapsed().as_nanos() as u64;
        calls.enqueues += 1;
        calls.active_sum += phy.active_count() as u64;
        calls.rescheds += moved.len() as u64;
        for r in moved {
            queue.schedule(r.at, Event::Done(r));
        }
    };
    while let Some((now, event)) = queue.pop_due(end) {
        match event {
            Event::Send(f) => {
                let (src, dst) = endpoints[f];
                hop(&mut phy, &mut queue, &mut calls, now, (src, dst, 64));
                queue.schedule(now + interval, Event::Send(f));
            }
            Event::Done(r) => {
                let start = Instant::now();
                let done = phy.complete(now, r.tx, r.seq);
                calls.complete_ns += start.elapsed().as_nanos() as u64;
                calls.completes += 1;
                calls.active_sum += phy.active_count() as u64;
                let Some((completion, moved)) = done else {
                    calls.stale += 1;
                    continue;
                };
                calls.rescheds += moved.len() as u64;
                for r in moved {
                    queue.schedule(r.at, Event::Done(r));
                }
                calls.frames += 1;
                let Frame { to, dst, ttl } = completion.payload;
                if to != dst {
                    hop(&mut phy, &mut queue, &mut calls, now, (to, dst, ttl - 1));
                }
            }
        }
    }
    let per = |total: u64, count: u64| total as f64 / count.max(1) as f64;
    PhyLedger {
        enqueue_ns: per(calls.enqueue_ns, calls.enqueues),
        complete_ns: per(calls.complete_ns, calls.completes),
        stale_share: per(calls.stale, calls.completes),
        resched_per_call: per(calls.rescheds, calls.enqueues + calls.completes),
        active_mean: per(calls.active_sum, calls.enqueues + calls.completes),
        frames: calls.frames,
    }
}

/// Host nanoseconds per `Packet::decode` and per `Packet::encode_to_vec`
/// over the captured frames, replayed for at least `budget`.
pub fn codec_ns(frames: &[&[u8]], budget: Duration) -> (f64, f64) {
    if frames.is_empty() {
        return (0.0, 0.0);
    }
    let decoded: Vec<Packet> = frames
        .iter()
        .filter_map(|f| Packet::decode(f).ok())
        .collect();
    let decode = per_item(frames.len(), budget, || {
        for f in frames {
            black_box(Packet::decode(black_box(f)).ok());
        }
    });
    let encode = per_item(decoded.len(), budget, || {
        for p in &decoded {
            black_box(black_box(p).encode_to_vec());
        }
    });
    (decode, encode)
}

/// Repeats `pass` (which handles `items` items) until `budget` has
/// passed; host nanoseconds per item.
fn per_item(items: usize, budget: Duration, mut pass: impl FnMut()) -> f64 {
    if items == 0 {
        return 0.0;
    }
    let start = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || start.elapsed() < budget {
        pass();
        passes += 1;
    }
    start.elapsed().as_nanos() as f64 / (passes * items as u64) as f64
}

/// The address of the standalone node the Table 1 replays feed: outside
/// every world's 10.0.0.0/16 node range, so no frame is its own.
const STANDALONE: Address = Address::v4([10, 254, 254, 254]);

/// Host nanoseconds per message of a fresh standalone receiver fed the
/// captured frames in capture order (median of three replays).
fn replay<A>(
    frames: &[(Address, Vec<u8>)],
    init: impl Fn(&mut NodeOs) -> A,
    handle: impl Fn(&mut A, &mut NodeOs, Address, &[u8]),
) -> f64 {
    if frames.is_empty() {
        return 0.0;
    }
    median_f64(
        (0..3)
            .map(|_| {
                let mut os = NodeOs::standalone(NodeId(0), STANDALONE);
                let mut receiver = init(&mut os);
                let start = Instant::now();
                for (from, bytes) in frames {
                    handle(&mut receiver, &mut os, *from, bytes);
                }
                start.elapsed().as_nanos() as f64 / frames.len() as f64
            })
            .collect(),
    )
}

/// Table 1 replayed on live frames: per-message cost of the framework
/// stacks (a standalone `Deployment`) against the monolithic baselines.
#[derive(Debug, Clone, Copy, Default)]
pub struct Table1 {
    /// MANETKit OLSR, ns per captured proactive-phase frame.
    pub olsr_mkit_ns: f64,
    /// `Olsrd`, ns per captured proactive-phase frame.
    pub olsr_mono_ns: f64,
    /// MANETKit DYMO, ns per captured reactive-phase frame.
    pub dymo_mkit_ns: f64,
    /// `Dymoum`, ns per captured reactive-phase frame.
    pub dymo_mono_ns: f64,
}

/// Runs the Table 1 replays over the traced run's captures.
pub fn table1(captured: &[Vec<(Address, Vec<u8>)>; 2]) -> Table1 {
    let deployment = |deploy: fn(&mut Deployment)| {
        move |os: &mut NodeOs| {
            let mut dep = Deployment::new(ConcurrencyModel::SingleThreaded);
            deploy(&mut dep);
            dep.start(os);
            dep
        }
    };
    let on_frame = |dep: &mut Deployment, os: &mut NodeOs, from, bytes: &[u8]| {
        dep.on_frame(os, from, bytes);
    };
    let agent = |build: fn() -> Box<dyn RoutingAgent>| {
        move |os: &mut NodeOs| {
            let mut agent = build();
            agent.start(os);
            agent
        }
    };
    let agent_frame = |agent: &mut Box<dyn RoutingAgent>, os: &mut NodeOs, from, bytes: &[u8]| {
        agent.on_frame(os, from, bytes);
    };
    let proactive = &captured[PROACTIVE];
    let reactive = &captured[REACTIVE];
    Table1 {
        olsr_mkit_ns: replay(
            proactive,
            deployment(|dep| {
                manetkit_olsr::deploy(dep, Default::default()).expect("OLSR deploys");
            }),
            on_frame,
        ),
        olsr_mono_ns: replay(
            proactive,
            agent(|| Box::new(Olsrd::new(OlsrdConfig::default()))),
            agent_frame,
        ),
        dymo_mkit_ns: replay(
            reactive,
            deployment(|dep| {
                manetkit_dymo::deploy(dep, Default::default()).expect("DYMO deploys");
            }),
            on_frame,
        ),
        dymo_mono_ns: replay(reactive, agent(|| Box::new(Dymoum::new())), agent_frame),
    }
}

/// The median of `values` (0 when empty).
pub fn median_f64(mut values: Vec<f64>) -> f64 {
    quantile(&mut values, 0.5)
}

/// The `q`-quantile of `values` by nearest rank (0 when empty).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((values.len() - 1) as f64 * q).round() as usize;
    values[rank]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use crate::workload::{timed_run, Scale, Workload};

    #[test]
    fn the_traced_run_is_the_untraced_run() {
        for workload in Workload::ALL {
            let spec = workload.spec(5, Scale::Small);
            let (plain, _) = timed_run(&spec);
            let traced = traced_run(&spec);
            assert_eq!(
                check::check(&spec, &plain),
                check::check(&spec, &traced.outcome),
                "{}: tracing changed the simulation",
                workload.name()
            );
            assert!(!traced.pending.is_empty());
        }
    }

    #[test]
    fn the_phy_probe_moves_frames_and_counts_stale_completions() {
        let spec = Workload::PhyContended.spec(1, Scale::Small);
        let topology = spec.scenario.topology().build();
        let phy = phy_probe(
            &spec.phy.model,
            &topology,
            &spec.scenario.traffic()[0],
            SimDuration::from_secs(2),
        );
        assert!(phy.frames > 0);
        assert!(phy.active_mean > 0.0);
        assert!((0.0..1.0).contains(&phy.stale_share));
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        assert_eq!(median_f64(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&mut [1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert_eq!(median_f64(Vec::new()), 0.0);
    }
}
