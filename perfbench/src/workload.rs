//! The four benchmark workloads: their specs, set-up and the untraced run.
//!
//! Every workload is a fixed open-loop schedule in simulated time (seeded
//! CBR flows, seeded placement and movement). On the host it is a batch
//! job: set-up turns the spec into a ready world, the run simulates the
//! workload's whole span, and every simulated statistic is a correctness
//! output checked in `check.rs`.

use std::time::Instant;

use adapt::{AdaptConfig, AdaptiveEngine, Stack};
use campaign::{FaultSpec, PhySpec, Protocol, ScenarioSpec, TopologySpec, TrafficSpec};
use manetkit::FleetCoordinator;
use netsim::mobility::RandomWaypoint;
use netsim::{NodeId, RoutingAgent, SimDuration, SimTime, World, WorldStats};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// E16-style 10k-node random-waypoint city, agentless geo forwarding
    /// on the ideal channel: kernel, data plane, spatial index, mobility.
    GeoCity,
    /// E19 heavy load on the shared 128 kbit/s channel, scaled down: the
    /// phy engine's rate reallocation dominates.
    PhyContended,
    /// MANETKit OLSR on a static spatial mesh with random flows: proactive
    /// flooding makes it handler-bound.
    OlsrMesh,
    /// The adaptive stack on a static mesh cut in half mid-run: OLSR boots,
    /// a fleet 2PC switches it to a reactive stack.
    AdaptiveReactive,
}

/// Run size: the benchmark's full inputs, or a tiny version of the same
/// shapes for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The inputs the benchmark measures.
    Full,
    /// Same shapes, a fraction of the nodes, flows and span.
    Small,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::GeoCity,
        Workload::PhyContended,
        Workload::OlsrMesh,
        Workload::AdaptiveReactive,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GeoCity => "geo-city",
            Workload::PhyContended => "phy-contended",
            Workload::OlsrMesh => "olsr-mesh",
            Workload::AdaptiveReactive => "adaptive-reactive",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's inputs for `seed`.
    ///
    /// The scenario (placement, movement and flow endpoints) is fixed per
    /// workload, drawn from the E-series seeds (42 for placement and
    /// movement, 7 for flows; adaptive-reactive's mesh is placed by
    /// [`ADAPTIVE_PLACEMENT_SEED`]), so every seed does the same amount of
    /// protocol work and host times stay comparable across seeds. The
    /// seed drives the world's random streams: the per-hop delay jitter
    /// of every frame, and with it the interleaving of all events.
    pub fn spec(self, seed: u64, scale: Scale) -> Spec {
        let small = scale == Scale::Small;
        let mut spec = match self {
            Workload::GeoCity => {
                // 10k nodes at radius 0.025: ~20 neighbours each, as E16.
                let (nodes, radius, flows) = if small {
                    (500, 0.11, 60)
                } else {
                    (10_000, 0.025, 1_200)
                };
                let (warmup, span) = if small { (2, 4) } else { (2, 14) };
                let scenario = ScenarioSpec::builder()
                    .mobility(RandomWaypoint {
                        nodes,
                        radius,
                        speed: 0.005,
                        step: SimDuration::from_secs(1),
                        duration: SimDuration::from_secs(warmup + span),
                        pause: SimDuration::ZERO,
                        seed: SCENARIO_SEED,
                    })
                    .traffic(TrafficSpec::random_flows(
                        flows,
                        SimDuration::from_millis(500),
                        32,
                        FLOW_SEED,
                    ))
                    .warmup(SimDuration::from_secs(warmup))
                    .duration(SimDuration::from_secs(span))
                    .build();
                Spec::new(self, seed, scenario, Protocol::Geo)
            }
            Workload::PhyContended => {
                // E19's expected neighbour count (~n·π·r² ≈ 16) at 300
                // nodes; flows scaled from its 360-on-800 heavy load.
                let (nodes, radius, flows) = if small {
                    (60, 0.29, 27)
                } else {
                    (300, 0.13, 135)
                };
                let (warmup, span) = if small { (2, 3) } else { (2, 4) };
                let scenario = ScenarioSpec::builder()
                    .mobility(RandomWaypoint {
                        nodes,
                        radius,
                        speed: 0.005,
                        step: SimDuration::from_secs(1),
                        duration: SimDuration::from_secs(warmup + span),
                        pause: SimDuration::from_secs(2),
                        seed: SCENARIO_SEED,
                    })
                    .traffic(TrafficSpec::random_flows(
                        flows,
                        SimDuration::from_millis(250),
                        PHY_PAYLOAD,
                        FLOW_SEED,
                    ))
                    .warmup(SimDuration::from_secs(warmup))
                    .duration(SimDuration::from_secs(span))
                    .build();
                let mut spec = Spec::new(self, seed, scenario, Protocol::Geo);
                spec.phy = PhySpec::shared_airtime(PHY_BITS_PER_SEC, PHY_QUEUE_FRAMES);
                spec
            }
            Workload::OlsrMesh => {
                // ~7 neighbours per node: a connected multi-hop mesh (the
                // tests check connectivity of the fixed placement).
                let (nodes, radius, flows) = if small { (16, 0.5, 4) } else { (64, 0.2, 16) };
                let (warmup, span) = if small { (10, 10) } else { (10, 6) };
                let scenario = ScenarioSpec::builder()
                    .topology(TopologySpec::Spatial {
                        n: nodes,
                        radius,
                        seed: SCENARIO_SEED,
                    })
                    .traffic(TrafficSpec::random_flows(
                        flows,
                        SimDuration::from_millis(500),
                        64,
                        FLOW_SEED,
                    ))
                    .warmup(SimDuration::from_secs(warmup))
                    .duration(SimDuration::from_secs(span))
                    .build();
                Spec::new(self, seed, scenario, Protocol::MkitOlsr)
            }
            Workload::AdaptiveReactive => {
                let (nodes, radius, flows) = if small { (12, 0.45, 3) } else { (40, 0.25, 8) };
                let (warmup, span) = if small { (30, 90) } else { (30, 300) };
                let scenario = ScenarioSpec::builder()
                    .topology(TopologySpec::Spatial {
                        n: nodes,
                        radius,
                        seed: ADAPTIVE_PLACEMENT_SEED,
                    })
                    .traffic(TrafficSpec::random_flows(
                        flows,
                        SimDuration::from_millis(250),
                        64,
                        FLOW_SEED,
                    ))
                    .warmup(SimDuration::from_secs(warmup))
                    .duration(SimDuration::from_secs(span))
                    .build();
                let mut spec = Spec::new(self, seed, scenario, Protocol::Adaptive);
                // Half/half by node id, from a fifth of the span to its
                // middle: the partition-fallback rule switches the fleet.
                let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(warmup + s);
                spec.fault = FaultSpec::Partition {
                    at: at(span / 5),
                    heal: at(span / 2),
                    groups: vec![
                        (0..nodes / 2).map(NodeId).collect(),
                        (nodes / 2..nodes).map(NodeId).collect(),
                    ],
                };
                spec
            }
        };
        spec.scale = scale;
        spec
    }
}

/// Placement and movement seed of every workload but adaptive-reactive
/// (E16's and E19's).
const SCENARIO_SEED: u64 = 42;
/// Placement seed of adaptive-reactive's mesh: seed 42 leaves one of its
/// 40 nodes out of range of the rest, and the partition is meant to cut a
/// connected mesh. With this seed both the full and the small mesh are
/// connected, at ~7 neighbours per node like olsr-mesh's.
const ADAPTIVE_PLACEMENT_SEED: u64 = 54;
/// Flow-endpoint seed of every workload (E16's and E19's).
const FLOW_SEED: u64 = 7;

/// E19's channel: 128-byte data frames (24 MAC + 20 IP + 84 payload)
/// serialize in 8 ms, so a saturated neighbourhood clears ~125 frames/s.
pub const PHY_BITS_PER_SEC: u64 = 128_000;
/// E19's transmit-queue capacity in frames.
pub const PHY_QUEUE_FRAMES: usize = 16;
/// E19's data payload in bytes.
pub const PHY_PAYLOAD: usize = 84;

/// One workload instance: everything set-up needs to build a ready world.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload this is.
    pub workload: Workload,
    /// Full inputs, or the small ones of the benchmark's own tests.
    pub scale: Scale,
    /// The world seed: per-hop delay jitter and every other random draw.
    pub seed: u64,
    /// Topology, traffic, mobility and the warm-up/measurement timeline.
    pub scenario: ScenarioSpec,
    /// The routing stack deployed on every node.
    pub protocol: Protocol,
    /// The channel model.
    pub phy: PhySpec,
    /// The fault plan.
    pub fault: FaultSpec,
}

impl Spec {
    fn new(workload: Workload, seed: u64, scenario: ScenarioSpec, protocol: Protocol) -> Self {
        Spec {
            workload,
            scale: Scale::Full,
            seed,
            scenario,
            protocol,
            phy: PhySpec::ideal(),
            fault: FaultSpec::None,
        }
    }

    /// Simulated end of the run: warm-up, measured span and one second of
    /// drain, as the campaign engine runs a cell.
    pub fn end(&self) -> SimTime {
        self.scenario.end() + SimDuration::from_secs(1)
    }
}

/// A world ready to run: built, agents deployed, mobility and traffic
/// installed.
pub struct Ready {
    /// The world.
    pub world: World,
    /// The fleet handles of an adaptive workload.
    pub fleet: Option<FleetCoordinator>,
}

/// Builds a ready world. `wrap` sees every agent before it is installed
/// (the traced run wraps them with timers; the untraced run passes them
/// through).
pub fn setup(spec: &Spec, wrap: &dyn Fn(Box<dyn RoutingAgent>) -> Box<dyn RoutingAgent>) -> Ready {
    let mut world_spec = spec
        .scenario
        .world_builder()
        .seed(spec.seed)
        .phy(spec.phy.model);
    if spec.protocol.is_agentless() {
        world_spec = world_spec.geo_routing(true);
    }
    if let Some(plan) = spec.fault.plan(spec.seed) {
        world_spec = world_spec.fault_plan(plan);
    }
    let mut world = world_spec.build();
    let ids: Vec<NodeId> = world.node_ids().collect();
    let mut fleet = None;
    if spec.protocol == Protocol::Adaptive {
        // `adapt::install_fleet`, with each `Stack::node()` agent passed
        // through `wrap`.
        let mut coordinator = FleetCoordinator::default();
        for id in ids {
            let (node, handle) = Stack::Olsr.node();
            coordinator.add_node(id, handle);
            world.install_agent(id, wrap(Box::new(node)));
        }
        fleet = Some(coordinator);
    } else if !spec.protocol.is_agentless() {
        let factory = spec.protocol.factory();
        for id in ids {
            world.install_agent(id, wrap(factory()));
        }
    }
    spec.scenario.install_mobility(&mut world);
    spec.scenario.install_traffic(&mut world);
    Ready { world, fleet }
}

/// What one run of a workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Measured-window statistics in canonical form (the fingerprinted
    /// correctness output).
    pub stats: WorldStats,
    /// Whole-run statistics (warm-up included): the work counts.
    pub totals: WorldStats,
    /// Application datagrams still in flight at the end of the run.
    pub outstanding: usize,
    /// Nodes in the world.
    pub nodes: usize,
    /// Switches the adaptive engine attempted.
    pub switches: usize,
    /// The stack the adaptive fleet ended on.
    pub final_stack: Option<Stack>,
}

impl Outcome {
    /// Simulated frame handlings over the whole run: data-plane hops plus
    /// control frames handed to agents.
    pub fn frames(&self) -> u64 {
        self.totals.data_hops + self.totals.control_received
    }
}

/// Runs a ready world through warm-up and the measured span exactly as
/// the campaign engine runs a cell.
pub fn run(spec: &Spec, ready: Ready) -> Outcome {
    let Ready { mut world, fleet } = ready;
    let mut window = world.stats_window();
    world.run_for(spec.scenario.warmup());
    window.skip(&world);
    let end = spec.end();
    let mut switches = 0;
    let mut final_stack = None;
    if let Some(fleet) = fleet {
        let mut engine = AdaptiveEngine::new(&world, fleet, AdaptConfig::default());
        engine.run_until(&mut world, end);
        switches = engine.log().len();
        final_stack = Some(engine.current());
    } else {
        world.run_until(end);
    }
    finish(&world, &mut window, switches, final_stack)
}

/// Closes a run: the measured window, the totals and the in-flight count.
pub fn finish(
    world: &World,
    window: &mut netsim::StatsWindow,
    switches: usize,
    final_stack: Option<Stack>,
) -> Outcome {
    Outcome {
        stats: window.advance(world).canonical(),
        totals: world.stats(),
        outstanding: world.outstanding_sends(),
        nodes: world.node_count(),
        switches,
        final_stack,
    }
}

/// Sets up and runs `spec` untraced; host seconds of the run alone.
pub fn timed_run(spec: &Spec) -> (Outcome, f64) {
    let ready = setup(spec, &|agent| agent);
    let start = Instant::now();
    let outcome = run(spec, ready);
    (outcome, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_static_meshes_are_connected() {
        for workload in [Workload::OlsrMesh, Workload::AdaptiveReactive] {
            for scale in [Scale::Full, Scale::Small] {
                let topology = workload.spec(1, scale).scenario.topology().build();
                assert!(topology.is_connected(), "{} {scale:?}", workload.name());
            }
        }
    }
}
