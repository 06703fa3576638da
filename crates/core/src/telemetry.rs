//! Dispatch telemetry for the unified event bus.
//!
//! A [`Deployment`](crate::node::Deployment) keeps one `BusTelemetry`
//! updated as events flow: per-unit in/out counters, dispatch rounds and
//! the dispatch-queue high-water mark. Every counter is deterministic.
//! [`Deployment::flush_telemetry`](crate::node::Deployment::flush_telemetry)
//! bumps the node's [`NodeOs`] counters by what accrued since the previous
//! flush, so they surface in [`WorldStats::agent_counters`](netsim::WorldStats)
//! under `bus.*` names.

use std::collections::HashSet;
use std::sync::{Mutex, OnceLock, PoisonError};

use netsim::NodeOs;

use crate::manager::{FrameworkManager, UnitId};

/// Interns an arbitrary counter name, returning a `&'static str`.
///
/// Each distinct name is leaked at most once process-wide, so repeated
/// deployments (one per simulated node) can stamp per-unit counter names
/// without growing memory per deployment. Needed because
/// [`netsim::NodeOs`] counters key on `&'static str`.
#[must_use]
pub fn intern_name(name: &str) -> &'static str {
    static NAMES: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut set = NAMES
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(&existing) = set.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    set.insert(leaked);
    leaked
}

/// Per-unit event counters.
#[derive(Debug, Clone, Copy, Default)]
struct UnitCounters {
    /// Events delivered *to* the unit.
    events_in: u64,
    /// Events emitted *by* the unit (before fan-out).
    events_out: u64,
}

/// Dispatch telemetry of one deployment. The counters hold what accrued
/// since the last [`flush`](Self::flush); the high-water mark is absolute.
#[derive(Debug, Default)]
pub(crate) struct BusTelemetry {
    /// Pending per-unit counters, indexed by [`UnitId`].
    units: Vec<UnitCounters>,
    /// Pending dispatch rounds.
    dispatch_rounds: u64,
    /// Highest number of events ever pending in a dispatch queue.
    queue_depth_hwm: usize,
    /// The high-water mark the OS counter already holds.
    flushed_hwm: usize,
    /// Interned `bus.<unit>.events_{in,out}` counter names, indexed by unit
    /// id and filled lazily on first flush.
    names: Vec<Option<(&'static str, &'static str)>>,
}

impl BusTelemetry {
    fn unit_mut(&mut self, unit: UnitId) -> &mut UnitCounters {
        if self.units.len() <= unit {
            self.units.resize(unit + 1, UnitCounters::default());
        }
        &mut self.units[unit]
    }

    /// Records one event delivered to `unit`.
    pub(crate) fn record_in(&mut self, unit: UnitId) {
        self.unit_mut(unit).events_in += 1;
    }

    /// Records one event emitted by `unit`.
    pub(crate) fn record_out(&mut self, unit: UnitId) {
        self.unit_mut(unit).events_out += 1;
    }

    /// Raises the queue-depth high-water mark to `depth` if higher.
    pub(crate) fn observe_queue_depth(&mut self, depth: usize) {
        self.queue_depth_hwm = self.queue_depth_hwm.max(depth);
    }

    /// Accounts one completed dispatch round.
    pub(crate) fn record_round(&mut self) {
        self.dispatch_rounds += 1;
    }

    /// Bumps the OS counters by the pending deltas and zeroes them.
    /// `bus.dispatch_rounds` and `bus.queue_depth_hwm` are bumped even by
    /// zero; a unit's pair only when either of its deltas is non-zero.
    pub(crate) fn flush(&mut self, os: &mut NodeOs, manager: &FrameworkManager) {
        os.bump_by(
            "bus.dispatch_rounds",
            std::mem::take(&mut self.dispatch_rounds),
        );
        os.bump_by(
            "bus.queue_depth_hwm",
            (self.queue_depth_hwm - self.flushed_hwm) as u64,
        );
        self.flushed_hwm = self.queue_depth_hwm;
        for (unit, counters) in self.units.iter_mut().enumerate() {
            let UnitCounters {
                events_in,
                events_out,
            } = std::mem::take(counters);
            if events_in == 0 && events_out == 0 {
                continue;
            }
            if self.names.len() <= unit {
                self.names.resize(unit + 1, None);
            }
            let (in_name, out_name) = match self.names[unit] {
                Some(names) => names,
                None => {
                    let Some(name) = manager.unit_name(unit) else {
                        continue;
                    };
                    let names = (
                        intern_name(&format!("bus.{name}.events_in")),
                        intern_name(&format!("bus.{name}.events_out")),
                    );
                    self.names[unit] = Some(names);
                    names
                }
            };
            os.bump_by(in_name, events_in);
            os.bump_by(out_name, events_out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::EventTuple;
    use netsim::NodeId;
    use packetbb::Address;

    fn setup() -> (BusTelemetry, NodeOs, FrameworkManager) {
        let mut manager = FrameworkManager::new();
        for name in ["tm_system", "tm_quiet", "tm_busy"] {
            manager.register(name, EventTuple::new());
        }
        let os = NodeOs::standalone(NodeId(0), Address::v4([10, 0, 0, 1]));
        (BusTelemetry::default(), os, manager)
    }

    #[test]
    fn interning_deduplicates() {
        let a = intern_name("bus.test.events_in");
        let b = intern_name("bus.test.events_in");
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "bus.test.events_in");
    }

    #[test]
    fn counters_accumulate() {
        let (mut t, mut os, manager) = setup();
        t.record_in(2);
        t.record_in(2);
        t.record_out(0);
        t.flush(&mut os, &manager);
        assert_eq!(os.counter("bus.tm_busy.events_in"), 2);
        assert_eq!(os.counter("bus.tm_system.events_out"), 1);
        // A unit that never moved an event gets no counters.
        assert!(!os.counters().contains_key("bus.tm_quiet.events_in"));
    }

    #[test]
    fn a_flush_without_traffic_adds_only_zero_deltas() {
        let (mut t, mut os, manager) = setup();
        t.observe_queue_depth(3);
        t.observe_queue_depth(1);
        t.record_round();
        t.record_round();
        t.record_in(2);
        t.flush(&mut os, &manager);
        assert_eq!(os.counter("bus.dispatch_rounds"), 2);
        let first = os.counters().clone();
        t.flush(&mut os, &manager);
        assert_eq!(*os.counters(), first);
        assert_eq!(os.counter("bus.queue_depth_hwm"), 3);
        t.observe_queue_depth(5);
        t.flush(&mut os, &manager);
        assert_eq!(os.counter("bus.queue_depth_hwm"), 5);
    }
}
