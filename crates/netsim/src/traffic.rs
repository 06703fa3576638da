//! Workload generators: scripted application traffic over a [`World`].

use packetbb::Address;

use crate::packet::NodeId;
use crate::world::World;
use simkern::{SimDuration, SimTime};

/// A constant-bit-rate flow: `count` datagrams of `payload` bytes from
/// `src` to `dst`, one every `interval`, starting at `start`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CbrFlow {
    /// Originating node.
    pub src: NodeId,
    /// Destination address.
    pub dst: Address,
    /// Time of the first packet.
    pub start: SimTime,
    /// Inter-packet gap.
    pub interval: SimDuration,
    /// Number of packets.
    pub count: u32,
    /// Payload size in bytes.
    pub payload: usize,
}

impl CbrFlow {
    /// A typical small-packet CBR flow (64-byte payload, 4 pkt/s).
    #[must_use]
    pub fn small(src: NodeId, dst: Address, start: SimTime, count: u32) -> Self {
        CbrFlow {
            src,
            dst,
            start,
            interval: SimDuration::from_millis(250),
            count,
            payload: 64,
        }
    }
}

/// Schedules every packet of `flow` into the world.
pub fn install_cbr(world: &mut World, flow: &CbrFlow) {
    let mut at = flow.start;
    for i in 0..flow.count {
        let mut payload = vec![0u8; flow.payload];
        // Stamp a sequence number so payloads differ.
        payload[..4.min(flow.payload)].copy_from_slice(&i.to_be_bytes()[..4.min(flow.payload)]);
        world.send_datagram_at(at, flow.src, flow.dst, payload);
        at += flow.interval;
    }
}

/// Schedules request/reply style traffic: `pairs` of (forward, return)
/// datagrams with the reply `gap` after each request.
pub fn install_request_reply(
    world: &mut World,
    a: NodeId,
    b: NodeId,
    start: SimTime,
    interval: SimDuration,
    gap: SimDuration,
    pairs: u32,
) {
    let addr_a = world.addr(a);
    let addr_b = world.addr(b);
    let mut at = start;
    for i in 0..pairs {
        world.send_datagram_at(at, a, addr_b, i.to_be_bytes().to_vec());
        world.send_datagram_at(at + gap, b, addr_a, i.to_be_bytes().to_vec());
        at += interval;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn cbr_schedules_count_packets() {
        let mut w = World::builder().topology(Topology::full(2)).build();
        let dst = w.addr(NodeId(1));
        let src_route = dst;
        w.os_mut(NodeId(0))
            .route_table_mut()
            .add_host_route(dst, src_route, 1);
        install_cbr(&mut w, &CbrFlow::small(NodeId(0), dst, SimTime::ZERO, 10));
        w.run_for(SimDuration::from_secs(5));
        let s = w.stats();
        assert_eq!(s.data_sent, 10);
        assert_eq!(s.data_delivered, 10);
    }

    #[test]
    fn request_reply_round_trips() {
        let mut w = World::builder().topology(Topology::full(2)).build();
        let a0 = w.addr(NodeId(0));
        let a1 = w.addr(NodeId(1));
        w.os_mut(NodeId(0))
            .route_table_mut()
            .add_host_route(a1, a1, 1);
        w.os_mut(NodeId(1))
            .route_table_mut()
            .add_host_route(a0, a0, 1);
        install_request_reply(
            &mut w,
            NodeId(0),
            NodeId(1),
            SimTime::ZERO,
            SimDuration::from_millis(100),
            SimDuration::from_millis(20),
            5,
        );
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(w.stats().data_delivered, 10);
    }
}
