//! The shared-rate transmission engine.
//!
//! A [`Phy`] tracks, per node, one in-flight transmission plus a bounded FIFO
//! of waiting frames, and across nodes the set of active transmissions grouped
//! into contention domains. It is a pure state machine over
//! [`SimTime`]/[`SimDuration`]: the caller owns the event loop and feeds
//! `enqueue`/`complete` calls in timestamp order; the engine answers with
//! completion deadlines ([`Enqueue::Started`] + [`Resched`]) for the caller to
//! schedule.
//!
//! Rate allocation is max-min fair via progressive filling: repeatedly find
//! the bottleneck domain (smallest per-transmitter headroom), freeze its
//! transmitters at that share, and continue until every transmission has a
//! rate. A transmission that spans two domains (sender and receiver cell)
//! counts against both, so the invariant *sum of allocated rates within any
//! domain never exceeds the domain capacity* holds at every reallocation
//! point — the airtime-conservation property the proptests pin down.
//!
//! **Cost.** Every reallocation runs on buffers the engine owns and reuses,
//! so it allocates nothing beyond the returned [`Resched`] batch. With `n`
//! active transmissions over `d` distinct domains and `r` filling rounds
//! (one per distinct bottleneck), it sorts the `≤ 2n` domain ids once
//! (`O(n log n)`), builds the member lists in `O(n + d)`, scans `O(r · d)`
//! domains for bottlenecks and freezes each transmission once (`O(n)`).
//! Around it, `settle` and the deadline pass each walk every active
//! transmission once.
//! `ConstantBandwidth` skips the filling and sets every rate to capacity.

use std::collections::{BTreeMap, VecDeque};

use simkern::{SimDuration, SimTime};

use crate::{Channel, PhyModel};

/// Identifier of an in-flight transmission, unique per [`Phy`] lifetime.
pub type TxId = u64;

/// A deadline (re)issued for an in-flight transmission.
///
/// The caller schedules a completion event at `at` carrying `(tx, seq)`; an
/// event whose `seq` no longer matches the engine's is stale and must be
/// ignored (the rate changed and a newer deadline exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resched {
    /// Transmission the deadline belongs to.
    pub tx: TxId,
    /// Sequence number that must match at completion time.
    pub seq: u64,
    /// When the transmission now finishes.
    pub at: SimTime,
}

/// Outcome of offering a frame to a node's transmitter.
#[derive(Debug)]
pub enum Enqueue<T> {
    /// The transmit queue was full; the frame never reached the air. The
    /// payload is handed back so the caller can account for the drop.
    Dropped(T),
    /// The transmitter was busy; the frame waits in FIFO order.
    Queued {
        /// Queue depth after insertion (frames waiting, in-flight excluded).
        depth: usize,
    },
    /// The transmitter was idle; the frame is on the air. Its completion
    /// deadline is in the accompanying [`Resched`] batch.
    Started(TxId),
}

/// A finished transmission, handed back to the caller for delivery.
#[derive(Debug)]
pub struct Completion<T> {
    /// The transmitting node.
    pub node: usize,
    /// The frame that just left the air.
    pub payload: T,
    /// On-air size in bytes.
    pub wire_bytes: usize,
    /// Time the frame spent waiting in the transmit queue.
    pub queued: SimDuration,
    /// Time the frame spent being serialized on the air.
    pub airtime: SimDuration,
    /// The next queued frame, now on the air (its deadline is in the
    /// accompanying [`Resched`] batch). Inspect it with [`Phy::payload`].
    pub started: Option<TxId>,
}

struct Waiting<T> {
    payload: T,
    wire_bytes: usize,
    domains: (u32, u32),
    enqueued_at: SimTime,
}

struct Active<T> {
    node: usize,
    payload: T,
    wire_bytes: usize,
    domains: (u32, u32),
    enqueued_at: SimTime,
    started_at: SimTime,
    updated_at: SimTime,
    remaining_bits: f64,
    rate_bps: f64,
    seq: u64,
    deadline: SimTime,
}

/// Deterministic shared-rate transmission engine. See the crate docs.
pub struct Phy<T> {
    shared: bool,
    capacity_bps: f64,
    queue_cap: usize,
    queues: Vec<VecDeque<Waiting<T>>>,
    head: Vec<Option<TxId>>,
    active: BTreeMap<TxId, Active<T>>,
    next_tx: TxId,
    filling: Filling,
}

impl<T> Phy<T> {
    /// Builds an engine for `model`, or `None` for [`PhyModel::Ideal`].
    #[must_use]
    pub fn new(model: &PhyModel, nodes: usize) -> Option<Self> {
        match model {
            PhyModel::Ideal => None,
            PhyModel::ConstantBandwidth(c) => Some(Self::with_channel(false, *c, nodes)),
            PhyModel::SharedAirtime(c) => Some(Self::with_channel(true, *c, nodes)),
        }
    }

    fn with_channel(shared: bool, channel: Channel, nodes: usize) -> Self {
        Phy {
            shared,
            capacity_bps: (channel.bits_per_sec.max(1)) as f64,
            queue_cap: channel.queue_frames,
            queues: (0..nodes).map(|_| VecDeque::new()).collect(),
            head: vec![None; nodes],
            active: BTreeMap::new(),
            next_tx: 0,
            filling: Filling::default(),
        }
    }

    fn ensure_node(&mut self, node: usize) {
        if node >= self.queues.len() {
            self.queues.resize_with(node + 1, VecDeque::new);
            self.head.resize(node + 1, None);
        }
    }

    /// Channel capacity in bits per second.
    #[must_use]
    pub fn capacity_bps(&self) -> f64 {
        self.capacity_bps
    }

    /// Frames waiting in `node`'s transmit queue (in-flight excluded).
    #[must_use]
    pub fn queue_depth(&self, node: usize) -> usize {
        self.queues.get(node).map_or(0, VecDeque::len)
    }

    /// Number of transmissions currently on the air.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// The payload of an in-flight transmission, if it is still active.
    #[must_use]
    pub fn payload(&self, tx: TxId) -> Option<&T> {
        self.active.get(&tx).map(|a| &a.payload)
    }

    /// Per-domain sums of currently allocated rates, ascending by domain id.
    ///
    /// Exposed for the airtime-conservation property tests: for every domain
    /// the sum must never exceed [`Phy::capacity_bps`].
    #[must_use]
    pub fn domain_allocations(&self) -> Vec<(u32, f64)> {
        let mut sums: BTreeMap<u32, f64> = BTreeMap::new();
        for a in self.active.values() {
            for d in domain_list(a.domains) {
                *sums.entry(d).or_insert(0.0) += a.rate_bps;
            }
        }
        sums.into_iter().collect()
    }

    /// Offers a frame to `node`'s transmitter at time `now`.
    ///
    /// `domains` are the contention cells the transmission occupies (sender
    /// and receiver neighbourhood; pass the same value twice for broadcasts
    /// or single-domain channels). Returns the enqueue outcome plus any
    /// deadlines that moved because rates were reallocated.
    pub fn enqueue(
        &mut self,
        now: SimTime,
        node: usize,
        domains: (u32, u32),
        wire_bytes: usize,
        payload: T,
    ) -> (Enqueue<T>, Vec<Resched>) {
        self.ensure_node(node);
        if self.head[node].is_some() {
            if self.queues[node].len() >= self.queue_cap {
                return (Enqueue::Dropped(payload), Vec::new());
            }
            self.queues[node].push_back(Waiting {
                payload,
                wire_bytes,
                domains,
                enqueued_at: now,
            });
            return (
                Enqueue::Queued {
                    depth: self.queues[node].len(),
                },
                Vec::new(),
            );
        }
        self.settle(now);
        let tx = self.start(now, node, domains, wire_bytes, payload, now);
        let rescheds = self.reallocate(now);
        (Enqueue::Started(tx), rescheds)
    }

    /// Handles a completion event for `(tx, seq)` at time `now`.
    ///
    /// Returns `None` when the event is stale (the deadline moved after it
    /// was scheduled, or the transmission was flushed by a crash).
    pub fn complete(
        &mut self,
        now: SimTime,
        tx: TxId,
        seq: u64,
    ) -> Option<(Completion<T>, Vec<Resched>)> {
        match self.active.get(&tx) {
            Some(a) if a.seq == seq => {}
            _ => return None,
        }
        self.settle(now);
        let done = self.active.remove(&tx).expect("checked above");
        self.head[done.node] = None;
        let started = self.queues[done.node].pop_front().map(|w| {
            self.start(
                now,
                done.node,
                w.domains,
                w.wire_bytes,
                w.payload,
                w.enqueued_at,
            )
        });
        let rescheds = self.reallocate(now);
        Some((
            Completion {
                node: done.node,
                payload: done.payload,
                wire_bytes: done.wire_bytes,
                queued: done.started_at.since(done.enqueued_at),
                airtime: now.since(done.started_at),
                started,
            },
            rescheds,
        ))
    }

    /// Drops everything a crashed node had queued or on the air.
    ///
    /// Returns the waiting payloads, the aborted in-flight payload (if any),
    /// and deadlines that moved because the abort freed airtime.
    pub fn flush_node(&mut self, now: SimTime, node: usize) -> (Vec<T>, Option<T>, Vec<Resched>) {
        self.ensure_node(node);
        let waiting: Vec<T> = self.queues[node].drain(..).map(|w| w.payload).collect();
        let aborted = match self.head[node].take() {
            Some(tx) => {
                self.settle(now);
                self.active.remove(&tx).map(|a| a.payload)
            }
            None => None,
        };
        let rescheds = if aborted.is_some() {
            self.reallocate(now)
        } else {
            Vec::new()
        };
        (waiting, aborted, rescheds)
    }

    fn start(
        &mut self,
        now: SimTime,
        node: usize,
        domains: (u32, u32),
        wire_bytes: usize,
        payload: T,
        enqueued_at: SimTime,
    ) -> TxId {
        let tx = self.next_tx;
        self.next_tx += 1;
        self.head[node] = Some(tx);
        self.active.insert(
            tx,
            Active {
                node,
                payload,
                wire_bytes,
                domains,
                enqueued_at,
                started_at: now,
                updated_at: now,
                remaining_bits: (wire_bytes.max(1) * 8) as f64,
                rate_bps: 0.0,
                seq: 0,
                // reallocate() issues the real deadline.
                deadline: SimTime::MAX,
            },
        );
        tx
    }

    /// Advances every in-flight transmission's residual work to `now`.
    fn settle(&mut self, now: SimTime) {
        for a in self.active.values_mut() {
            let dt = now.since(a.updated_at).as_secs_f64();
            if dt > 0.0 {
                a.remaining_bits = (a.remaining_bits - a.rate_bps * dt).max(0.0);
            }
            a.updated_at = now;
        }
    }

    /// Recomputes fair-share rates and reissues moved deadlines.
    fn reallocate(&mut self, now: SimTime) -> Vec<Resched> {
        let rates = self.shared.then(|| {
            self.filling
                .fill(self.capacity_bps, self.active.values().map(|a| a.domains))
        });
        let mut out = Vec::new();
        for (i, (tx, a)) in self.active.iter_mut().enumerate() {
            let rate = rates.map_or(self.capacity_bps, |r| r[i]).max(1.0);
            a.rate_bps = rate;
            let finish_us = (a.remaining_bits / rate * 1e6).ceil() as u64;
            let at = now + SimDuration::from_micros(finish_us);
            if at != a.deadline {
                a.seq += 1;
                a.deadline = at;
                out.push(Resched {
                    tx: *tx,
                    seq: a.seq,
                    at,
                });
            }
        }
        out
    }
}

/// Reused buffers for max-min progressive filling.
///
/// Domain ids are mapped to dense indices in ascending id order, so scanning
/// the dense range visits domains exactly as an ordered map would, and the
/// strict `<` bottleneck comparison breaks ties towards the lowest id. Members
/// are laid out in CSR form: the transmissions of dense domain `d` are
/// `members[offsets[d]..offsets[d + 1]]`, ascending by position in the active
/// set. Every buffer keeps its capacity between calls.
#[derive(Default)]
struct Filling {
    /// Distinct domain ids, ascending; a domain's dense index is its position.
    ids: Vec<u32>,
    /// Per transmission: its domains, first as raw ids, then as dense indices.
    doms: Vec<(u32, u32)>,
    offsets: Vec<usize>,
    members: Vec<usize>,
    /// Per domain: members not yet frozen (a placement cursor while building).
    unfrozen: Vec<usize>,
    /// Per domain: the sum of the rates frozen in it so far.
    frozen_sum: Vec<f64>,
    frozen: Vec<bool>,
    rates: Vec<f64>,
}

impl Filling {
    /// Max-min fair shares by progressive filling: repeatedly freeze the
    /// members of the domain with the smallest headroom per unfrozen member
    /// at that share. Returns one rate per item of `domains`, in order.
    fn fill(&mut self, capacity: f64, domains: impl Iterator<Item = (u32, u32)>) -> &[f64] {
        let Filling {
            ids,
            doms,
            offsets,
            members,
            unfrozen,
            frozen_sum,
            frozen,
            rates,
        } = self;
        doms.clear();
        doms.extend(domains);
        ids.clear();
        ids.extend(doms.iter().flat_map(|&(a, b)| [a, b]));
        ids.sort_unstable();
        ids.dedup();
        let dense = |id: u32| ids.binary_search(&id).expect("domain registered") as u32;
        for d in doms.iter_mut() {
            *d = (dense(d.0), dense(d.1));
        }

        let (n, nd) = (doms.len(), ids.len());
        offsets.clear();
        offsets.resize(nd + 1, 0);
        for d in doms.iter().flat_map(|&pair| domain_list(pair)) {
            offsets[d as usize + 1] += 1;
        }
        for d in 0..nd {
            offsets[d + 1] += offsets[d];
        }
        members.clear();
        members.resize(offsets[nd], 0);
        unfrozen.clear();
        unfrozen.resize(nd, 0);
        for (i, &pair) in doms.iter().enumerate() {
            for d in domain_list(pair) {
                let d = d as usize;
                members[offsets[d] + unfrozen[d]] = i;
                unfrozen[d] += 1;
            }
        }

        frozen_sum.clear();
        frozen_sum.resize(nd, 0.0);
        frozen.clear();
        frozen.resize(n, false);
        rates.clear();
        rates.resize(n, 0.0);
        let mut left = n;
        while left > 0 {
            // Bottleneck domain: smallest headroom per unfrozen transmitter,
            // ties broken towards the lowest domain id (ascending scan).
            let mut best: Option<(f64, usize)> = None;
            for d in 0..nd {
                let k = unfrozen[d];
                if k == 0 {
                    continue;
                }
                let head = (capacity - frozen_sum[d]).max(0.0) / k as f64;
                if best.is_none_or(|(h, _)| head < h) {
                    best = Some((head, d));
                }
            }
            let (share, d) = best.expect("an unfrozen transmission has a domain");
            for &i in &members[offsets[d]..offsets[d + 1]] {
                if frozen[i] {
                    continue;
                }
                frozen[i] = true;
                rates[i] = share;
                left -= 1;
                for dom in domain_list(doms[i]) {
                    frozen_sum[dom as usize] += share;
                    unfrozen[dom as usize] -= 1;
                }
            }
        }
        debug_assert!(
            frozen.iter().all(|&f| f) && unfrozen.iter().all(|&k| k == 0),
            "every transmission is frozen exactly once"
        );
        rates
    }
}

/// The distinct domains of a transmission (one or two).
fn domain_list(domains: (u32, u32)) -> impl Iterator<Item = u32> {
    let (a, b) = domains;
    std::iter::once(a).chain((b != a).then_some(b))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;

    fn phy(shared: bool, bps: u64, queue: usize) -> Phy<u32> {
        let channel = Channel {
            bits_per_sec: bps,
            queue_frames: queue,
        };
        let model = if shared {
            PhyModel::SharedAirtime(channel)
        } else {
            PhyModel::ConstantBandwidth(channel)
        };
        Phy::new(&model, 4).expect("non-ideal")
    }

    fn started(e: &Enqueue<u32>) -> TxId {
        match e {
            Enqueue::Started(tx) => *tx,
            other => panic!("expected Started, got {other:?}"),
        }
    }

    #[test]
    fn ideal_has_no_engine() {
        assert!(Phy::<u32>::new(&PhyModel::Ideal, 4).is_none());
    }

    #[test]
    fn serialization_delay_is_size_proportional() {
        // 1 Mb/s: a 125-byte frame (1000 bits) takes exactly 1 ms.
        let mut p = phy(false, 1_000_000, 8);
        let t0 = SimTime::ZERO;
        let (e, r) = p.enqueue(t0, 0, (0, 0), 125, 7);
        let tx = started(&e);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].tx, tx);
        assert_eq!(r[0].at, SimTime::from_micros(1000));
        let (done, _) = p.complete(r[0].at, tx, r[0].seq).expect("fresh");
        assert_eq!(done.payload, 7);
        assert_eq!(done.airtime, SimDuration::from_micros(1000));
        assert_eq!(done.queued, SimDuration::ZERO);
    }

    #[test]
    fn fifo_queue_and_tail_drop() {
        let mut p = phy(false, 1_000_000, 2);
        let t0 = SimTime::ZERO;
        let (e0, r0) = p.enqueue(t0, 0, (0, 0), 125, 0);
        let tx0 = started(&e0);
        assert!(matches!(
            p.enqueue(t0, 0, (0, 0), 125, 1).0,
            Enqueue::Queued { depth: 1 }
        ));
        assert!(matches!(
            p.enqueue(t0, 0, (0, 0), 125, 2).0,
            Enqueue::Queued { depth: 2 }
        ));
        // Queue full: the newest frame is the one dropped.
        match p.enqueue(t0, 0, (0, 0), 125, 3).0 {
            Enqueue::Dropped(payload) => assert_eq!(payload, 3),
            other => panic!("expected Dropped, got {other:?}"),
        }
        // Drain: completions come back in enqueue order.
        let (done0, r1) = p.complete(r0[0].at, tx0, r0[0].seq).expect("fresh");
        assert_eq!(done0.payload, 0);
        let tx1 = done0.started.expect("next frame starts");
        assert_eq!(*p.payload(tx1).expect("active"), 1);
        assert_eq!(done0.started.map(|_| r1.len()), Some(1));
        let (done1, r2) = p.complete(r1[0].at, tx1, r1[0].seq).expect("fresh");
        assert_eq!(done1.payload, 1);
        assert_eq!(done1.queued, SimDuration::from_micros(1000));
        let tx2 = done1.started.expect("last frame starts");
        let (done2, _) = p.complete(r2[0].at, tx2, r2[0].seq).expect("fresh");
        assert_eq!(done2.payload, 2);
        assert_eq!(done2.started, None);
        assert_eq!(p.active_count(), 0);
    }

    #[test]
    fn shared_airtime_splits_rate_in_domain() {
        // Two 1000-bit frames start together in one domain at 1 Mb/s: each
        // gets 500 kb/s and finishes at 2 ms instead of 1 ms.
        let mut p = phy(true, 1_000_000, 8);
        let t0 = SimTime::ZERO;
        let (e0, _) = p.enqueue(t0, 0, (5, 5), 125, 0);
        let tx0 = started(&e0);
        let (e1, r1) = p.enqueue(t0, 1, (5, 5), 125, 1);
        let tx1 = started(&e1);
        // Both deadlines move to the 2 ms mark.
        let at: Vec<SimTime> = r1.iter().map(|r| r.at).collect();
        assert_eq!(at, vec![SimTime::from_micros(2000); 2]);
        let seq0 = r1.iter().find(|r| r.tx == tx0).expect("tx0 moved").seq;
        let seq1 = r1.iter().find(|r| r.tx == tx1).expect("tx1 moved").seq;
        // The original 1 ms deadline for tx0 is stale now.
        assert!(p
            .complete(SimTime::from_micros(1000), tx0, seq0 - 1)
            .is_none());
        let (d0, r2) = p
            .complete(SimTime::from_micros(2000), tx0, seq0)
            .expect("fresh");
        assert_eq!(d0.airtime, SimDuration::from_micros(2000));
        // tx1 is alone again, but its residual work finishes at the same
        // instant — the deadline does not move, so no reschedule is issued.
        assert!(r2.is_empty());
        let (d1, _) = p
            .complete(SimTime::from_micros(2000), tx1, seq1)
            .expect("fresh");
        assert_eq!(d1.airtime, SimDuration::from_micros(2000));
    }

    #[test]
    fn independent_domains_do_not_contend() {
        let mut p = phy(true, 1_000_000, 8);
        let t0 = SimTime::ZERO;
        let (e0, r0) = p.enqueue(t0, 0, (1, 1), 125, 0);
        let (_, r1) = p.enqueue(t0, 1, (2, 2), 125, 1);
        // Starting in a different domain does not move tx0's deadline.
        assert!(r1.iter().all(|r| r.tx != started(&e0)));
        assert_eq!(r0[0].at, SimTime::from_micros(1000));
        assert_eq!(r1[0].at, SimTime::from_micros(1000));
    }

    #[test]
    fn two_domain_transmission_counts_in_both() {
        // tx A spans domains (1,2); tx B is in (1,1); tx C in (2,2).
        // A shares with both: the bottleneck share is C/2 everywhere.
        let mut p = phy(true, 1_000_000, 8);
        let t0 = SimTime::ZERO;
        p.enqueue(t0, 0, (1, 2), 125, 0);
        p.enqueue(t0, 1, (1, 1), 125, 1);
        p.enqueue(t0, 2, (2, 2), 125, 2);
        for (_, sum) in p.domain_allocations() {
            assert!(
                sum <= p.capacity_bps() * (1.0 + 1e-9),
                "domain oversubscribed"
            );
        }
    }

    #[test]
    fn flush_node_aborts_and_frees_airtime() {
        let mut p = phy(true, 1_000_000, 8);
        let t0 = SimTime::ZERO;
        let (e0, _) = p.enqueue(t0, 0, (5, 5), 125, 0);
        let tx0 = started(&e0);
        let (e1, _r1) = p.enqueue(t0, 1, (5, 5), 125, 1);
        let tx1 = started(&e1);
        p.enqueue(t0, 0, (5, 5), 125, 2);
        let mid = SimTime::from_micros(1000);
        let (waiting, aborted, rescheds) = p.flush_node(mid, 0);
        assert_eq!(waiting, vec![2]);
        assert_eq!(aborted, Some(0));
        assert!(p.complete(SimTime::MAX, tx0, 99).is_none(), "tx0 gone");
        // tx1 sped back up to full rate; its deadline moved earlier.
        let r = rescheds.iter().find(|r| r.tx == tx1).expect("tx1 moved");
        // Half the bits drained at half rate by 1 ms; the rest at full rate.
        assert_eq!(r.at, SimTime::from_micros(1500));
    }

    /// The progressive filling the engine used before its buffers were
    /// flattened, kept verbatim (ordered maps rebuilt on every call) as the
    /// bit-identity oracle for [`Filling::fill`].
    fn oracle_maxmin(capacity_bps: f64, active: &[(TxId, (u32, u32))]) -> BTreeMap<TxId, f64> {
        let domains_of: BTreeMap<TxId, (u32, u32)> = active.iter().copied().collect();
        let mut members: BTreeMap<u32, Vec<TxId>> = BTreeMap::new();
        for (&tx, &domains) in &domains_of {
            for d in domain_list(domains) {
                members.entry(d).or_default().push(tx);
            }
        }
        let mut rates: BTreeMap<TxId, f64> = BTreeMap::new();
        let mut frozen_sum: BTreeMap<u32, f64> = members.keys().map(|&d| (d, 0.0)).collect();
        let mut unfrozen: BTreeSet<TxId> = domains_of.keys().copied().collect();
        while !unfrozen.is_empty() {
            let mut best: Option<(f64, u32)> = None;
            for (&d, m) in &members {
                let k = m.iter().filter(|t| unfrozen.contains(t)).count();
                if k == 0 {
                    continue;
                }
                let head = (capacity_bps - frozen_sum[&d]).max(0.0) / k as f64;
                if best.is_none_or(|(h, _)| head < h) {
                    best = Some((head, d));
                }
            }
            let Some((share, d)) = best else { break };
            let frozen: Vec<TxId> = members[&d]
                .iter()
                .copied()
                .filter(|t| unfrozen.remove(t))
                .collect();
            for tx in frozen {
                rates.insert(tx, share);
                for dom in domain_list(domains_of[&tx]) {
                    *frozen_sum.get_mut(&dom).expect("domain registered") += share;
                }
            }
        }
        rates
    }

    /// Capacities that make equal headrooms (ties) and awkward quotients.
    fn arb_capacity() -> impl Strategy<Value = f64> {
        prop_oneof![Just(1.0), Just(3.0), Just(128_000.0), Just(11_000_000.0)]
    }

    /// Active sets over up to 64 domains; few domains make head ties common,
    /// the stride spreads ids over the whole `u32` range.
    fn arb_active_set() -> impl Strategy<Value = Vec<(u32, u32)>> {
        (
            1u32..=64,
            prop_oneof![Just(1u32), Just(997), Just(u32::MAX / 64)],
        )
            .prop_flat_map(|(nd, stride)| {
                vec((0..nd, 0..nd, any::<bool>()), 0..96).prop_map(move |raw| {
                    raw.into_iter()
                        .map(|(a, b, two)| (a * stride, if two { b * stride } else { a * stride }))
                        .collect()
                })
            })
    }

    /// One step of an add/remove sequence driven through a [`Phy`].
    #[derive(Debug, Clone)]
    enum Op {
        Enqueue {
            node: usize,
            domains: (u32, u32),
            bytes: usize,
        },
        /// Completes the k-th active transmission (modulo the active count).
        Complete(usize),
        Flush(usize),
    }

    /// Steps paired with the simulated gap (µs) before each.
    fn arb_ops() -> impl Strategy<Value = Vec<(Op, u64)>> {
        let op = prop_oneof![
            4 => (0usize..24, (0u32..12, 0u32..12), 1usize..1500).prop_map(
                |(node, domains, bytes)| Op::Enqueue { node, domains, bytes }
            ),
            3 => (0usize..64).prop_map(Op::Complete),
            1 => (0usize..24).prop_map(Op::Flush),
        ];
        vec((op, 0u64..3_000), 1..160)
    }

    fn assert_rates_match_oracle(p: &Phy<u32>) {
        let set: Vec<(TxId, (u32, u32))> =
            p.active.iter().map(|(&tx, a)| (tx, a.domains)).collect();
        let oracle = oracle_maxmin(p.capacity_bps, &set);
        for (tx, a) in &p.active {
            let want = oracle[tx].max(1.0);
            assert_eq!(a.rate_bps.to_bits(), want.to_bits(), "tx {tx} rate");
        }
    }

    proptest! {
        /// The flat filling reproduces the ordered-map filling bit for bit,
        /// with one set of buffers reused across every set.
        #[test]
        fn filling_matches_oracle_bit_for_bit(
            capacity in arb_capacity(),
            sets in vec(arb_active_set(), 1..6),
        ) {
            let mut filling = Filling::default();
            for set in sets {
                let indexed: Vec<(TxId, (u32, u32))> =
                    set.iter().enumerate().map(|(i, &d)| (i as TxId, d)).collect();
                let oracle = oracle_maxmin(capacity, &indexed);
                let rates = filling.fill(capacity, set.iter().copied());
                prop_assert_eq!(rates.len(), set.len());
                for (tx, &rate) in rates.iter().enumerate() {
                    prop_assert_eq!(rate.to_bits(), oracle[&(tx as TxId)].to_bits());
                }
            }
        }

        /// Through add/remove sequences (starts, completions, queue
        /// promotions and crashes), every active rate equals the oracle's.
        #[test]
        fn engine_rates_match_oracle_through_add_remove(
            capacity in prop_oneof![Just(3u64), Just(128_000u64), Just(1_000_000u64)],
            ops in arb_ops(),
        ) {
            let mut p = phy(true, capacity, 2);
            let mut now = SimTime::ZERO;
            for (i, (op, gap_us)) in ops.into_iter().enumerate() {
                now += SimDuration::from_micros(gap_us);
                match op {
                    Op::Enqueue { node, domains, bytes } => {
                        p.enqueue(now, node, domains, bytes, i as u32);
                    }
                    Op::Complete(k) => {
                        let pick = (!p.active.is_empty())
                            .then(|| p.active.iter().nth(k % p.active.len()))
                            .flatten()
                            .map(|(&tx, a)| (tx, a.seq));
                        if let Some((tx, seq)) = pick {
                            prop_assert!(p.complete(now, tx, seq).is_some());
                        }
                    }
                    Op::Flush(node) => {
                        p.flush_node(now, node);
                    }
                }
                assert_rates_match_oracle(&p);
            }
        }
    }
}
