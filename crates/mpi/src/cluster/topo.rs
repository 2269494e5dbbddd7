//! Topology-aware transport: sends resolved to routes through a
//! [`TopoNet`] instead of the flat scalar links.
//!
//! These are the routed twins of `protocol.rs`'s `transport` /
//! `transport_reliable` wire paths. Semantics mirror the flat model
//! exactly — intra-node transfers bypass the NIC (completion coincides
//! with delivery), inter-node transfers charge NIC injection and complete
//! one tail latency after delivery — so a single-hop [`FlatLink`] route
//! reproduces the legacy timing bit-for-bit. Runtime route failures
//! (impossible for endpoints validated at build time, but reachable under
//! fault-replayed state) are absorbed in the PR-4 style: debug-assert,
//! count as spurious, fall back to the flat path.
//!
//! [`FlatLink`]: fusedpack_net::FlatLink

use super::Cluster;
use fusedpack_net::topology::RouteKey;
use fusedpack_net::{FabricHealth, HopStats, NetError, TopoNet};
use fusedpack_sim::{Duration, FaultSite, Time};
use fusedpack_telemetry::{Lane, Payload};

impl Cluster {
    fn route_key(&self, src: usize, dst: usize) -> RouteKey {
        (self.endpoints[src], self.endpoints[dst])
    }

    /// Routed analogue of `transport`: returns `(delivered,
    /// initiator_completion)`, or `None` if no network is attached, route
    /// resolution failed, or the fabric is disconnected (the caller falls
    /// back to the flat path — the forced-delivery rung under a dead
    /// fabric).
    pub(crate) fn transport_routed(
        &mut self,
        src: usize,
        dst: usize,
        at: Time,
        bytes: u64,
        gdr: bool,
        event_key: u64,
    ) -> Option<(Time, Time)> {
        // Take/restore so the routed body can borrow the network mutably
        // alongside `self` — the same body the sharded coordinator drives
        // with the master network installed in this slot at barriers.
        let mut net = self.topo.take()?;
        let out = self.transport_routed_with(&mut net, src, dst, at, bytes, gdr, event_key);
        self.topo = Some(net);
        out
    }

    /// The routed transmit body, generic over where the network lives
    /// (owned `self.topo` in single-queue runs, the coordinator's master
    /// copy in sharded runs).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn transport_routed_with(
        &mut self,
        net: &mut TopoNet,
        src: usize,
        dst: usize,
        at: Time,
        bytes: u64,
        gdr: bool,
        event_key: u64,
    ) -> Option<(Time, Time)> {
        let key = self.route_key(src, dst);
        let intra = self.endpoints[src].node == self.endpoints[dst].node;
        let outcome = if intra {
            // Intra-node transfers bypass the NIC: no injection overhead,
            // no GPUDirect cap, completion == delivery.
            net.transmit_keyed(at, key, bytes, None, event_key)
                .map(|t| (t.start, t.delivered, t.delivered))
        } else {
            let node = self.endpoints[src].node as usize;
            self.nics[node]
                .post_send_routed_keyed(net, key, at, bytes, gdr, event_key)
                .map(|t| (t.start, t.delivered, t.delivered + t.tail_latency))
        };
        let out = match outcome {
            Ok((start, delivered, completion)) => {
                if intra {
                    // The NIC emits the wire span for inter-node sends;
                    // intra-node sends emit it here, as the flat path does.
                    self.ranks[src].tele.span(Lane::Nic, start, delivered, || {
                        Payload::WireTransfer { bytes }
                    });
                }
                self.emit_hop_spans(net, src, bytes);
                Some((delivered, completion))
            }
            Err(NetError::Disconnected { .. }) => {
                // Last rung of the degradation ladder: the failures severed
                // every surviving route for this pair. The transfer is
                // forced through the flat wire model by the caller so the
                // exchange still completes — absorbed, counted, visible.
                self.fault_degraded(src, FaultSite::HopDown, "forced-delivery", at);
                None
            }
            Err(e) => {
                debug_assert!(false, "route resolution failed post-validation: {e}");
                self.fault_stats.spurious += 1;
                None
            }
        };
        self.emit_fabric_events(net, src);
        out
    }

    /// Routed analogue of the wasted (dropped-payload) transmit used by
    /// the retry protocol: occupies every hop of the route, returns
    /// `(wire_clear, route_rtt)`.
    pub(crate) fn transport_routed_wasted(
        &mut self,
        src: usize,
        dst: usize,
        now: Time,
        bytes: u64,
        gdr: bool,
    ) -> Option<(Time, Duration)> {
        let mut net = self.topo.take()?;
        let key = self.route_key(src, dst);
        let intra = self.endpoints[src].node == self.endpoints[dst].node;
        let outcome = if intra {
            net.transmit_wasted(now, key, bytes, None)
        } else {
            let node = self.endpoints[src].node as usize;
            self.nics[node].post_send_routed_wasted(&mut net, key, now, bytes, gdr)
        };
        let out = match outcome {
            Ok((start, wire_clear)) => {
                // The route is cached by the transmit above, so this
                // cannot fail; fall back defensively anyway.
                let rtt = net.route_rtt(key).ok();
                if intra {
                    self.ranks[src].tele.span(Lane::Nic, start, wire_clear, || {
                        Payload::WireTransfer { bytes }
                    });
                }
                self.emit_hop_spans(&net, src, bytes);
                rtt.map(|rtt| (wire_clear, rtt))
            }
            // Disconnected fabric: the retry ladder's real transmit takes
            // (and accounts) the forced-delivery rung; the wasted occupancy
            // falls back to the flat wire silently.
            Err(NetError::Disconnected { .. }) => None,
            Err(e) => {
                debug_assert!(false, "wasted route resolution failed: {e}");
                self.fault_stats.spurious += 1;
                None
            }
        };
        self.emit_fabric_events(&mut net, src);
        self.topo = Some(net);
        out
    }

    /// Emit one [`Payload::HopTransfer`] span per hop of the most recent
    /// routed transmit, on the sender's NIC lane. The reconciliation
    /// proptest sums these against [`TopoNet::hop_stats`].
    fn emit_hop_spans(&mut self, net: &TopoNet, src: usize, bytes: u64) {
        let tele = &self.ranks[src].tele;
        for &(hop, start, wire_done) in net.last_hops() {
            tele.span(Lane::Nic, start, wire_done, || Payload::HopTransfer {
                hop,
                bytes,
            });
        }
    }

    /// Per-hop congestion counters of the topology network, if one is
    /// attached (reports, reconciliation tests).
    pub fn topo_hop_stats(&self) -> Option<Vec<HopStats>> {
        self.topo.as_ref().map(TopoNet::hop_stats)
    }

    /// Fabric-health counters of the attached topology network (`None`
    /// without one; all-zero with one but no armed fault domain).
    pub fn fabric_health(&self) -> Option<FabricHealth> {
        self.topo.as_ref().map(TopoNet::fabric_health)
    }
}
