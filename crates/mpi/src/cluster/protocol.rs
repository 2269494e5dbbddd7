//! Wire protocols: eager, rendezvous RPUT handshake, tag matching, and
//! payload delivery.

use super::schemes::PathCtx;
use super::{Cluster, Event, RankId, RndvProtocol};
use crate::lifecycle::LifecycleEvent;
use crate::message::{WireKind, WireMsg};
use crate::sendrecv::{CtsInfo, PackState, RecvId, SendId, StagingLoc};
use fusedpack_net::rdma::CTRL_BYTES;
use fusedpack_sim::{FaultSite, Time};
use fusedpack_telemetry::{Lane, Payload, RndvPhaseTag};

impl Cluster {
    /// Transport `bytes` from rank `src` to rank `dst`. Returns
    /// `(delivered, initiator_completion)`. `gdr` caps inter-node bandwidth
    /// by the NIC↔GPU path; intra-node transfers ride the GPU↔GPU link.
    /// `event_key` is the transfer's canonical event key — the coordinate
    /// an armed fabric fault domain keys its per-hop draws by.
    pub(crate) fn transport(
        &mut self,
        src: usize,
        dst: usize,
        at: Time,
        bytes: u64,
        gdr: bool,
        event_key: u64,
    ) -> (Time, Time) {
        if self.topo.is_some() {
            if let Some(result) = self.transport_routed(src, dst, at, bytes, gdr, event_key) {
                return result;
            }
            // Route resolution failed (absorbed, counted) or the fabric is
            // disconnected (forced-delivery rung): fall through to the flat
            // path so the transfer still completes and Waitall never wedges.
        }
        self.transport_flat(src, dst, at, bytes, gdr)
    }

    /// The flat (non-routed) wire model. Node lookups go through the
    /// endpoint table — valid for *any* global rank, local or not, which
    /// sharded runs rely on.
    pub(crate) fn transport_flat(
        &mut self,
        src: usize,
        dst: usize,
        at: Time,
        bytes: u64,
        gdr: bool,
    ) -> (Time, Time) {
        let (src_node, dst_node) = (self.endpoints[src].node, self.endpoints[dst].node);
        if src_node == dst_node {
            let link = self.intra_link(src_node, dst_node);
            let (start, delivered) = link.transmit(at, bytes);
            // Intra-node transfers bypass the NIC, so the wire span is
            // emitted here (the NIC emits its own for inter-node sends).
            self.ranks[src]
                .tele
                .span(Lane::Nic, start, delivered, || Payload::WireTransfer {
                    bytes,
                });
            (delivered, delivered)
        } else {
            let nic = &mut self.nics[src_node as usize];
            let (_, delivered) = if gdr {
                nic.post_send_gdr(at, bytes)
            } else {
                nic.post_send(at, bytes)
            };
            // Initiator completion (CQE/ACK) one wire latency later.
            (delivered, delivered + nic.wire().latency)
        }
    }

    /// The single chokepoint for asynchronous wire traffic: transport the
    /// payload and schedule the arrival (and, when `complete` is set, the
    /// initiator-side CQE). The canonical keys for both events are drawn
    /// from the sender *before* any timing is computed, so the per-rank
    /// draw order is identical whether the transmit executes now
    /// (single-queue and flat-sharded runs) or is recorded as a
    /// [`super::PendingTransmit`] for the coordinator to apply at the
    /// window barrier (topology-sharded runs). Returns the
    /// `(delivered, completion)` times, or `None` when deferred.
    pub(crate) fn wire_transmit(
        &mut self,
        src: usize,
        at: Time,
        bytes: u64,
        gdr: bool,
        msg: WireMsg,
        complete: Option<SendId>,
    ) -> Option<(Time, Time)> {
        let deliver_key = self.next_key(src);
        let complete_key = complete.map(|sid| (sid, self.next_key(src)));
        if self.defer_transmits {
            let (t_e, k_e) = self.cur_event;
            let seq = self.pending_seq;
            self.pending_seq += 1;
            self.pending.push(super::PendingTransmit {
                t_e,
                k_e,
                seq,
                src,
                at,
                bytes,
                gdr,
                msg,
                deliver_key,
                complete: complete_key,
                dup: None,
            });
            return None;
        }
        let dst = msg.dst.0 as usize;
        let (delivered, completion) =
            self.transport_reliable(src, dst, at, bytes, gdr, deliver_key);
        self.push_deliver(delivered.max(self.events.now()), deliver_key, msg);
        if let Some((sid, key)) = complete_key {
            let rid = self.ranks[src].id;
            self.events.push_at_key(
                completion.max(self.events.now()),
                key,
                Event::SendComplete(rid, sid),
            );
        }
        Some((delivered, completion))
    }

    /// [`Cluster::transport`] behind the retry protocol.
    ///
    /// Under an armed fault plan the wire may drop, corrupt, or delay the
    /// payload, and the NIC may stall its completion. Every lost attempt
    /// occupies the wire for its full serialization time
    /// ([`fusedpack_net::Link::transmit_wasted`]); the sender detects the
    /// loss — retransmission timeout for a drop, receiver NACK one RTT
    /// after delivery for a corruption — backs off with deterministic
    /// jitter, and retransmits. The policy's attempt and deadline budgets
    /// bound the loop; once exhausted the transfer is forced through the
    /// reliable slow path (counted as `deadline_exceeded`), so a Waitall
    /// can never wedge on an unlucky seed.
    ///
    /// `event_key` is the transfer's pre-drawn Deliver key: unique per
    /// transfer and identical across shard counts, it keys both the backoff
    /// jitter and the fabric's per-hop draws, which is what lets the
    /// sharded loop replay deferred transmits at window barriers and still
    /// produce byte-identical chaos reports.
    pub(crate) fn transport_reliable(
        &mut self,
        src: usize,
        dst: usize,
        at: Time,
        bytes: u64,
        gdr: bool,
        event_key: u64,
    ) -> (Time, Time) {
        if self.faults.is_none() {
            return self.transport(src, dst, at, bytes, gdr, event_key);
        }
        let policy = self.retry;
        let jitter_seed = self.faults.as_ref().map_or(0, |p| p.seed());
        let deadline = at + policy.deadline;
        let mut now = at;
        let mut attempt: u32 = 1;
        loop {
            let site = if self.fault_fires(src, FaultSite::LinkDrop, now) {
                Some(FaultSite::LinkDrop)
            } else if self.fault_fires(src, FaultSite::LinkCorrupt, now) {
                Some(FaultSite::LinkCorrupt)
            } else {
                None
            };
            if let Some(site) = site {
                if attempt >= policy.max_attempts || now >= deadline {
                    // Budget exhausted: escalate to the reliable slow path —
                    // the payload still goes through below, but the failure
                    // is reported instead of retried.
                    self.fault_stats.deadline_exceeded += 1;
                } else {
                    let (wire_clear, rtt) = self.transport_wasted(src, dst, now, bytes, gdr);
                    let detected = if site == FaultSite::LinkCorrupt {
                        // Fully delivered, checksum-rejected, NACKed.
                        wire_clear + rtt
                    } else {
                        wire_clear + policy.detect_timeout
                    };
                    let backoff = policy.backoff_keyed(attempt, jitter_seed, event_key);
                    self.fault_retry(src, site, attempt, backoff, detected);
                    now = detected + backoff;
                    attempt += 1;
                    continue;
                }
            }
            let (mut delivered, mut completion) =
                self.transport(src, dst, now, bytes, gdr, event_key);
            if self.fault_fires(src, FaultSite::LinkDelay, now) {
                let spike = self.fault_spike(src, FaultSite::LinkDelay);
                self.fault_recovered(spike);
                delivered += spike;
                completion += spike;
            }
            let inter = self.endpoints[src].node != self.endpoints[dst].node;
            if inter && self.fault_fires(src, FaultSite::NicTimeout, now) {
                // CQE stalls: delivery is unaffected, the initiator's
                // completion arrives late.
                let spike = self.fault_spike(src, FaultSite::NicTimeout);
                self.fault_recovered(spike);
                completion += spike;
            }
            if attempt > 1 {
                self.fault_stats.added_latency += now.since(at);
            }
            return (delivered, completion);
        }
    }

    /// Occupy the wire (or every hop of the route) with a payload that is
    /// dropped mid-flight. Returns `(wire_clear, rtt)` — the inputs to the
    /// retry protocol's loss-detection timing.
    fn transport_wasted(
        &mut self,
        src: usize,
        dst: usize,
        now: Time,
        bytes: u64,
        gdr: bool,
    ) -> (Time, fusedpack_sim::Duration) {
        if self.topo.is_some() {
            if let Some(result) = self.transport_routed_wasted(src, dst, now, bytes, gdr) {
                return result;
            }
        }
        let (src_node, dst_node) = (self.endpoints[src].node, self.endpoints[dst].node);
        if src_node == dst_node {
            let link = self.intra_link(src_node, dst_node);
            let (start, clear) = link.transmit_wasted(now, bytes, None);
            let rtt = link.spec().rtt();
            self.ranks[src]
                .tele
                .span(Lane::Nic, start, clear, || Payload::WireTransfer { bytes });
            (clear, rtt)
        } else {
            let nic = &mut self.nics[src_node as usize];
            let (_, clear) = nic.post_send_wasted(now, bytes, gdr);
            (clear, nic.wire().rtt())
        }
    }

    /// Send a control packet (RTS/CTS); fire-and-forget.
    pub(crate) fn send_ctrl(&mut self, src: usize, dst: RankId, tag: u32, kind: WireKind) {
        let at = self.ranks[src].cpu;
        let phase = match &kind {
            WireKind::Rts { .. } => Some(RndvPhaseTag::Rts),
            WireKind::Cts { .. } => Some(RndvPhaseTag::Cts),
            WireKind::RdmaReadReq { .. } => Some(RndvPhaseTag::ReadReq),
            WireKind::Fin { .. } => Some(RndvPhaseTag::Fin),
            WireKind::Eager { .. } | WireKind::RdmaData { .. } => None,
        };
        if let Some(phase) = phase {
            self.ranks[src]
                .tele
                .instant(Lane::Host, at, || Payload::Rndv {
                    peer: dst.0,
                    tag,
                    phase,
                    bytes: CTRL_BYTES,
                });
        }
        let msg = WireMsg {
            src: self.ranks[src].id,
            dst,
            tag,
            kind,
            payload: Vec::new(),
        };
        self.wire_transmit(src, at, CTRL_BYTES, false, msg, None);
    }

    /// Read the packed payload bytes behind a staging location into a
    /// pooled buffer (recycled back into `buf_pool` once the payload is
    /// deposited at the receiver).
    pub(crate) fn read_staging(&self, r: usize, loc: StagingLoc) -> Vec<u8> {
        let src: &[u8] = match loc {
            StagingLoc::Gpu(p) => self.staging_mems[r].read(p),
            StagingLoc::Host(p) => self.host_mems[r].read(p),
            StagingLoc::UserGpu(p) => self.gpus[r].mem.read(p),
            StagingLoc::None => &[],
        };
        if src.is_empty() {
            return Vec::new(); // model-only mode / ctrl messages
        }
        let mut buf = self.buf_pool.take(src.len());
        buf.extend_from_slice(src);
        buf
    }

    /// Put a send's payload on the wire as soon as both its pack and its
    /// protocol prerequisites are met.
    pub(crate) fn try_issue(&mut self, r: usize, sid: SendId) {
        let rget = self.rndv == RndvProtocol::Rget;
        let (dst, tag, bytes, eager, staging, cts) = {
            let s = &self.ranks[r].sends[sid.0];
            let ready = if rget && !s.eager {
                // RGET needs only the pack; there is no CTS.
                s.lifecycle.is_unmatched() && s.lifecycle.pack() == PackState::Done
            } else {
                s.ready_to_issue()
            };
            if !ready {
                return;
            }
            (s.dst, s.tag, s.packed_bytes, s.eager, s.staging, s.cts)
        };
        self.ranks[r].sends[sid.0]
            .lifecycle
            .apply(LifecycleEvent::Issued);
        let payload = self.read_staging(r, staging);
        let gdr_src = matches!(staging, StagingLoc::Gpu(_) | StagingLoc::UserGpu(_));
        let at = self.ranks[r].cpu;
        let src_id = self.ranks[r].id;

        if !eager && self.rndv == RndvProtocol::Rget {
            // RGET: announce the packed buffer; the receiver pulls it.
            let send = &mut self.ranks[r].sends[sid.0];
            if !send.lifecycle.rts_sent() {
                send.lifecycle.apply(LifecycleEvent::RtsSent);
                let tag = send.tag;
                self.send_ctrl(
                    r,
                    dst,
                    tag,
                    WireKind::Rts {
                        send_id: sid,
                        packed_bytes: bytes,
                        ipc_origin: None,
                        rget: true,
                    },
                );
            }
            // Local completion arrives as a Fin once the read drains.
            return;
        }
        if eager {
            self.ranks[r]
                .tele
                .instant(Lane::Host, at, || Payload::EagerSend {
                    peer: dst.0,
                    tag,
                    bytes,
                });
            let msg = WireMsg {
                src: src_id,
                dst,
                tag,
                kind: WireKind::Eager {
                    send_id: sid,
                    packed_bytes: bytes,
                },
                payload,
            };
            self.wire_transmit(r, at, bytes + CTRL_BYTES, gdr_src, msg, None);
            // Eager sends complete locally once injected.
            self.ranks[r].sends[sid.0]
                .lifecycle
                .apply(LifecycleEvent::Completed);
            let now = self.ranks[r].cpu;
            self.check_unblock(r, now);
        } else {
            // `ready_to_issue` implies a CTS arrived; a fault-replayed
            // control message could get us here without one, in which case
            // the issue simply waits for the real CTS.
            let Some(cts) = cts else {
                debug_assert!(false, "rendezvous issue without CTS");
                self.fault_stats.spurious += 1;
                self.ranks[r].sends[sid.0]
                    .lifecycle
                    .apply(LifecycleEvent::IssueRetracted);
                self.buf_pool.put(payload);
                return;
            };
            let gdr = gdr_src || !cts.host_staging;
            self.ranks[r]
                .tele
                .instant(Lane::Host, at, || Payload::Rndv {
                    peer: dst.0,
                    tag,
                    phase: RndvPhaseTag::Data,
                    bytes,
                });
            let msg = WireMsg {
                src: src_id,
                dst,
                tag: 0,
                kind: WireKind::RdmaData {
                    send_id: sid,
                    recv_id: cts.recv_id,
                },
                payload,
            };
            let result = self.wire_transmit(r, at, bytes, gdr, msg, Some(sid));
            // The dup-CQE decision (and its event key) is drawn in program
            // order whether the transmit executed inline or was deferred to
            // a window barrier, so the rank's per-site stream and key
            // sequence stay aligned across shard counts. The NIC replays
            // the CQE; the progress engine's guard in `on_send_complete`
            // absorbs the duplicate.
            let dup = self
                .fault_fires(r, FaultSite::NicDupCompletion, at)
                .then(|| self.next_key(r));
            match (result, dup) {
                (Some((_, completion)), Some(key)) => {
                    let dup_at = completion + self.platform.progress_poll;
                    self.events.push_at_key(
                        dup_at.max(self.events.now()),
                        key,
                        Event::SendComplete(src_id, sid),
                    );
                }
                (None, Some(key)) => {
                    // Deferred: carry the pre-drawn key in the pending
                    // record; the coordinator schedules the duplicate once
                    // the real completion time is known.
                    self.pending
                        .last_mut()
                        .expect("deferred transmit just pushed")
                        .dup = Some(key);
                }
                _ => {}
            }
        }
    }

    /// A message arrived at its destination NIC.
    pub(crate) fn on_deliver(&mut self, msg: WireMsg, t: Time) {
        let r = msg.dst.0 as usize;
        let eff = self.eff_now(r, t);
        self.account_wait(r, eff);
        self.ranks[r].cpu = eff + self.platform.progress_poll;
        {
            let (peer, tag, bytes) = (msg.src.0, msg.tag, msg.payload.len() as u64);
            self.ranks[r]
                .tele
                .instant(Lane::Host, t, || Payload::Deliver { peer, tag, bytes });
        }

        match msg.kind {
            WireKind::Rts { .. } | WireKind::Eager { .. } => {
                let matched = self.ranks[r].recvs.iter().position(|op| {
                    op.lifecycle.is_unmatched() && op.src == msg.src && op.tag == msg.tag
                });
                match matched {
                    Some(idx) => {
                        let rid = RecvId(idx);
                        let now = self.ranks[r].cpu;
                        self.match_message(r, rid, msg, now);
                    }
                    None => self.ranks[r].unexpected.push(msg),
                }
            }
            WireKind::Cts {
                send_id,
                recv_id,
                staging_addr,
                host_staging,
            } => {
                // Guard: a replayed CTS for a send that is already issuing
                // (or for an epoch that ended) is dropped, not re-armed.
                let Some(send) = self.ranks[r].sends.get_mut(send_id.0) else {
                    self.fault_stats.spurious += 1;
                    return;
                };
                if send.cts.is_some() || send.lifecycle.is_done() {
                    self.fault_stats.spurious += 1;
                    return;
                }
                send.cts = Some(CtsInfo {
                    recv_id,
                    staging_addr,
                    host_staging,
                });
                self.try_issue(r, send_id);
            }
            WireKind::RdmaData { send_id, recv_id } => {
                // Guard: only a receive still awaiting its payload may
                // consume one; duplicates and stale deliveries recycle the
                // buffer and are counted.
                let live = self.ranks[r]
                    .recvs
                    .get(recv_id.0)
                    .is_some_and(|op| op.lifecycle.awaiting_data());
                if !live {
                    self.fault_stats.spurious += 1;
                    self.buf_pool.put(msg.payload);
                    return;
                }
                self.deposit_payload(r, recv_id, &msg.payload);
                self.buf_pool.put(msg.payload);
                self.ranks[r].recvs[recv_id.0]
                    .lifecycle
                    .apply(LifecycleEvent::DataArrived);
                if self.rndv == RndvProtocol::Rget {
                    // The sender's buffer has been drained by our read.
                    self.send_ctrl(r, msg.src, 0, WireKind::Fin { send_id });
                }
                self.begin_unpack(r, recv_id);
            }
            WireKind::RdmaReadReq { send_id, recv_id } => {
                // Served by the sender's NIC hardware: no CPU time charged
                // beyond the poll above; the payload flows back over this
                // node's wire.
                let Some(send) = self.ranks[r].sends.get(send_id.0) else {
                    self.fault_stats.spurious += 1;
                    return;
                };
                let (staging, bytes, dst) = (send.staging, send.packed_bytes, msg.src);
                let payload = self.read_staging(r, staging);
                let gdr = matches!(staging, StagingLoc::Gpu(_) | StagingLoc::UserGpu(_));
                let at = self.events.now();
                let src_id = self.ranks[r].id;
                let msg = WireMsg {
                    src: src_id,
                    dst,
                    tag: 0,
                    kind: WireKind::RdmaData { send_id, recv_id },
                    payload,
                };
                self.wire_transmit(r, at, bytes, gdr, msg, None);
            }
            WireKind::Fin { send_id } => {
                // Guard: a duplicated Fin (or one outliving its epoch) is
                // absorbed.
                match self.ranks[r].sends.get_mut(send_id.0) {
                    Some(s) if !s.lifecycle.is_done() => {
                        s.lifecycle.apply(LifecycleEvent::Completed);
                        let now = self.ranks[r].cpu;
                        self.check_unblock(r, now);
                    }
                    _ => self.fault_stats.spurious += 1,
                }
            }
        }
    }

    /// A matchable message met its posted receive.
    pub(crate) fn match_message(&mut self, r: usize, rid: RecvId, msg: WireMsg, now: Time) {
        self.ranks[r].cpu = self.ranks[r].cpu.max(now) + self.platform.mpi_call;
        match msg.kind {
            WireKind::Rts {
                send_id,
                ipc_origin: Some(origin),
                ..
            } => {
                // DirectIPC: no staging, no CTS, no wire payload — the
                // engine fuses a zero-copy load of the sender's buffer (or
                // degrades to a staged bounce if the handle won't map).
                let src = msg.src.0 as usize;
                self.ranks[r].recvs[rid.0]
                    .lifecycle
                    .apply(LifecycleEvent::DataArrived);
                self.ranks[r].recvs[rid.0].ipc_send_id = Some(send_id);
                let engine = self.engine.clone();
                engine.on_ipc_rts(&mut PathCtx { cl: self, r }, rid, src, origin);
            }
            WireKind::Rts { send_id, rget, .. } => {
                let (bytes, blocks) = {
                    let op = &self.ranks[r].recvs[rid.0];
                    (op.packed_bytes, op.blocks)
                };
                let staging = self.recv_staging_for(r, rid, bytes, blocks);
                let op = &mut self.ranks[r].recvs[rid.0];
                op.staging = staging;
                op.lifecycle.apply(LifecycleEvent::Matched);
                let src = msg.src;
                if rget {
                    // Pull the announced data with an RDMA READ.
                    self.send_ctrl(
                        r,
                        src,
                        0,
                        WireKind::RdmaReadReq {
                            send_id,
                            recv_id: rid,
                        },
                    );
                } else {
                    self.send_ctrl(
                        r,
                        src,
                        0,
                        WireKind::Cts {
                            send_id,
                            recv_id: rid,
                            staging_addr: staging.addr(),
                            host_staging: staging.is_host(),
                        },
                    );
                }
            }
            WireKind::Eager { .. } => {
                let (bytes, blocks) = {
                    let op = &self.ranks[r].recvs[rid.0];
                    (op.packed_bytes, op.blocks)
                };
                let staging = self.recv_staging_for(r, rid, bytes, blocks);
                self.ranks[r].recvs[rid.0].staging = staging;
                self.deposit_payload(r, rid, &msg.payload);
                self.buf_pool.put(msg.payload);
                self.ranks[r].recvs[rid.0]
                    .lifecycle
                    .apply(LifecycleEvent::DataArrived);
                self.begin_unpack(r, rid);
            }
            _ => unreachable!("only matchable kinds reach match_message"),
        }
    }

    /// Receive staging for one operation: contiguous layouts land straight
    /// in the user buffer (no unpack), everything else gets a staging
    /// buffer per the scheme's policy.
    fn recv_staging_for(&mut self, r: usize, rid: RecvId, bytes: u64, blocks: u64) -> StagingLoc {
        let op = &self.ranks[r].recvs[rid.0];
        if op.layout.is_contiguous_for(op.count) {
            return StagingLoc::UserGpu(fusedpack_gpu::DevPtr {
                addr: op.user_buf.addr,
                len: bytes,
            });
        }
        self.alloc_recv_staging(r, bytes, blocks)
    }

    /// Choose where the receiver stages the packed payload.
    fn alloc_recv_staging(&mut self, r: usize, bytes: u64, blocks: u64) -> StagingLoc {
        let engine = self.engine.clone();
        let host = engine.host_recv_staging(self, r, bytes, blocks);
        if host {
            StagingLoc::Host(self.host_mems[r].alloc(bytes.max(1), 64))
        } else {
            StagingLoc::Gpu(self.staging_mems[r].alloc(bytes.max(1), 64))
        }
    }

    /// Write an arrived payload into the receive staging buffer. A payload
    /// with no staging to land in (a spurious delivery replayed by a fault)
    /// is dropped and counted, not fatal.
    fn deposit_payload(&mut self, r: usize, rid: RecvId, payload: &[u8]) {
        if payload.is_empty() {
            return; // model-only mode
        }
        let op = &self.ranks[r].recvs[rid.0];
        match op.staging {
            StagingLoc::Gpu(p) => self.staging_mems[r].write(p, payload),
            StagingLoc::Host(p) => self.host_mems[r].write(p, payload),
            StagingLoc::UserGpu(p) => self.gpus[r].mem.write(p, payload),
            StagingLoc::None => self.fault_stats.spurious += 1,
        }
    }

    /// RDMA initiator completion: the send is done.
    pub(crate) fn on_send_complete(&mut self, r: usize, sid: SendId, t: Time) {
        let eff = self.eff_now(r, t);
        self.account_wait(r, eff);
        self.ranks[r].cpu = eff + self.platform.progress_poll;
        // Guard: a duplicated CQE — possibly landing after Waitall already
        // freed the epoch's requests — is absorbed, not double-applied.
        match self.ranks[r].sends.get_mut(sid.0) {
            Some(s) if !s.lifecycle.is_done() => s.lifecycle.apply(LifecycleEvent::Completed),
            _ => {
                self.fault_stats.spurious += 1;
                return;
            }
        }
        let now = self.ranks[r].cpu;
        self.check_unblock(r, now);
    }

    /// Allocate a sender-side staging buffer.
    pub(crate) fn alloc_send_staging(&mut self, r: usize, bytes: u64, host: bool) -> StagingLoc {
        if host {
            StagingLoc::Host(self.host_mems[r].alloc(bytes.max(1), 64))
        } else {
            StagingLoc::Gpu(self.staging_mems[r].alloc(bytes.max(1), 64))
        }
    }

    /// Apply a pack's data movement: gather the user buffer into the
    /// staging buffer.
    pub(crate) fn apply_pack_movement(&mut self, r: usize, sid: SendId) {
        let (layout, user_buf, count, bytes, staging) = {
            let s = &self.ranks[r].sends[sid.0];
            (
                s.layout.clone(),
                s.user_buf,
                s.count,
                s.packed_bytes,
                s.staging,
            )
        };
        let (dst, at) = match staging {
            StagingLoc::Gpu(p) => (&mut self.staging_mems[r], p),
            StagingLoc::Host(p) => (&mut self.host_mems[r], p),
            StagingLoc::UserGpu(_) => return, // contiguous: nothing to move
            StagingLoc::None => {
                // Unreachable by construction (begin_pack assigns staging
                // before any movement); under fault injection a stale
                // event is absorbed rather than aborting the exchange.
                debug_assert!(false, "pack movement without staging");
                self.fault_stats.spurious += 1;
                return;
            }
        };
        super::copy_elems(
            true,
            &layout,
            count,
            self.gpus[r].mem.read(user_buf),
            dst.read_mut(at.slice(0, bytes)),
        );
    }

    /// Apply an unpack's data movement: scatter staging into the user
    /// buffer.
    pub(crate) fn apply_unpack_movement(&mut self, r: usize, rid: RecvId) {
        let (layout, user_buf, count, bytes, staging) = {
            let op = &self.ranks[r].recvs[rid.0];
            (
                op.layout.clone(),
                op.user_buf,
                op.count,
                op.packed_bytes,
                op.staging,
            )
        };
        let (src, at) = match staging {
            StagingLoc::Gpu(p) => (&self.staging_mems[r], p),
            StagingLoc::Host(p) => (&self.host_mems[r], p),
            StagingLoc::UserGpu(_) => return, // contiguous: payload landed in place
            StagingLoc::None => {
                debug_assert!(false, "unpack movement without staging");
                self.fault_stats.spurious += 1;
                return;
            }
        };
        super::copy_elems(
            false,
            &layout,
            count,
            src.read(at.slice(0, bytes)),
            self.gpus[r].mem.read_mut(user_buf),
        );
    }
}
