//! Send/receive operation state.
//!
//! Each operation's protocol progress lives in a
//! [`RequestLifecycle`](crate::lifecycle::RequestLifecycle) — see that
//! module for the stage diagram. A send walks: pack initiated → (RTS out,
//! CTS in, pack complete) → payload issued → locally complete. A receive
//! walks: posted → matched/CTS sent → data arrived → unpack initiated →
//! complete. The *order* of the middle steps varies by scheme — the
//! proposed design's whole point is that the RTS/CTS handshake runs
//! concurrently with packing.

use fusedpack_core::Uid;
use fusedpack_datatype::Layout;
use fusedpack_gpu::DevPtr;
use std::sync::Arc;

use crate::cluster::RankId;
use crate::lifecycle::RequestLifecycle;

pub use crate::lifecycle::PackState;

/// Per-rank send-operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SendId(pub usize);

/// Per-rank receive-operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecvId(pub usize);

/// Where an operation stages its packed bytes. The bytes themselves
/// travel in the op's `packed` buffer (and the wire message between), so
/// the location only decides timing: which copy engine packs or unpacks,
/// and whether the NIC reads device memory over GPUDirect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StagingLoc {
    /// Not yet chosen.
    None,
    /// Device memory (kernel pack/unpack paths, fusion).
    Gpu,
    /// Host memory (hybrid CPU path, naive production libraries).
    Host,
    /// The user buffer itself, on the device: contiguous layouts need no
    /// packing and are sent/received in place.
    UserGpu,
}

impl StagingLoc {
    pub fn is_host(&self) -> bool {
        matches!(self, StagingLoc::Host)
    }

    /// Staged in a packed buffer the op owns (not in place, not unset).
    pub fn is_packed(&self) -> bool {
        matches!(self, StagingLoc::Gpu | StagingLoc::Host)
    }
}

/// CTS information remembered by the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtsInfo {
    pub recv_id: RecvId,
    pub host_staging: bool,
}

/// One in-flight send.
#[derive(Debug, Clone)]
pub struct SendOp {
    pub id: SendId,
    pub dst: RankId,
    pub tag: u32,
    pub user_buf: DevPtr,
    pub layout: Arc<Layout>,
    pub count: u64,
    pub packed_bytes: u64,
    pub blocks: u64,
    pub eager: bool,
    pub staging: StagingLoc,
    /// The packed payload, from the pack until `try_issue` (or an RGET
    /// read) moves it onto the wire. Empty in `ModelOnly` runs and for
    /// in-place sends.
    pub packed: Vec<u8>,
    /// Protocol + packing progress (replaces the old `pack`/`rts_sent`/
    /// `data_issued`/`completed` flag scatter).
    pub lifecycle: RequestLifecycle,
    pub cts: Option<CtsInfo>,
    pub fusion_uid: Option<Uid>,
}

/// One in-flight receive.
#[derive(Debug, Clone)]
pub struct RecvOp {
    pub id: RecvId,
    pub src: RankId,
    pub tag: u32,
    pub user_buf: DevPtr,
    pub layout: Arc<Layout>,
    pub count: u64,
    pub packed_bytes: u64,
    pub blocks: u64,
    pub staging: StagingLoc,
    /// The packed payload, from its arrival until the unpack scatters it
    /// and returns the buffer to the pool. Empty in `ModelOnly` runs and
    /// for in-place receives.
    pub packed: Vec<u8>,
    /// Protocol + unpacking progress (replaces the old `state`/`unpack`
    /// enum pair).
    pub lifecycle: RequestLifecycle,
    pub fusion_uid: Option<Uid>,
    /// Set when this receive is served by a fused DirectIPC request; the
    /// receiver must notify this send with a `Fin` on completion.
    pub ipc_send_id: Option<SendId>,
}

impl SendOp {
    /// Ready to put the payload on the wire?
    pub fn ready_to_issue(&self) -> bool {
        self.lifecycle.is_unmatched()
            && self.lifecycle.pack() == PackState::Done
            && (self.eager || self.cts.is_some())
    }
}

impl RecvOp {
    pub fn is_complete(&self) -> bool {
        self.lifecycle.is_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::LifecycleEvent;
    use fusedpack_datatype::TypeBuilder;

    fn send() -> SendOp {
        SendOp {
            id: SendId(0),
            dst: RankId(1),
            tag: 0,
            user_buf: DevPtr { addr: 0, len: 64 },
            layout: Arc::new(Layout::of(&TypeBuilder::int())),
            count: 1,
            packed_bytes: 4,
            blocks: 1,
            eager: false,
            staging: StagingLoc::None,
            packed: Vec::new(),
            lifecycle: RequestLifecycle::send(),
            cts: None,
            fusion_uid: None,
        }
    }

    #[test]
    fn rendezvous_needs_pack_and_cts() {
        let mut s = send();
        assert!(!s.ready_to_issue());
        s.lifecycle.apply(LifecycleEvent::PackFinished);
        assert!(!s.ready_to_issue(), "no CTS yet");
        s.cts = Some(CtsInfo {
            recv_id: RecvId(0),
            host_staging: false,
        });
        assert!(s.ready_to_issue());
        s.lifecycle.apply(LifecycleEvent::Issued);
        assert!(!s.ready_to_issue(), "never issue twice");
    }

    #[test]
    fn eager_needs_only_pack() {
        let mut s = send();
        s.eager = true;
        s.lifecycle.apply(LifecycleEvent::PackFinished);
        assert!(s.ready_to_issue());
    }

    #[test]
    fn staging_loc_accessors() {
        assert!(!StagingLoc::Gpu.is_host());
        assert!(StagingLoc::Gpu.is_packed());
        assert!(StagingLoc::Host.is_host());
        assert!(StagingLoc::Host.is_packed());
        assert!(!StagingLoc::UserGpu.is_packed());
        assert!(!StagingLoc::None.is_packed());
    }

    /// The packed buffer replaced the staging location's device pointer
    /// and the CTS's dead staging address: a `ModelOnly` op, whose buffer
    /// stays empty, must be no larger than before (136 and 128 bytes).
    #[test]
    fn ops_are_no_larger_than_with_pointer_staging() {
        assert!(std::mem::size_of::<SendOp>() <= 136);
        assert!(std::mem::size_of::<RecvOp>() <= 128);
    }
}
