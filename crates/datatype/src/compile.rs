//! The layout compile pass: lower a normalized [`LayoutIr`] once into a
//! [`CompiledLayout`] — segments, packed-offset prefix sums, a
//! contiguity/uniformity *classification*, and a precomputed copy plan.
//!
//! This is stage 2 of the datatype pipeline (`TypeDesc` → [`LayoutIr`] →
//! `CompiledLayout`). Everything downstream — the copy executor in
//! [`crate::pack`], the scheduler's shape accounting — consumes the
//! compiled form instead of re-deriving structure per call site:
//! resolving the copy tier for a message is one
//! [`CompiledLayout::plan_for`] call (a classification match plus one
//! multiply), not a fresh scan of the segment table.
//!
//! Classification ladder, fastest first:
//!
//! * [`LayoutClass::Contiguous`] — one gapless run at offset 0; `count`
//!   elements are a single `memcpy` when the extent tiles gaplessly.
//! * [`LayoutClass::BlockUniform`] — equal-length runs at a constant
//!   stride with *large* runs (> [`FIXED_RUN_WIDTH_MAX`] bytes): a
//!   fixed-stride loop of chunked inner copies (SIMD-friendly, no
//!   per-run table walk).
//! * [`LayoutClass::FixedRuns`] — equal-length *small* runs at a
//!   constant stride: const-generic fixed-width moves (the PR-7 tier).
//! * [`LayoutClass::Generic`] — irregular; the segment-table walk with
//!   precomputed prefix sums.

use crate::flatten::emit_ir_segments;
use crate::ir::LayoutIr;
use crate::layout::{Segment, UniformPlan};
use crate::typedesc::TypeDesc;

/// Run width (bytes) at or below which a uniform layout uses the
/// const-generic fixed-width tier; above it, the chunked block tier.
pub const FIXED_RUN_WIDTH_MAX: u64 = 32;

/// Commit-time classification of one element's memory shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutClass {
    /// One gapless run starting at offset 0.
    Contiguous,
    /// Equal-length runs at constant stride, runs longer than
    /// [`FIXED_RUN_WIDTH_MAX`] bytes.
    BlockUniform,
    /// Equal-length runs at constant stride, runs at most
    /// [`FIXED_RUN_WIDTH_MAX`] bytes.
    FixedRuns,
    /// Irregular: generic segment walk.
    Generic,
}

impl LayoutClass {
    /// Number of classes in the ladder (sizes per-class counter arrays).
    pub const COUNT: usize = 4;

    /// Stable lowercase name (telemetry / report labels).
    pub fn name(self) -> &'static str {
        match self {
            LayoutClass::Contiguous => "contiguous",
            LayoutClass::BlockUniform => "block_uniform",
            LayoutClass::FixedRuns => "fixed_runs",
            LayoutClass::Generic => "generic",
        }
    }

    /// Dense index in ladder order (for `[u64; LayoutClass::COUNT]`
    /// counter arrays).
    pub fn index(self) -> usize {
        match self {
            LayoutClass::Contiguous => 0,
            LayoutClass::BlockUniform => 1,
            LayoutClass::FixedRuns => 2,
            LayoutClass::Generic => 3,
        }
    }
}

/// The resolved copy plan for `count` elements of a compiled layout —
/// what a pack/unpack engine executes, precomputed so call sites never
/// re-detect structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyPlan {
    /// One `memcpy` of `bytes`.
    Memcpy { bytes: u64 },
    /// Fixed-stride loop with chunked inner copies (runs >
    /// [`FIXED_RUN_WIDTH_MAX`] bytes).
    BlockUniform(UniformPlan),
    /// Fixed-stride loop of const-generic fixed-width moves.
    FixedRuns(UniformPlan),
    /// Generic segment-table walk.
    Generic,
}

impl CopyPlan {
    /// The ladder rung this plan executes. Unlike
    /// [`CompiledLayout::class`] (per-element classification), this
    /// reflects the count-resolved plan — e.g. a vector that tiles
    /// gaplessly is `Contiguous` here for any count.
    pub fn class(&self) -> LayoutClass {
        match self {
            CopyPlan::Memcpy { .. } => LayoutClass::Contiguous,
            CopyPlan::BlockUniform(_) => LayoutClass::BlockUniform,
            CopyPlan::FixedRuns(_) => LayoutClass::FixedRuns,
            CopyPlan::Generic => LayoutClass::Generic,
        }
    }
}

/// The compiled, committed form of a datatype: what the layout cache
/// stores and every fusion request references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledLayout {
    /// Segments of one element, in pack (traversal) order.
    segments: Vec<Segment>,
    /// Prefix sums of segment lengths: `packed_off[j]` is the byte offset
    /// of segment `j` within the *packed* image of one element. Computed
    /// once at compile time so pack/unpack loops don't re-derive running
    /// cursors (and can jump straight to any segment).
    packed_off: Vec<u64>,
    /// Payload bytes per element.
    size: u64,
    /// Extent (tiling stride) per element.
    extent: u64,
    /// Fixed-stride classification, computed once at compile time: `Some`
    /// when every segment has the same length and consecutive segments sit
    /// a constant stride apart (vectors, subarray rows, regular indexed
    /// types).
    uniform: Option<UniformInfo>,
    /// The class this element's shape falls into.
    class: LayoutClass,
}

/// Compile-time fixed-stride classification of one element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct UniformInfo {
    /// Offset of the first run within the element.
    first: u64,
    /// Distance between consecutive run starts (≥ `len`, so runs never
    /// overlap).
    stride: u64,
    /// Bytes per run.
    len: u64,
    /// Runs per element.
    per_elem: u64,
    /// Whether the stride arithmetic continues across extent-tiled
    /// elements (`extent == per_elem * stride`); when false the plan is
    /// only valid for a single element.
    tiles: bool,
}

fn classify_uniform(segments: &[Segment], extent: u64) -> Option<UniformInfo> {
    let first = *segments.first()?;
    if first.len == 0 {
        return None;
    }
    let per_elem = segments.len() as u64;
    let stride = if per_elem == 1 {
        extent
    } else {
        segments[1].offset.checked_sub(segments[0].offset)?
    };
    if stride < first.len {
        return None;
    }
    for (j, s) in segments.iter().enumerate() {
        if s.len != first.len || s.offset != first.offset + j as u64 * stride {
            return None;
        }
    }
    Some(UniformInfo {
        first: first.offset,
        stride,
        len: first.len,
        per_elem,
        tiles: extent == per_elem * stride,
    })
}

fn prefix_sums(segments: &[Segment]) -> Vec<u64> {
    let mut off = 0u64;
    segments
        .iter()
        .map(|s| {
            let here = off;
            off += s.len;
            here
        })
        .collect()
}

fn classify(segments: &[Segment], size: u64, uniform: &Option<UniformInfo>) -> LayoutClass {
    let contiguous =
        segments.len() == 1 && segments[0].offset == 0 && segments[0].len == size && size > 0;
    if contiguous {
        LayoutClass::Contiguous
    } else {
        match uniform {
            Some(u) if u.len > FIXED_RUN_WIDTH_MAX => LayoutClass::BlockUniform,
            Some(_) => LayoutClass::FixedRuns,
            None => LayoutClass::Generic,
        }
    }
}

/// Lower a normalized IR into its compiled form.
pub fn compile(ir: &LayoutIr) -> CompiledLayout {
    let segments = emit_ir_segments(ir);
    CompiledLayout::from_parts(segments, ir.extent())
}

impl CompiledLayout {
    /// Normalize, then compile, one element of `desc`.
    pub fn of(desc: &TypeDesc) -> CompiledLayout {
        let layout = compile(&LayoutIr::normalize(desc));
        debug_assert_eq!(layout.size, desc.size(), "lowering lost bytes");
        layout
    }

    /// Build directly from segments (used by tests and synthetic layouts).
    pub fn from_segments(segments: Vec<Segment>, extent: u64) -> CompiledLayout {
        Self::from_parts(segments, extent)
    }

    fn from_parts(segments: Vec<Segment>, extent: u64) -> CompiledLayout {
        let size = segments.iter().map(|s| s.len).sum();
        let uniform = classify_uniform(&segments, extent);
        let class = classify(&segments, size, &uniform);
        CompiledLayout {
            packed_off: prefix_sums(&segments),
            uniform,
            class,
            segments,
            size,
            extent,
        }
    }

    /// Segments of one element.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Packed-image byte offset of each segment within one element
    /// (prefix sums of segment lengths), parallel to [`Self::segments`].
    pub fn packed_offsets(&self) -> &[u64] {
        &self.packed_off
    }

    /// Contiguous blocks per element.
    pub fn num_blocks(&self) -> u64 {
        self.segments.len() as u64
    }

    /// Payload bytes per element.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Extent per element.
    pub fn extent(&self) -> u64 {
        self.extent
    }

    /// The compile-time class of one element's shape.
    pub fn class(&self) -> LayoutClass {
        self.class
    }

    /// Approximate bytes this compiled layout keeps resident (cache
    /// accounting). Deterministic: derived from lengths, not capacities.
    pub fn resident_bytes(&self) -> u64 {
        (std::mem::size_of::<CompiledLayout>()
            + self.segments.len() * std::mem::size_of::<Segment>()
            + self.packed_off.len() * std::mem::size_of::<u64>()) as u64
    }

    /// Resolve the copy plan for `count` elements: the single dispatch
    /// point every pack/unpack site consumes instead of re-probing
    /// contiguity and stride structure per call.
    pub fn plan_for(&self, count: u64) -> CopyPlan {
        if self.is_contiguous_for(count) {
            return CopyPlan::Memcpy {
                bytes: self.total_bytes(count),
            };
        }
        match self.uniform_for(count) {
            Some(p) if p.len > FIXED_RUN_WIDTH_MAX => CopyPlan::BlockUniform(p),
            Some(p) => CopyPlan::FixedRuns(p),
            None => CopyPlan::Generic,
        }
    }

    /// Resolve the fixed-stride copy plan for `count` elements, if this
    /// layout has one: all runs equal-length, constant stride, and (for
    /// `count > 1`) the stride arithmetic continuing seamlessly across
    /// extent-tiled elements. Returns `None` for irregular layouts, which
    /// must take the generic segment walk.
    ///
    /// Classification happens once at compile time; this call is a copy of
    /// four words plus one multiply.
    pub fn uniform_for(&self, count: u64) -> Option<UniformPlan> {
        let u = self.uniform.as_ref()?;
        if count > 1 && !u.tiles {
            return None;
        }
        Some(UniformPlan {
            first: u.first,
            stride: u.stride,
            len: u.len,
            runs: u.per_elem * count,
        })
    }

    /// Is one element a single contiguous run starting at offset 0?
    pub fn is_contiguous(&self) -> bool {
        self.class == LayoutClass::Contiguous
    }

    /// Are `count` elements one single contiguous run? Requires each
    /// element to be contiguous *and* elements to tile without gaps
    /// (extent == size) when there is more than one.
    pub fn is_contiguous_for(&self, count: u64) -> bool {
        self.is_contiguous() && (count <= 1 || self.extent == self.size)
    }

    /// Total payload bytes for `count` elements.
    pub fn total_bytes(&self, count: u64) -> u64 {
        self.size * count
    }

    /// Total contiguous blocks for `count` elements (no cross-element
    /// coalescing — elements are extent-tiled, matching what a real packing
    /// kernel sees).
    pub fn total_blocks(&self, count: u64) -> u64 {
        self.num_blocks() * count
    }

    /// Shape summary `(total_bytes, total_blocks)` for `count` elements, in
    /// the form the GPU kernel cost model consumes.
    pub fn shape(&self, count: u64) -> (u64, u64) {
        (self.total_bytes(count), self.total_blocks(count))
    }

    /// Absolute `(address, len)` segments for `count` elements based at
    /// `base`, in pack order.
    pub fn absolute_segments(&self, base: u64, count: u64) -> Vec<(u64, u64)> {
        self.abs_segments(base, count).collect()
    }

    /// Iterator form of [`Self::absolute_segments`]: yields the same
    /// `(address, len)` plan in the same order without materialising a
    /// `Vec`.
    pub fn abs_segments(&self, base: u64, count: u64) -> AbsSegments<'_> {
        AbsSegments {
            layout: self,
            base,
            count,
            elem: 0,
            seg: 0,
        }
    }

    /// The footprint in bytes that `count` elements occupy in memory
    /// (`(count-1)*extent + last element's reach`).
    pub fn footprint(&self, count: u64) -> u64 {
        if count == 0 {
            return 0;
        }
        let reach = self
            .segments
            .iter()
            .map(|s| s.offset + s.len)
            .max()
            .unwrap_or(0);
        (count - 1) * self.extent + reach.max(self.extent)
    }
}

/// Borrowing iterator over the absolute `(address, len)` gather/scatter
/// plan of `count` extent-tiled elements. See [`CompiledLayout::abs_segments`].
#[derive(Debug, Clone)]
pub struct AbsSegments<'a> {
    layout: &'a CompiledLayout,
    base: u64,
    count: u64,
    elem: u64,
    seg: usize,
}

impl Iterator for AbsSegments<'_> {
    type Item = (u64, u64);

    #[inline]
    fn next(&mut self) -> Option<(u64, u64)> {
        if self.elem >= self.count || self.layout.segments.is_empty() {
            return None;
        }
        let s = self.layout.segments[self.seg];
        let addr = self.base + self.elem * self.layout.extent + s.offset;
        self.seg += 1;
        if self.seg == self.layout.segments.len() {
            self.seg = 0;
            self.elem += 1;
        }
        Some((addr, s.len))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let per_elem = self.layout.segments.len();
        let done = self.elem as usize * per_elem + self.seg;
        let total = self.count as usize * per_elem;
        let left = total - done;
        (left, Some(left))
    }
}

impl ExactSizeIterator for AbsSegments<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TypeBuilder;

    #[test]
    fn classes_cover_the_ladder() {
        // Contiguous: one gapless run.
        let c = CompiledLayout::of(&TypeBuilder::contiguous(16, TypeBuilder::double()));
        assert_eq!(c.class(), LayoutClass::Contiguous);

        // FixedRuns: small runs (8B) at constant stride.
        let f = CompiledLayout::of(&TypeBuilder::vector(4, 1, 3, TypeBuilder::double()));
        assert_eq!(f.class(), LayoutClass::FixedRuns);

        // BlockUniform: large runs (96B) at constant stride.
        let b = CompiledLayout::of(&TypeBuilder::vector(8, 12, 20, TypeBuilder::double()));
        assert_eq!(b.class(), LayoutClass::BlockUniform);

        // Generic: unequal run lengths.
        let g = CompiledLayout::of(&TypeBuilder::indexed(
            &[(0, 1), (4, 2), (9, 1)],
            TypeBuilder::float(),
        ));
        assert_eq!(g.class(), LayoutClass::Generic);
    }

    #[test]
    fn plan_for_follows_the_class() {
        let c = CompiledLayout::of(&TypeBuilder::contiguous(16, TypeBuilder::double()));
        assert_eq!(c.plan_for(4), CopyPlan::Memcpy { bytes: 512 });

        let col = CompiledLayout::of(&TypeBuilder::subarray(
            &[3, 3],
            &[3, 1],
            &[0, 0],
            TypeBuilder::int(),
        ));
        match col.plan_for(2) {
            CopyPlan::FixedRuns(p) => {
                assert_eq!((p.first, p.stride, p.len, p.runs), (0, 12, 4, 6));
            }
            other => panic!("expected FixedRuns, got {other:?}"),
        }

        let wide = CompiledLayout::of(&TypeBuilder::vector(4, 8, 16, TypeBuilder::double()));
        match wide.plan_for(1) {
            CopyPlan::BlockUniform(p) => {
                assert_eq!((p.first, p.stride, p.len, p.runs), (0, 128, 64, 4));
            }
            other => panic!("expected BlockUniform, got {other:?}"),
        }

        let irr = CompiledLayout::of(&TypeBuilder::indexed(
            &[(0, 1), (4, 2), (9, 1)],
            TypeBuilder::float(),
        ));
        assert_eq!(irr.plan_for(1), CopyPlan::Generic);
    }

    #[test]
    fn vector_that_does_not_tile_degrades_to_generic_for_many() {
        // vector(3,2,4,int): uniform per element but extent breaks tiling.
        let v = CompiledLayout::of(&TypeBuilder::vector(3, 2, 4, TypeBuilder::int()));
        assert_eq!(v.class(), LayoutClass::FixedRuns);
        assert!(matches!(v.plan_for(1), CopyPlan::FixedRuns(_)));
        assert_eq!(v.plan_for(2), CopyPlan::Generic);
    }

    #[test]
    fn block_uniform_boundary_is_fixed_run_width_max() {
        // Runs of exactly 32B stay in the fixed tier; 40B graduate.
        let at = CompiledLayout::of(&TypeBuilder::vector(4, 4, 8, TypeBuilder::double()));
        assert_eq!(at.class(), LayoutClass::FixedRuns);
        let over = CompiledLayout::of(&TypeBuilder::vector(4, 5, 8, TypeBuilder::double()));
        assert_eq!(over.class(), LayoutClass::BlockUniform);
    }

    #[test]
    fn resident_bytes_scales_with_segments() {
        let small = CompiledLayout::of(&TypeBuilder::double());
        let big = CompiledLayout::of(&TypeBuilder::indexed(
            &[(0, 1), (3, 1), (7, 1), (12, 1), (18, 1)],
            TypeBuilder::float(),
        ));
        assert!(big.resident_bytes() > small.resident_bytes());
    }

    #[test]
    fn class_names_are_stable() {
        assert_eq!(LayoutClass::Contiguous.name(), "contiguous");
        assert_eq!(LayoutClass::BlockUniform.name(), "block_uniform");
        assert_eq!(LayoutClass::FixedRuns.name(), "fixed_runs");
        assert_eq!(LayoutClass::Generic.name(), "generic");
    }
}
