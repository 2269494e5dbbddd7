//! The per-rank layout cache: one table of compiled layouts, LRU-bounded.
//!
//! Following the scheme of Chu et al. \[24\] (the paper's `data layout` field
//! in each fusion request is "the cached data layout entry"), committed
//! types are compiled once ([`CompiledLayout`]) and cached. Subsequent
//! commits of an identical type reuse the entry, and per-message
//! [`LayoutCache::acquire`] calls resolve a [`TypeHandle`] to its compiled
//! plan with a counter bump — the "hits amortize to near zero" regime
//! `reproduce serve` measures.
//!
//! Shape (one record per committed type, as in TEMPI):
//!
//! * **One table** — handles are issued densely from 0, so they index a
//!   `Vec` of slots. Each slot keeps the committed descriptor, the
//!   resident compiled layout (if any) and its LRU tick; `acquire` is an
//!   index plus an `Arc` clone, with no hashing.
//! * **Deduplicated by structure** — a `HashMap<TypeDesc, TypeHandle>`
//!   binds each distinct type to one handle. Keys are compared by
//!   structural equality, so two types never share a layout by accident.
//! * **Bounded with LRU eviction** — at most `capacity` compiled layouts
//!   stay resident; on overflow the least-recently-used *unpinned* slot
//!   other than the one just touched loses its layout. A layout whose
//!   `Arc` is still referenced outside the cache (an in-flight request
//!   holds it) is pinned and never evicted, so the bound is soft while
//!   everything is pinned.
//! * **Handles survive eviction** — the commit→handle binding is
//!   permanent, like an `MPI_Datatype`. Eviction drops only the compiled
//!   artifact; a later `acquire` or `commit` recompiles from the retained
//!   descriptor (counted as a miss).
//! * **Compiled once per cluster** — a miss takes its layout from a
//!   [`CompileMemo`], compiling only if no cache sharing the memo has
//!   compiled a structurally identical type before. A cluster hands one
//!   memo to every rank, so 512 ranks committing the same halo type pay
//!   one host compile, not 512. Virtual time and counters are untouched:
//!   each rank still counts the miss and charges the flatten cost, and
//!   wraps the layout in its own `Arc`, so pins stay per rank.
//! * **Telemetry** — hit/miss/eviction counters plus resident bytes and
//!   the residency high-water mark, surfaced as [`LayoutCacheStats`] in
//!   `RunReport` and as `Payload::LayoutCacheHealth` instants.
//!
//! The cache also carries the *cost model* for layout processing: schemes
//! that cache layouts (CPU-GPU-Hybrid, the proposed fusion design) pay the
//! flattening cost once per type; schemes without a cache (GPU-Sync,
//! GPU-Async — "Layout Cache: N" in Table I) re-parse the datatype on every
//! pack/unpack operation.

use crate::compile::CompiledLayout;
use crate::typedesc::TypeDesc;
use fusedpack_sim::Duration;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Handle to a committed datatype (the engine's `MPI_Datatype`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeHandle(pub u64);

/// Cache health counters. Merged across ranks into `RunReport::layout_cache`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayoutCacheStats {
    hits: u64,
    misses: u64,
    evictions: u64,
    resident_entries: u64,
    resident_bytes: u64,
    high_water_bytes: u64,
}

impl LayoutCacheStats {
    /// Resolutions served without compiling: commit hits plus acquires.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Compiles: first commits plus post-eviction recompiles.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Layouts dropped by the LRU bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Compiled layouts currently resident.
    pub fn resident_entries(&self) -> u64 {
        self.resident_entries
    }

    /// Bytes of compiled layout data currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Highest `resident_bytes` ever observed.
    pub fn high_water_bytes(&self) -> u64 {
        self.high_water_bytes
    }

    /// Fraction of resolutions served without compiling, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits, self.misses);
        if h + m == 0 {
            return 1.0;
        }
        h as f64 / (h + m) as f64
    }

    /// Merge another cache's stats into this one (e.g. across ranks):
    /// counters and residency gauges add, and summed high-waters are exact
    /// because per-rank residency is monotone while no eviction fires (the
    /// steady state of every real run).
    pub fn absorb(&mut self, other: &LayoutCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.resident_entries += other.resident_entries;
        self.resident_bytes += other.resident_bytes;
        self.high_water_bytes += other.high_water_bytes;
    }
}

/// CPU cost of flattening a type with `blocks` leaf blocks (first commit).
pub fn flatten_cost(blocks: u64) -> Duration {
    Duration::from_nanos(300 + 4 * blocks)
}

/// CPU cost of a cache lookup (hit path).
pub fn lookup_cost() -> Duration {
    Duration::from_nanos(80)
}

/// CPU cost for a cache-less scheme to parse a datatype's layout on every
/// operation (the specialized kernels of \[18\]–\[22\] walk the *tree* on the
/// host and expand blocks on the device, so the host cost grows with block
/// count only up to a cap).
pub fn parse_cost(blocks: u64) -> Duration {
    Duration::from_nanos((200 + blocks / 4).min(3_000))
}

/// Default bound on resident compiled layouts per rank. Real runs hold a
/// handful of types, so they never evict; tests shrink the bound with
/// [`LayoutCache::with_capacity`] to exercise the LRU.
pub const DEFAULT_CAPACITY: usize = 256;

/// Compiled layouts shared by every [`LayoutCache`] built on the same memo,
/// keyed by structural equality like the caches' own `by_desc`. Cloning the
/// memo shares it. The memo never evicts: it holds one copy of each
/// distinct type's tables for the host, while each cache models the
/// residency of its own rank's private copy.
#[derive(Debug, Clone, Default)]
pub struct CompileMemo(Arc<Mutex<HashMap<TypeDesc, CompiledLayout>>>);

impl CompileMemo {
    pub fn new() -> Self {
        Self::default()
    }

    /// The compiled layout of `desc`: a clone of the memoized one (its
    /// tables are shared, so this is two refcount bumps), compiling and
    /// memoizing it first if no sharer has. The lock is held across the
    /// compile so a type is compiled once however many threads ask; a
    /// panic on another thread leaves the map consistent, so a poisoned
    /// lock is simply taken over.
    pub fn compile(&self, desc: &TypeDesc) -> CompiledLayout {
        let mut memo = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        memo.entry(desc.clone())
            .or_insert_with(|| CompiledLayout::of(desc))
            .clone()
    }
}

/// One committed type: its descriptor, kept so an evicted layout can be
/// recompiled, and its compiled layout while resident.
#[derive(Debug)]
struct Slot {
    desc: TypeDesc,
    layout: Option<Arc<CompiledLayout>>,
    /// LRU tick of the most recent touch (globally unique, so eviction
    /// order is total and deterministic).
    last_use: u64,
}

/// The per-rank layout cache.
#[derive(Debug)]
pub struct LayoutCache {
    /// Indexed by `TypeHandle`.
    slots: Vec<Slot>,
    by_desc: HashMap<TypeDesc, TypeHandle>,
    capacity: usize,
    tick: u64,
    stats: LayoutCacheStats,
    /// Where misses get their layouts.
    memo: CompileMemo,
}

impl Default for LayoutCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl LayoutCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache holding at most `capacity` (at least 1) unpinned layouts,
    /// compiling into a private memo.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_memo(capacity, CompileMemo::new())
    }

    /// A cache holding at most `capacity` (at least 1) unpinned layouts
    /// whose misses share `memo` with every other cache built on it.
    pub fn with_memo(capacity: usize, memo: CompileMemo) -> Self {
        LayoutCache {
            slots: Vec::new(),
            by_desc: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            stats: LayoutCacheStats::default(),
            memo,
        }
    }

    /// Commit a type: bind it to a handle (the existing one for a
    /// structurally identical type) and return the handle plus the CPU
    /// cost incurred — a lookup if the layout was resident, a flatten if
    /// it had to be compiled.
    pub fn commit(&mut self, desc: &TypeDesc) -> (TypeHandle, Duration) {
        let next = TypeHandle(self.slots.len() as u64);
        let handle = *self.by_desc.entry(desc.clone()).or_insert(next);
        if handle == next {
            self.slots.push(Slot {
                desc: desc.clone(),
                layout: None,
                last_use: 0,
            });
        }
        let (layout, hit) = self.resolve(handle);
        let cost = if hit {
            lookup_cost()
        } else {
            flatten_cost(layout.num_blocks())
        };
        (handle, cost)
    }

    /// Resolve a handle to its compiled layout: the cost-free per-message
    /// path (schemes charge `lookup_cost` separately where the paper's
    /// model says so). Counts a hit; if the layout was evicted, recompiles
    /// it from the retained descriptor and counts a miss.
    ///
    /// Panics on a handle this cache never issued.
    pub fn acquire(&mut self, handle: TypeHandle) -> Arc<CompiledLayout> {
        self.resolve(handle).0
    }

    /// Look up a committed layout. Returns the layout and the lookup cost.
    pub fn get(&mut self, handle: TypeHandle) -> (Arc<CompiledLayout>, Duration) {
        (self.acquire(handle), lookup_cost())
    }

    /// Peek without counting or touching LRU state (for assertions and
    /// tests). `None` for unknown *or evicted* handles.
    pub fn peek(&self, handle: TypeHandle) -> Option<&Arc<CompiledLayout>> {
        self.slots.get(handle.0 as usize)?.layout.as_ref()
    }

    /// Health snapshot.
    pub fn layout_stats(&self) -> LayoutCacheStats {
        self.stats
    }

    /// Touch `handle`'s slot, compiling its layout if it is not resident,
    /// then enforce the bound — on hits too, so an overflow that pins
    /// forced is repaid once they are released. Returns the layout and
    /// whether it was a hit.
    fn resolve(&mut self, handle: TypeHandle) -> (Arc<CompiledLayout>, bool) {
        let i = handle.0 as usize;
        let slot = self
            .slots
            .get_mut(i)
            .unwrap_or_else(|| panic!("uncommitted datatype {handle:?}"));
        self.tick += 1;
        slot.last_use = self.tick;
        let stats = &mut self.stats;
        let (layout, hit) = match &slot.layout {
            Some(layout) => {
                stats.hits += 1;
                (Arc::clone(layout), true)
            }
            None => {
                let layout = Arc::new(self.memo.compile(&slot.desc));
                slot.layout = Some(Arc::clone(&layout));
                stats.misses += 1;
                stats.resident_entries += 1;
                stats.resident_bytes += layout.resident_bytes();
                stats.high_water_bytes = stats.high_water_bytes.max(stats.resident_bytes);
                (layout, false)
            }
        };
        if stats.resident_entries > self.capacity as u64 {
            self.evict_overflow(i);
        }
        (layout, hit)
    }

    /// LRU eviction down to the bound, skipping slot `keep` (the one just
    /// touched) and pinned layouts (an `Arc` held outside the cache means
    /// an in-flight request still uses it). If everything else is pinned
    /// the bound stays soft.
    fn evict_overflow(&mut self, keep: usize) {
        while self.stats.resident_entries > self.capacity as u64 {
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter(|(i, s)| {
                    *i != keep && s.layout.as_ref().is_some_and(|l| Arc::strong_count(l) == 1)
                })
                .min_by_key(|(_, s)| s.last_use)
                .map(|(i, _)| i);
            let Some(victim) = victim else { break };
            let evicted = self.slots[victim].layout.take().expect("victim resident");
            self.stats.evictions += 1;
            self.stats.resident_entries -= 1;
            self.stats.resident_bytes -= evicted.resident_bytes();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TypeBuilder;

    #[test]
    fn identical_types_share_an_entry() {
        let mut cache = LayoutCache::new();
        let a = TypeBuilder::vector(4, 2, 5, TypeBuilder::double());
        let b = TypeBuilder::vector(4, 2, 5, TypeBuilder::double());
        let (ha, cost_a) = cache.commit(&a);
        let (hb, cost_b) = cache.commit(&b);
        assert_eq!(ha, hb);
        assert!(cost_b < cost_a, "second commit is a cache hit");
        let stats = cache.layout_stats();
        assert_eq!(stats.resident_entries(), 1);
        assert_eq!(stats.hits(), 1);
        assert_eq!(stats.misses(), 1);
    }

    #[test]
    fn different_types_get_distinct_handles() {
        let mut cache = LayoutCache::new();
        let (ha, _) = cache.commit(&TypeBuilder::vector(4, 2, 5, TypeBuilder::double()));
        let (hb, _) = cache.commit(&TypeBuilder::vector(4, 2, 6, TypeBuilder::double()));
        assert_ne!(ha, hb);
        assert_eq!(cache.layout_stats().resident_entries(), 2);
    }

    #[test]
    fn get_returns_committed_layout() {
        let mut cache = LayoutCache::new();
        let t = TypeBuilder::indexed(&[(0, 2), (5, 3)], TypeBuilder::int());
        let (h, _) = cache.commit(&t);
        let (layout, cost) = cache.get(h);
        assert_eq!(layout.num_blocks(), 2);
        assert_eq!(cost, lookup_cost());
        assert_eq!(cache.layout_stats().hits(), 1, "a get counts as a hit");
    }

    #[test]
    #[should_panic(expected = "uncommitted datatype")]
    fn get_of_unknown_handle_panics() {
        LayoutCache::new().get(TypeHandle(999));
    }

    #[test]
    fn cost_model_ordering() {
        // Flattening a sparse type is much more expensive than a lookup,
        // and per-op parsing sits in between for big types.
        assert!(flatten_cost(4000) > parse_cost(4000));
        assert!(parse_cost(4000) > lookup_cost());
        assert!(flatten_cost(0) > lookup_cost());
    }

    fn distinct_type(i: u64) -> std::sync::Arc<TypeDesc> {
        TypeBuilder::vector(2, 1, 3 + i, TypeBuilder::double())
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = LayoutCache::with_capacity(2);
        let (h0, _) = cache.commit(&distinct_type(0));
        let (h1, _) = cache.commit(&distinct_type(1));
        // Touch h0 so h1 becomes the LRU victim.
        cache.acquire(h0);
        let (_h2, _) = cache.commit(&distinct_type(2));
        assert_eq!(cache.layout_stats().resident_entries(), 2);
        assert!(cache.peek(h0).is_some(), "recently used survives");
        assert!(cache.peek(h1).is_none(), "LRU entry evicted");
        assert_eq!(cache.layout_stats().evictions(), 1);
    }

    #[test]
    fn evicted_handle_recompiles_on_acquire() {
        let mut cache = LayoutCache::with_capacity(2);
        let (h0, _) = cache.commit(&distinct_type(0));
        let (_h1, _) = cache.commit(&distinct_type(1));
        let (_h2, _) = cache.commit(&distinct_type(2));
        assert!(cache.peek(h0).is_none(), "h0 was evicted");
        let layout = cache.acquire(h0);
        assert_eq!(layout.num_blocks(), 2);
        assert!(cache.peek(h0).is_some(), "recompile re-inserts");
        // The recompile shows up as a fourth miss.
        assert_eq!(cache.layout_stats().misses(), 4);
    }

    #[test]
    fn recommit_of_evicted_type_keeps_its_handle() {
        let mut cache = LayoutCache::with_capacity(1);
        let (h0, first) = cache.commit(&distinct_type(0));
        cache.commit(&distinct_type(1));
        assert!(cache.peek(h0).is_none(), "h0 was evicted");
        let (again, cost) = cache.commit(&distinct_type(0));
        assert_eq!(again, h0, "the binding is permanent");
        assert_eq!(cost, first, "a recompile pays the flatten cost again");
        assert_eq!(cache.layout_stats().misses(), 3);
        assert_eq!(cache.layout_stats().hits(), 0);
    }

    #[test]
    fn pinned_entries_are_never_evicted() {
        let mut cache = LayoutCache::with_capacity(2);
        let (h0, _) = cache.commit(&distinct_type(0));
        let (h1, _) = cache.commit(&distinct_type(1));
        let pin0 = cache.acquire(h0);
        let pin1 = cache.acquire(h1);
        // Both residents are pinned: inserting more may overflow the soft
        // bound but must not drop either pinned layout.
        let (h2, _) = cache.commit(&distinct_type(2));
        let (h3, _) = cache.commit(&distinct_type(3));
        assert!(cache.peek(h0).is_some());
        assert!(cache.peek(h1).is_some());
        assert!(cache.peek(h2).is_some() || cache.peek(h3).is_some());
        drop(pin0);
        drop(pin1);
        // With pins released, the next insert can evict again.
        let (_h4, _) = cache.commit(&distinct_type(4));
        assert!(cache.layout_stats().resident_entries() <= 3);
    }

    #[test]
    fn stats_track_residency_and_high_water() {
        let mut cache = LayoutCache::with_capacity(4);
        for i in 0..6 {
            cache.commit(&distinct_type(i));
        }
        let stats = cache.layout_stats();
        assert_eq!(stats.misses(), 6);
        assert_eq!(stats.evictions(), 2);
        assert_eq!(stats.resident_entries(), 4);
        assert!(stats.resident_bytes() > 0);
        // Every type here compiles to the same footprint, so residency
        // peaked at the bound plus the one insert that overflowed it.
        let per_entry = stats.resident_bytes() / 4;
        assert_eq!(stats.high_water_bytes(), 5 * per_entry);
    }

    #[test]
    fn acquire_counts_hits_for_hit_rate() {
        let mut cache = LayoutCache::new();
        let (h, _) = cache.commit(&distinct_type(0));
        for _ in 0..99 {
            cache.acquire(h);
        }
        let stats = cache.layout_stats();
        assert_eq!(stats.hits(), 99);
        assert_eq!(stats.misses(), 1);
        assert!((stats.hit_rate() - 0.99).abs() < 1e-9);
    }

    #[test]
    fn stats_absorb_merges_across_caches() {
        let mut a = LayoutCache::new();
        let mut b = LayoutCache::new();
        a.commit(&distinct_type(0));
        b.commit(&distinct_type(0));
        b.commit(&distinct_type(1));
        let mut merged = a.layout_stats();
        merged.absorb(&b.layout_stats());
        assert_eq!(merged.misses(), 3);
        assert_eq!(merged.resident_entries(), 3);
        assert_eq!(
            merged.high_water_bytes(),
            a.layout_stats().high_water_bytes() + b.layout_stats().high_water_bytes()
        );
    }

    #[test]
    fn sharing_caches_compile_once_and_keep_their_own_arcs() {
        let memo = CompileMemo::new();
        let mut a = LayoutCache::with_memo(DEFAULT_CAPACITY, memo.clone());
        let mut b = LayoutCache::with_memo(DEFAULT_CAPACITY, memo);
        let (ha, cost_a) = a.commit(&distinct_type(0));
        let (hb, cost_b) = b.commit(&distinct_type(0));
        assert_eq!(cost_a, cost_b, "every rank charges its own flatten");
        assert_eq!(a.layout_stats(), b.layout_stats());
        let (la, lb) = (a.acquire(ha), b.acquire(hb));
        assert!(!Arc::ptr_eq(&la, &lb), "pins stay per rank");
        assert_eq!(la.segments().as_ptr(), lb.segments().as_ptr());
    }
}
