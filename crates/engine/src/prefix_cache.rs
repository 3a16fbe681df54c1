//! Refcounted radix tree over resident KV blocks (vLLM-style automatic
//! prefix caching).
//!
//! Requests are admitted with an explicit *prefix signature*: one `u64` per
//! full KV block of the prompt, identifying that block's token contents
//! (template blocks hash the template id, session blocks hash the session
//! id — see `workloads::session`). The tree maps signature paths to
//! resident blocks:
//!
//! * **Matching** is block-aligned: a request reuses the longest contiguous
//!   path of already-resident blocks from the root. Matched blocks skip
//!   prefill entirely — the stepper charges latency/energy only for the
//!   un-cached suffix.
//! * **Sharing** is refcounted: every live request pins its whole matched +
//!   inserted path (one refcount per batched sequence). Pinned blocks can
//!   never be evicted, and a parent's refcount always dominates its
//!   children's, so a zero-ref node implies a fully unpinned subtree.
//! * **Copy-on-write at the divergence block:** only *full* prompt blocks
//!   enter the tree. The first block where a request diverges from the
//!   cached path — including the partial last block of every prompt — is
//!   allocated privately through [`KvCacheManager::allocate`], so writers
//!   never mutate shared state; they copy into their own tail.
//! * **Eviction** is LRU over zero-ref leaves. Evicting a leaf may expose
//!   its parent as a new zero-ref leaf, so cascaded eviction can reclaim an
//!   entire cold path, deepest block first.
//!
//! Tree-resident blocks are charged against the paged allocator exactly
//! once via `KvCacheManager::reserve_blocks`, regardless of how many
//! sequences pin them; the allocator's free-space arithmetic therefore
//! already reflects sharing, and "effective free" space for admission is
//! `free_blocks + evictable_blocks`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::kv_cache::KvCacheManager;

/// Sentinel parent index for top-level (root-child) nodes.
const NIL: u32 = u32::MAX;

/// One resident KV block in the radix tree.
#[derive(Debug, Clone)]
struct Node {
    /// Block signature (one step of the request's prefix signature).
    sig: u64,
    /// Parent node index, or [`NIL`] for top-level blocks.
    parent: u32,
    /// Children sorted by signature for deterministic binary-search walks.
    children: Vec<(u64, u32)>,
    /// Live pins: one per batched sequence of each request holding the path.
    refs: u32,
    /// Logical LRU stamp — bumped when the node is created and when the
    /// last pin on its path is released.
    last_use: u64,
    /// Slot generation, bumped on free so stale heap entries and handles
    /// never resolve to a recycled slot.
    gen: u32,
    /// Whether the slot currently holds a resident block.
    live: bool,
}

/// Handle to a pinned path, returned by [`PrefixCache::acquire`] and
/// consumed by [`PrefixCache::release`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixHandle {
    deepest: u32,
    gen: u32,
}

/// Outcome of [`PrefixCache::acquire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acquired {
    /// Blocks that were already resident — their prefill is skipped.
    pub hit_blocks: usize,
    /// Total blocks pinned for this request (hits plus freshly inserted
    /// blocks); the request's shared context in block units.
    pub resident_blocks: usize,
    /// Pinned-path handle, `None` when nothing could be pinned.
    pub handle: Option<PrefixHandle>,
}

/// Monotonic counters describing cache behaviour over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixCacheStats {
    /// Number of [`PrefixCache::acquire`] calls.
    pub lookups: u64,
    /// Blocks served from the tree (prefill skipped).
    pub hit_blocks: u64,
    /// Blocks requested but not resident at lookup time.
    pub miss_blocks: u64,
    /// Blocks newly inserted into the tree.
    pub inserted_blocks: u64,
    /// Blocks evicted (LRU zero-ref leaves).
    pub evicted_blocks: u64,
}

/// Refcounted radix/prefix tree of resident KV blocks. See the module docs
/// for matching, refcount, copy-on-write and eviction rules.
#[derive(Debug, Clone, Default)]
pub struct PrefixCache {
    nodes: Vec<Node>,
    /// Top-level children (first blocks of every cached prefix), sorted.
    roots: Vec<(u64, u32)>,
    free_list: Vec<u32>,
    /// Logical clock for LRU stamps.
    tick: u64,
    /// Live tree blocks (each holds one reserved KV block).
    resident: u64,
    /// Live tree blocks with `refs == 0` (reclaimable via cascaded leaf
    /// eviction — the refcount dominance invariant makes the two equal).
    unpinned: u64,
    /// Sum of `refs` over live nodes; drains to zero when no request holds
    /// a path (the conservation property tests pin this).
    total_refs: u64,
    /// Lazy min-heap of `(last_use, idx, gen)` eviction candidates; entries
    /// are validated on pop, so stale stamps are simply discarded.
    heap: BinaryHeap<Reverse<(u64, u32, u32)>>,
    stats: PrefixCacheStats,
}

impl PrefixCache {
    /// Creates an empty tree.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Blocks currently resident in the tree.
    #[must_use]
    pub fn resident_blocks(&self) -> u64 {
        self.resident
    }

    /// Blocks that could be reclaimed right now by evicting zero-ref
    /// paths — the admission headroom on top of the allocator's free space.
    #[must_use]
    pub fn evictable_blocks(&self) -> u64 {
        self.unpinned
    }

    /// Outstanding pins across all live nodes (zero once every admitted
    /// request has retired, cancelled or failed).
    #[must_use]
    pub fn outstanding_pins(&self) -> u64 {
        self.total_refs
    }

    /// Cache behaviour counters.
    #[must_use]
    pub fn stats(&self) -> PrefixCacheStats {
        self.stats
    }

    /// Length of the longest resident prefix of `sigs`, in blocks. Read
    /// only: no pins are taken and no LRU stamps move, so router peeks
    /// cannot perturb eviction order.
    #[must_use]
    pub fn match_blocks(&self, sigs: &[u64]) -> usize {
        let mut matched = 0;
        let mut children: &[(u64, u32)] = &self.roots;
        for &sig in sigs {
            match children.binary_search_by_key(&sig, |&(s, _)| s) {
                Ok(pos) => {
                    let idx = children[pos].1;
                    matched += 1;
                    children = &self.nodes[idx as usize].children;
                }
                Err(_) => break,
            }
        }
        matched
    }

    /// Pins the longest resident prefix of `sigs` (with `count` refs per
    /// block, one per batched sequence) and then extends the path with the
    /// remaining signatures, reserving one KV block per new node through
    /// `kv` and evicting cold paths on demand. Insertion stops early — and
    /// the acquired path stays shorter — if no block can be freed.
    ///
    /// With `count == 0` nothing could hold the path, so the call is read
    /// only, like [`Self::match_blocks`]: it pins, inserts and evicts
    /// nothing, moves no counter, and returns the resident prefix length
    /// with no handle.
    pub fn acquire(&mut self, kv: &mut KvCacheManager, sigs: &[u64], count: u32) -> Acquired {
        if count == 0 {
            let hit = self.match_blocks(sigs);
            return Acquired {
                hit_blocks: hit,
                resident_blocks: hit,
                handle: None,
            };
        }
        self.stats.lookups += 1;
        // Walk and pin the resident prefix.
        let mut deepest = NIL;
        let mut hit = 0;
        loop {
            let children = if deepest == NIL {
                &self.roots
            } else {
                &self.nodes[deepest as usize].children
            };
            let Some(&sig) = sigs.get(hit) else { break };
            match children.binary_search_by_key(&sig, |&(s, _)| s) {
                Ok(pos) => {
                    deepest = children[pos].1;
                    hit += 1;
                    self.pin(deepest, count);
                }
                Err(_) => break,
            }
        }
        self.stats.hit_blocks += hit as u64;
        self.stats.miss_blocks += (sigs.len() - hit) as u64;
        // Extend with the un-cached remainder while blocks can be reserved.
        let mut inserted = 0;
        for &sig in &sigs[hit..] {
            if !kv.reserve_blocks(1) && (self.evict(kv, 1) == 0 || !kv.reserve_blocks(1)) {
                break;
            }
            deepest = self.insert_child(deepest, sig, count);
            inserted += 1;
        }
        self.stats.inserted_blocks += inserted as u64;
        let resident_blocks = hit + inserted;
        Acquired {
            hit_blocks: hit,
            resident_blocks,
            handle: (resident_blocks > 0).then(|| PrefixHandle {
                deepest,
                gen: self.nodes[deepest as usize].gen,
            }),
        }
    }

    /// Releases `count` pins from every block on the handle's path. Newly
    /// zero-ref leaves become LRU eviction candidates stamped with the
    /// release time.
    pub fn release(&mut self, handle: PrefixHandle, count: u32) {
        let stamp = self.next_tick();
        let mut idx = handle.deepest;
        debug_assert!(
            self.nodes[idx as usize].live && self.nodes[idx as usize].gen == handle.gen,
            "release of a stale prefix handle"
        );
        while idx != NIL {
            let node = &mut self.nodes[idx as usize];
            debug_assert!(node.refs >= count, "unbalanced prefix unpin");
            node.refs = node.refs.saturating_sub(count);
            node.last_use = stamp;
            self.total_refs = self.total_refs.saturating_sub(u64::from(count));
            if node.refs == 0 {
                self.unpinned += 1;
                if node.children.is_empty() {
                    self.heap.push(Reverse((stamp, idx, node.gen)));
                }
            }
            idx = node.parent;
        }
    }

    /// Evicts up to `want` blocks, coldest zero-ref leaves first, returning
    /// each to `kv` via `unreserve_blocks`. Returns the number evicted
    /// (possibly zero when everything resident is pinned).
    ///
    /// A parent exposed by evicting its last child is evicted next, without
    /// a heap round trip, whenever its entry is below the heap's top —
    /// exactly when the heap would pop it next — so a cold path cascades
    /// in one pass and the eviction order is the heap's.
    pub fn evict(&mut self, kv: &mut KvCacheManager, want: u64) -> u64 {
        let mut evicted = 0;
        let mut exposed = None;
        while evicted < want {
            let entry = match exposed.take() {
                Some(e) if self.heap.peek().is_none_or(|&Reverse(top)| e < top) => e,
                Some(e) => {
                    self.heap.push(Reverse(e));
                    continue;
                }
                None => match self.heap.pop() {
                    Some(Reverse(e)) => e,
                    None => break,
                },
            };
            let (stamp, idx, gen) = entry;
            let node = &self.nodes[idx as usize];
            let valid = node.live
                && node.gen == gen
                && node.refs == 0
                && node.children.is_empty()
                && node.last_use == stamp;
            if !valid {
                continue;
            }
            exposed = self.remove_leaf(idx);
            kv.unreserve_blocks(1);
            evicted += 1;
        }
        if let Some(e) = exposed {
            self.heap.push(Reverse(e));
        }
        self.stats.evicted_blocks += evicted;
        evicted
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn pin(&mut self, idx: u32, count: u32) {
        let node = &mut self.nodes[idx as usize];
        if node.refs == 0 {
            self.unpinned -= 1;
        }
        node.refs += count;
        self.total_refs += u64::from(count);
    }

    /// Allocates a node for `sig` under `parent` (or the root set when
    /// `parent == NIL`), already pinned with `count > 0` refs.
    fn insert_child(&mut self, parent: u32, sig: u64, count: u32) -> u32 {
        debug_assert!(count > 0, "an unpinned insert could be evicted at once");
        let stamp = self.next_tick();
        let idx = match self.free_list.pop() {
            Some(idx) => {
                let node = &mut self.nodes[idx as usize];
                node.sig = sig;
                node.parent = parent;
                node.children.clear();
                node.refs = count;
                node.last_use = stamp;
                node.live = true;
                idx
            }
            None => {
                let idx = u32::try_from(self.nodes.len()).unwrap_or(NIL);
                debug_assert!(idx != NIL, "prefix tree exceeds u32 nodes");
                self.nodes.push(Node {
                    sig,
                    parent,
                    children: Vec::new(),
                    refs: count,
                    last_use: stamp,
                    gen: 0,
                    live: true,
                });
                idx
            }
        };
        let children = if parent == NIL {
            &mut self.roots
        } else {
            &mut self.nodes[parent as usize].children
        };
        match children.binary_search_by_key(&sig, |&(s, _)| s) {
            // The signature cannot already be present: acquire only inserts
            // after the walk failed to find it.
            Ok(pos) => children[pos] = (sig, idx),
            Err(pos) => children.insert(pos, (sig, idx)),
        }
        self.resident += 1;
        self.total_refs += u64::from(count);
        idx
    }

    /// Frees a zero-ref leaf, unlinking it from its parent. If that leaves
    /// the parent a zero-ref leaf, returns the parent's eviction entry; the
    /// caller owns it (evicts it or pushes it onto the heap).
    fn remove_leaf(&mut self, idx: u32) -> Option<(u64, u32, u32)> {
        let (sig, parent) = {
            let node = &mut self.nodes[idx as usize];
            node.live = false;
            node.gen = node.gen.wrapping_add(1);
            (node.sig, node.parent)
        };
        let children = if parent == NIL {
            &mut self.roots
        } else {
            &mut self.nodes[parent as usize].children
        };
        if let Ok(pos) = children.binary_search_by_key(&sig, |&(s, _)| s) {
            children.remove(pos);
        }
        self.free_list.push(idx);
        self.resident -= 1;
        self.unpinned -= 1;
        if parent == NIL {
            return None;
        }
        let p = &self.nodes[parent as usize];
        (p.live && p.refs == 0 && p.children.is_empty()).then_some((p.last_use, parent, p.gen))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgereasoning_kernels::arch::ModelId;

    /// 8B model, 16-token blocks: 1 MiB per 8 tokens, so `blocks` blocks.
    fn kv(blocks: u64) -> KvCacheManager {
        let arch = ModelId::Dsr1Llama8b.arch();
        let block_bytes = arch.kv_bytes_per_token() * 16;
        KvCacheManager::new(&arch, block_bytes * blocks, 16).expect("positive block size")
    }

    #[test]
    fn acquire_inserts_then_hits() {
        let mut kv = kv(8);
        let mut tree = PrefixCache::new();
        let sigs = [1u64, 2, 3];
        let a = tree.acquire(&mut kv, &sigs, 1);
        assert_eq!((a.hit_blocks, a.resident_blocks), (0, 3));
        assert_eq!(kv.free_blocks(), 5, "tree blocks charged once");
        let b = tree.acquire(&mut kv, &sigs, 2);
        assert_eq!((b.hit_blocks, b.resident_blocks), (3, 3));
        assert_eq!(kv.free_blocks(), 5, "hits charge nothing");
        assert_eq!(tree.outstanding_pins(), 9); // 3 blocks × (1 + 2) refs
        tree.release(a.handle.expect("pinned"), 1);
        tree.release(b.handle.expect("pinned"), 2);
        assert_eq!(tree.outstanding_pins(), 0);
        assert_eq!(tree.evictable_blocks(), 3);
    }

    #[test]
    fn divergence_forks_the_tree_and_shares_the_stem() {
        let mut kv = kv(8);
        let mut tree = PrefixCache::new();
        let a = tree.acquire(&mut kv, &[1, 2, 3], 1);
        let b = tree.acquire(&mut kv, &[1, 2, 9], 1);
        assert_eq!(b.hit_blocks, 2, "shared stem matched");
        assert_eq!(tree.resident_blocks(), 4, "stem shared, tails forked");
        // The stem carries both pins, the tails one each.
        assert_eq!(tree.outstanding_pins(), 2 * 2 + 1 + 1);
        tree.release(a.handle.expect("pinned"), 1);
        tree.release(b.handle.expect("pinned"), 1);
        assert_eq!(tree.outstanding_pins(), 0);
    }

    #[test]
    fn eviction_is_lru_over_zero_ref_leaves() {
        let mut kv = kv(16);
        let mut tree = PrefixCache::new();
        let a = tree.acquire(&mut kv, &[10, 11], 1);
        let b = tree.acquire(&mut kv, &[20, 21], 1);
        tree.release(a.handle.expect("pinned"), 1); // colder
        tree.release(b.handle.expect("pinned"), 1); // warmer
                                                    // One eviction takes the coldest leaf: path A's deepest block.
        assert_eq!(tree.evict(&mut kv, 1), 1);
        assert_eq!(tree.match_blocks(&[10, 11]), 1, "leaf 11 gone");
        assert_eq!(tree.match_blocks(&[20, 21]), 2, "warm path intact");
        // Cascade: the exposed parent goes before the warmer path.
        assert_eq!(tree.evict(&mut kv, 1), 1);
        assert_eq!(tree.match_blocks(&[10, 11]), 0);
        assert_eq!(tree.match_blocks(&[20, 21]), 2);
    }

    #[test]
    fn pinned_paths_never_evict() {
        let mut kv = kv(4);
        let mut tree = PrefixCache::new();
        let a = tree.acquire(&mut kv, &[1, 2], 1);
        assert_eq!(tree.evict(&mut kv, 10), 0, "everything pinned");
        // A second prefix wanting the last free blocks can only take those.
        let b = tree.acquire(&mut kv, &[5, 6, 7], 1);
        assert_eq!(b.resident_blocks, 2, "insertion stops at the pin wall");
        tree.release(a.handle.expect("pinned"), 1);
        tree.release(b.handle.expect("pinned"), 1);
        // Now the cold path can make room for the full new prefix.
        let c = tree.acquire(&mut kv, &[8, 9, 10, 11], 1);
        assert_eq!(c.resident_blocks, 4);
        assert_eq!(tree.resident_blocks(), 4);
        assert_eq!(kv.free_blocks(), 0);
        tree.release(c.handle.expect("pinned"), 1);
    }

    #[test]
    fn evicted_blocks_return_to_the_allocator() {
        let mut kv = kv(4);
        let mut tree = PrefixCache::new();
        let a = tree.acquire(&mut kv, &[1, 2, 3, 4], 1);
        assert_eq!(kv.free_blocks(), 0);
        tree.release(a.handle.expect("pinned"), 1);
        assert_eq!(tree.evict(&mut kv, 4), 4);
        assert_eq!(kv.free_blocks(), 4);
        assert_eq!(tree.resident_blocks(), 0);
        assert_eq!(tree.evictable_blocks(), 0);
        // Slots recycle cleanly.
        let b = tree.acquire(&mut kv, &[7, 8], 3);
        assert_eq!(b.resident_blocks, 2);
        assert_eq!(tree.outstanding_pins(), 6);
        tree.release(b.handle.expect("pinned"), 3);
        assert_eq!(tree.outstanding_pins(), 0);
    }

    #[test]
    fn zero_count_acquire_is_read_only() {
        // Regression: an unpinned walk let the insert loop's eviction free
        // the matched block and then insert under the recycled slot.
        let mut kv = kv(2);
        let mut tree = PrefixCache::new();
        let a = tree.acquire(&mut kv, &[1], 1);
        tree.release(a.handle.expect("pinned"), 1);
        let stats = tree.stats();
        let peek = tree.acquire(&mut kv, &[1, 2, 3], 0);
        assert_eq!(
            peek,
            Acquired {
                hit_blocks: 1,
                resident_blocks: 1,
                handle: None,
            }
        );
        assert_eq!(tree.resident_blocks(), 1);
        assert_eq!(tree.evictable_blocks(), 1);
        assert_eq!(tree.outstanding_pins(), 0);
        assert_eq!(tree.stats(), stats);
        assert_eq!(kv.free_blocks(), 1);
        // The tree is intact: a pinned acquire fills the KV and releases.
        let b = tree.acquire(&mut kv, &[1, 2, 3], 1);
        assert_eq!((b.hit_blocks, b.resident_blocks), (1, 2));
        tree.release(b.handle.expect("pinned"), 1);
        assert_eq!(tree.evict(&mut kv, 10), 2);
        assert_eq!(kv.free_blocks(), 2);
    }

    /// Everything observable about a tree and its allocator, plus the
    /// resident prefix length of every path ever inserted.
    fn observe(
        tree: &PrefixCache,
        kv: &KvCacheManager,
        paths: &[Vec<u64>],
    ) -> (PrefixCacheStats, u64, u64, u64, u64, Vec<usize>) {
        (
            tree.stats(),
            tree.resident_blocks(),
            tree.evictable_blocks(),
            tree.outstanding_pins(),
            kv.free_blocks(),
            paths.iter().map(|p| tree.match_blocks(p)).collect(),
        )
    }

    /// `evict(n)` and `n` calls of `evict(1)` evict the same blocks in the
    /// same order, so they leave the same tree.
    fn assert_evict_law(tree: &PrefixCache, kv: &KvCacheManager, n: u64, paths: &[Vec<u64>]) {
        let (mut bulk_tree, mut bulk_kv) = (tree.clone(), kv.clone());
        let (mut step_tree, mut step_kv) = (tree.clone(), kv.clone());
        let bulk = bulk_tree.evict(&mut bulk_kv, n);
        let step: u64 = (0..n).map(|_| step_tree.evict(&mut step_kv, 1)).sum();
        assert_eq!(bulk, step, "evict({n}) count");
        assert_eq!(
            observe(&bulk_tree, &bulk_kv, paths),
            observe(&step_tree, &step_kv, paths),
            "evict({n}) state"
        );
    }

    #[test]
    fn bulk_eviction_matches_single_steps_on_random_traces() {
        use edgereasoning_soc::rng::Rng;
        for seed in 0..200 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut kv = kv(24);
            let mut tree = PrefixCache::new();
            let mut held: Vec<(PrefixHandle, u32)> = Vec::new();
            let mut paths: Vec<Vec<u64>> = Vec::new();
            for _ in 0..120 {
                if held.is_empty() || rng.range_usize(3) > 0 {
                    // A small alphabet makes paths share stems and fork.
                    let len = 1 + rng.range_usize(8);
                    let path: Vec<u64> = (0..len).map(|_| rng.range_usize(3) as u64).collect();
                    let count = 1 + rng.range_usize(3) as u32;
                    if let Some(h) = tree.acquire(&mut kv, &path, count).handle {
                        held.push((h, count));
                    }
                    paths.push(path);
                } else {
                    let (h, count) = held.swap_remove(rng.range_usize(held.len()));
                    tree.release(h, count);
                }
                let n = 1 + rng.range_usize(tree.resident_blocks() as usize + 2) as u64;
                assert_evict_law(&tree, &kv, n, &paths);
            }
            for (h, count) in held.drain(..) {
                tree.release(h, count);
            }
            assert_evict_law(&tree, &kv, tree.resident_blocks() + 1, &paths);
        }
    }

    #[test]
    fn cascade_yields_to_a_colder_leaf_between_its_steps() {
        let mut kv = kv(8);
        let mut tree = PrefixCache::new();
        let a = tree.acquire(&mut kv, &[1, 2], 1);
        let b = tree.acquire(&mut kv, &[1, 2, 3], 1);
        let c = tree.acquire(&mut kv, &[9], 1);
        tree.release(b.handle.expect("pinned"), 1); // leaf 3 coldest
        tree.release(c.handle.expect("pinned"), 1); // leaf 9 next
        tree.release(a.handle.expect("pinned"), 1); // stem 1 → 2 warmest
        let paths = [vec![1, 2, 3], vec![9]];
        for n in 1..=5 {
            assert_evict_law(&tree, &kv, n, &paths);
        }
        // Evicting 3 exposes 2, which is warmer than 9: 9 goes first.
        assert_eq!(tree.evict(&mut kv, 2), 2);
        assert_eq!(tree.match_blocks(&[1, 2, 3]), 2);
        assert_eq!(tree.match_blocks(&[9]), 0);
        assert_eq!(tree.evict(&mut kv, 2), 2);
        assert_eq!(tree.resident_blocks(), 0);
    }

    #[test]
    fn match_blocks_is_read_only() {
        let mut kv = kv(8);
        let mut tree = PrefixCache::new();
        let a = tree.acquire(&mut kv, &[1, 2, 3], 1);
        assert_eq!(tree.match_blocks(&[1, 2, 3, 4]), 3);
        assert_eq!(tree.match_blocks(&[9]), 0);
        assert_eq!(tree.outstanding_pins(), 3, "peeks take no pins");
        tree.release(a.handle.expect("pinned"), 1);
    }
}
