//! Memoization of per-region DP solutions.
//!
//! The constructive loop re-solves fanout-free regions round after round,
//! and most regions do not change between rounds (an edit touches one
//! region; the other 99 re-extract to byte-identical subproblems). The DP
//! is deterministic, so identical subproblems have identical solutions —
//! the memo keys a solved region by a structural fingerprint and replays
//! the cached plan instead of re-running the DP.
//!
//! Two stores implement that idea:
//!
//! * [`DpMemo`] — the private per-session map the engine has always used;
//! * [`SharedDpMemo`] — a sharded, lock-striped store many sessions (and
//!   threads) share, so a region DP solved in one session replays in
//!   every other. The fingerprint is content-addressed (structure,
//!   the exact bits of every input probability and of ρ, targets,
//!   threshold — nothing session-relative), which is what makes
//!   cross-session reuse sound: byte-identical subproblems get equal
//!   keys, and distinct ones collide only by a 64-bit hash collision.
//!   The DP being deterministic then gives equal keys equal values.
//!   Entries are immutable once written, so there is no coherence
//!   protocol to get wrong — a stale read is impossible and a lost race
//!   costs one redundant (identical) compute.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, RwLock};

use tpi_core::general::RegionExtraction;
use tpi_core::{TargetFault, Threshold};
use tpi_netlist::TestPoint;
use tpi_obs::{Counter, Gauge, Registry};

/// Cache of region-relative DP plans, keyed by [`region_fingerprint`].
///
/// Entries store test points in the *extracted* circuit's node ids; the
/// caller maps them through the current extraction's `to_parent` table
/// (valid because equal fingerprints mean identical extraction shapes,
/// hence identical sub-circuit node numbering, barring a 64-bit hash
/// collision).
#[derive(Clone, Debug, Default)]
pub(crate) struct DpMemo {
    entries: HashMap<u64, Option<Vec<TestPoint>>>,
}

impl DpMemo {
    pub(crate) fn get(&self, fp: u64) -> Option<&Option<Vec<TestPoint>>> {
        self.entries.get(&fp)
    }

    pub(crate) fn insert(&mut self, fp: u64, plan: Option<Vec<TestPoint>>) {
        self.entries.insert(fp, plan);
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Tuning for a [`SharedDpMemo`].
#[derive(Clone, Copy, Debug)]
pub struct SharedMemoConfig {
    /// Number of lock stripes over the fingerprint space (power of two
    /// recommended; clamped to at least 1).
    pub shards: usize,
    /// Total entry budget across all shards; when a shard fills its
    /// slice of the budget, inserts evict its oldest entry (FIFO).
    /// Clamped so every shard holds at least one entry.
    pub capacity: usize,
}

impl Default for SharedMemoConfig {
    fn default() -> SharedMemoConfig {
        SharedMemoConfig {
            shards: 16,
            capacity: 65_536,
        }
    }
}

/// One lock stripe of a [`SharedDpMemo`]: the entry map plus FIFO
/// insertion order for eviction.
#[derive(Debug, Default)]
struct MemoShard {
    entries: HashMap<u64, Option<Vec<TestPoint>>>,
    order: VecDeque<u64>,
}

/// A concurrent, sharded cache of region-relative DP plans shared across
/// engine sessions (and across the threads serving them).
///
/// Keys are [`region_fingerprint`]s, which are content-addressed: two
/// sessions that extract byte-identical subproblems — whether from the
/// same netlist in different rounds or from different clients submitting
/// overlapping circuits — produce the same key, and the deterministic DP
/// guarantees they would produce the same value. Values are therefore
/// immutable; the store never updates an entry in place, and a session
/// losing an insert race simply rewrites the identical plan.
///
/// Capacity is bounded ([`SharedMemoConfig::capacity`]); full shards
/// evict their oldest entry, which costs at most one recompute. All
/// traffic is counted in a [`Registry`] under
/// `engine.shared_memo.{hits,misses,inserts,evictions}` plus an
/// `engine.shared_memo.entries` gauge.
#[derive(Debug)]
pub struct SharedDpMemo {
    shards: Vec<RwLock<MemoShard>>,
    per_shard_capacity: usize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    inserts: Arc<Counter>,
    evictions: Arc<Counter>,
    entries: Arc<Gauge>,
}

impl Default for SharedDpMemo {
    fn default() -> SharedDpMemo {
        SharedDpMemo::new(SharedMemoConfig::default())
    }
}

impl SharedDpMemo {
    /// A store counting into a private registry (the counters stay
    /// readable through the accessors below even after it is dropped).
    pub fn new(config: SharedMemoConfig) -> SharedDpMemo {
        SharedDpMemo::with_registry(config, &Registry::new())
    }

    /// A store whose traffic counters land in `registry` (the server
    /// passes its global registry, so one metrics snapshot covers every
    /// session plus the cache they share).
    pub fn with_registry(config: SharedMemoConfig, registry: &Registry) -> SharedDpMemo {
        let shards = config.shards.max(1);
        SharedDpMemo {
            shards: (0..shards)
                .map(|_| RwLock::new(MemoShard::default()))
                .collect(),
            per_shard_capacity: config.capacity.div_ceil(shards).max(1),
            hits: registry.counter("engine.shared_memo.hits"),
            misses: registry.counter("engine.shared_memo.misses"),
            inserts: registry.counter("engine.shared_memo.inserts"),
            evictions: registry.counter("engine.shared_memo.evictions"),
            entries: registry.gauge("engine.shared_memo.entries"),
        }
    }

    fn shard(&self, fp: u64) -> &RwLock<MemoShard> {
        &self.shards[(fp as usize) % self.shards.len()]
    }

    /// Look up a fingerprint, cloning the cached plan out of the lock.
    /// Counts a shared-memo hit or miss either way.
    pub fn lookup(&self, fp: u64) -> Option<Option<Vec<TestPoint>>> {
        let found = self
            .shard(fp)
            .read()
            .expect("shared memo lock")
            .entries
            .get(&fp)
            .cloned();
        match found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }

    /// Insert a solved subproblem, evicting the shard's oldest entry if
    /// it is at capacity. Racing inserts of the same fingerprint write
    /// identical values (the DP is deterministic), so last-write-wins is
    /// semantically a no-op.
    pub fn insert(&self, fp: u64, plan: Option<Vec<TestPoint>>) {
        let mut shard = self.shard(fp).write().expect("shared memo lock");
        if shard.entries.insert(fp, plan).is_none() {
            shard.order.push_back(fp);
            self.entries.add(1);
            if shard.order.len() > self.per_shard_capacity {
                if let Some(oldest) = shard.order.pop_front() {
                    shard.entries.remove(&oldest);
                    self.evictions.inc();
                    self.entries.add(-1);
                }
            }
        }
        self.inserts.inc();
    }

    /// Number of entries currently cached (across all shards).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("shared memo lock").entries.len())
            .sum()
    }

    /// `true` when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that missed so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Entries evicted to stay within capacity so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }
}

/// FNV-1a fingerprint of a region subproblem: extracted structure (gate
/// kinds and local fanin wiring in sub-id order), input probabilities,
/// target faults, root observability `ρ` and the threshold.
///
/// Every `f64` is hashed by its exact bits. Quantizing them would let two
/// different subproblems share a key, and the memo would then replay a
/// plan solved from other inputs — which also makes a cached plan depend
/// on which round happened to solve the key first.
pub(crate) fn region_fingerprint(
    extraction: &RegionExtraction,
    targets: &[TargetFault],
    rho: f64,
    threshold: Threshold,
) -> u64 {
    let mut h = Fnv::new();
    h.word(threshold.value().to_bits());
    h.word(rho.to_bits());
    let sub = &extraction.circuit;
    h.word(sub.node_count() as u64);
    for id in sub.node_ids() {
        h.bytes(sub.kind(id).bench_name().as_bytes());
        for &f in sub.fanins(id) {
            h.word(f.index() as u64);
        }
        h.word(u64::MAX); // fanin-list terminator
        if let Some(&p) = extraction.input_probs.get(&id) {
            h.word(p.to_bits());
        }
    }
    let mut sorted: Vec<(usize, bool)> =
        targets.iter().map(|t| (t.node.index(), t.stuck)).collect();
    sorted.sort_unstable();
    for (node, stuck) in sorted {
        h.word(node as u64);
        h.word(u64::from(stuck));
    }
    h.finish()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::{CircuitBuilder, GateKind, NodeId};

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::new();
        a.word(1);
        a.word(2);
        let mut b = Fnv::new();
        b.word(2);
        b.word(1);
        assert_ne!(a.finish(), b.finish());
    }

    /// `y = AND(a, b)` with both inputs at probability ½.
    fn and2() -> RegionExtraction {
        let mut b = CircuitBuilder::new("r");
        let xs = b.inputs(2, "x");
        let y = b.gate(GateKind::And, xs.clone(), "y").unwrap();
        b.output(y);
        let circuit = b.finish().unwrap();
        let ids: Vec<NodeId> = circuit.node_ids().collect();
        RegionExtraction {
            to_sub: ids.iter().map(|&id| (id, id)).collect(),
            to_parent: ids.iter().map(|&id| (id, id)).collect(),
            input_probs: xs.iter().map(|&x| (x, 0.5)).collect(),
            circuit,
        }
    }

    #[test]
    fn keys_separate_probabilities_below_any_quantum() {
        let region = and2();
        let y = region.circuit.outputs()[0];
        let targets = [TargetFault {
            node: y,
            stuck: false,
        }];
        let threshold = Threshold::from_log2(-8.0);
        let key = |region: &RegionExtraction, rho: f64| {
            region_fingerprint(region, &targets, rho, threshold)
        };
        let tiny = (-24f64).exp2();
        let base = key(&region, 0.5);
        assert_eq!(base, key(&and2(), 0.5), "equal subproblems share a key");
        assert_ne!(base, key(&region, 0.5 + tiny), "ρ moved by 2⁻²⁴");
        let mut nudged = and2();
        let x0 = nudged.circuit.inputs()[0];
        *nudged.input_probs.get_mut(&x0).unwrap() += tiny;
        assert_ne!(
            base,
            key(&nudged, 0.5),
            "one input probability moved by 2⁻²⁴"
        );
    }

    #[test]
    fn shared_memo_counts_hits_misses_and_round_trips() {
        let memo = SharedDpMemo::new(SharedMemoConfig::default());
        assert_eq!(memo.lookup(7), None);
        memo.insert(7, Some(vec![]));
        memo.insert(9, None);
        assert_eq!(memo.lookup(7), Some(Some(vec![])));
        assert_eq!(memo.lookup(9), Some(None));
        assert_eq!(memo.len(), 2);
        assert_eq!((memo.hits(), memo.misses()), (2, 1));
        assert_eq!(memo.evictions(), 0);
    }

    #[test]
    fn shared_memo_evicts_fifo_at_capacity() {
        let memo = SharedDpMemo::new(SharedMemoConfig {
            shards: 1,
            capacity: 2,
        });
        memo.insert(1, None);
        memo.insert(2, None);
        memo.insert(3, None); // evicts 1 (oldest)
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.evictions(), 1);
        assert_eq!(memo.lookup(1), None);
        assert_eq!(memo.lookup(3), Some(None));
        // Re-inserting an existing key is not a growth event.
        memo.insert(3, None);
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.evictions(), 1);
    }

    #[test]
    fn shared_memo_survives_concurrent_traffic() {
        let memo = Arc::new(SharedDpMemo::new(SharedMemoConfig {
            shards: 4,
            capacity: 64,
        }));
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let memo = Arc::clone(&memo);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let fp = (i % 32) ^ (t << 40);
                        if memo.lookup(fp).is_none() {
                            memo.insert(fp, None);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(memo.len() <= 64, "capacity respected: {}", memo.len());
        assert_eq!(memo.hits() + memo.misses(), 800);
    }
}
