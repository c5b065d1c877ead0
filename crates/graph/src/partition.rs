//! Partition refinement engines: the shared machinery behind colour
//! refinement (1-WL, [`crate::refinement`]) and (graded) bisimulation
//! refinement (`portnum-logic`'s `bisim` module).
//!
//! Both algorithms are instances of one primitive: starting from an
//! initial partition, repeatedly replace each node's block with an
//! *interned signature* — the previous block plus, per relation, the
//! (multi)set of successor blocks — until the partition stops changing.
//! Two engines implement it, pinned against each other by in-process
//! differential tests ([`RefineEngine`] names them):
//!
//! * [`WorklistRefiner`] (production) — incremental, Paige–Tarjan-style:
//!   per round only the *dirty frontier* (predecessors of nodes that
//!   split off last round) is re-signed, so near-stable rounds cost
//!   O(changed) instead of O(n). Long-diameter models drop from
//!   Θ(n·rounds) total work to O(n + edges)-ish.
//! * [`Refiner`] driven by a front-end loop — the full-round reference:
//!   every node re-signed every round. Simpler, marginally faster on
//!   models that stabilise in O(1) rounds, and the differential-testing
//!   baseline.
//!
//! # Design
//!
//! The engine avoids the classic performance traps of signature
//! refinement:
//!
//! * **No per-signature allocation.** A signature is encoded as a run of
//!   `u64` words in a scratch buffer owned by the engine, and interning
//!   allocates no key, not even for a *new* signature. Both engines
//!   share one hash-chained [`InternTable`]: a signature's [`FxHasher`]
//!   hash maps to the first id filed under it, later same-hash ids
//!   chain behind it, and a hash match is confirmed against text the
//!   engine already stores — the [`Refiner`]'s per-round word arena,
//!   the [`WorklistRefiner`]'s per-group row spans. This matters on
//!   near-discrete inputs (sparse random models), where almost every
//!   signature a round encodes is new.
//! * **Cheap hashing.** [`FxHasher`] is a multiply-xor hash an order of
//!   magnitude cheaper than SipHash on short integer keys, and needs no
//!   DoS resistance here (inputs are our own block ids).
//! * **First-seen canonical ids.** Output block ids are assigned in first
//!   scan order, so a refinement round is a no-op exactly when
//!   `next == prev` element-wise — stability detection is a memcmp, and
//!   partitions produced by different front-ends (1-WL, bisimulation) are
//!   directly comparable.
//!
//! Tables, arenas and scratch buffers are cleared, not freed, between
//! rounds, so after the first rounds have grown them a refinement run
//! allocates only when a round outgrows every earlier one.
//!
//! # Parallel rounds
//!
//! Signature *encoding* (gather successor blocks, sort, flatten to
//! words) only reads the previous partition, so it is embarrassingly
//! parallel over nodes; only the *interning* step needs the shared
//! table. [`parallel_encode`] runs the encode phase on the persistent
//! worker pool ([`crate::pool::WorkerPool`]), each chunk filling its
//! own [`SignatureBuffer`] for a contiguous node range; the caller then
//! walks the buffers in node order calling [`Refiner::commit_slice`],
//! which preserves the first-seen canonical id order of the sequential
//! engine exactly. Front-ends gate this on a size threshold — waking
//! the pool costs a few microseconds, which only pays off once a round
//! encodes a few thousand signature words.
//!
//! # Configuration is a value
//!
//! Nothing here reads the environment. Every thread-count decision —
//! refinement rounds and plan execution alike — takes a
//! [`Parallelism`] value: production passes [`Parallelism::Auto`] (the
//! [`threads_for`] gate), while differential tests and benches pass
//! `Force` or `Off` to pin one side of the gate in-process. The only
//! process-wide state is the cached host core count
//! ([`encode_threads`]).

use crate::csc::CscAdjacency;
use crate::intern::{hash_words, InternArena, InternTable};
use crate::pool::WorkerPool;
use crate::resilience::{ExecControl, Interrupted};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::{Mutex, OnceLock};

/// The Fx (Firefox/rustc) hash function: multiply-xor over input words.
///
/// Vendored because the build environment is offline; identical in spirit
/// to the `rustc-hash` crate's `FxHasher` (not guaranteed bit-identical —
/// nothing here persists hashes).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_word(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.add_word(word);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.add_word(word as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Whether successor blocks are recorded as a set or as a multiset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counting {
    /// Record each distinct successor block once (plain bisimulation /
    /// set-based signatures).
    Distinct,
    /// Record each distinct successor block with its multiplicity
    /// (graded bisimulation / 1-WL colour refinement).
    Multiset,
}

/// Reusable state for one partition-refinement run.
///
/// Usage per round: call [`Refiner::begin_round`], then for each node in
/// order call [`Refiner::begin_signature`], any number of
/// [`Refiner::push_blocks`] / [`Refiner::push_word`] calls, and
/// [`Refiner::commit`] to obtain the node's next block id.
#[derive(Debug, Default)]
pub struct Refiner {
    sigs: InternArena<u64>,
    scratch: Vec<u64>,
}

impl Refiner {
    /// A fresh refiner.
    pub fn new() -> Refiner {
        Refiner::default()
    }

    /// Assigns dense first-seen ids to `keys`, producing the initial
    /// partition (one block per distinct key).
    pub fn seed_partition(&mut self, keys: impl Iterator<Item = u64>) -> Vec<usize> {
        self.sigs.clear();
        keys.map(|key| self.sigs.intern(hash_words(&[key]), &[key]).0 as usize).collect()
    }

    /// Starts a refinement round, forgetting the previous round's interned
    /// signatures but keeping allocated capacity.
    pub fn begin_round(&mut self) {
        self.sigs.clear();
    }

    /// Starts a node's signature with the node's previous block id.
    pub fn begin_signature(&mut self, prev_block: usize) {
        self.scratch.clear();
        self.scratch.push(prev_block as u64);
    }

    /// Appends a raw word to the current signature (relation separators,
    /// extra valuation data, …).
    pub fn push_word(&mut self, word: u64) {
        self.scratch.push(word);
    }

    /// Appends one relation's successor blocks to the current signature.
    ///
    /// `blocks` is consumed in arbitrary order (it is sorted internally)
    /// and left cleared, ready for reuse. The encoding is prefix-free per
    /// relation: a count of entries followed by the entries, so adjacent
    /// relations cannot be confused.
    pub fn push_blocks(&mut self, blocks: &mut Vec<usize>, counting: Counting) {
        encode_blocks(&mut self.scratch, blocks, counting);
    }

    /// Interns the current signature, returning its dense block id
    /// (first-seen order within the round).
    pub fn commit(&mut self) -> usize {
        self.sigs.intern(hash_words(&self.scratch), &self.scratch).0 as usize
    }

    /// Interns a pre-encoded signature (as produced by a
    /// [`SignatureBuffer`]), returning its dense block id. Equivalent to
    /// encoding the same words via
    /// [`begin_signature`](Refiner::begin_signature)/…/[`commit`](Refiner::commit).
    pub fn commit_slice(&mut self, signature: &[u64]) -> usize {
        self.sigs.intern(hash_words(signature), signature).0 as usize
    }

    /// Number of blocks interned so far this round.
    pub fn block_count(&self) -> usize {
        self.sigs.len()
    }
}

/// Flattens one relation's successor blocks into `out` using the shared
/// prefix-free encoding: a distinct-count slot, then `(block)` or
/// `(block, multiplicity)` runs in sorted order. `blocks` is sorted in
/// place and left cleared for reuse.
fn encode_blocks(out: &mut Vec<u64>, blocks: &mut Vec<usize>, counting: Counting) {
    blocks.sort_unstable();
    // Reserve the count slot, then append (block, multiplicity) runs.
    let count_slot = out.len();
    out.push(0);
    let mut distinct = 0u64;
    let mut i = 0;
    while i < blocks.len() {
        let b = blocks[i];
        let mut mult = 1u64;
        while i + 1 < blocks.len() && blocks[i + 1] == b {
            mult += 1;
            i += 1;
        }
        i += 1;
        distinct += 1;
        out.push(b as u64);
        if counting == Counting::Multiset {
            out.push(mult);
        }
    }
    out[count_slot] = distinct;
    blocks.clear();
}

/// A chunk-local run of encoded signatures for the parallel encode phase.
///
/// One thread fills one buffer for a contiguous node range: per node,
/// [`begin`](SignatureBuffer::begin), any number of
/// [`push_blocks`](SignatureBuffer::push_blocks) /
/// [`push_word`](SignatureBuffer::push_word) calls (the same encoding the
/// [`Refiner`] uses), then [`end`](SignatureBuffer::end). The buffer's
/// backing storage is reused across rounds.
#[derive(Debug, Default)]
pub struct SignatureBuffer {
    words: Vec<u64>,
    /// Prefix bounds: signature `i` is `words[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<usize>,
    /// Scratch for gathering successor blocks, reused across nodes.
    blocks: Vec<usize>,
}

impl SignatureBuffer {
    /// A fresh, empty buffer.
    pub fn new() -> SignatureBuffer {
        SignatureBuffer::default()
    }

    /// Drops all encoded signatures, keeping capacity.
    pub fn clear(&mut self) {
        self.words.clear();
        self.bounds.clear();
    }

    /// Starts the next node's signature with its previous block id.
    pub fn begin(&mut self, prev_block: usize) {
        if self.bounds.is_empty() {
            self.bounds.push(0);
        }
        self.words.push(prev_block as u64);
    }

    /// Appends a raw word to the current signature.
    pub fn push_word(&mut self, word: u64) {
        self.words.push(word);
    }

    /// Appends one relation's successor blocks to the current signature
    /// (same encoding as [`Refiner::push_blocks`]).
    pub fn push_blocks(&mut self, blocks: &mut Vec<usize>, counting: Counting) {
        encode_blocks(&mut self.words, blocks, counting);
    }

    /// The internal successor-gather scratch vector (empty between
    /// nodes); gather into it, then pass it to
    /// [`push_blocks`](SignatureBuffer::push_blocks).
    pub fn blocks_scratch(&mut self) -> &mut Vec<usize> {
        &mut self.blocks
    }

    /// Finishes the current node's signature.
    pub fn end(&mut self) {
        self.bounds.push(self.words.len());
    }

    /// Number of complete signatures in the buffer.
    pub fn len(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Returns `true` if the buffer holds no complete signature.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th encoded signature.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn signature(&self, i: usize) -> &[u64] {
        &self.words[self.bounds[i]..self.bounds[i + 1]]
    }
}

/// Minimum signature words of per-round encode work before refinement
/// front-ends parallelise the encode phase.
///
/// A parallel round costs one wake-up of the persistent pool
/// ([`crate::pool`]) — a few microseconds, not the ~100µs of the old
/// per-round scoped-thread spawns — so the gate sits an order of
/// magnitude lower than it used to (2¹³ words, down from 2¹⁶). Gating
/// on work rather than node count protects the worst shape —
/// long-diameter models take Θ(diameter) rounds, each individually
/// cheap.
pub const PARALLEL_THRESHOLD: usize = 1 << 13;

/// Number of worker threads the refinement front-ends use for the encode
/// phase (the host's available parallelism, 1 if unknown).
///
/// Cached for the life of the process: on Linux
/// [`std::thread::available_parallelism`] re-reads the cgroup CPU quota
/// files on every call (several microseconds of file I/O), and this
/// function sits on the per-instruction path of the plan executor —
/// uncached it costs more than the pool dispatch it is sizing.
pub fn encode_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Words of sweep/encode work one core retires per microsecond — a
/// deliberately conservative estimate used only to convert the pool's
/// *measured* dispatch cost ([`crate::pool::WorkerPool::dispatch_cost_ns`],
/// nanoseconds) into the same unit as [`PARALLEL_THRESHOLD`] (words).
/// Underestimating throughput overestimates the break-even floor,
/// which errs on the safe (sequential) side for borderline calls.
const WORDS_PER_US: u64 = 1024;

/// The calibrated minimum work (in words) at which a pool fan-out can
/// pay for its own dispatch: parallelising saves at most the whole
/// sequential runtime, so the work must be worth at least ~2× the
/// measured per-call coordination cost before going parallel wins.
/// Never below the static [`PARALLEL_THRESHOLD`], which remains the
/// cheap first gate (checking it does not touch — or lazily create —
/// the global pool).
pub fn parallel_floor_words() -> usize {
    let cost_ns = crate::pool::WorkerPool::global().dispatch_cost_ns();
    let floor = (2 * cost_ns * WORDS_PER_US / 1000) as usize;
    PARALLEL_THRESHOLD.max(floor)
}

/// Worker threads for a parallel phase doing `work` words of per-call
/// work (for refinement this is roughly nodes + stored successor
/// pairs): [`encode_threads`] at or above the parallel floor, 1
/// (sequential) below it. The floor is the static
/// [`PARALLEL_THRESHOLD`] raised to the *measured* break-even point of
/// the pool's calibrated dispatch cost ([`parallel_floor_words`]) —
/// work that cannot amortise one real pool round-trip stays
/// sequential. The single gate shared by every parallel front-end
/// (refinement rounds *and* plan execution) so the engines cannot
/// diverge on tuning; [`Parallelism::Auto`] resolves through it.
pub fn threads_for(work: usize) -> usize {
    // Static gate first (short-circuit): below it we return without
    // touching — or lazily constructing — the global pool that the
    // calibrated floor would consult.
    if work >= PARALLEL_THRESHOLD && work >= parallel_floor_words() {
        encode_threads()
    } else {
        1
    }
}

/// How a parallel phase resolves its thread count: the one value every
/// thread-count decision takes (refinement encode rounds, plan
/// execution). Production paths run [`Parallelism::Auto`]; the other
/// two pin one side of the gate so differential tests and benches can
/// compare the pool-driven and sequential paths in one process. Output
/// never depends on the choice — every parallel path is bit-identical
/// to the sequential one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// The two-stage work gate of [`threads_for`]: what production runs.
    Auto,
    /// Always parallel, with at least 2 threads even on single-core
    /// hosts, so small inputs still drive every pool path.
    Force,
    /// Never parallel: the sequential reference at sizes the gate
    /// would parallelise.
    Off,
}

impl Parallelism {
    /// Worker threads for a phase doing `work` words of per-call work.
    pub fn threads(self, work: usize) -> usize {
        match self {
            Parallelism::Auto => threads_for(work),
            Parallelism::Force => encode_threads().max(2),
            Parallelism::Off => 1,
        }
    }
}

/// Splits `0..n` into at most `threads` contiguous ranges at quantiles
/// of a cumulative work function (`cum(i)` = total work of items
/// `0..i`; nondecreasing with `cum(0) == 0`), each boundary rounded
/// down to a multiple of `align`. Empty ranges are dropped, and the
/// ranges always cover `0..n` exactly (the last boundary is pinned to
/// `n`).
///
/// This is the one work-balanced splitter behind every parallel phase:
/// the refinement encode split (`align = 1`, CSR-derived work), and
/// the plan executor's bitset fills (`align = 64`, so chunks own
/// disjoint output words) and `iter_ones` splits (popcount prefix).
/// Keeping them on one implementation keeps their rounding and
/// degenerate-input behaviour from drifting apart.
pub fn quantile_ranges(
    n: usize,
    threads: usize,
    align: usize,
    cum: impl Fn(usize) -> usize,
) -> Vec<Range<usize>> {
    let threads = threads.max(1);
    let total = cum(n);
    let mut ranges = Vec::with_capacity(threads);
    let mut start = 0usize;
    for i in 0..threads {
        let end = if i + 1 == threads {
            n
        } else {
            // First boundary whose cumulative work reaches this
            // chunk's quantile, rounded down to the alignment.
            let target = (total * (i + 1)).div_ceil(threads);
            let (mut lo, mut hi) = (start, n);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if cum(mid) < target {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            (lo / align * align).clamp(start, n)
        };
        if end > start {
            ranges.push(start..end);
            start = end;
        }
    }
    ranges
}

/// Runs one round's encode phase in parallel: splits `0..n` into up to
/// `threads` contiguous chunks **of equal node count** and calls
/// `encode(range, buffer)` for each on the worker pool. `buffers`
/// is resized to the chunk count and cleared; storage persists across
/// calls so repeated rounds reuse capacity.
///
/// On degree-skewed inputs equal node ranges are a poor split — one hub
/// world's signature can dominate a round and serialise it behind a
/// single thread. When per-node work is known, prefer
/// [`parallel_encode_weighted`], which splits at work quantiles.
///
/// The caller completes the round by interning every buffered signature
/// **in node order** via [`Refiner::commit_slice`]; since ids are
/// first-seen, the result is bit-identical to the sequential path.
pub fn parallel_encode<F>(n: usize, threads: usize, buffers: &mut Vec<SignatureBuffer>, encode: F)
where
    F: Fn(Range<usize>, &mut SignatureBuffer) + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    encode_ranges(quantile_ranges(n, threads, 1, |i| i), buffers, encode);
}

/// Work-balanced variant of [`parallel_encode`]: `work` is the
/// prefix-sum array of per-node encode work (`work[v + 1] - work[v]` ≈
/// signature words node `v` will emit; `work.len() == n + 1`), and
/// chunk boundaries are placed at work quantiles instead of equal node
/// counts, so a hub node no longer serialises the round behind one
/// thread. Refinement front-ends derive `work` from the CSR offsets
/// they already hold.
///
/// Chunks remain contiguous and in node order, so the sequential intern
/// phase — and therefore every block id — is unchanged.
///
/// # Panics
///
/// Panics if `work` is empty (it must have an entry per node plus the
/// leading zero).
pub fn parallel_encode_weighted<F>(
    work: &[usize],
    threads: usize,
    buffers: &mut Vec<SignatureBuffer>,
    encode: F,
) where
    F: Fn(Range<usize>, &mut SignatureBuffer) + Sync,
{
    let n = work.len().checked_sub(1).expect("work must be a prefix-sum array of length n + 1");
    let threads = threads.clamp(1, n.max(1));
    encode_ranges(quantile_ranges(n, threads, 1, |i| work[i]), buffers, encode);
}

/// Shared pool fan-out over precomputed contiguous ranges: chunk `i`
/// encodes `ranges[i]` into `buffers[i]`, whichever pool thread picks
/// it up — the buffer↔range pairing (and therefore the intern order)
/// is fixed up front, so the output is deterministic.
fn encode_ranges<F>(ranges: Vec<Range<usize>>, buffers: &mut Vec<SignatureBuffer>, encode: F)
where
    F: Fn(Range<usize>, &mut SignatureBuffer) + Sync,
{
    buffers.resize_with(ranges.len(), SignatureBuffer::default);
    if ranges.len() == 1 {
        // One chunk needs no pool round-trip.
        buffers[0].clear();
        if !ranges[0].is_empty() {
            encode(ranges[0].clone(), &mut buffers[0]);
        }
        return;
    }
    let slots: Vec<Mutex<&mut SignatureBuffer>> = buffers.iter_mut().map(Mutex::new).collect();
    WorkerPool::global().run(ranges.len(), &|i| {
        let mut buffer = slots[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        buffer.clear();
        if !ranges[i].is_empty() {
            encode(ranges[i].clone(), &mut buffer);
        }
    });
}

/// Which refinement engine a differential test or bench pins
/// (`bisim::refine_with`). Every production front-end (`bisim::refine*`,
/// 1-WL [`crate::refinement::color_refinement`], the quotient cache)
/// runs [`RefineEngine::Worklist`]. The two engines produce identical
/// partitions at every depth (proptest-pinned), so the choice is a
/// performance/testing switch, not a semantic one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefineEngine {
    /// Incremental worklist refinement ([`WorklistRefiner`]): each round
    /// re-encodes only the dirty frontier. The production engine.
    Worklist,
    /// The full-round engine: every node re-signed every round. Kept as
    /// the differential-testing reference.
    Rounds,
}

/// Borrowed CSR rows of one relation: successors of node `v` are
/// `targets[offsets[v]..offsets[v + 1]]`, as `u32` node ids.
///
/// The input shape of the [`WorklistRefiner`]; `portnum-logic` hands in
/// its `Kripke::relation_rows` slices directly, and colour refinement
/// packs the adjacency lists of a `Graph` into one relation.
#[derive(Debug, Clone, Copy)]
pub struct RelationCsr<'a> {
    /// Row offsets, length `n + 1`.
    pub offsets: &'a [usize],
    /// Concatenated successor ids.
    pub targets: &'a [u32],
}

/// Builds the nonempty-row index of a set of CSR relations: node `v`'s
/// nonempty rows are `index[bounds[v]..bounds[v + 1]]`, each entry the
/// relation id (the word pushed into signatures) plus the row slice,
/// ascending by relation.
///
/// Empty rows never enter a signature — on many-relation models (K₊,₊
/// stores O(Δ²) relations, almost all rows empty) this shrinks
/// per-round encode work from O(nodes × relations) to O(edges). The
/// index is itself CSR-shaped: two flat passes, two allocations, no
/// per-node `Vec`s. Shared by the full-round front-ends and the
/// [`WorklistRefiner`] so their row enumeration (and therefore their
/// signatures) cannot drift apart.
///
/// # Panics
///
/// Panics if a relation's `offsets` does not have `n + 1` entries.
pub fn nonempty_row_index<'a>(
    n: usize,
    relations: &[RelationCsr<'a>],
) -> (Vec<usize>, Vec<(u64, &'a [u32])>) {
    let mut bounds = vec![0usize; n + 1];
    for rel in relations {
        assert_eq!(rel.offsets.len(), n + 1, "CSR offsets must have n + 1 entries");
        let mut start = rel.offsets[0];
        for v in 0..n {
            let end = rel.offsets[v + 1];
            bounds[v + 1] += (end > start) as usize;
            start = end;
        }
    }
    for v in 0..n {
        bounds[v + 1] += bounds[v];
    }
    const EMPTY_ROW: (u64, &[u32]) = (0, &[]);
    let mut index = vec![EMPTY_ROW; bounds[n]];
    let mut cursor = bounds.clone();
    for (r, rel) in relations.iter().enumerate() {
        let mut start = rel.offsets[0];
        for v in 0..n {
            let end = rel.offsets[v + 1];
            if end > start {
                index[cursor[v]] = (r as u64, &rel.targets[start..end]);
                cursor[v] += 1;
            }
            start = end;
        }
    }
    (bounds, index)
}

/// Signature words node `v` emits when encoded against a
/// [`nonempty_row_index`]: the previous-block word plus, per nonempty
/// row, the relation id, the count slot, and the successor entries.
/// Only *relative* weights matter for the work-quantile splits, so
/// multiplicity words are not modelled. One definition for both
/// engines keeps their parallel-gate accounting identical.
pub fn encode_work(bounds: &[usize], index: &[(u64, &[u32])], v: usize) -> usize {
    1 + index[bounds[v]..bounds[v + 1]].iter().map(|&(_, row)| 2 + row.len()).sum::<usize>()
}

/// Observability counters of a [`WorklistRefiner`] run.
///
/// `encoded` is the *touched-world* counter: the total number of
/// signature encodes across all rounds. The full-round engine would
/// count exactly `n · rounds`; the point of the worklist engine is that
/// on long-diameter models `encoded` stays O(n + edges) — a unit test
/// pins `encoded = o(n · rounds)` on path graphs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RefineStats {
    /// Refinement rounds run (including the final no-change round).
    pub rounds: usize,
    /// Signatures encoded (worlds touched) across all rounds.
    pub encoded: usize,
    /// Block reassignments (worlds moved to a freshly split block).
    pub moved: usize,
    /// Rounds whose encode phase ran on the worker pool.
    pub parallel_rounds: usize,
}

/// Sentinel: a block whose stored signature has not been established yet
/// (seed blocks before their first refinement round).
const SIG_UNSET: usize = usize::MAX;
/// Sentinel group/block link terminator.
const NONE_U32: u32 = u32::MAX;

/// One signature-equal group of dirty nodes within a block, built per
/// round by [`WorklistRefiner::round`].
#[derive(Debug, Clone, Copy)]
struct Group {
    /// The block the members currently belong to.
    block: u32,
    /// The group's row text: `sig_words[sig_start..][..sig_len]` in the
    /// block store (copied once at group creation; matched groups alias
    /// the block's stored span instead).
    sig_start: usize,
    sig_len: u32,
    /// Member count.
    size: u32,
    /// Next group of the same block this round (`NONE_U32` terminates).
    next: u32,
    /// Whether the group's row text equals the block's stored signature.
    matched: bool,
    /// Decision: the block id members move to (`NONE_U32` = stay).
    new_id: u32,
}

/// Per-block partition state of a [`WorklistRefiner`]: sizes, stored
/// signature spans, and the per-round split bookkeeping (epoch marks,
/// group-list heads, dirty counts), all indexed by stable block id.
#[derive(Debug, Default)]
struct Blocks {
    size: Vec<usize>,
    /// Stored row text per block:
    /// `sig_words[sig_start[b]..][..sig_len[b]]`; `SIG_UNSET` start =
    /// not yet established (seed blocks before their first round).
    sig_start: Vec<usize>,
    sig_len: Vec<usize>,
    sig_words: Vec<u64>,
    /// Round stamp of the last round that saw a dirty member.
    mark: Vec<u32>,
    /// Head of this round's group list (`NONE_U32` = none).
    head: Vec<u32>,
    /// Dirty members seen this round.
    dirty_count: Vec<u32>,
}

impl Blocks {
    fn count(&self) -> usize {
        self.size.len()
    }

    fn push(&mut self, size: usize, sig_start: usize, sig_len: usize) {
        self.size.push(size);
        self.sig_start.push(sig_start);
        self.sig_len.push(sig_len);
        self.mark.push(0);
        self.head.push(NONE_U32);
        self.dirty_count.push(0);
    }
}

/// Per-round grouping scratch of a [`WorklistRefiner`], reused across
/// rounds (the table keeps its capacity, groups their backing storage).
#[derive(Debug, Default)]
struct RoundScratch {
    /// Group ids by signature hash; a group's text is its `block` plus
    /// its row span in [`Blocks::sig_words`], so the table holds no key.
    table: InternTable,
    groups: Vec<Group>,
    /// Group of the `i`-th dirty node, parallel to the dirty list.
    group_of: Vec<u32>,
    /// Blocks with at least one dirty member this round.
    touched: Vec<u32>,
}

/// Files one encoded signature (`[block, row text…]`) into its
/// signature-equal group, creating the group — and copying its row text
/// into the block store unless it matches the stored signature — on
/// first sight. Free function so the sequential and pooled encode paths
/// can share it under disjoint field borrows.
fn group_one(sig: &[u64], stamp: u32, blocks: &mut Blocks, round: &mut RoundScratch) {
    let b = sig[0] as usize;
    if blocks.mark[b] != stamp {
        blocks.mark[b] = stamp;
        blocks.head[b] = NONE_U32;
        blocks.dirty_count[b] = 0;
        round.touched.push(b as u32);
    }
    blocks.dirty_count[b] += 1;
    file_into_group(sig, hash_words(sig), blocks, round);
}

/// [`group_one`] for the all-fresh rounds ([`WorklistRefiner::round`]'s
/// "every block fresh" fast path): the caller pre-stamped every block
/// and pre-listed them all as touched before grouping began, so the
/// per-node stamp check and touched push are skipped — on a
/// fast-stabilising model whose dense frontier re-dirties the whole
/// universe each round, that branch runs `n` times per round for no
/// information. Same filing semantics otherwise (the `stamp` parameter
/// only exists so both variants share one function-pointer type).
fn group_one_fresh(sig: &[u64], _stamp: u32, blocks: &mut Blocks, round: &mut RoundScratch) {
    blocks.dirty_count[sig[0] as usize] += 1;
    file_into_group(sig, hash_words(sig), blocks, round);
}

/// The shared tail of [`group_one`]/[`group_one_fresh`]: files the
/// signature (hashed to `hash`) into its signature-equal group,
/// creating the group on first sight. Two signatures share a group iff
/// their blocks and row texts are equal; the row text is compared
/// against the span the group already stores, so filing allocates
/// nothing.
#[inline]
fn file_into_group(sig: &[u64], hash: u64, blocks: &mut Blocks, round: &mut RoundScratch) {
    let b = sig[0] as usize;
    let rows = &sig[1..];
    let (groups, words) = (&round.groups, &blocks.sig_words);
    let (gid, fresh) = round.table.intern(hash, |g| {
        let group = &groups[g as usize];
        group.block as usize == b && words[group.sig_start..][..group.sig_len as usize] == *rows
    });
    if fresh {
        let stored = blocks.sig_start[b];
        let matched =
            stored != SIG_UNSET && blocks.sig_words[stored..stored + blocks.sig_len[b]] == *rows;
        // Matched groups alias the stored span; only genuinely new
        // texts are copied (once — new blocks reuse the span).
        let sig_start = if matched {
            stored
        } else {
            let start = blocks.sig_words.len();
            blocks.sig_words.extend_from_slice(rows);
            start
        };
        round.groups.push(Group {
            block: b as u32,
            sig_start,
            sig_len: rows.len() as u32,
            size: 1,
            next: blocks.head[b],
            matched,
            new_id: NONE_U32,
        });
        blocks.head[b] = gid;
    } else {
        round.groups[gid as usize].size += 1;
    }
    round.group_of.push(gid);
}

/// The built form of the refiner's reverse adjacency: one combined
/// [`CscAdjacency`] owned here, or a caller-cached combined store
/// borrowed through [`WorklistRefiner::share_reverse_adjacency`] (the
/// Kripke models' `OnceLock`-cached CSC, shared so the evaluator's
/// reverse diamonds and the refiner's dirty propagation build the
/// inverse once between them). One store either way — the hot
/// propagation loop does a single bounds lookup per moved node
/// regardless of how many relations the model carries.
#[derive(Debug)]
enum PredRows<'a> {
    Owned(CscAdjacency),
    Shared(&'a CscAdjacency),
}

/// A deferred supplier of the shared combined reverse adjacency,
/// registered via [`WorklistRefiner::share_reverse_adjacency`]. The
/// closure is only invoked if a sparse round actually needs
/// predecessors, so a caller with a lazily-cached store pays for its
/// construction exactly when the owned build would have run.
struct SharedPreds<'a> {
    source: Box<dyn Fn() -> &'a CscAdjacency + 'a>,
}

impl std::fmt::Debug for SharedPreds<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPreds").finish_non_exhaustive()
    }
}

/// Incremental (Paige–Tarjan style) partition refinement over a
/// worklist of *dirty* nodes.
///
/// The classic full-round engine ([`Refiner`] driven by a front-end
/// loop) re-encodes **every** node's signature **every** round, which on
/// long-diameter inputs costs Θ(n) work for Θ(n) rounds even though a
/// near-stable round changes almost nothing. This engine keeps the
/// round-synchronous semantics — the partition after round `t` is
/// exactly the full-round engine's depth-`t` partition, so `t`-step
/// equivalence queries stay meaningful — but does per round only
/// O(dirty frontier) work:
///
/// * **Splitter worklist.** Blocks that split in round `t` are the
///   splitters of round `t + 1`: only a node with a successor that
///   *moved* into a freshly split block can change its signature. The
///   dirty frontier is computed by walking the moved nodes' predecessors
///   over a reverse CSR (built once per run, O(edges)).
/// * **Per-block stored signatures.** Every block stores the signature
///   text its members currently share (the invariant re-established each
///   round). A dirty node is re-encoded and compared against its block's
///   stored text: equal ⇒ it stays, different ⇒ it is grouped with
///   equal-signature peers into a new block (counting-based split: the
///   group key is the full counted successor-block multiset, so plain
///   and graded styles share one mechanism).
/// * **One group keeps the id.** When a block splits, the group matching
///   the stored signature (or, if no member matches and no clean member
///   remains, the largest group) keeps the block id — Paige–Tarjan's
///   "process the smaller half" in worklist form. Only the *other*
///   groups count as moved and seed the next frontier, so a stable
///   majority never re-propagates.
///
/// Block ids are therefore **stable** (a block keeps its id across
/// rounds) rather than first-seen canonical per round;
/// [`WorklistRefiner::canonical_level_into`] renumbers the current
/// partition into the canonical dense form the full-round engine
/// produces, so the two engines' levels are bit-identical.
///
/// # Parallel rounds
///
/// When a round's encode work (signature words over the dirty frontier)
/// reaches [`PARALLEL_THRESHOLD`], the encode phase fans the dirty list
/// out over the persistent worker pool exactly like the full-round
/// engine does (chunked at work quantiles into [`SignatureBuffer`]s,
/// grouped sequentially in node order afterwards) — independent
/// splitters' dirty ranges encode in parallel. The gate is a
/// [`Parallelism`] value, [`Parallelism::Auto`] unless
/// [`WorklistRefiner::parallelism`] pins another.
///
/// # Usage
///
/// ```
/// use portnum_graph::partition::{Counting, RelationCsr, WorklistRefiner};
///
/// // A 4-path: nodes 0-1-2-3, one symmetric relation in CSR form.
/// let offsets = [0usize, 1, 3, 5, 6];
/// let targets = [1u32, 0, 2, 1, 3, 2];
/// let rel = RelationCsr { offsets: &offsets, targets: &targets };
/// let mut r = WorklistRefiner::new(4, &[rel], Counting::Multiset, (0..4).map(|v| {
///     [1u64, 2, 2, 1][v] // seed by degree
/// }));
/// while r.round() {}
/// let mut level = Vec::new();
/// r.canonical_level_into(&mut level);
/// assert_eq!(level, vec![0, 1, 1, 0]); // ends vs middle
/// assert!(r.stats().encoded <= 4 * r.stats().rounds.max(1) * 2);
/// ```
#[derive(Debug)]
pub struct WorklistRefiner<'a> {
    n: usize,
    counting: Counting,
    par: Parallelism,
    /// Whether per-round level semantics are observed (default). When
    /// off, the next frontier is left in discovery order instead of
    /// being sorted into node order — see
    /// [`WorklistRefiner::observe_levels`].
    observe_levels: bool,
    /// The input relations, kept for the lazy reverse-CSR build.
    relations: Vec<RelationCsr<'a>>,
    /// Nonempty forward rows of node `v`:
    /// `row_index[row_bounds[v]..row_bounds[v + 1]]`, each entry the
    /// relation id (as pushed into the signature) plus the row slice.
    row_bounds: Vec<usize>,
    row_index: Vec<(u64, &'a [u32])>,
    /// Signature words node `v` emits when encoded (the parallel-gate
    /// work unit), precomputed once.
    node_work: Vec<usize>,
    /// Reverse adjacency (CSC) used for dirty propagation — built
    /// lazily on the first round whose moved set is small enough for
    /// precise frontier propagation to beat re-encoding everyone
    /// (fast-stabilising models never pay for it). Either a combined
    /// [`CscAdjacency`] over all relations built here, or the caller's
    /// own per-relation stores obtained through
    /// [`WorklistRefiner::share_reverse_adjacency`].
    preds: Option<PredRows<'a>>,
    /// Deferred source of shared per-relation reverse adjacency;
    /// consulted (once) by [`Self::ensure_preds`] so sharing keeps the
    /// same laziness as the owned build.
    shared_preds: Option<SharedPreds<'a>>,
    /// Current block of each node (stable ids, not canonical).
    assign: Vec<usize>,
    blocks: Blocks,
    round: RoundScratch,
    /// Dirty frontier for the next round, sorted ascending.
    dirty: Vec<u32>,
    /// Epoch marks deduplicating the dirty set (`mark[v] == epoch`).
    mark: Vec<u32>,
    epoch: u32,
    /// Round stamps for the per-block split bookkeeping.
    round_stamp: u32,
    /// Encode buffers (pooled path) and scratch (sequential path).
    buffers: Vec<SignatureBuffer>,
    work: Vec<usize>,
    scratch_sig: Vec<u64>,
    scratch_blocks: Vec<usize>,
    moved: Vec<u32>,
    /// First-seen renumbering scratch for [`Self::canonical_level_into`].
    canon: Vec<u32>,
    canon_stamp: Vec<u32>,
    canon_round: u32,
    stats: RefineStats,
}

impl<'a> WorklistRefiner<'a> {
    /// Builds the engine over `n` nodes and the given relations, seeding
    /// the initial partition by first-seen `seed` keys (one per node —
    /// the valuation/degree partition at depth 0).
    ///
    /// Construction walks every relation twice: once for the
    /// nonempty-row index (empty rows never enter a signature — on
    /// many-relation models almost all rows are empty) and once for the
    /// combined reverse CSR that drives dirty propagation. Both passes
    /// are O(n · relations + edges) with O(1) allocations each.
    ///
    /// # Panics
    ///
    /// Panics if a relation's `offsets` does not have `n + 1` entries.
    pub fn new(
        n: usize,
        relations: &[RelationCsr<'a>],
        counting: Counting,
        seeds: impl Iterator<Item = u64>,
    ) -> WorklistRefiner<'a> {
        // Seed partition: dense first-seen ids per distinct key.
        let mut table: FxHashMap<u64, u32> = FxHashMap::default();
        let mut assign = Vec::with_capacity(n);
        let mut blocks = Blocks::default();
        for key in seeds {
            let next = table.len() as u32;
            let id = *table.entry(key).or_insert(next) as usize;
            if id == blocks.count() {
                blocks.push(0, SIG_UNSET, 0);
            }
            assign.push(id);
            blocks.size[id] += 1;
        }
        assert_eq!(assign.len(), n, "seed keys must cover every node");

        // Round 1 re-encodes everything: every block is new.
        let dirty = (0..n as u32).collect();
        Self::assemble(n, relations, counting, assign, blocks, dirty)
    }

    /// Resumes refinement from a previously **stable** partition after a
    /// model delta, instead of re-refining from scratch.
    ///
    /// `prior[v]` is the old stable block of `v` (any labelling); the
    /// initial partition is the intersection of `prior` with the current
    /// seed keys, every stored block signature unknown. `dirty` must
    /// contain every node whose seed key or forward rows changed, **plus
    /// every current predecessor of such a node** — the worklist
    /// contract: a node outside the initial frontier is only re-encoded
    /// once a successor moves.
    ///
    /// Soundness contract: `prior` was stable for the *pre-delta*
    /// relations and refined the pre-delta seed keys (any fixpoint this
    /// engine produced qualifies). The resumed fixpoint is then a stable
    /// partition of the *current* model refining the current seed keys —
    /// possibly **finer** than the coarsest one, since refinement only
    /// splits and never re-merges blocks the old model separated.
    /// Consumers needing the coarsest partition (minimum bases) must
    /// re-refine from scratch; consumers needing *a* stable partition
    /// (quotient-based model checking) can use the resumed one directly.
    ///
    /// # Panics
    ///
    /// Panics if `prior` does not have `n` entries, a dirty node is
    /// `>= n`, or a relation's `offsets` does not have `n + 1` entries.
    pub fn resume(
        n: usize,
        relations: &[RelationCsr<'a>],
        counting: Counting,
        seeds: impl Iterator<Item = u64>,
        prior: &[usize],
        dirty: &[u32],
    ) -> WorklistRefiner<'a> {
        assert_eq!(prior.len(), n, "prior partition must cover every node");
        let mut table: FxHashMap<(u64, u64), u32> = FxHashMap::default();
        let mut assign = Vec::with_capacity(n);
        let mut blocks = Blocks::default();
        for (v, key) in seeds.enumerate() {
            let next = table.len() as u32;
            let id = *table.entry((prior[v] as u64, key)).or_insert(next) as usize;
            if id == blocks.count() {
                blocks.push(0, SIG_UNSET, 0);
            }
            assign.push(id);
            blocks.size[id] += 1;
        }
        assert_eq!(assign.len(), n, "seed keys must cover every node");
        let mut dirty = dirty.to_vec();
        dirty.sort_unstable();
        dirty.dedup();
        assert!(dirty.last().is_none_or(|&w| (w as usize) < n), "dirty node out of range");
        Self::assemble(n, relations, counting, assign, blocks, dirty)
    }

    /// Common tail of [`Self::new`] and [`Self::resume`]: the row index,
    /// work table, and scratch state around a seeded assignment.
    fn assemble(
        n: usize,
        relations: &[RelationCsr<'a>],
        counting: Counting,
        assign: Vec<usize>,
        blocks: Blocks,
        dirty: Vec<u32>,
    ) -> WorklistRefiner<'a> {
        let (row_bounds, row_index) = nonempty_row_index(n, relations);
        let node_work: Vec<usize> =
            (0..n).map(|v| encode_work(&row_bounds, &row_index, v)).collect();

        WorklistRefiner {
            n,
            counting,
            par: Parallelism::Auto,
            observe_levels: true,
            relations: relations.to_vec(),
            row_bounds,
            row_index,
            node_work,
            preds: None,
            shared_preds: None,
            assign,
            blocks,
            round: RoundScratch::default(),
            dirty,
            mark: vec![0; n],
            epoch: 0,
            round_stamp: 0,
            buffers: Vec::new(),
            work: Vec::new(),
            scratch_sig: Vec::new(),
            scratch_blocks: Vec::new(),
            moved: Vec::new(),
            canon: Vec::new(),
            canon_stamp: Vec::new(),
            canon_round: 0,
            stats: RefineStats::default(),
        }
    }

    /// Materialises the reverse adjacency on first use: either the
    /// caller's shared combined store (if
    /// [`Self::share_reverse_adjacency`] registered a source) or a
    /// combined [`CscAdjacency`] over all relations built here (the
    /// dirty set only needs "who can see `w`", not under which
    /// relation).
    fn ensure_preds(&mut self) {
        if self.preds.is_none() {
            self.preds = Some(match self.shared_preds.take() {
                Some(shared) => PredRows::Shared((shared.source)()),
                None => PredRows::Owned(CscAdjacency::from_relations(self.n, &self.relations)),
            });
        }
    }

    /// Registers a source for the **combined** reverse adjacency (the
    /// union of all relations, as [`CscAdjacency::from_relations`]
    /// builds it over the constructor's `relations` slice) to be used
    /// instead of building one here. The source is consulted lazily —
    /// only if a sparse round needs predecessors — so callers whose
    /// store is itself lazily cached (the Kripke models' `OnceLock`
    /// CSC) build the inverse at most once *across* refinement runs
    /// and, on single-relation models, the model checker's reverse
    /// diamond path.
    ///
    /// # Panics
    ///
    /// Panics if the reverse adjacency was already built (call this
    /// right after [`WorklistRefiner::new`], before any round).
    pub fn share_reverse_adjacency(&mut self, source: impl Fn() -> &'a CscAdjacency + 'a) {
        assert!(
            self.preds.is_none(),
            "share_reverse_adjacency must be called before the reverse adjacency is built"
        );
        self.shared_preds = Some(SharedPreds { source: Box::new(source) });
    }

    /// Sets how each round's encode phase picks its thread count
    /// ([`Parallelism::Auto`] by default). [`Parallelism::Force`] puts
    /// every round on the worker pool regardless of frontier size — how
    /// differential tests pin the pool-driven path bit-identical to the
    /// sequential one.
    pub fn parallelism(&mut self, par: Parallelism) {
        self.par = par;
    }

    /// Switches per-round level bookkeeping off (or back on) for
    /// fixpoint-only callers. When off, the sparse next frontier is left
    /// in predecessor-discovery order instead of being sorted into node
    /// order — skipping an O(frontier·log frontier) sort per round on
    /// exactly the long-diameter inputs that take Θ(n) rounds.
    ///
    /// Grouping, keeper choice, and the moved set are all decided by
    /// label-invariant data and [`Self::canonical_level_into`] renumbers
    /// in node order, so the **fixpoint** partition (and each round's
    /// partition *as a partition*) is unchanged and still deterministic;
    /// only freshly split block labels — never observed by fixpoint
    /// callers — can come out permuted. Leave bookkeeping on (the
    /// default) when intermediate canonical levels are compared
    /// round-for-round against the full-round engine's history.
    pub fn observe_levels(&mut self, on: bool) {
        self.observe_levels = on;
    }

    /// The current partition under **stable** block ids (not dense, not
    /// canonical — blocks keep their id across rounds). Use
    /// [`Self::canonical_level_into`] for the canonical form.
    pub fn partition(&self) -> &[usize] {
        &self.assign
    }

    /// Writes the current partition into `out` under dense first-seen
    /// canonical ids — bit-identical to the level the full-round engine
    /// produces at the same depth.
    pub fn canonical_level_into(&mut self, out: &mut Vec<usize>) {
        self.canon_round += 1;
        let stamp = self.canon_round;
        self.canon.resize(self.blocks.count(), 0);
        self.canon_stamp.resize(self.blocks.count(), 0);
        out.clear();
        out.reserve(self.n);
        let mut fresh = 0u32;
        for &b in &self.assign {
            if self.canon_stamp[b] != stamp {
                self.canon_stamp[b] = stamp;
                self.canon[b] = fresh;
                fresh += 1;
            }
            out.push(self.canon[b] as usize);
        }
    }

    /// Counters accumulated so far (see [`RefineStats`]).
    pub fn stats(&self) -> RefineStats {
        self.stats
    }

    /// Control-aware [`round`](Self::round): polls `ctl` at the round
    /// boundary — cancel/deadline plus the touched-work ceiling, priced
    /// in cumulative encoded signatures (`RefineStats::encoded`, the
    /// same counter the perf trajectory reports). On `Err` the refiner
    /// is left exactly as the previous round left it: the caller can
    /// resume with further rounds or drop the refiner, and no partial
    /// round is ever observable.
    ///
    /// # Errors
    ///
    /// The [`Interrupted`] reported by [`ExecControl::check_work`].
    pub fn round_controlled(&mut self, ctl: &ExecControl) -> Result<bool, Interrupted> {
        ctl.check_work(self.stats.encoded)?;
        Ok(self.round())
    }

    /// Runs one refinement round over the dirty frontier. Returns `true`
    /// if any node moved to a new block (i.e. the partition changed); a
    /// `false` round is exactly the full-round engine's stabilising
    /// `next == prev` round.
    pub fn round(&mut self) -> bool {
        // Chaos site at the round boundary, before any state mutation:
        // an injected panic here leaves the refiner exactly as the
        // previous round left it, so a retry continues correctly.
        fail::fail_point!("refine-round");
        self.stats.rounds += 1;
        self.stats.encoded += self.dirty.len();
        if self.dirty.is_empty() {
            // Past the fixpoint: nothing can change.
            return false;
        }

        // Phases 1–2: encode every dirty node's signature against the
        // frozen partition — `[block, (rel id, count, successor blocks
        // [, multiplicities])*]`, the Refiner's exact encoding — and
        // group it within its block. The sequential path fuses both
        // phases through one scratch buffer; above the work gate the
        // encode fans out over the pool into chunk buffers and the
        // grouping walks them in node order, so group creation order —
        // and therefore every downstream id — is identical either way.
        let total_work: usize = self.dirty.iter().map(|&w| self.node_work[w as usize]).sum();
        let threads = self.par.threads(total_work).clamp(1, self.dirty.len());
        self.round.groups.clear();
        self.round.table.clear();
        self.round.touched.clear();
        self.round.group_of.clear();
        self.round_stamp += 1;
        let stamp = self.round_stamp;
        // "Every block fresh" fast path: on round 1 (and after every
        // dense `moved*4 >= n` frontier — the steady state of dense
        // fast-stabilising models) the dirty list is the whole
        // universe, so every block is touched and has zero clean
        // members. Pre-stamping all blocks once here lets the per-node
        // filing skip the stamp check and touched push entirely. The
        // touched order (block-id order instead of first-dirty-member
        // order) only permutes *labels* of freshly split blocks —
        // grouping, keeper choice, and the moved set are all decided
        // by label-invariant data, and ids are canonicalised at every
        // observation point ([`Self::canonical_level_into`]).
        let fresh = self.dirty.len() == self.n;
        if fresh {
            self.round.touched.extend(0..self.blocks.count() as u32);
            for b in 0..self.blocks.count() {
                self.blocks.mark[b] = stamp;
                self.blocks.head[b] = NONE_U32;
                self.blocks.dirty_count[b] = 0;
            }
        }
        let file: fn(&[u64], u32, &mut Blocks, &mut RoundScratch) =
            if fresh { group_one_fresh } else { group_one };
        if threads > 1 {
            self.stats.parallel_rounds += 1;
            self.work.clear();
            self.work.reserve(self.dirty.len() + 1);
            self.work.push(0);
            let mut acc = 0usize;
            for &w in &self.dirty {
                acc += self.node_work[w as usize];
                self.work.push(acc);
            }
            let (dirty, assign, row_bounds, row_index, counting) =
                (&self.dirty, &self.assign, &self.row_bounds, &self.row_index, self.counting);
            parallel_encode_weighted(&self.work, threads, &mut self.buffers, |range, buf| {
                let mut blocks = std::mem::take(buf.blocks_scratch());
                for i in range {
                    let v = dirty[i] as usize;
                    // Row-bound lookahead, shared cache-block geometry
                    // with the plan executor's sweeps (crate::blocking).
                    if let Some(&ahead) = dirty.get(i + crate::blocking::PREFETCH_AHEAD) {
                        crate::blocking::prefetch_read(row_bounds, ahead as usize);
                    }
                    buf.begin(assign[v]);
                    for &(r, row) in &row_index[row_bounds[v]..row_bounds[v + 1]] {
                        buf.push_word(r);
                        blocks.extend(row.iter().map(|&w| assign[w as usize]));
                        buf.push_blocks(&mut blocks, counting);
                    }
                    buf.end();
                }
                *buf.blocks_scratch() = blocks;
            });
            for ci in 0..self.buffers.len() {
                for local in 0..self.buffers[ci].len() {
                    let sig = self.buffers[ci].signature(local);
                    file(sig, stamp, &mut self.blocks, &mut self.round);
                }
            }
        } else {
            let mut sig = std::mem::take(&mut self.scratch_sig);
            let mut gather = std::mem::take(&mut self.scratch_blocks);
            for (i, &w) in self.dirty.iter().enumerate() {
                let v = w as usize;
                if let Some(&ahead) = self.dirty.get(i + crate::blocking::PREFETCH_AHEAD) {
                    crate::blocking::prefetch_read(&self.row_bounds, ahead as usize);
                }
                sig.clear();
                sig.push(self.assign[v] as u64);
                for &(r, row) in &self.row_index[self.row_bounds[v]..self.row_bounds[v + 1]] {
                    sig.push(r);
                    gather.extend(row.iter().map(|&u| self.assign[u as usize]));
                    encode_blocks(&mut sig, &mut gather, self.counting);
                }
                file(&sig, stamp, &mut self.blocks, &mut self.round);
            }
            self.scratch_sig = sig;
            self.scratch_blocks = gather;
        }
        debug_assert_eq!(self.round.group_of.len(), self.dirty.len());

        // Phase 3: per touched block, pick the group that keeps the
        // block id and allocate new blocks for the rest.
        for ti in 0..self.round.touched.len() {
            let b = self.round.touched[ti] as usize;
            let clean = self.blocks.size[b] - self.blocks.dirty_count[b] as usize;
            // Keeper: the group matching the stored signature — it is
            // indistinguishable from the clean members. With no clean
            // members and no match, the largest group keeps the id
            // (fewest moves; ties to the earliest-seen group).
            let mut keeper = NONE_U32;
            let mut largest = NONE_U32;
            let mut largest_size = 0u32;
            let mut g = self.blocks.head[b];
            while g != NONE_U32 {
                let group = &self.round.groups[g as usize];
                if group.matched {
                    keeper = g;
                }
                // Walking head-first visits groups in reverse creation
                // order; `>=` therefore ties toward the earlier group.
                if group.size >= largest_size {
                    largest = g;
                    largest_size = group.size;
                }
                g = group.next;
            }
            if keeper == NONE_U32 && clean == 0 {
                keeper = largest;
            }
            let mut g = self.blocks.head[b];
            while g != NONE_U32 {
                let group = self.round.groups[g as usize];
                debug_assert_eq!(group.block as usize, b);
                if g == keeper {
                    if !group.matched {
                        // The keeper's text becomes the block's stored
                        // signature (all remaining members share it:
                        // there are no clean members in this branch).
                        debug_assert_eq!(clean, 0);
                        self.blocks.sig_start[b] = group.sig_start;
                        self.blocks.sig_len[b] = group.sig_len as usize;
                    }
                } else {
                    // Split: members move to a fresh block id, reusing
                    // the row text copied at group creation.
                    let new_id = self.blocks.count();
                    self.blocks.size[b] -= group.size as usize;
                    self.blocks.push(group.size as usize, group.sig_start, group.sig_len as usize);
                    self.round.groups[g as usize].new_id = new_id as u32;
                }
                g = self.round.groups[g as usize].next;
            }
        }

        // Phase 4: reassign moved nodes and build the next frontier.
        self.moved.clear();
        for (i, &w) in self.dirty.iter().enumerate() {
            let new_id = self.round.groups[self.round.group_of[i] as usize].new_id;
            if new_id != NONE_U32 {
                self.assign[w as usize] = new_id as usize;
                self.moved.push(w);
            }
        }
        self.stats.moved += self.moved.len();
        self.dirty.clear();
        if self.moved.is_empty() {
            return false;
        }
        if self.moved.len() * 4 >= self.n {
            // Most nodes moved: precise predecessor propagation would
            // visit nearly every edge anyway, so mark everything dirty
            // (a superset frontier is always safe — extra nodes
            // re-encode, match their block's stored signature, and
            // stay). Fast-stabilising models take only this branch and
            // never build the reverse CSR.
            self.dirty.extend(0..self.n as u32);
        } else {
            // Sparse frontier: every predecessor of a moved node,
            // deduplicated by epoch mark and — when level bookkeeping is
            // observed — sorted so encode order (hence group order) is
            // node order.
            self.ensure_preds();
            self.epoch += 1;
            let epoch = self.epoch;
            let csc = match self.preds.as_ref().expect("just built") {
                PredRows::Owned(csc) => csc,
                PredRows::Shared(csc) => csc,
            };
            let (mark, dirty) = (&mut self.mark, &mut self.dirty);
            for &w in &self.moved {
                for &p in csc.row(w as usize) {
                    if mark[p as usize] != epoch {
                        mark[p as usize] = epoch;
                        dirty.push(p);
                    }
                }
            }
            if self.observe_levels {
                self.dirty.sort_unstable();
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_assigns_first_seen_ids() {
        let mut r = Refiner::new();
        let part = r.seed_partition([3u64, 1, 3, 2, 1].into_iter());
        assert_eq!(part, vec![0, 1, 0, 2, 1]);
    }

    #[test]
    fn identical_signatures_share_a_block() {
        let mut r = Refiner::new();
        r.begin_round();
        let mut blocks = vec![2, 1, 1];
        r.begin_signature(0);
        r.push_blocks(&mut blocks, Counting::Multiset);
        let a = r.commit();
        let mut blocks = vec![1, 2, 1]; // same multiset, different order
        r.begin_signature(0);
        r.push_blocks(&mut blocks, Counting::Multiset);
        let b = r.commit();
        assert_eq!(a, b);
        assert_eq!(r.block_count(), 1);
    }

    #[test]
    fn counting_mode_distinguishes_multiplicity() {
        let mut r = Refiner::new();
        r.begin_round();
        r.begin_signature(0);
        r.push_blocks(&mut vec![1, 1], Counting::Multiset);
        let a = r.commit();
        r.begin_signature(0);
        r.push_blocks(&mut vec![1], Counting::Multiset);
        let b = r.commit();
        assert_ne!(a, b, "multisets count");

        r.begin_round();
        r.begin_signature(0);
        r.push_blocks(&mut vec![1, 1], Counting::Distinct);
        let c = r.commit();
        r.begin_signature(0);
        r.push_blocks(&mut vec![1], Counting::Distinct);
        let d = r.commit();
        assert_eq!(c, d, "sets do not count");
    }

    #[test]
    fn relation_boundaries_are_unambiguous() {
        // {1},{} vs {},{1} across two relations must differ.
        let mut r = Refiner::new();
        r.begin_round();
        r.begin_signature(0);
        r.push_blocks(&mut vec![1], Counting::Multiset);
        r.push_blocks(&mut Vec::new(), Counting::Multiset);
        let a = r.commit();
        r.begin_signature(0);
        r.push_blocks(&mut Vec::new(), Counting::Multiset);
        r.push_blocks(&mut vec![1], Counting::Multiset);
        let b = r.commit();
        assert_ne!(a, b);
    }

    #[test]
    fn buffers_are_returned_cleared() {
        let mut r = Refiner::new();
        r.begin_round();
        let mut blocks = vec![5, 4];
        r.begin_signature(1);
        r.push_blocks(&mut blocks, Counting::Multiset);
        assert!(blocks.is_empty());
        let _ = r.commit();
    }

    #[test]
    fn intern_table_resolves_forced_hash_collisions_by_text() {
        // Every signature under one hash: the chain alone must keep
        // distinct texts apart and send equal texts to one id.
        let texts: [&[u64]; 6] = [&[1, 2], &[1, 3], &[1, 2], &[], &[1, 3, 0], &[1, 3]];
        let mut table = InternTable::default();
        let mut stored: Vec<&[u64]> = Vec::new();
        let ids: Vec<u32> = texts
            .iter()
            .map(|&text| {
                let (id, fresh) = table.intern(7, |id| stored[id as usize] == text);
                if fresh {
                    stored.push(text);
                }
                id
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 0, 2, 3, 1]);
        assert_eq!(table.len(), 4);
        // The arena the full-round engine interns through behaves alike.
        let mut arena = InternArena::<u64>::default();
        let ids: Vec<u32> = texts.iter().map(|text| arena.intern(0, text).0).collect();
        assert_eq!(ids, vec![0, 1, 0, 2, 3, 1]);
        arena.clear();
        assert_eq!(arena.intern(0, &[1, 3]), (0, true), "a cleared arena starts over");
    }

    #[test]
    fn worklist_groups_split_equal_rows_of_different_blocks_under_one_hash() {
        // `[block, row text…]` signatures filed under one forced hash:
        // equal row text under different blocks must stay in distinct
        // groups, equal full signatures must share one.
        let mut blocks = Blocks::default();
        blocks.push(3, SIG_UNSET, 0);
        blocks.push(2, SIG_UNSET, 0);
        let mut round = RoundScratch::default();
        for sig in [&[0u64, 5, 1, 3][..], &[1, 5, 1, 3], &[0, 5, 1, 3], &[0, 6], &[1, 5, 1, 3]] {
            file_into_group(sig, 0, &mut blocks, &mut round);
        }
        assert_eq!(round.group_of, vec![0, 1, 0, 2, 1]);
        let shape: Vec<(u32, u32)> = round.groups.iter().map(|g| (g.block, g.size)).collect();
        assert_eq!(shape, vec![(0, 2), (1, 2), (0, 1)]);
        // Each new text was stored once, and a group's span reads back
        // its own row text.
        assert_eq!(blocks.sig_words, vec![5, 1, 3, 5, 1, 3, 6]);
        let g = round.groups[2];
        assert_eq!(&blocks.sig_words[g.sig_start..][..g.sig_len as usize], &[6]);
    }

    #[test]
    fn commit_slice_matches_incremental_commit() {
        let mut r = Refiner::new();
        r.begin_round();
        r.begin_signature(3);
        r.push_blocks(&mut vec![7, 7, 2], Counting::Multiset);
        let incremental = r.commit();

        let mut buf = SignatureBuffer::new();
        buf.begin(3);
        buf.push_blocks(&mut vec![2, 7, 7], Counting::Multiset);
        buf.end();
        assert_eq!(r.commit_slice(buf.signature(0)), incremental);
        assert_eq!(r.block_count(), 1);
    }

    #[test]
    fn signature_buffer_bounds() {
        let mut buf = SignatureBuffer::new();
        assert!(buf.is_empty());
        buf.begin(0);
        buf.push_word(9);
        buf.end();
        buf.begin(1);
        buf.end();
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.signature(0), &[0, 9]);
        assert_eq!(buf.signature(1), &[1]);
        buf.clear();
        assert!(buf.is_empty());
    }

    #[test]
    fn parallel_encode_covers_all_nodes_in_order() {
        // Encode node ids over 3 threads; walking the buffers in order
        // must reproduce 0..n exactly once each.
        let n = 17;
        let mut buffers = Vec::new();
        parallel_encode(n, 3, &mut buffers, |range, buf| {
            for v in range {
                buf.begin(v);
                buf.end();
            }
        });
        let flat: Vec<u64> = buffers
            .iter()
            .flat_map(|b| (0..b.len()).map(|i| b.signature(i)[0]))
            .collect();
        assert_eq!(flat, (0..n as u64).collect::<Vec<_>>());
        // Re-running with fewer nodes reuses and re-clears the buffers.
        parallel_encode(5, 3, &mut buffers, |range, buf| {
            for v in range {
                buf.begin(v);
                buf.end();
            }
        });
        let total: usize = buffers.iter().map(SignatureBuffer::len).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn weighted_encode_covers_all_nodes_in_order() {
        // Hub-heavy work: node 0 carries almost everything. The split
        // must still cover 0..n exactly once, in order.
        let n = 16usize;
        let mut work = vec![0usize; n + 1];
        for v in 0..n {
            work[v + 1] = work[v] + if v == 0 { 1000 } else { 1 };
        }
        let mut buffers = Vec::new();
        parallel_encode_weighted(&work, 4, &mut buffers, |range, buf| {
            for v in range {
                buf.begin(v);
                buf.end();
            }
        });
        let flat: Vec<u64> = buffers
            .iter()
            .flat_map(|b| (0..b.len()).map(|i| b.signature(i)[0]))
            .collect();
        assert_eq!(flat, (0..n as u64).collect::<Vec<_>>());
        // The hub is isolated in its own chunk instead of dragging a
        // quarter of the nodes with it.
        assert_eq!(buffers[0].len(), 1, "hub chunk holds only the hub");
    }

    #[test]
    fn weighted_encode_balances_uniform_work_like_equal_ranges() {
        let n = 24usize;
        let work: Vec<usize> = (0..=n).collect(); // unit work per node
        let mut weighted = Vec::new();
        parallel_encode_weighted(&work, 3, &mut weighted, |range, buf| {
            for v in range {
                buf.begin(v);
                buf.end();
            }
        });
        assert!(weighted.iter().all(|b| b.len() == 8), "uniform work splits evenly");
        // Zero-work arrays degenerate gracefully (everything in the
        // last chunk, nothing lost).
        let zeros = vec![0usize; n + 1];
        let mut buffers = Vec::new();
        parallel_encode_weighted(&zeros, 3, &mut buffers, |range, buf| {
            for v in range {
                buf.begin(v);
                buf.end();
            }
        });
        let total: usize = buffers.iter().map(SignatureBuffer::len).sum();
        assert_eq!(total, n);
    }

    /// Symmetric CSR of an n-node path (0-1-…-(n-1)), one relation.
    fn path_csr(n: usize) -> (Vec<usize>, Vec<u32>) {
        let mut offsets = vec![0usize; n + 1];
        let mut targets = Vec::new();
        for v in 0..n {
            if v > 0 {
                targets.push(v as u32 - 1);
            }
            if v + 1 < n {
                targets.push(v as u32 + 1);
            }
            offsets[v + 1] = targets.len();
        }
        (offsets, targets)
    }

    fn path_degrees(n: usize) -> impl Iterator<Item = u64> {
        (0..n).map(move |v| if v == 0 || v + 1 == n { 1 } else { 2 })
    }

    fn run_to_fixpoint(r: &mut WorklistRefiner) -> Vec<usize> {
        while r.round() {}
        let mut level = Vec::new();
        r.canonical_level_into(&mut level);
        level
    }

    #[test]
    fn worklist_path_refines_by_distance_to_ends() {
        let n = 9;
        let (offsets, targets) = path_csr(n);
        let rel = RelationCsr { offsets: &offsets, targets: &targets };
        let mut r = WorklistRefiner::new(n, &[rel], Counting::Multiset, path_degrees(n));
        let level = run_to_fixpoint(&mut r);
        // Distance-to-nearest-end classes, mirror-symmetric.
        for v in 0..n {
            assert_eq!(level[v], level[n - 1 - v], "mirror symmetry at {v}");
        }
        assert_eq!(level.iter().max(), Some(&4), "⌈n/2⌉ distance classes");
    }

    #[test]
    fn worklist_touched_counter_is_o_of_n_rounds_on_paths() {
        // The headline property: on a long-diameter model the frontier
        // stays O(1) per round, so total encodes are O(n) even though
        // the refinement takes Θ(n) rounds. The full-round engine would
        // encode exactly n · rounds signatures.
        let n = 256;
        let (offsets, targets) = path_csr(n);
        let rel = RelationCsr { offsets: &offsets, targets: &targets };
        let mut r = WorklistRefiner::new(n, &[rel], Counting::Multiset, path_degrees(n));
        while r.round() {}
        let stats = r.stats();
        assert!(stats.rounds >= n / 2 - 2, "a path takes Θ(n) rounds, got {}", stats.rounds);
        let full_round_cost = n * stats.rounds;
        assert!(
            stats.encoded <= 8 * n,
            "worklist touched {} worlds; expected O(n), full-round cost is {}",
            stats.encoded,
            full_round_cost
        );
    }

    #[test]
    fn worklist_forced_parallel_matches_sequential() {
        // A pseudo-random sparse relation (deterministic LCG) plus the
        // path: pooled encode must produce identical canonical levels
        // round by round.
        let n = 60;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rand = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n];
        for _ in 0..2 * n {
            let (u, w) = (rand() % n, rand() % n);
            rows[u].push(w as u32);
        }
        let mut offsets = vec![0usize; n + 1];
        let mut targets = Vec::new();
        for (v, row) in rows.iter().enumerate() {
            targets.extend_from_slice(row);
            offsets[v + 1] = targets.len();
        }
        let rel = RelationCsr { offsets: &offsets, targets: &targets };
        let seeds: Vec<u64> = (0..n).map(|v| (v % 3) as u64).collect();
        for counting in [Counting::Distinct, Counting::Multiset] {
            let mut seq = WorklistRefiner::new(n, &[rel], counting, seeds.iter().copied());
            seq.parallelism(Parallelism::Off);
            let mut par = WorklistRefiner::new(n, &[rel], counting, seeds.iter().copied());
            par.parallelism(Parallelism::Force);
            let (mut ls, mut lp) = (Vec::new(), Vec::new());
            loop {
                let (cs, cp) = (seq.round(), par.round());
                assert_eq!(cs, cp, "round outcomes diverged");
                seq.canonical_level_into(&mut ls);
                par.canonical_level_into(&mut lp);
                assert_eq!(ls, lp, "levels diverged at round {}", seq.stats().rounds);
                if !cs {
                    break;
                }
            }
            assert_eq!(seq.stats().encoded, par.stats().encoded);
        }
    }

    #[test]
    fn worklist_shared_reverse_adjacency_matches_owned_build() {
        // Splitting the path relation into two half-relations and
        // handing a caller-built combined CSC store to the refiner
        // must reproduce the owned build's levels exactly, invoking
        // the source lazily (at most once).
        let n = 40;
        let (offsets, targets) = path_csr(n);
        // Two relations: forward edges (v → v+1) and backward edges.
        let mut fwd_off = vec![0usize; n + 1];
        let mut fwd = Vec::new();
        let mut bwd_off = vec![0usize; n + 1];
        let mut bwd = Vec::new();
        for v in 0..n {
            if v + 1 < n {
                fwd.push(v as u32 + 1);
            }
            fwd_off[v + 1] = fwd.len();
            if v > 0 {
                bwd.push(v as u32 - 1);
            }
            bwd_off[v + 1] = bwd.len();
        }
        let rels = [
            RelationCsr { offsets: &fwd_off, targets: &fwd },
            RelationCsr { offsets: &bwd_off, targets: &bwd },
        ];
        let store = CscAdjacency::from_relations(n, &rels);
        let calls = std::cell::Cell::new(0usize);
        let mut owned = WorklistRefiner::new(n, &rels, Counting::Multiset, path_degrees(n));
        let mut shared = WorklistRefiner::new(n, &rels, Counting::Multiset, path_degrees(n));
        shared.share_reverse_adjacency(|| {
            calls.set(calls.get() + 1);
            &store
        });
        let (mut lo, mut ls) = (Vec::new(), Vec::new());
        loop {
            let (co, cs) = (owned.round(), shared.round());
            assert_eq!(co, cs, "round outcomes diverged");
            owned.canonical_level_into(&mut lo);
            shared.canonical_level_into(&mut ls);
            assert_eq!(lo, ls, "levels diverged at round {}", owned.stats().rounds);
            if !co {
                break;
            }
        }
        assert_eq!(owned.stats(), shared.stats());
        assert_eq!(calls.get(), 1, "the shared source is consulted exactly once");
        // The path relation itself inverts back to the adjacency.
        let csc = CscAdjacency::from_csr(n, &offsets, &targets);
        for w in 0..n {
            let mut expect: Vec<u32> = Vec::new();
            if w > 0 {
                expect.push(w as u32 - 1);
            }
            if w + 1 < n {
                expect.push(w as u32 + 1);
            }
            assert_eq!(csc.row(w), expect.as_slice());
        }
    }

    #[test]
    fn env_knobs_parse_or_panic() {
        // The engine crates read one variable, PORTNUM_FAILPOINTS (pool
        // construction arms it). Force the parse under whatever this
        // process's environment carries, so a malformed `site=action`
        // spec in a CI job fails the suite here instead of silently
        // running with no failpoints armed.
        fail::setup_from_env();
    }

    #[test]
    fn worklist_degenerate_sizes() {
        let rel = RelationCsr { offsets: &[0], targets: &[] };
        let mut r = WorklistRefiner::new(0, &[rel], Counting::Multiset, std::iter::empty());
        assert!(!r.round(), "no nodes: first round is the stable round");
        assert_eq!(run_to_fixpoint(&mut r), Vec::<usize>::new());

        let rel = RelationCsr { offsets: &[0, 0], targets: &[] };
        let mut r = WorklistRefiner::new(1, &[rel], Counting::Multiset, std::iter::once(7));
        assert!(!r.round(), "single isolated node never splits");
        assert_eq!(run_to_fixpoint(&mut r), vec![0]);
    }

    #[test]
    fn worklist_stable_rounds_are_free() {
        let n = 16;
        let (offsets, targets) = path_csr(n);
        let rel = RelationCsr { offsets: &offsets, targets: &targets };
        let mut r = WorklistRefiner::new(n, &[rel], Counting::Multiset, path_degrees(n));
        while r.round() {}
        let encoded = r.stats().encoded;
        // Rounds past the fixpoint touch nothing.
        assert!(!r.round());
        assert!(!r.round());
        assert_eq!(r.stats().encoded, encoded);
    }

    /// `a` refines `b` as a partition: `a`-equal nodes are `b`-equal.
    fn refines(a: &[usize], b: &[usize]) -> bool {
        let mut image: Vec<Option<usize>> = vec![None; a.len()];
        a.iter().zip(b).all(|(&ba, &bb)| match image[ba] {
            None => {
                image[ba] = Some(bb);
                true
            }
            Some(prev) => prev == bb,
        })
    }

    /// Signature-uniformity of every block: the fixpoint property.
    fn is_stable(level: &[usize], rel: &RelationCsr, seeds: &[u64]) -> bool {
        let n = level.len();
        let mut sig: Vec<Option<(u64, Vec<usize>)>> = vec![None; n];
        (0..n).all(|v| {
            let mut succ: Vec<usize> = rel.targets[rel.offsets[v]..rel.offsets[v + 1]]
                .iter()
                .map(|&w| level[w as usize])
                .collect();
            succ.sort_unstable();
            match &sig[level[v]] {
                None => {
                    sig[level[v]] = Some((seeds[v], succ));
                    true
                }
                Some((s, blocks)) => *s == seeds[v] && *blocks == succ,
            }
        })
    }

    #[test]
    fn worklist_observe_levels_off_matches_fixpoint() {
        // The sub-round fast path: skipping the per-round frontier sort
        // must not change the fixpoint partition or the work counters.
        let n = 64;
        let (offsets, targets) = path_csr(n);
        let rel = RelationCsr { offsets: &offsets, targets: &targets };
        let mut on = WorklistRefiner::new(n, &[rel], Counting::Multiset, path_degrees(n));
        let mut off = WorklistRefiner::new(n, &[rel], Counting::Multiset, path_degrees(n));
        off.observe_levels(false);
        assert_eq!(run_to_fixpoint(&mut on), run_to_fixpoint(&mut off));
        assert_eq!(on.stats().encoded, off.stats().encoded);
        assert_eq!(on.stats().rounds, off.stats().rounds);
    }

    #[test]
    fn worklist_resume_reaches_a_stable_refinement() {
        // Refine a 12-path to its fixpoint, cut the middle edge (3-4),
        // and resume from the old partition with only the cut's endpoints
        // and their current predecessors dirty. The resumed fixpoint must
        // be a stable partition of the new model refining the current
        // seeds — possibly finer than the from-scratch coarsest, never
        // coarser.
        let n = 12;
        let (offsets, targets) = path_csr(n);
        let rel = RelationCsr { offsets: &offsets, targets: &targets };
        let mut orig = WorklistRefiner::new(n, &[rel], Counting::Multiset, path_degrees(n));
        run_to_fixpoint(&mut orig);
        let prior = orig.partition().to_vec();

        // New model: the path with edge 3-4 removed (two components).
        let mut cut_off = vec![0usize; n + 1];
        let mut cut_tgt = Vec::new();
        for v in 0..n {
            for &w in &targets[offsets[v]..offsets[v + 1]] {
                if !matches!((v, w), (3, 4) | (4, 3)) {
                    cut_tgt.push(w);
                }
            }
            cut_off[v + 1] = cut_tgt.len();
        }
        let cut = RelationCsr { offsets: &cut_off, targets: &cut_tgt };
        let seeds: Vec<u64> =
            (0..n).map(|v| (cut_off[v + 1] - cut_off[v]) as u64).collect();

        // Touched worlds {3, 4} plus their current predecessors.
        let dirty = [2u32, 3, 4, 5];
        let mut resumed = WorklistRefiner::resume(
            n,
            &[cut],
            Counting::Multiset,
            seeds.iter().copied(),
            &prior,
            &dirty,
        );
        resumed.observe_levels(false);
        let level = run_to_fixpoint(&mut resumed);
        assert!(is_stable(&level, &cut, &seeds), "resumed fixpoint must be stable: {level:?}");

        let mut fresh = WorklistRefiner::new(n, &[cut], Counting::Multiset, seeds.iter().copied());
        let fresh_level = run_to_fixpoint(&mut fresh);
        assert!(refines(&level, &fresh_level), "resumed {level:?} vs fresh {fresh_level:?}");
        // The frontier never grew past the cut's influence: far fewer
        // encodes than a from-scratch run of this shape.
        assert!(resumed.stats().encoded < fresh.stats().encoded);
    }

    #[test]
    fn worklist_resume_with_nothing_dirty_is_already_stable() {
        let n = 10;
        let (offsets, targets) = path_csr(n);
        let rel = RelationCsr { offsets: &offsets, targets: &targets };
        let mut orig = WorklistRefiner::new(n, &[rel], Counting::Multiset, path_degrees(n));
        let level = run_to_fixpoint(&mut orig);
        let mut resumed = WorklistRefiner::resume(
            n,
            &[rel],
            Counting::Multiset,
            path_degrees(n),
            orig.partition(),
            &[],
        );
        assert!(!resumed.round(), "an unchanged model needs no rounds");
        let mut out = Vec::new();
        resumed.canonical_level_into(&mut out);
        assert_eq!(out, level);
    }

    #[test]
    fn fxhash_is_stable_and_spreads() {
        use std::hash::Hash;
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            let mut h = FxHasher::default();
            i.hash(&mut h);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 1000, "no collisions on small consecutive keys");
    }
}
