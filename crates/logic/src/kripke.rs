//! Kripke models, including the four canonical models `K_{a,b}(G, p)` of
//! Section 4.3.
//!
//! A port-numbered graph `(G, p)` induces accessibility relations
//!
//! ```text
//! R_(i,j) = { (v, w) : p((w, j)) = (v, i) }
//! ```
//!
//! (“`w`'s out-port `j` feeds `v`'s in-port `i`”), together with their
//! projections `R_(*,j)`, `R_(i,*)`, and `R_(*,*)`, and the valuation
//! `τ(q_d) = { v : deg(v) = d }`. The four models
//! `K₊,₊ / K₋,₊ / K₊,₋ / K₋,₋` expose exactly the information available to
//! the `Vector` / `Multiset`·`Set` / `Broadcast` / `MB`·`SB` algorithm
//! classes respectively (Figure 7).
//!
//! # Storage layout
//!
//! Relations are stored in **CSR (compressed sparse row)** form: the
//! modality indices live in one dense sorted `Vec<ModalIndex>`, and each
//! relation `r` is a pair of flat arrays `offsets[r]` / `targets[r]` with
//! the successors of world `v` at
//! `targets[r][offsets[r][v] .. offsets[r][v + 1]]`. Compared to the
//! previous `BTreeMap<ModalIndex, Vec<Vec<usize>>>`, every successor scan
//! is one bounds-checked slice index instead of a tree walk plus a
//! double pointer chase, and a whole-relation sweep (the partition
//! refinement inner loop) walks two contiguous arrays in order. Dense
//! relation ids (`0..relation_count()`) let hot paths skip the
//! by-[`ModalIndex`] lookup entirely via [`Kripke::successors_dense`].
//!
//! Targets are stored as `u32` world ids (models are capped at `2³²`
//! worlds, asserted on construction): half the relation memory of
//! `usize` targets, so twice as many successors per cache line on the
//! refinement and evaluation sweeps. Accessors therefore hand out
//! `&[u32]`; widen with `w as usize` when indexing host-side arrays.
//!
//! # Reverse adjacency
//!
//! The forward CSR answers "successors of `v`" in O(row); the packed
//! model checker's reverse diamond path also needs "predecessors of
//! `w`". [`Kripke::predecessors_csc`] inverts the forward CSR into a
//! per-relation [`CscAdjacency`] (reverse CSR): `O(n + edges)` memory
//! at any scale, so the reverse diamond path — and graded counting —
//! stays open on huge sparse models. The same store drives the
//! worklist refinement engine's dirty propagation
//! ([`portnum_graph::partition::WorklistRefiner::share_reverse_adjacency`]),
//! so the inverse is built at most once per relation *across* the
//! evaluator and the refiner.
//!
//! The stores are lazy and built at most once each (a `OnceLock` per
//! store; ignored by `PartialEq`, carried along by `clone`).

use crate::error::LogicError;
use crate::formula::{IndexFamily, ModalIndex};
use portnum_graph::csc::CscAdjacency;
use portnum_graph::partition::RelationCsr;
use portnum_graph::splice::splice_rows;
use portnum_graph::{Graph, Port, PortNumbering};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Which of the four canonical model variants a [`Kripke`] model is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelVariant {
    /// `K₊,₊`: relations `R_(i,j)` — full port information.
    PlusPlus,
    /// `K₋,₊`: relations `R_(*,j)` — sender's out-port only.
    MinusPlus,
    /// `K₊,₋`: relations `R_(i,*)` — receiver's in-port only.
    PlusMinus,
    /// `K₋,₋`: the single relation `R_(*,*)` — plain adjacency.
    MinusMinus,
}

impl ModelVariant {
    /// The index family whose modalities this variant interprets.
    pub fn family(self) -> IndexFamily {
        match self {
            ModelVariant::PlusPlus => IndexFamily::InOut,
            ModelVariant::MinusPlus => IndexFamily::Out,
            ModelVariant::PlusMinus => IndexFamily::In,
            ModelVariant::MinusMinus => IndexFamily::Any,
        }
    }
}

/// One relation in CSR form: successors of `v` are
/// `targets[offsets[v] .. offsets[v + 1]]`, stored as `u32` world ids.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CsrRelation {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

/// A cache value stamped with the model version it was built against.
/// Every cache read debug-asserts `built_at == version`, so a stale
/// cache (a patch-coverage bug in [`Kripke::apply_delta`]) fails loudly
/// in debug builds instead of serving a torn answer.
#[derive(Debug, Clone)]
struct Stamped<T> {
    built_at: u64,
    value: T,
}

impl CsrRelation {
    /// Builds a CSR row set from `(source, target)` pairs. Pair order is
    /// preserved within each source's row.
    fn from_pairs(n: usize, pairs: &[(usize, usize)]) -> CsrRelation {
        let mut offsets = vec![0usize; n + 1];
        for &(v, _) in pairs {
            offsets[v + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; pairs.len()];
        for &(v, w) in pairs {
            targets[cursor[v]] = w as u32;
            cursor[v] += 1;
        }
        CsrRelation { offsets, targets }
    }

    /// Builds a CSR row set from a **re-runnable** edge stream, without
    /// ever materialising the pairs: one counting pass sizes the rows
    /// and range-checks every pair, one placement pass writes targets
    /// straight into their final slots. `edges()` must yield the same
    /// sequence on both calls (the million-world generators are
    /// deterministic closures, so this is free); pair order is
    /// preserved within each source's row, exactly as
    /// [`CsrRelation::from_pairs`] does.
    ///
    /// # Errors
    ///
    /// [`LogicError::WorldOutOfRange`] if a pair mentions a world
    /// `>= n`, returned from the counting pass before any target is
    /// placed.
    fn from_stream<I>(n: usize, edges: impl Fn() -> I) -> Result<CsrRelation, LogicError>
    where
        I: Iterator<Item = (u32, u32)>,
    {
        let mut offsets = vec![0usize; n + 1];
        for (v, w) in edges() {
            if v as usize >= n || w as usize >= n {
                return Err(LogicError::WorldOutOfRange);
            }
            offsets[v as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; offsets[n]];
        for (v, w) in edges() {
            let slot = cursor[v as usize];
            debug_assert!(
                slot < offsets[v as usize + 1],
                "edge stream changed between the counting and placement passes"
            );
            targets[slot] = w;
            cursor[v as usize] = slot + 1;
        }
        Ok(CsrRelation { offsets, targets })
    }

    #[inline]
    fn row(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Applies a **validated** batch of edge edits through the shared
    /// in-place kernel ([`splice_rows`]). Each touched row becomes its
    /// old contents minus one occurrence per removal (first match,
    /// order preserved) with added targets appended in batch order — a
    /// canonical row a differential mirror can reproduce, so a patched
    /// relation is `Eq`-identical to one rebuilt from the edited rows.
    fn apply_edits(&mut self, adds: &[(u32, u32)], removes: &[(u32, u32)]) {
        // The stable sort keeps adds in batch order within each row;
        // removal order within a row is immaterial (first-occurrence
        // consumption yields the same row either way).
        let mut add_sorted = adds.to_vec();
        add_sorted.sort_by_key(|&(v, _)| v);
        let mut rm_sorted = removes.to_vec();
        rm_sorted.sort_unstable_by_key(|&(v, _)| v);
        // One consumed-flag per removal in the row, reused across rows.
        let mut used: Vec<bool> = Vec::new();
        let (offsets, targets) = (&mut self.offsets, &mut self.targets);
        splice_rows(offsets, targets, &add_sorted, &rm_sorted, |_, old, row_adds, row_rms, out| {
            used.clear();
            used.resize(row_rms.len(), false);
            for &t in old {
                match (0..row_rms.len()).find(|&k| !used[k] && row_rms[k].1 == t) {
                    Some(k) => used[k] = true,
                    None => out.push(t),
                }
            }
            debug_assert!(used.iter().all(|&u| u), "removal validated against the stored row");
            out.extend(row_adds.iter().map(|&(_, w)| w));
        });
    }
}

/// Type of the edge-stream factories a [`KripkeBuilder`] stores: each
/// call must replay the same `(source, target)` sequence (the builder
/// runs one range-checking counting pass and one placement pass per
/// relation).
type EdgeStreamFn<'a> = Box<dyn Fn() -> Box<dyn Iterator<Item = (u32, u32)> + 'a> + 'a>;

/// Streaming [`Kripke`] construction: edges flow from generator
/// closures straight into the final CSR arrays (counting pass +
/// placement pass per relation), so a 10⁶–10⁷-world model is built
/// without ever materialising an intermediate edge `Vec` — peak memory
/// is the finished model plus one `usize` cursor per world.
///
/// Each relation is registered as a *factory closure* returning a
/// fresh iterator over `(source, target)` pairs; the closure is called
/// twice and must replay the same sequence both times (deterministic
/// generators — [`portnum_graph::generators::path_edges`] and
/// friends — satisfy this by construction). Pair order within a
/// source's row is preserved, so a builder fed the same pair sequence
/// as [`Kripke::from_parts`] produces an `Eq`-identical model; the
/// streaming proptests pin exactly that.
///
/// # Examples
///
/// ```
/// use portnum_graph::generators;
/// use portnum_logic::{Kripke, KripkeBuilder, ModalIndex, ModelVariant};
///
/// let n = 1 << 10;
/// let streamed = KripkeBuilder::new(ModelVariant::MinusMinus, n)
///     .relation(ModalIndex::Any, || generators::path_edges(n))
///     .degrees_from_streams()
///     .build()?;
/// assert_eq!(streamed.len(), n);
/// assert_eq!(streamed.degree(0), 1);
/// assert_eq!(streamed.degree(1), 2);
/// # Ok::<(), portnum_logic::LogicError>(())
/// ```
pub struct KripkeBuilder<'a> {
    variant: ModelVariant,
    n: usize,
    degree: Option<Vec<usize>>,
    relations: BTreeMap<ModalIndex, EdgeStreamFn<'a>>,
}

impl<'a> KripkeBuilder<'a> {
    /// A builder for an `n`-world model of the given variant. The
    /// degree valuation defaults to
    /// [`degrees_from_streams`](Self::degrees_from_streams); pass an
    /// explicit vector via [`degrees`](Self::degrees) to override.
    pub fn new(variant: ModelVariant, n: usize) -> KripkeBuilder<'a> {
        KripkeBuilder { variant, n, degree: None, relations: BTreeMap::new() }
    }

    /// Sets the degree valuation explicitly (`degree.len()` must be the
    /// builder's world count; checked in [`build`](Self::build)).
    pub fn degrees(mut self, degree: Vec<usize>) -> KripkeBuilder<'a> {
        self.degree = Some(degree);
        self
    }

    /// Derives the degree valuation from the streams themselves:
    /// `degree(v)` = total out-degree of `v` across all registered
    /// relations. For all four canonical port models this *is* the
    /// graph degree (each of `v`'s ports contributes exactly one
    /// stored pair with source `v`, under every projection), so the
    /// million-world families get the right valuation with no extra
    /// pass — the counting pass already computes it.
    pub fn degrees_from_streams(mut self) -> KripkeBuilder<'a> {
        self.degree = None;
        self
    }

    /// Registers the relation for `index` as a replayable edge-stream
    /// factory. Registering the same index twice replaces the stream.
    pub fn relation<I, F>(mut self, index: ModalIndex, edges: F) -> KripkeBuilder<'a>
    where
        F: Fn() -> I + 'a,
        I: Iterator<Item = (u32, u32)> + 'a,
    {
        self.relations.insert(index, Box::new(move || Box::new(edges())));
        self
    }

    /// Streams every registered relation into its final CSR arrays and
    /// assembles the model.
    ///
    /// # Errors
    ///
    /// [`LogicError::FamilyMismatch`] if a registered index does not
    /// belong to the variant's family, [`LogicError::WorldOutOfRange`]
    /// if any streamed pair mentions a world `>= n`, or if an explicit
    /// degree vector's length is not `n`.
    pub fn build(self) -> Result<Kripke, LogicError> {
        let n = self.n;
        assert!(n <= u32::MAX as usize, "Kripke models are capped at 2^32 worlds");
        if let Some(degree) = &self.degree {
            if degree.len() != n {
                return Err(LogicError::WorldOutOfRange);
            }
        }
        let mut index_keys = Vec::with_capacity(self.relations.len());
        let mut relations = Vec::with_capacity(self.relations.len());
        for (&index, make) in &self.relations {
            if index.family() != self.variant.family() {
                return Err(LogicError::FamilyMismatch {
                    expected: self.variant.family(),
                    found: index.family(),
                });
            }
            index_keys.push(index);
            relations.push(CsrRelation::from_stream(n, make)?);
        }
        let degree = match self.degree {
            Some(degree) => degree,
            None => {
                // Sum of out-degrees across relations, straight from
                // the already-built offsets — no extra stream pass.
                let mut degree = vec![0usize; n];
                for rel in &relations {
                    for (v, d) in degree.iter_mut().enumerate() {
                        *d += rel.offsets[v + 1] - rel.offsets[v];
                    }
                }
                degree
            }
        };
        Ok(Kripke::from_csr(self.variant, degree, index_keys, relations))
    }
}

/// A batch of model edits — add/remove edges, override valuations,
/// crash worlds — applied **atomically** by [`Kripke::apply_delta`]:
/// a rejected delta leaves the model (and every cache) untouched.
///
/// Deltas edit only modalities the model already stores
/// ([`LogicError::NoSuchRelation`] otherwise): dense relation ids are
/// baked into every compiled plan, so inserting a relation would
/// silently invalidate them. Construct dynamic models with all needed
/// relations up front — empty rows are fine.
///
/// Crashing a world removes every edge at it (out-edges and in-edges,
/// across all relations) but keeps the world, so the universe — and
/// every world id held by detached caches — stays stable; its degree
/// auto-adjusts to the isolated world's out-degree (0 on canonical
/// models). This is the crash-failure product update of the dynamic
/// epistemic treatments of fault-tolerant computation: the crashed
/// process stops being observable, the indexing of agents does not
/// shift.
///
/// # Examples
///
/// ```
/// use portnum_graph::generators;
/// use portnum_logic::{Kripke, ModalIndex, ModelDelta};
///
/// let mut k = Kripke::k_mm(&generators::path(4));
/// let mut delta = ModelDelta::new();
/// delta.remove_edge(ModalIndex::Any, 1, 2).remove_edge(ModalIndex::Any, 2, 1);
/// let touched = k.apply_delta(&delta)?;
/// assert_eq!(touched, vec![1, 2]);
/// assert_eq!(k.successors(1, ModalIndex::Any), &[0]);
/// assert_eq!(k.degree(1), 1);
/// assert_eq!(k.version(), 1);
/// # Ok::<(), portnum_logic::LogicError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModelDelta {
    add: Vec<(ModalIndex, u32, u32)>,
    remove: Vec<(ModalIndex, u32, u32)>,
    valuation: Vec<(u32, usize)>,
    crash: Vec<u32>,
}

impl ModelDelta {
    /// An empty delta.
    pub fn new() -> ModelDelta {
        ModelDelta::default()
    }

    /// Adds the edge `v →index w`. Relations are multisets: adding an
    /// edge already present stores another copy.
    pub fn add_edge(&mut self, index: ModalIndex, v: u32, w: u32) -> &mut ModelDelta {
        self.add.push((index, v, w));
        self
    }

    /// Removes one stored copy of the edge `v →index w`
    /// ([`LogicError::EdgeNotPresent`] at apply time if none remains).
    pub fn remove_edge(&mut self, index: ModalIndex, v: u32, w: u32) -> &mut ModelDelta {
        self.remove.push((index, v, w));
        self
    }

    /// Overrides world `v`'s recorded degree (its valuation: `q_d`
    /// holds iff `degree(v) = d`), after the automatic out-degree
    /// adjustment from this delta's edge edits.
    pub fn set_valuation(&mut self, v: u32, d: usize) -> &mut ModelDelta {
        self.valuation.push((v, d));
        self
    }

    /// Crashes world `v`: removes every edge currently at it, in both
    /// directions, across all relations. Combining a crash with an
    /// explicit removal of one of those edges double-removes it and is
    /// rejected at apply time.
    pub fn crash_world(&mut self, v: u32) -> &mut ModelDelta {
        self.crash.push(v);
        self
    }

    /// `true` if the delta contains no edits at all.
    pub fn is_empty(&self) -> bool {
        self.add.is_empty()
            && self.remove.is_empty()
            && self.valuation.is_empty()
            && self.crash.is_empty()
    }

    /// Number of recorded edits (crashes count as one each, before
    /// expansion into edge removals).
    pub fn edit_count(&self) -> usize {
        self.add.len() + self.remove.len() + self.valuation.len() + self.crash.len()
    }
}

/// A finite multimodal Kripke model with degree-atom valuation.
///
/// # Examples
///
/// ```
/// use portnum_graph::{generators, PortNumbering};
/// use portnum_logic::{Formula, Kripke, ModalIndex};
///
/// let g = generators::star(3);
/// let p = PortNumbering::consistent(&g);
/// let k = Kripke::k_mm(&g);
/// // "some neighbour has degree 3" holds exactly at the leaves.
/// let f = Formula::diamond(ModalIndex::Any, &Formula::prop(3));
/// assert_eq!(portnum_logic::evaluate(&k, &f)?, vec![false, true, true, true]);
/// # let _ = p;
/// # Ok::<(), portnum_logic::LogicError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Kripke {
    variant: ModelVariant,
    degree: Vec<usize>,
    /// Modality indices with a (possibly empty) stored relation, sorted.
    index_keys: Vec<ModalIndex>,
    /// CSR relations, parallel to `index_keys`.
    relations: Vec<CsrRelation>,
    /// Lazily-built CSC (reverse CSR) predecessor lists, parallel to
    /// `relations`. Derived data: excluded from equality, cloned along
    /// with the model.
    reverse_csc: Vec<OnceLock<Stamped<CscAdjacency>>>,
    /// Lazily-built CSC over the union of **all** relations — the shape
    /// the worklist refiner's dirty propagation wants on multi-relation
    /// models (single-relation models reuse `reverse_csc[0]` instead).
    /// Derived data, like `reverse_csc`.
    reverse_csc_combined: OnceLock<Stamped<CscAdjacency>>,
    /// Mutation counter: bumped by every non-empty
    /// [`Kripke::apply_delta`], `0` at construction. Detached caches
    /// ([`crate::plan::CheckerCache`]) record it to check resumability;
    /// the in-model caches above carry a matching stamp. Excluded from
    /// equality — it is history, not structure.
    version: u64,
    empty: Vec<u32>,
}

// The predecessor caches are derived from `relations`, so two models are
// equal iff their declared parts are — comparing the cache would make
// equality depend on evaluation history.
impl PartialEq for Kripke {
    fn eq(&self, other: &Kripke) -> bool {
        self.variant == other.variant
            && self.degree == other.degree
            && self.index_keys == other.index_keys
            && self.relations == other.relations
    }
}

impl Eq for Kripke {}

impl Kripke {
    /// Builds the canonical CSR layout from per-index edge lists. `groups`
    /// is consumed in key order (it is a `BTreeMap`, so `index_keys` comes
    /// out sorted); pair order within a source is preserved.
    fn from_edge_groups(
        variant: ModelVariant,
        degree: Vec<usize>,
        groups: BTreeMap<ModalIndex, Vec<(usize, usize)>>,
    ) -> Kripke {
        let n = degree.len();
        assert!(n <= u32::MAX as usize, "Kripke models are capped at 2^32 worlds");
        let mut index_keys = Vec::with_capacity(groups.len());
        let mut relations = Vec::with_capacity(groups.len());
        for (index, pairs) in groups {
            index_keys.push(index);
            relations.push(CsrRelation::from_pairs(n, &pairs));
        }
        Kripke::from_csr(variant, degree, index_keys, relations)
    }

    /// Wraps finished CSR relations (parallel to the sorted
    /// `index_keys`) into a version-0 model with empty caches.
    fn from_csr(
        variant: ModelVariant,
        degree: Vec<usize>,
        index_keys: Vec<ModalIndex>,
        relations: Vec<CsrRelation>,
    ) -> Kripke {
        let reverse_csc = (0..relations.len()).map(|_| OnceLock::new()).collect();
        Kripke {
            variant,
            degree,
            index_keys,
            relations,
            reverse_csc,
            reverse_csc_combined: OnceLock::new(),
            version: 0,
            empty: Vec::new(),
        }
    }

    /// Wraps relations built straight into CSR form: `(index, offsets,
    /// targets)` triples in ascending index order, each `offsets` of
    /// length `degree.len() + 1` and every target `< degree.len()`.
    /// Only debug builds check this — the caller (the quotient
    /// construction) produces the arrays itself, so there is no
    /// untrusted input to validate and no edge list to rebuild them from.
    pub(crate) fn from_csr_rows(
        variant: ModelVariant,
        degree: Vec<usize>,
        rows: Vec<(ModalIndex, Vec<usize>, Vec<u32>)>,
    ) -> Kripke {
        let n = degree.len();
        let mut index_keys = Vec::with_capacity(rows.len());
        let mut relations = Vec::with_capacity(rows.len());
        for (index, offsets, targets) in rows {
            debug_assert_eq!(index.family(), variant.family(), "index outside the variant");
            debug_assert!(index_keys.last().is_none_or(|&prev| prev < index), "indices ascend");
            debug_assert_eq!(offsets.len(), n + 1, "offsets need n + 1 entries");
            debug_assert_eq!(offsets[n], targets.len(), "offsets end at the target count");
            debug_assert!(targets.iter().all(|&w| (w as usize) < n), "targets in range");
            index_keys.push(index);
            relations.push(CsrRelation { offsets, targets });
        }
        Kripke::from_csr(variant, degree, index_keys, relations)
    }

    fn from_ports(
        g: &Graph,
        p: &PortNumbering,
        variant: ModelVariant,
        project: impl Fn(usize, usize) -> ModalIndex,
    ) -> Self {
        let mut groups: BTreeMap<ModalIndex, Vec<(usize, usize)>> = BTreeMap::new();
        for v in g.nodes() {
            for i in 0..g.degree(v) {
                let src = p.backward(Port::new(v, i));
                let index = project(i, src.index);
                groups.entry(index).or_default().push((v, src.node));
            }
        }
        Self::from_edge_groups(variant, g.degrees(), groups)
    }

    /// The model `K₊,₊(G, p)` with relations `R_(i,j)`.
    pub fn k_pp(g: &Graph, p: &PortNumbering) -> Self {
        Self::from_ports(g, p, ModelVariant::PlusPlus, ModalIndex::InOut)
    }

    /// The model `K₋,₊(G, p)` with relations `R_(*,j)`.
    pub fn k_mp(g: &Graph, p: &PortNumbering) -> Self {
        Self::from_ports(g, p, ModelVariant::MinusPlus, |_i, j| ModalIndex::Out(j))
    }

    /// The model `K₊,₋(G, p)` with relations `R_(i,*)`.
    pub fn k_pm(g: &Graph, p: &PortNumbering) -> Self {
        Self::from_ports(g, p, ModelVariant::PlusMinus, |i, _j| ModalIndex::In(i))
    }

    /// The model `K₋,₋(G)` with the single relation `R_(*,*)` (the edge set
    /// as a symmetric relation). Independent of the port numbering.
    pub fn k_mm(g: &Graph) -> Self {
        let mut pairs = Vec::with_capacity(2 * g.edge_count());
        for v in g.nodes() {
            pairs.extend(g.neighbors(v).iter().map(|&w| (v, w)));
        }
        let mut groups = BTreeMap::new();
        groups.insert(ModalIndex::Any, pairs);
        Self::from_edge_groups(ModelVariant::MinusMinus, g.degrees(), groups)
    }

    /// Builds a custom model from explicit parts (for hand-crafted logic
    /// tests). All relation indices must belong to `variant`'s family, and
    /// all successor ids must be `< degree.len()`.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::FamilyMismatch`] or
    /// [`LogicError::WorldOutOfRange`] on malformed input.
    pub fn from_parts(
        variant: ModelVariant,
        degree: Vec<usize>,
        relations: BTreeMap<ModalIndex, Vec<Vec<usize>>>,
    ) -> Result<Self, LogicError> {
        let n = degree.len();
        let mut groups: BTreeMap<ModalIndex, Vec<(usize, usize)>> = BTreeMap::new();
        for (&index, rows) in &relations {
            if index.family() != variant.family() {
                return Err(LogicError::FamilyMismatch {
                    expected: variant.family(),
                    found: index.family(),
                });
            }
            if rows.len() != n || rows.iter().flatten().any(|&w| w >= n) {
                return Err(LogicError::WorldOutOfRange);
            }
            let pairs = groups.entry(index).or_default();
            for (v, row) in rows.iter().enumerate() {
                pairs.extend(row.iter().map(|&w| (v, w)));
            }
        }
        Ok(Self::from_edge_groups(variant, degree, groups))
    }

    /// The model variant.
    pub fn variant(&self) -> ModelVariant {
        self.variant
    }

    /// Number of worlds.
    pub fn len(&self) -> usize {
        self.degree.len()
    }

    /// Returns `true` if the model has no worlds.
    pub fn is_empty(&self) -> bool {
        self.degree.is_empty()
    }

    /// The degree recorded at world `v` (its valuation: `q_d` holds iff
    /// `degree(v) = d`).
    pub fn degree(&self, v: usize) -> usize {
        self.degree[v]
    }

    /// All world degrees as a slice — the whole valuation at once, for
    /// bulk sweeps (the plan executor's chunked `Prop` fill reads this
    /// instead of calling [`Kripke::degree`] per world).
    pub fn degrees(&self) -> &[usize] {
        &self.degree
    }

    /// Successors of `v` under the relation for `index` (empty if the
    /// relation does not occur in the model), as `u32` world ids.
    pub fn successors(&self, v: usize, index: ModalIndex) -> &[u32] {
        match self.index_keys.binary_search(&index) {
            Ok(r) => self.relations[r].row(v),
            Err(_) => &self.empty,
        }
    }

    /// The modality indices with stored relations, in sorted order.
    pub fn indices(&self) -> impl Iterator<Item = ModalIndex> + '_ {
        self.index_keys.iter().copied()
    }

    /// Number of stored relations (dense ids are `0..relation_count()`).
    pub fn relation_count(&self) -> usize {
        self.index_keys.len()
    }

    /// The dense relation id for `index`, if the relation is stored.
    /// Resolve once, then walk worlds with [`Kripke::successors_dense`] —
    /// cheaper than per-world [`Kripke::successors`] lookups.
    pub fn relation_id(&self, index: ModalIndex) -> Option<usize> {
        self.index_keys.binary_search(&index).ok()
    }

    /// The modality index of dense relation `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.relation_count()`.
    pub fn relation_index(&self, r: usize) -> ModalIndex {
        self.index_keys[r]
    }

    /// Successors of `v` under dense relation id `r` — the hot-path
    /// variant of [`Kripke::successors`] that skips the index lookup.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.relation_count()` or `v >= self.len()`.
    #[inline]
    pub fn successors_dense(&self, r: usize, v: usize) -> &[u32] {
        self.relations[r].row(v)
    }

    /// Total number of stored successor pairs across all relations —
    /// the refinement engine's per-round signature encode work.
    pub fn relation_entry_count(&self) -> usize {
        self.relations.iter().map(|rel| rel.targets.len()).sum()
    }

    /// The raw CSR arrays of dense relation id `r`: successors of `v` are
    /// `targets[offsets[v]..offsets[v + 1]]`. For loops over *all* worlds
    /// (the model checker's diamond evaluation) this beats per-world
    /// [`Kripke::successors_dense`] calls: the relation is resolved once
    /// and a sequential scan can carry `offsets[v + 1]` over as the next
    /// row's start.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.relation_count()`.
    #[inline]
    pub fn relation_rows(&self, r: usize) -> (&[usize], &[u32]) {
        let rel = &self.relations[r];
        (&rel.offsets, &rel.targets)
    }

    /// All stored relations as borrowed CSR slices, in dense-id order —
    /// the input shape of the worklist refinement engine
    /// ([`portnum_graph::partition::WorklistRefiner`]). No copies: the
    /// slices alias the model's own arrays.
    pub fn relations_csr(&self) -> Vec<RelationCsr<'_>> {
        self.relations
            .iter()
            .map(|rel| RelationCsr { offsets: &rel.offsets, targets: &rel.targets })
            .collect()
    }

    /// The CSC (reverse CSR) predecessor lists of dense relation `r`:
    /// `row(w)` is the list `{ v : w ∈ successors(v) }`, one entry per
    /// stored edge, sorted ascending.
    ///
    /// `O(n + edges)` memory, so the evaluator's reverse diamond path
    /// (the CSC gather, including graded counting) works at **any**
    /// model size. Built lazily from the forward CSR on first call and cached for
    /// the lifetime of the model (a clone carries any already-built
    /// stores). The worklist refinement engine shares this exact store
    /// for its dirty-frontier propagation, so evaluator and refiner
    /// build the inverse at most once between them.
    ///
    /// # Atomicity
    ///
    /// The store is a `OnceLock`: a panic inside the build closure (the
    /// `csc-build` chaos site inside the builder) leaves the lock
    /// *uninitialised*, not poisoned or torn — the next caller simply
    /// rebuilds. Torn publication is impossible by construction, which
    /// is what lets an interrupted query retry bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.relation_count()`.
    pub fn predecessors_csc(&self, r: usize) -> &CscAdjacency {
        let stamped = self.reverse_csc[r].get_or_init(|| {
            let (offsets, targets) = self.relation_rows(r);
            Stamped { built_at: self.version, value: CscAdjacency::from_csr(self.len(), offsets, targets) }
        });
        debug_assert_eq!(
            stamped.built_at, self.version,
            "stale CSC predecessor cache for relation {r}"
        );
        &stamped.value
    }

    /// The CSC predecessor lists of the **union of all relations** —
    /// "who can see `w` under any modality", the shape the worklist
    /// refinement engine's dirty propagation consumes
    /// ([`portnum_graph::partition::WorklistRefiner::share_reverse_adjacency`]).
    ///
    /// Lazy and cached like [`Kripke::predecessors_csc`]; on
    /// single-relation models (`K₋,₋`, 1-relation customs — exactly the
    /// models that get huge) it *is* the per-relation store, so the
    /// refiner and the evaluator's reverse diamonds share one build.
    /// Multi-relation models keep a separate combined store (one row
    /// lookup per moved world beats per-relation probing when `K₊,₊`
    /// carries O(Δ²) mostly-empty relations), amortised across every
    /// refinement run on the model.
    pub fn combined_predecessors_csc(&self) -> &CscAdjacency {
        if self.relation_count() == 1 {
            return self.predecessors_csc(0);
        }
        let stamped = self.reverse_csc_combined.get_or_init(|| Stamped {
            built_at: self.version,
            value: CscAdjacency::from_relations(self.len(), &self.relations_csr()),
        });
        debug_assert_eq!(stamped.built_at, self.version, "stale combined CSC predecessor cache");
        &stamped.value
    }

    /// The model's mutation counter: `0` at construction, bumped by
    /// every non-empty [`Kripke::apply_delta`]. Derived caches — the
    /// in-model predecessor stores and detached
    /// [`crate::plan::CheckerCache`]s — record the version they were
    /// built against; a mismatch means the cache is stale.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The dense relation id a delta edit on `index` targets.
    fn edit_relation(&self, index: ModalIndex) -> Result<usize, LogicError> {
        if index.family() != self.variant.family() {
            return Err(LogicError::FamilyMismatch {
                expected: self.variant.family(),
                found: index.family(),
            });
        }
        self.relation_id(index).ok_or(LogicError::NoSuchRelation)
    }

    /// Applies `delta` atomically: validates every edit up front (a
    /// rejected delta leaves the model and its caches untouched), then
    /// rewrites the edited forward CSR rows in their own arrays,
    /// **repairs** the already-built derived caches instead of dropping
    /// them — per-relation CSC rows are patched via
    /// [`CscAdjacency::apply_edits`], only the multi-relation combined
    /// CSC is invalidated for lazy rebuild — bumps [`Kripke::version`],
    /// and returns the sorted, deduplicated set of **touched worlds**:
    /// every endpoint of an edited edge, every world whose recorded
    /// degree changed or was explicitly set, and every crashed world.
    ///
    /// Both stores go through one in-place kernel
    /// ([`portnum_graph::splice::splice_rows`]): the touched rows are
    /// rewritten, the untouched spans between them move by their
    /// running shift (a `memmove`, skipped where the shift is zero),
    /// and an array is reallocated only when it grows past its
    /// capacity. A delta that keeps every row's length writes only
    /// the touched rows.
    ///
    /// The touched set is the contract consumed by the repair layers:
    /// a world outside it has its exact pre-delta valuation and forward
    /// row ([`crate::plan::ModelChecker::resume`] and
    /// [`crate::bisim::refine_fixpoint_from`] rely on precisely this).
    ///
    /// Degrees track the canonical invariant `degree(v) = ` total
    /// out-degree: each source's recorded degree is adjusted by its net
    /// out-degree change (saturating at zero for hand-crafted models
    /// whose valuation is decoupled from the rows), then explicit
    /// [`ModelDelta::set_valuation`] overrides are applied.
    ///
    /// # Errors
    ///
    /// [`LogicError::FamilyMismatch`] for an edit on a modality outside
    /// the variant's family, [`LogicError::NoSuchRelation`] for one
    /// with no stored relation, [`LogicError::WorldOutOfRange`] for any
    /// world id `>= self.len()`, and [`LogicError::EdgeNotPresent`] if
    /// removals (explicit or crash-expanded) exceed an edge's stored
    /// multiplicity.
    pub fn apply_delta(&mut self, delta: &ModelDelta) -> Result<Vec<u32>, LogicError> {
        if delta.is_empty() {
            return Ok(Vec::new());
        }
        let n = self.len();
        let in_range = |w: u32| (w as usize) < n;

        // ---- Validation and lowering, before any mutation. ----
        let rel_count = self.relation_count();
        let mut adds: Vec<Vec<(u32, u32)>> = vec![Vec::new(); rel_count];
        let mut removes: Vec<Vec<(u32, u32)>> = vec![Vec::new(); rel_count];
        for &(index, v, w) in &delta.add {
            if !in_range(v) || !in_range(w) {
                return Err(LogicError::WorldOutOfRange);
            }
            adds[self.edit_relation(index)?].push((v, w));
        }
        for &(index, v, w) in &delta.remove {
            if !in_range(v) || !in_range(w) {
                return Err(LogicError::WorldOutOfRange);
            }
            removes[self.edit_relation(index)?].push((v, w));
        }
        if delta.valuation.iter().any(|&(v, _)| !in_range(v)) || !delta.crash.iter().all(|&c| in_range(c)) {
            return Err(LogicError::WorldOutOfRange);
        }

        // Expand crashes into edge removals against the pre-delta rows.
        let mut crash = delta.crash.clone();
        crash.sort_unstable();
        crash.dedup();
        if !crash.is_empty() {
            let mut crashed = vec![false; n];
            for &c in &crash {
                crashed[c as usize] = true;
            }
            for (r, removes) in removes.iter_mut().enumerate() {
                // Out-edges come from the crashed worlds' own rows; in-
                // edges from surviving sources only, so an edge between
                // two crashed worlds (or a self-loop) is removed once.
                for &c in &crash {
                    for &w in self.relations[r].row(c as usize) {
                        removes.push((c, w));
                    }
                }
                match self.reverse_csc[r].get() {
                    // An already-built (hence fresh) CSC answers
                    // "who sees c" directly.
                    Some(st) => {
                        for &c in &crash {
                            for &v in st.value.row(c as usize) {
                                if !crashed[v as usize] {
                                    removes.push((v, c));
                                }
                            }
                        }
                    }
                    // Otherwise one pass over the relation.
                    None => {
                        for v in 0..n {
                            if crashed[v] {
                                continue;
                            }
                            for &w in self.relations[r].row(v) {
                                if crashed[w as usize] {
                                    removes.push((v as u32, w));
                                }
                            }
                        }
                    }
                }
            }
        }

        // Removals must not exceed stored multiplicities.
        for (r, removes) in removes.iter().enumerate() {
            if removes.is_empty() {
                continue;
            }
            let mut need = removes.clone();
            need.sort_unstable();
            let mut i = 0;
            while i < need.len() {
                let (v, w) = need[i];
                let mut count = 1;
                while i + count < need.len() && need[i + count] == (v, w) {
                    count += 1;
                }
                let stored = self.relations[r].row(v as usize).iter().filter(|&&t| t == w).count();
                if stored < count {
                    return Err(LogicError::EdgeNotPresent);
                }
                i += count;
            }
        }

        // ---- Mutation (infallible from here on). ----
        let mut touched: Vec<u32> = Vec::new();
        let mut net: BTreeMap<u32, isize> = BTreeMap::new();
        for r in 0..rel_count {
            for &(v, w) in &adds[r] {
                *net.entry(v).or_default() += 1;
                touched.push(v);
                touched.push(w);
            }
            for &(v, w) in &removes[r] {
                *net.entry(v).or_default() -= 1;
                touched.push(v);
                touched.push(w);
            }
        }
        let next_version = self.version + 1;
        for r in 0..rel_count {
            let edited = !(adds[r].is_empty() && removes[r].is_empty());
            if edited {
                self.relations[r].apply_edits(&adds[r], &removes[r]);
            }
            // Patch the built caches against the *post-edit* rows; a
            // cache an untouched relation built stays valid, so only
            // its stamp advances.
            if let Some(st) = self.reverse_csc[r].get_mut() {
                if edited {
                    st.value.apply_edits(&adds[r], &removes[r]);
                }
                st.built_at = next_version;
            }
        }
        let any_edges = (0..rel_count).any(|r| !adds[r].is_empty() || !removes[r].is_empty());
        if any_edges && rel_count > 1 {
            // The combined store is relation-major, so a flat edit batch
            // cannot target the right span: invalidate, rebuild lazily.
            self.reverse_csc_combined.take();
        } else if let Some(st) = self.reverse_csc_combined.get_mut() {
            st.built_at = next_version;
        }
        for (&v, &d) in &net {
            if d != 0 {
                self.degree[v as usize] =
                    (self.degree[v as usize] as isize + d).max(0) as usize;
            }
        }
        for &(v, d) in &delta.valuation {
            self.degree[v as usize] = d;
            touched.push(v);
        }
        touched.extend_from_slice(&crash);
        self.version = next_version;
        touched.sort_unstable();
        touched.dedup();
        Ok(touched)
    }

    /// Disjoint union with another model of the same variant; worlds of
    /// `other` are shifted by `self.len()`.
    ///
    /// Bisimilarity *across* two models is bisimilarity of the shifted
    /// worlds inside the union — the standard trick used by the separation
    /// proofs.
    ///
    /// # Panics
    ///
    /// Panics if the variants differ.
    pub fn disjoint_union(&self, other: &Kripke) -> Kripke {
        assert_eq!(self.variant, other.variant, "variants must match");
        let offset = self.len();
        let n = offset + other.len();
        assert!(n <= u32::MAX as usize, "Kripke models are capped at 2^32 worlds");
        let mut degree = self.degree.clone();
        degree.extend_from_slice(&other.degree);

        // Merge the two sorted key lists, stitching CSR rows together:
        // `self`'s rows verbatim, then `other`'s rows shifted.
        let mut index_keys = Vec::new();
        let mut relations = Vec::new();
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.index_keys.len() || b < other.index_keys.len() {
            let take_a = match (self.index_keys.get(a), other.index_keys.get(b)) {
                (Some(&ka), Some(&kb)) if ka == kb => {
                    index_keys.push(ka);
                    relations.push(Self::union_relation(
                        n,
                        offset,
                        Some(&self.relations[a]),
                        Some(&other.relations[b]),
                    ));
                    a += 1;
                    b += 1;
                    continue;
                }
                (Some(&ka), Some(&kb)) => ka < kb,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!("loop condition"),
            };
            if take_a {
                index_keys.push(self.index_keys[a]);
                relations.push(Self::union_relation(n, offset, Some(&self.relations[a]), None));
                a += 1;
            } else {
                index_keys.push(other.index_keys[b]);
                relations.push(Self::union_relation(n, offset, None, Some(&other.relations[b])));
                b += 1;
            }
        }
        Kripke::from_csr(self.variant, degree, index_keys, relations)
    }

    /// A CSR relation over `n` worlds holding `left`'s rows for worlds
    /// `0..offset` and `right`'s rows (targets shifted by `offset`) after.
    fn union_relation(
        n: usize,
        offset: usize,
        left: Option<&CsrRelation>,
        right: Option<&CsrRelation>,
    ) -> CsrRelation {
        let left_len = left.map_or(0, |r| r.targets.len());
        let right_len = right.map_or(0, |r| r.targets.len());
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(left_len + right_len);
        offsets.push(0);
        for v in 0..offset {
            if let Some(rel) = left {
                targets.extend_from_slice(rel.row(v));
            }
            offsets.push(targets.len());
        }
        for v in 0..n - offset {
            if let Some(rel) = right {
                targets.extend(rel.row(v).iter().map(|&w| w + offset as u32));
            }
            offsets.push(targets.len());
        }
        CsrRelation { offsets, targets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portnum_graph::generators;

    #[test]
    fn k_pp_reconstructs_port_structure() {
        let g = generators::figure1_graph();
        let p = PortNumbering::consistent(&g);
        let k = Kripke::k_pp(&g, &p);
        // Every in-port of every node yields exactly one successor, so the
        // total relation size equals the number of ports = 2|E|.
        let total: usize =
            k.indices().map(|i| (0..k.len()).map(|v| k.successors(v, i).len()).sum::<usize>()).sum();
        assert_eq!(total, 2 * g.edge_count());
        assert_eq!(k.variant(), ModelVariant::PlusPlus);
    }

    #[test]
    fn k_mm_is_adjacency() {
        let g = generators::cycle(4);
        let k = Kripke::k_mm(&g);
        for v in g.nodes() {
            let widened: Vec<usize> =
                k.successors(v, ModalIndex::Any).iter().map(|&w| w as usize).collect();
            assert_eq!(widened, g.neighbors(v));
        }
        assert_eq!(k.degree(0), 2);
    }

    #[test]
    fn variants_project_the_same_edges() {
        use rand::SeedableRng;
        let g = generators::petersen();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let p = PortNumbering::random(&g, &mut rng);
        let pp = Kripke::k_pp(&g, &p);
        let mp = Kripke::k_mp(&g, &p);
        let pm = Kripke::k_pm(&g, &p);
        let mm = Kripke::k_mm(&g);
        let count = |k: &Kripke| -> usize {
            k.indices()
                .map(|i| (0..k.len()).map(|v| k.successors(v, i).len()).sum::<usize>())
                .sum()
        };
        assert_eq!(count(&pp), count(&mp));
        assert_eq!(count(&mp), count(&pm));
        assert_eq!(count(&pm), count(&mm));
    }

    #[test]
    fn from_parts_validates() {
        let mut rel = BTreeMap::new();
        rel.insert(ModalIndex::Any, vec![vec![1], vec![0]]);
        assert!(Kripke::from_parts(ModelVariant::MinusMinus, vec![1, 1], rel.clone()).is_ok());
        assert_eq!(
            Kripke::from_parts(ModelVariant::PlusPlus, vec![1, 1], rel).unwrap_err(),
            LogicError::FamilyMismatch {
                expected: IndexFamily::InOut,
                found: IndexFamily::Any
            }
        );
        let mut bad = BTreeMap::new();
        bad.insert(ModalIndex::Any, vec![vec![5], vec![0]]);
        assert_eq!(
            Kripke::from_parts(ModelVariant::MinusMinus, vec![1, 1], bad).unwrap_err(),
            LogicError::WorldOutOfRange
        );
    }

    #[test]
    fn builder_errors_are_typed() {
        use std::cell::Cell;
        // A valid `In(0)` relation first, then a bad `In(1)` one. Each
        // stream is replayed once to count and range-check and once to
        // place, so the bad one fails on its first replay, before any
        // of its targets is placed.
        for bad in [(3u32, 0u32), (0, 3)] {
            let (first, second) = (Cell::new(0), Cell::new(0));
            let err = KripkeBuilder::new(ModelVariant::PlusMinus, 3)
                .relation(ModalIndex::In(0), || {
                    first.set(first.get() + 1);
                    [(0u32, 1u32), (1, 2)].into_iter()
                })
                .relation(ModalIndex::In(1), || {
                    second.set(second.get() + 1);
                    [(2u32, 0u32), bad].into_iter()
                })
                .build()
                .unwrap_err();
            assert_eq!(err, LogicError::WorldOutOfRange, "pair {bad:?}");
            assert_eq!((first.get(), second.get()), (2, 1), "pair {bad:?}");
        }
        assert_eq!(
            KripkeBuilder::new(ModelVariant::PlusMinus, 3)
                .relation(ModalIndex::Out(0), || std::iter::once((0u32, 1u32)))
                .build()
                .unwrap_err(),
            LogicError::FamilyMismatch { expected: IndexFamily::In, found: IndexFamily::Out }
        );
        assert_eq!(
            KripkeBuilder::new(ModelVariant::MinusMinus, 3)
                .relation(ModalIndex::Any, || std::iter::once((0u32, 1u32)))
                .degrees(vec![1, 0])
                .build()
                .unwrap_err(),
            LogicError::WorldOutOfRange
        );
    }

    #[test]
    fn disjoint_union_offsets_relations() {
        let a = Kripke::k_mm(&generators::cycle(3));
        let b = Kripke::k_mm(&generators::path(2));
        let u = a.disjoint_union(&b);
        assert_eq!(u.len(), 5);
        assert_eq!(u.successors(3, ModalIndex::Any), &[4]);
        assert_eq!(u.successors(0, ModalIndex::Any), &[1, 2]);
        assert_eq!(u.degree(4), 1);
    }

    #[test]
    fn disjoint_union_merges_distinct_index_sets() {
        // Models over the same variant can store different port indices;
        // the union must keep both sides' relations intact.
        let g3 = generators::star(3);
        let g1 = generators::path(2);
        let p3 = PortNumbering::consistent(&g3);
        let p1 = PortNumbering::consistent(&g1);
        let a = Kripke::k_pm(&g3, &p3); // indices In(0..3)
        let b = Kripke::k_pm(&g1, &p1); // indices In(0)
        let u = a.disjoint_union(&b);
        for v in 0..a.len() {
            for i in 0..4 {
                assert_eq!(u.successors(v, ModalIndex::In(i)), a.successors(v, ModalIndex::In(i)));
            }
        }
        let shifted: Vec<u32> =
            b.successors(0, ModalIndex::In(0)).iter().map(|&w| w + a.len() as u32).collect();
        assert_eq!(u.successors(a.len(), ModalIndex::In(0)), shifted);
    }

    #[test]
    fn dense_accessors_match_indexed_access() {
        let g = generators::figure1_graph();
        let p = PortNumbering::consistent(&g);
        for k in [Kripke::k_pp(&g, &p), Kripke::k_mp(&g, &p), Kripke::k_pm(&g, &p)] {
            assert_eq!(k.relation_count(), k.indices().count());
            for r in 0..k.relation_count() {
                let index = k.relation_index(r);
                for v in 0..k.len() {
                    assert_eq!(k.successors_dense(r, v), k.successors(v, index));
                }
            }
        }
    }

    #[test]
    fn csc_rows_invert_the_forward_csr() {
        // csc.row(w) is exactly { v : w ∈ succ(v) }, sorted ascending,
        // with one entry per stored edge.
        let g = generators::figure1_graph();
        let p = PortNumbering::consistent(&g);
        for k in [Kripke::k_pp(&g, &p), Kripke::k_mp(&g, &p), Kripke::k_mm(&g)] {
            for r in 0..k.relation_count() {
                let csc = k.predecessors_csc(r);
                assert_eq!(csc.node_count(), k.len());
                for w in 0..k.len() {
                    let mut expect: Vec<u32> = Vec::new();
                    for v in 0..k.len() {
                        let copies =
                            k.successors_dense(r, v).iter().filter(|&&t| t as usize == w).count();
                        expect.extend(std::iter::repeat_n(v as u32, copies));
                    }
                    assert_eq!(csc.row(w), expect.as_slice(), "relation {r}, world {w}");
                    assert_eq!(csc.row_len(w), expect.len());
                }
            }
            // The cache survives cloning and does not affect equality.
            let copy = k.clone();
            assert_eq!(copy, k);
            assert_eq!(copy.predecessors_csc(0), k.predecessors_csc(0));
        }
    }

    #[test]
    fn combined_csc_unions_all_relations() {
        let g = generators::figure1_graph();
        let p = PortNumbering::consistent(&g);
        // Single-relation models share one store between the refiner's
        // combined view and the evaluator's per-relation view.
        let mm = Kripke::k_mm(&g);
        assert!(std::ptr::eq(mm.combined_predecessors_csc(), mm.predecessors_csc(0)));
        // Multi-relation models: the combined row of `w` is the
        // concatenation of its per-relation rows (relation-major).
        let pp = Kripke::k_pp(&g, &p);
        assert!(pp.relation_count() > 1);
        let combined = pp.combined_predecessors_csc();
        for w in 0..pp.len() {
            let expect: Vec<u32> = (0..pp.relation_count())
                .flat_map(|r| pp.predecessors_csc(r).row(w).to_vec())
                .collect();
            assert_eq!(combined.row(w), expect.as_slice(), "world {w}");
        }
        let total: usize =
            (0..pp.relation_count()).map(|r| pp.predecessors_csc(r).entry_count()).sum();
        assert_eq!(combined.entry_count(), total);
    }

    /// A cache-free reconstruction of `k` from its declared parts.
    fn rebuilt(k: &Kripke) -> Kripke {
        let mut rels: BTreeMap<ModalIndex, Vec<Vec<usize>>> = BTreeMap::new();
        for r in 0..k.relation_count() {
            let rows = (0..k.len())
                .map(|v| k.successors_dense(r, v).iter().map(|&w| w as usize).collect())
                .collect();
            rels.insert(k.relation_index(r), rows);
        }
        Kripke::from_parts(k.variant(), k.degrees().to_vec(), rels).unwrap()
    }

    #[test]
    fn apply_delta_patches_rows_degrees_and_version() {
        let mut k = Kripke::k_mm(&generators::path(5));
        let mut delta = ModelDelta::new();
        delta
            .remove_edge(ModalIndex::Any, 1, 2)
            .remove_edge(ModalIndex::Any, 2, 1)
            .add_edge(ModalIndex::Any, 0, 4)
            .add_edge(ModalIndex::Any, 4, 0);
        let touched = k.apply_delta(&delta).unwrap();
        assert_eq!(touched, vec![0, 1, 2, 4]);
        assert_eq!(k.version(), 1);
        assert_eq!(k.successors(1, ModalIndex::Any), &[0]);
        assert_eq!(k.successors(0, ModalIndex::Any), &[1, 4]);
        assert_eq!(k.degrees(), &[2, 1, 1, 2, 2]);
        // The patched model is Eq-identical to one rebuilt from its rows.
        assert_eq!(k, rebuilt(&k));
        // An empty delta is free: no version bump, no touched worlds.
        assert_eq!(k.apply_delta(&ModelDelta::new()).unwrap(), Vec::<u32>::new());
        assert_eq!(k.version(), 1);
    }

    #[test]
    fn apply_delta_repairs_built_caches() {
        // Build every cache shape first, on a multi-relation model, and
        // check the patched caches against a cache-free rebuild.
        let g = generators::figure1_graph();
        let p = PortNumbering::consistent(&g);
        let mut k = Kripke::k_pp(&g, &p);
        let index = k.relation_index(0);
        let (v, &w) = (0..k.len())
            .find_map(|v| k.successors_dense(0, v).first().map(|w| (v, w)))
            .expect("relation 0 has an edge");
        for r in 0..k.relation_count() {
            k.predecessors_csc(r);
        }
        k.combined_predecessors_csc();
        let mut delta = ModelDelta::new();
        delta.remove_edge(index, v as u32, w).add_edge(index, w, v as u32);
        k.apply_delta(&delta).unwrap();
        let fresh = rebuilt(&k);
        assert_eq!(k, fresh);
        for r in 0..k.relation_count() {
            assert_eq!(k.predecessors_csc(r), fresh.predecessors_csc(r), "csc rows, rel {r}");
        }
        assert_eq!(k.combined_predecessors_csc(), fresh.combined_predecessors_csc());
    }

    #[test]
    fn net_zero_deltas_keep_storage_in_place() {
        // The served delta cycle: every delta after the first restores
        // the three path edges the previous one removed and removes
        // three fresh ones. Rows grow and shrink, but neither array
        // changes length, so the in-place kernel never reallocates.
        let mut k = Kripke::k_mm(&generators::path(256));
        k.predecessors_csc(0);
        let edit = |d: &mut ModelDelta, set: u32, add: bool| {
            for v in (0..3).map(|j| 20 * set + 7 * j) {
                if add {
                    d.add_edge(ModalIndex::Any, v, v + 1).add_edge(ModalIndex::Any, v + 1, v);
                } else {
                    d.remove_edge(ModalIndex::Any, v, v + 1).remove_edge(ModalIndex::Any, v + 1, v);
                }
            }
        };
        let mut first = ModelDelta::new();
        edit(&mut first, 0, false);
        k.apply_delta(&first).unwrap();
        let ptrs =
            |k: &Kripke| (k.relation_rows(0).1.as_ptr(), k.predecessors_csc(0).row(0).as_ptr());
        let before = ptrs(&k);
        for set in 1..12 {
            let mut d = ModelDelta::new();
            edit(&mut d, set - 1, true);
            edit(&mut d, set, false);
            k.apply_delta(&d).unwrap();
            assert_eq!(ptrs(&k), before, "delta {set} moved a store");
            let fresh = rebuilt(&k);
            assert_eq!(k, fresh);
            assert_eq!(k.predecessors_csc(0), fresh.predecessors_csc(0));
        }
    }

    #[test]
    fn apply_delta_crash_isolates_worlds() {
        let mut k = Kripke::k_mm(&generators::star(3));
        // Warm the caches so the crash path exercises cache repair too.
        k.predecessors_csc(0);
        let mut delta = ModelDelta::new();
        delta.crash_world(0).crash_world(0); // duplicate crashes are one crash
        let touched = k.apply_delta(&delta).unwrap();
        assert_eq!(touched, vec![0, 1, 2, 3]);
        for v in 0..4 {
            assert!(k.successors(v, ModalIndex::Any).is_empty(), "world {v}");
            assert_eq!(k.degree(v), 0);
        }
        let fresh = rebuilt(&k);
        assert_eq!(k.predecessors_csc(0), fresh.predecessors_csc(0));
    }

    #[test]
    fn apply_delta_respects_multiplicity() {
        let mut rel = BTreeMap::new();
        rel.insert(ModalIndex::Any, vec![vec![1, 1], vec![]]);
        let mut k = Kripke::from_parts(ModelVariant::MinusMinus, vec![2, 0], rel).unwrap();
        assert_eq!(k.predecessors_csc(0).row(1), &[0, 0]);
        let mut delta = ModelDelta::new();
        delta.remove_edge(ModalIndex::Any, 0, 1);
        k.apply_delta(&delta).unwrap();
        // One copy of the double edge remains, in the forward row and
        // in the patched CSC row alike.
        assert_eq!(k.successors(0, ModalIndex::Any), &[1]);
        assert_eq!(k.predecessors_csc(0).row(1), &[0]);
        k.apply_delta(&delta).unwrap();
        assert!(k.successors(0, ModalIndex::Any).is_empty());
        assert!(k.predecessors_csc(0).row(1).is_empty());
        // A third removal has nothing left to remove.
        assert_eq!(k.apply_delta(&delta).unwrap_err(), LogicError::EdgeNotPresent);
    }

    #[test]
    fn apply_delta_is_atomic_on_rejection() {
        let mut k = Kripke::k_mm(&generators::cycle(4));
        let before = k.clone();
        let mut delta = ModelDelta::new();
        // A valid removal followed by an invalid one: nothing applies.
        delta.remove_edge(ModalIndex::Any, 0, 1).remove_edge(ModalIndex::Any, 0, 2);
        assert_eq!(k.apply_delta(&delta).unwrap_err(), LogicError::EdgeNotPresent);
        assert_eq!(k, before);
        assert_eq!(k.version(), 0);
        let mut oob = ModelDelta::new();
        oob.add_edge(ModalIndex::Any, 0, 9);
        assert_eq!(k.apply_delta(&oob).unwrap_err(), LogicError::WorldOutOfRange);
        let mut crash_oob = ModelDelta::new();
        crash_oob.crash_world(9);
        assert_eq!(k.apply_delta(&crash_oob).unwrap_err(), LogicError::WorldOutOfRange);
        assert_eq!(k, before);
    }

    #[test]
    fn apply_delta_rejects_foreign_and_missing_relations() {
        let g = generators::cycle(3);
        let p = PortNumbering::consistent(&g);
        let mut k = Kripke::k_pp(&g, &p);
        let mut foreign = ModelDelta::new();
        foreign.add_edge(ModalIndex::Any, 0, 1);
        assert_eq!(
            k.apply_delta(&foreign).unwrap_err(),
            LogicError::FamilyMismatch { expected: IndexFamily::InOut, found: IndexFamily::Any }
        );
        let mut missing = ModelDelta::new();
        missing.add_edge(ModalIndex::InOut(7, 7), 0, 1);
        assert_eq!(k.apply_delta(&missing).unwrap_err(), LogicError::NoSuchRelation);
        assert_eq!(k.version(), 0);
    }

    #[test]
    fn successors_of_missing_index_are_empty() {
        let k = Kripke::k_mm(&generators::cycle(3));
        assert!(k.successors(0, ModalIndex::Any).len() == 2);
        let kp = Kripke::k_pp(&generators::cycle(3), &PortNumbering::consistent(&generators::cycle(3)));
        assert!(kp.successors(0, ModalIndex::InOut(7, 7)).is_empty());
    }
}
