//! Dictionary-encoded, columnar execution core.
//!
//! The detection hot path groups tuples on attribute projections and counts
//! distinct projections per group. Doing that over row-oriented [`Tuple`]s
//! means hashing and cloning [`Value::Str`] payloads once per tuple *per
//! constraint* — the dominant cost on scaled workloads. This module provides
//! the compact representation every layer above shares instead:
//!
//! * [`Dictionary`] interns strings (and out-of-range integers) to dense
//!   `u32` symbols;
//! * [`Code`] packs any [`Value`] into one fixed-width 64-bit word;
//! * [`CodeVec`] is a small-vector projection key (inline up to four codes)
//!   used as the group key of the detection group machinery;
//! * [`ColumnarView`] holds per-attribute code columns derived from a
//!   [`Relation`] and can be kept incrementally up to date under
//!   [`Delta`](crate::Delta)-style row insertion and removal.
//!
//! ## Value ↔ Code mapping
//!
//! A [`Code`] is a 64-bit word with a 3-bit tag in the low bits:
//!
//! | tag | value kind | payload (high 61 bits) |
//! |-----|------------|------------------------|
//! | `0` | [`Value::Null`] | unused (always zero) |
//! | `1` | [`Value::Bool`] | `0` / `1` |
//! | `2` | [`Value::Int`] in `[-2^60, 2^60)` | the integer, two's complement, sign-extended on decode |
//! | `3` | [`Value::Int`] outside that range | index into the dictionary's big-int table |
//! | `4` | [`Value::Str`] | index into the dictionary's string table |
//!
//! Encoding is *canonical* with respect to one dictionary: equal values
//! always map to equal codes and distinct values to distinct codes, so code
//! equality (a single `u64` compare) decides value equality. Code *order* is
//! **not** value order — symbols are numbered in interning order — so
//! anything that must be ordered deterministically across processes decodes
//! back to [`Value`]s first.
//!
//! ## Dictionary lifetime and ownership
//!
//! A dictionary only ever grows: interning never invalidates previously
//! issued codes, and re-encoding the same value always returns the same
//! code. Codes are meaningful only relative to the dictionary that issued
//! them — two dictionaries fed the same values in the same order issue the
//! same codes (interning is deterministic), but codes must never be compared
//! across dictionaries. The detectors therefore keep one dictionary per
//! compiled constraint set (shared by the constraint patterns, every
//! detection pass, and the incremental maintenance state), interning pattern
//! constants once at registration time and data values as views are built.
//!
//! ## When a `ColumnarView` is invalidated
//!
//! A view is a snapshot of a relation's codes plus a row-id index. It stays
//! valid as long as every mutation of the underlying relation is mirrored
//! through [`ColumnarView::insert`] / [`ColumnarView::remove`] (which is how
//! the incremental detector keeps its view current under `Delta`
//! application). Mutating the relation behind the view's back — replacing
//! tuples, updating values in place, or dropping/recreating the table —
//! invalidates it; rebuild with [`ColumnarView::build`]. Appending extra
//! columns to the *schema* does not invalidate a prefix view built with
//! [`ColumnarView::build_prefix`].

use crate::relation::{Relation, RowId};
use crate::schema::AttrId;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

const TAG_BITS: u32 = 3;
const TAG_MASK: u64 = (1 << TAG_BITS) - 1;
const TAG_NULL: u64 = 0;
const TAG_BOOL: u64 = 1;
const TAG_INT: u64 = 2;
const TAG_BIG_INT: u64 = 3;
const TAG_SYM: u64 = 4;

/// Smallest / largest integer that fits the inline 61-bit payload.
const INLINE_INT_MIN: i64 = -(1 << 60);
const INLINE_INT_MAX: i64 = (1 << 60) - 1;

/// A [`Value`] packed into one fixed-width 64-bit word. See the module docs
/// for the tag layout and the canonical-encoding invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Code(u64);

impl Code {
    /// The code of [`Value::Null`].
    pub const NULL: Code = Code(TAG_NULL);

    /// The raw packed word.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Whether this code encodes [`Value::Null`].
    pub fn is_null(self) -> bool {
        self.0 == TAG_NULL
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:x}", self.0)
    }
}

/// Interns strings and out-of-range integers to dense symbols, issuing
/// canonical [`Code`]s for every [`Value`]. Grows monotonically; never
/// invalidates issued codes.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    /// Symbol → string table; shares each allocation with the `by_string`
    /// key (the dictionary is grow-only, so the footprint is one `Arc<str>`
    /// per distinct string, not two `String`s).
    strings: Vec<std::sync::Arc<str>>,
    by_string: HashMap<std::sync::Arc<str>, u32>,
    big_ints: Vec<i64>,
    by_big_int: HashMap<i64, u32>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// Number of interned strings.
    pub fn num_strings(&self) -> usize {
        self.strings.len()
    }

    /// Interns a string, returning its symbol.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&sym) = self.by_string.get(s) {
            return sym;
        }
        let sym = u32::try_from(self.strings.len()).expect("dictionary overflow (> 2^32 strings)");
        let shared: std::sync::Arc<str> = s.into();
        self.strings.push(shared.clone());
        self.by_string.insert(shared, sym);
        sym
    }

    /// Encodes a value, interning strings (and out-of-range integers) as
    /// needed. Always succeeds; equal values get equal codes.
    pub fn encode(&mut self, value: &Value) -> Code {
        match value {
            Value::Null => Code::NULL,
            Value::Bool(b) => Code(TAG_BOOL | (u64::from(*b) << TAG_BITS)),
            Value::Int(i) if (INLINE_INT_MIN..=INLINE_INT_MAX).contains(i) => {
                Code(TAG_INT | ((*i as u64) << TAG_BITS))
            }
            Value::Int(i) => {
                let idx = match self.by_big_int.get(i) {
                    Some(&idx) => idx,
                    None => {
                        let idx = u32::try_from(self.big_ints.len()).expect("dictionary overflow");
                        self.big_ints.push(*i);
                        self.by_big_int.insert(*i, idx);
                        idx
                    }
                };
                Code(TAG_BIG_INT | (u64::from(idx) << TAG_BITS))
            }
            Value::Str(s) => Code(TAG_SYM | (u64::from(self.intern(s)) << TAG_BITS)),
        }
    }

    /// Encodes a value without interning. Returns `None` when the value is a
    /// string (or out-of-range integer) the dictionary has never seen — in
    /// which case no encoded datum can equal it.
    pub fn try_encode(&self, value: &Value) -> Option<Code> {
        match value {
            Value::Null => Some(Code::NULL),
            Value::Bool(b) => Some(Code(TAG_BOOL | (u64::from(*b) << TAG_BITS))),
            Value::Int(i) if (INLINE_INT_MIN..=INLINE_INT_MAX).contains(i) => {
                Some(Code(TAG_INT | ((*i as u64) << TAG_BITS)))
            }
            Value::Int(i) => self
                .by_big_int
                .get(i)
                .map(|&idx| Code(TAG_BIG_INT | (u64::from(idx) << TAG_BITS))),
            Value::Str(s) => self
                .by_string
                .get(s.as_str())
                .map(|&sym| Code(TAG_SYM | (u64::from(sym) << TAG_BITS))),
        }
    }

    /// Encodes every value of a tuple (interning), in attribute order.
    pub fn encode_tuple(&mut self, tuple: &Tuple) -> Vec<Code> {
        tuple.values().iter().map(|v| self.encode(v)).collect()
    }

    /// Decodes a code back to the value it was issued for.
    ///
    /// # Panics
    ///
    /// Panics when the code was not issued by this dictionary (a symbol index
    /// out of range) — codes are only meaningful relative to their issuing
    /// dictionary.
    pub fn decode(&self, code: Code) -> Value {
        let payload = code.0 >> TAG_BITS;
        match code.0 & TAG_MASK {
            TAG_NULL => Value::Null,
            TAG_BOOL => Value::Bool(payload != 0),
            TAG_INT => {
                // Sign-extend the 61-bit payload.
                Value::Int(((payload << TAG_BITS) as i64) >> TAG_BITS)
            }
            TAG_BIG_INT => Value::Int(self.big_ints[payload as usize]),
            TAG_SYM => Value::Str(self.strings[payload as usize].to_string()),
            _ => unreachable!("invalid code tag"),
        }
    }

    /// Decodes a slice of codes to values.
    pub fn decode_all(&self, codes: &[Code]) -> Vec<Value> {
        codes.iter().map(|&c| self.decode(c)).collect()
    }
}

/// Inline capacity of a [`CodeVec`]: projection keys of up to this many
/// attributes never touch the heap. The eCFD workloads key groups on one or
/// two attributes, so four covers everything the paper measures.
pub const INLINE_CODES: usize = 4;

/// A small-vector of [`Code`]s used as a projection key (`t[X]`, `t[Y]`).
///
/// Keys of at most [`INLINE_CODES`] codes are stored inline; longer keys
/// spill to the heap. Equality, ordering and hashing are over the code
/// slice, so inline and spilled keys with the same codes compare equal.
#[derive(Debug, Clone)]
pub enum CodeVec {
    /// At most [`INLINE_CODES`] codes stored in place.
    Inline {
        /// Number of live codes in `buf`.
        len: u8,
        /// The code buffer; only `buf[..len]` is meaningful.
        buf: [Code; INLINE_CODES],
    },
    /// More than [`INLINE_CODES`] codes, heap-allocated.
    Spilled(Vec<Code>),
}

impl CodeVec {
    /// An empty key.
    pub fn new() -> Self {
        CodeVec::Inline {
            len: 0,
            buf: [Code::NULL; INLINE_CODES],
        }
    }

    /// Builds a key from an exact-size iterator of codes.
    pub fn from_iter_exact(codes: impl ExactSizeIterator<Item = Code>) -> Self {
        if codes.len() <= INLINE_CODES {
            let mut buf = [Code::NULL; INLINE_CODES];
            let mut len = 0u8;
            for code in codes {
                buf[len as usize] = code;
                len += 1;
            }
            CodeVec::Inline { len, buf }
        } else {
            CodeVec::Spilled(codes.collect())
        }
    }

    /// The codes as a slice.
    pub fn as_slice(&self) -> &[Code] {
        match self {
            CodeVec::Inline { len, buf } => &buf[..*len as usize],
            CodeVec::Spilled(v) => v,
        }
    }

    /// Number of codes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the key has no codes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for CodeVec {
    fn default() -> Self {
        CodeVec::new()
    }
}

impl FromIterator<Code> for CodeVec {
    fn from_iter<I: IntoIterator<Item = Code>>(iter: I) -> Self {
        let codes: Vec<Code> = iter.into_iter().collect();
        CodeVec::from_iter_exact(codes.into_iter())
    }
}

impl PartialEq for CodeVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for CodeVec {}

impl PartialOrd for CodeVec {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CodeVec {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for CodeVec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for code in self.as_slice() {
            state.write_u64(code.raw());
        }
        state.write_u8(0xff); // length terminator
    }
}

/// A fast, deterministic multiply-xor hasher for code-keyed maps (the
/// FxHash construction). Codes are already high-entropy words, so the
/// default SipHash's collision resistance buys nothing here while costing
/// most of the group-lookup budget.
#[derive(Debug, Default, Clone)]
pub struct FxHasher(u64);

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(FX_SEED);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by codes / code keys with the deterministic fast hasher.
pub type CodeMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Deterministically hashes a constraint index plus a code key to a shard
/// index: equal `(ci, key)` pairs always land on the same shard.
pub fn shard_of(ci: usize, key: &CodeVec, num_shards: usize) -> usize {
    debug_assert!(num_shards > 0);
    let mut h = FxHasher::default();
    h.write_usize(ci);
    for code in key.as_slice() {
        h.write_u64(code.raw());
    }
    (h.finish() % num_shards as u64) as usize
}

/// Deterministically hashes one attribute *value* to a shard index — the
/// row router of the sharded serving layer. Unlike [`shard_of`] this hashes
/// the decoded value (type tag plus content), not a dictionary code, so the
/// assignment is stable across processes, restarts and dictionaries: the
/// same value always routes to the same shard, which is what recovery replay
/// and cross-shard group completeness both depend on. The tag bytes match
/// the WAL value encoding (0 = null, 1 = int, 2 = bool, 3 = str).
pub fn shard_of_value(value: &crate::value::Value, num_shards: usize) -> usize {
    use crate::value::Value;
    debug_assert!(num_shards > 0);
    let mut h = FxHasher::default();
    match value {
        Value::Null => h.write_u8(0),
        Value::Int(i) => {
            h.write_u8(1);
            h.write_u64(*i as u64);
        }
        Value::Bool(b) => {
            h.write_u8(2);
            h.write_u8(u8::from(*b));
        }
        Value::Str(s) => {
            h.write_u8(3);
            h.write(s.as_bytes());
        }
    }
    (h.finish() % num_shards as u64) as usize
}

/// Per-attribute code columns derived from a [`Relation`], with a row-id
/// index so it can be kept up to date under row insertion and removal. See
/// the module docs for the invalidation rules.
#[derive(Debug, Clone, Default)]
pub struct ColumnarView {
    columns: Vec<Vec<Code>>,
    row_ids: Vec<RowId>,
    positions: CodeMap<RowId, usize>,
}

impl ColumnarView {
    /// Encodes every column of `relation` through `dict`.
    pub fn build(relation: &Relation, dict: &mut Dictionary) -> Self {
        Self::build_prefix(relation, relation.schema().arity(), dict)
    }

    /// Encodes the first `num_columns` attributes of `relation` — used by the
    /// incremental detector, whose stored table carries detector-managed flag
    /// columns after the base attributes.
    pub fn build_prefix(relation: &Relation, num_columns: usize, dict: &mut Dictionary) -> Self {
        let mut columns = vec![Vec::with_capacity(relation.len()); num_columns];
        let mut row_ids = Vec::with_capacity(relation.len());
        let mut positions = CodeMap::default();
        for (row_id, tuple) in relation.iter() {
            positions.insert(row_id, row_ids.len());
            row_ids.push(row_id);
            for (col, value) in columns.iter_mut().zip(tuple.values()) {
                col.push(dict.encode(value));
            }
        }
        ColumnarView {
            columns,
            row_ids,
            positions,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.row_ids.len()
    }

    /// Number of encoded columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The code column of one attribute.
    pub fn column(&self, attr: AttrId) -> &[Code] {
        &self.columns[attr.index()]
    }

    /// The row id stored at a position.
    pub fn row_id(&self, pos: usize) -> RowId {
        self.row_ids[pos]
    }

    /// All row ids, in storage order.
    pub fn row_ids(&self) -> &[RowId] {
        &self.row_ids
    }

    /// The code at (row position, attribute).
    pub fn code(&self, pos: usize, attr: AttrId) -> Code {
        self.columns[attr.index()][pos]
    }

    /// The projection key of a row over the given attributes (the coded
    /// `t[Z]`).
    pub fn key(&self, pos: usize, attrs: &[AttrId]) -> CodeVec {
        CodeVec::from_iter_exact(attrs.iter().map(|a| self.columns[a.index()][pos]))
    }

    /// The position of a row id, if the view still contains it.
    pub fn position(&self, row: RowId) -> Option<usize> {
        self.positions.get(&row).copied()
    }

    /// Appends a row. `codes` must hold exactly [`ColumnarView::num_columns`]
    /// codes issued by the view's dictionary.
    pub fn insert(&mut self, row: RowId, codes: &[Code]) {
        debug_assert_eq!(codes.len(), self.columns.len());
        self.positions.insert(row, self.row_ids.len());
        self.row_ids.push(row);
        for (col, &code) in self.columns.iter_mut().zip(codes) {
            col.push(code);
        }
    }

    /// Removes a row by id (swap-remove; positions of other rows are kept
    /// consistent, storage order is not preserved). Returns whether the row
    /// was present.
    pub fn remove(&mut self, row: RowId) -> bool {
        let Some(pos) = self.positions.remove(&row) else {
            return false;
        };
        let last = self.row_ids.len() - 1;
        self.row_ids.swap_remove(pos);
        for col in &mut self.columns {
            col.swap_remove(pos);
        }
        if pos != last {
            self.positions.insert(self.row_ids[pos], pos);
        }
        true
    }

    /// The codes of one row across all columns, in attribute order.
    pub fn row_codes(&self, pos: usize) -> Vec<Code> {
        self.columns.iter().map(|col| col[pos]).collect()
    }

    /// Row positions whose first `codes.len()` columns equal `codes` — the
    /// coded equivalent of matching a deletion victim by base-attribute
    /// prefix.
    pub fn matching_prefix(&self, codes: &[Code]) -> Vec<usize> {
        debug_assert!(codes.len() <= self.columns.len());
        (0..self.num_rows())
            .filter(|&pos| {
                codes
                    .iter()
                    .enumerate()
                    .all(|(c, &code)| self.columns[c][pos] == code)
            })
            .collect()
    }
}

/// An immutable, cheaply cloneable `(view, dictionary)` pair: one consistent
/// point-in-time encoding of a relation.
///
/// A live [`ColumnarView`] is only meaningful next to the (growing)
/// [`Dictionary`] that issued its codes, and both mutate as deltas stream in.
/// A `FrozenView` pins the pair: the view and a clone of the dictionary taken
/// at the same instant, shared behind [`Arc`]s so that handing a copy to
/// another thread is two reference-count bumps. Nothing behind the handle can
/// change, so any number of threads may scan, decode and re-detect against it
/// without synchronisation — this is the unit the serving layer publishes as
/// an epoch snapshot.
///
/// Because a dictionary only ever grows, codes inside the frozen view remain
/// valid against *later* states of the source dictionary; the converse does
/// not hold (a code interned after the freeze is unknown to the frozen
/// dictionary), which is why the pair is kept together.
///
/// [`Arc`]: std::sync::Arc
#[derive(Debug, Clone)]
pub struct FrozenView {
    view: std::sync::Arc<ColumnarView>,
    dict: std::sync::Arc<Dictionary>,
}

impl FrozenView {
    /// Freezes a view together with the dictionary state that encoded it.
    pub fn new(view: ColumnarView, dict: Dictionary) -> Self {
        FrozenView {
            view: std::sync::Arc::new(view),
            dict: std::sync::Arc::new(dict),
        }
    }

    /// The frozen code columns.
    pub fn view(&self) -> &ColumnarView {
        &self.view
    }

    /// The dictionary state that issued the view's codes.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Number of frozen rows.
    pub fn num_rows(&self) -> usize {
        self.view.num_rows()
    }

    /// Decodes the row stored at `pos` back to values, in attribute order.
    pub fn decode_row(&self, pos: usize) -> Vec<crate::value::Value> {
        self.dict.decode_all(&self.view.row_codes(pos))
    }

    /// Decodes every frozen row as `(RowId, values)` pairs, in storage order.
    pub fn decode_rows(&self) -> Vec<(RowId, Vec<crate::value::Value>)> {
        (0..self.view.num_rows())
            .map(|pos| (self.view.row_id(pos), self.decode_row(pos)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};

    fn schema() -> Schema {
        Schema::builder("t")
            .attr("CT", DataType::Str)
            .attr("N", DataType::Int)
            .attr("OK", DataType::Bool)
            .build()
    }

    #[test]
    fn encoding_is_canonical_and_round_trips() {
        let mut dict = Dictionary::new();
        let values = [
            Value::Null,
            Value::bool(true),
            Value::bool(false),
            Value::int(0),
            Value::int(-1),
            Value::int(INLINE_INT_MAX),
            Value::int(INLINE_INT_MIN),
            Value::int(i64::MAX),
            Value::int(i64::MIN),
            Value::str(""),
            Value::str("@"),
            Value::str("Albany"),
            Value::str("Zürich"),
            Value::str("東京"),
        ];
        let codes: Vec<Code> = values.iter().map(|v| dict.encode(v)).collect();
        // Distinct values get distinct codes; equal values re-encode equal.
        for (i, v) in values.iter().enumerate() {
            assert_eq!(dict.encode(v), codes[i], "re-encoding {v:?} is stable");
            assert_eq!(dict.try_encode(v), Some(codes[i]));
            assert_eq!(dict.decode(codes[i]), *v, "decode round-trips {v:?}");
            for (j, other) in codes.iter().enumerate() {
                assert_eq!(i == j, codes[i] == *other, "codes {i} vs {j}");
            }
        }
    }

    #[test]
    fn try_encode_refuses_unseen_symbols() {
        let dict = Dictionary::new();
        assert_eq!(dict.try_encode(&Value::str("ghost")), None);
        assert_eq!(dict.try_encode(&Value::int(i64::MAX)), None);
        assert_eq!(dict.try_encode(&Value::int(7)), Some(Code(7 << 3 | 2)));
        assert_eq!(dict.try_encode(&Value::Null), Some(Code::NULL));
    }

    #[test]
    fn interning_is_deterministic_across_dictionaries() {
        let feed = ["a", "b", "a", "c", "", "@", "b"];
        let mut d1 = Dictionary::new();
        let mut d2 = Dictionary::new();
        let c1: Vec<Code> = feed.iter().map(|s| d1.encode(&Value::str(*s))).collect();
        let c2: Vec<Code> = feed.iter().map(|s| d2.encode(&Value::str(*s))).collect();
        assert_eq!(c1, c2);
    }

    #[test]
    fn code_vec_inline_and_spilled_compare_equal() {
        let codes: Vec<Code> = (0..6).map(|i| Code(TAG_INT | (i << TAG_BITS))).collect();
        let small = CodeVec::from_iter_exact(codes[..3].iter().copied());
        assert!(matches!(small, CodeVec::Inline { .. }));
        assert_eq!(small.len(), 3);
        let large = CodeVec::from_iter_exact(codes.iter().copied());
        assert!(matches!(large, CodeVec::Spilled(_)));
        assert_eq!(large.as_slice(), &codes[..]);

        let same: CodeVec = codes[..3].iter().copied().collect();
        assert_eq!(small, same);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher as _};
        let hash = |k: &CodeVec| {
            let mut h = DefaultHasher::new();
            k.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&small), hash(&same));
        assert!(CodeVec::new().is_empty());
    }

    #[test]
    fn shard_assignment_is_deterministic_and_in_range() {
        let key: CodeVec = [Code(42), Code(7)].into_iter().collect();
        for shards in [1usize, 2, 4, 7] {
            let s = shard_of(3, &key, shards);
            assert!(s < shards);
            assert_eq!(s, shard_of(3, &key, shards));
        }
    }

    #[test]
    fn frozen_view_is_isolated_from_later_mutation() {
        let mut rel = Relation::with_tuples(
            schema(),
            [
                Tuple::new(vec![Value::str("Albany"), Value::int(1), Value::bool(true)]),
                Tuple::new(vec![Value::str("NYC"), Value::int(2), Value::bool(false)]),
            ],
        )
        .unwrap();
        let mut dict = Dictionary::new();
        let mut view = ColumnarView::build(&rel, &mut dict);
        let frozen = FrozenView::new(view.clone(), dict.clone());
        let reader = frozen.clone(); // cheap Arc clone, shareable across threads

        // Mutate the live view and dictionary behind the frozen handle's back.
        let t = Tuple::new(vec![Value::str("Troy"), Value::int(3), Value::bool(true)]);
        let codes = dict.encode_tuple(&t);
        let id = rel.insert(t).unwrap();
        view.insert(id, &codes);

        assert_eq!(reader.num_rows(), 2, "the freeze predates the insert");
        assert_eq!(reader.dict().num_strings(), 2, "`Troy` was interned later");
        let rows = reader.decode_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].1,
            vec![Value::str("Albany"), Value::int(1), Value::bool(true)]
        );
        // A relation rebuilt from the frozen rows preserves the row ids.
        let copy = Relation::with_rows(
            schema(),
            rows.into_iter().map(|(id, vs)| (id, Tuple::new(vs))),
        )
        .unwrap();
        assert_eq!(copy.len(), 2);
        for (pos, row) in reader.view().row_ids().iter().enumerate() {
            assert_eq!(
                copy.get(*row).unwrap().values(),
                reader.decode_row(pos).as_slice()
            );
        }
    }

    #[test]
    fn view_builds_and_maintains_rows() {
        let mut rel = Relation::with_tuples(
            schema(),
            [
                Tuple::new(vec![Value::str("Albany"), Value::int(1), Value::bool(true)]),
                Tuple::new(vec![Value::str("NYC"), Value::int(2), Value::bool(false)]),
            ],
        )
        .unwrap();
        let mut dict = Dictionary::new();
        let mut view = ColumnarView::build(&rel, &mut dict);
        assert_eq!(view.num_rows(), 2);
        assert_eq!(view.num_columns(), 3);
        let albany = dict.try_encode(&Value::str("Albany")).unwrap();
        assert_eq!(view.code(0, AttrId(0)), albany);

        // Mirror an insert.
        let t = Tuple::new(vec![Value::str("Troy"), Value::int(3), Value::bool(true)]);
        let codes = dict.encode_tuple(&t);
        let id = rel.insert(t).unwrap();
        view.insert(id, &codes);
        assert_eq!(view.num_rows(), 3);
        assert_eq!(view.position(id), Some(2));
        assert_eq!(
            view.key(2, &[AttrId(0), AttrId(1)]).as_slice(),
            &[codes[0], codes[1]]
        );

        // Mirror a delete (swap-remove keeps positions consistent).
        let first = rel.row_ids()[0];
        rel.delete(first).unwrap();
        assert!(view.remove(first));
        assert!(!view.remove(first));
        assert_eq!(view.num_rows(), 2);
        for (pos, row) in view.row_ids().iter().enumerate() {
            assert_eq!(view.position(*row), Some(pos));
            let stored = rel.get(*row).unwrap();
            for c in 0..view.num_columns() {
                assert_eq!(dict.decode(view.code(pos, AttrId(c))), stored.values()[c]);
            }
        }

        // Prefix matching finds rows by coded victim.
        let troy_codes = dict.encode_tuple(&Tuple::new(vec![
            Value::str("Troy"),
            Value::int(3),
            Value::bool(true),
        ]));
        let hits = view.matching_prefix(&troy_codes);
        assert_eq!(hits.len(), 1);
        assert_eq!(view.row_id(hits[0]), id);
    }
}
