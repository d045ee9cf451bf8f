//! Hand-rolled binary codec: little-endian framing plus encoders/decoders
//! for the domain types that appear in WAL records and checkpoints.
//!
//! No serde, no external crates — the workspace is std-only by policy. The
//! encoding is deliberately boring: fixed-width little-endian integers,
//! length-prefixed strings, one tag byte per enum. Every decoder validates
//! length before reading and returns a structured error instead of
//! panicking, because the input is whatever survived a crash.

use audex_core::attrspec::ResolvedColumn;
use audex_core::{AuditBatchState, AuditId, BaseColumn, FootprintBuilder, QueryFootprint};
use audex_log::QueryId;
use audex_sql::ast::TypeName;
use audex_sql::{Ident, Timestamp};
use audex_storage::mvcc::{ChangeMeta, Version};
use audex_storage::{ChangeOp, ChangeRecord, Schema, Tid, Value, VersionStore};
use audex_triage::{RedactedScore, ReviewState, TriageItem};
use std::collections::{BTreeMap, BTreeSet};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum
/// guarding every WAL frame and checkpoint body. Slicing-by-8: checkpoint
/// bodies run to hundreds of kilobytes and sit on the recovery path, where
/// the classic byte-at-a-time loop was a measurable slice of reopen time.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Eight 256-entry tables built on first use; 8 KiB, computed once.
    // TABLES[0] is the classic byte table; TABLES[k] shifts through k more
    // bytes, so eight lookups advance the CRC over eight input bytes.
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        let base = t[0];
        for k in 1..8 {
            let prev = t[k - 1];
            for (slot, &p) in t[k].iter_mut().zip(prev.iter()) {
                *slot = base[(p & 0xFF) as usize] ^ (p >> 8);
            }
        }
        t
    });
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Decoding failure: what was expected, at which byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What the decoder was reading.
    pub expected: &'static str,
    /// Byte offset into the buffer.
    pub offset: usize,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expected {} at byte {}", self.expected, self.offset)
    }
}

/// Append-only encoder over a byte vector.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends raw bytes (for embedding already-encoded payloads).
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an f64 as its IEEE-754 bit pattern (exact round-trip,
    /// including NaN payloads and signed zero).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Cursor-based decoder over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Current byte offset (for error reporting).
    pub fn offset(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize, expected: &'static str) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(DecodeError { expected, offset: self.pos })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Borrows the next `n` bytes without copying (for length-prefixed
    /// embedded payloads; checkpoint bodies hold thousands of them).
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n, "bytes")
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a little-endian i64.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(self.u64()? as i64)
    }

    /// Reads an f64 bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool byte (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError { expected: "bool (0 or 1)", offset: self.pos - 1 }),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len, "string bytes")?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DecodeError { expected: "valid UTF-8", offset: self.pos - len })
    }

    /// Reads a length prefix for a sequence, sanity-capped so a corrupt
    /// length cannot trigger a huge allocation before element decoding
    /// naturally fails.
    pub fn seq_len(&mut self) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n > self.buf.len().saturating_sub(self.pos) {
            // Every element takes at least one byte; a count beyond the
            // remaining bytes is corrupt.
            return Err(DecodeError {
                expected: "plausible sequence length",
                offset: self.pos - 4,
            });
        }
        Ok(n)
    }
}

// --- Domain types ---------------------------------------------------------

/// Encodes an [`Ident`], preserving exact text and quoting.
pub fn put_ident(e: &mut Enc, id: &Ident) {
    e.str(&id.value);
    e.bool(id.quoted);
}

/// Decodes an [`Ident`].
pub fn get_ident(d: &mut Dec<'_>) -> Result<Ident, DecodeError> {
    let value = d.str()?;
    let quoted = d.bool()?;
    Ok(Ident { value, quoted })
}

const VAL_NULL: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_INT: u8 = 2;
const VAL_FLOAT: u8 = 3;
const VAL_STR: u8 = 4;
const VAL_TS: u8 = 5;

/// Encodes a [`Value`].
pub fn put_value(e: &mut Enc, v: &Value) {
    match v {
        Value::Null => e.u8(VAL_NULL),
        Value::Bool(b) => {
            e.u8(VAL_BOOL);
            e.bool(*b);
        }
        Value::Int(i) => {
            e.u8(VAL_INT);
            e.i64(*i);
        }
        Value::Float(f) => {
            e.u8(VAL_FLOAT);
            e.f64(*f);
        }
        Value::Str(s) => {
            e.u8(VAL_STR);
            e.str(s);
        }
        Value::Ts(t) => {
            e.u8(VAL_TS);
            e.i64(t.0);
        }
    }
}

/// Decodes a [`Value`].
pub fn get_value(d: &mut Dec<'_>) -> Result<Value, DecodeError> {
    match d.u8()? {
        VAL_NULL => Ok(Value::Null),
        VAL_BOOL => Ok(Value::Bool(d.bool()?)),
        VAL_INT => Ok(Value::Int(d.i64()?)),
        VAL_FLOAT => Ok(Value::Float(d.f64()?)),
        VAL_STR => Ok(Value::Str(d.str()?)),
        VAL_TS => Ok(Value::Ts(Timestamp(d.i64()?))),
        _ => Err(DecodeError { expected: "value tag", offset: d.offset() - 1 }),
    }
}

/// Encodes a row (a vector of values).
pub fn put_row(e: &mut Enc, row: &[Value]) {
    e.u32(row.len() as u32);
    for v in row {
        put_value(e, v);
    }
}

/// Decodes a row.
pub fn get_row(d: &mut Dec<'_>) -> Result<Vec<Value>, DecodeError> {
    let n = d.seq_len()?;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        row.push(get_value(d)?);
    }
    Ok(row)
}

fn type_tag(t: TypeName) -> u8 {
    match t {
        TypeName::Int => 0,
        TypeName::Float => 1,
        TypeName::Text => 2,
        TypeName::Bool => 3,
        TypeName::Timestamp => 4,
    }
}

fn type_from_tag(tag: u8, offset: usize) -> Result<TypeName, DecodeError> {
    match tag {
        0 => Ok(TypeName::Int),
        1 => Ok(TypeName::Float),
        2 => Ok(TypeName::Text),
        3 => Ok(TypeName::Bool),
        4 => Ok(TypeName::Timestamp),
        _ => Err(DecodeError { expected: "type tag", offset }),
    }
}

/// Encodes a [`Schema`] as its ordered `(name, type)` pairs.
pub fn put_schema(e: &mut Enc, s: &Schema) {
    let cols: Vec<_> = s.iter().collect();
    e.u32(cols.len() as u32);
    for (name, ty) in cols {
        put_ident(e, name);
        e.u8(type_tag(*ty));
    }
}

/// Decodes a [`Schema`]; re-runs its duplicate-column validation.
pub fn get_schema(d: &mut Dec<'_>) -> Result<Schema, DecodeError> {
    let n = d.seq_len()?;
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        let name = get_ident(d)?;
        let off = d.offset();
        let ty = type_from_tag(d.u8()?, off)?;
        cols.push((name, ty));
    }
    Schema::new(cols)
        .map_err(|_| DecodeError { expected: "unique column names", offset: d.offset() })
}

fn op_tag(op: ChangeOp) -> u8 {
    match op {
        ChangeOp::Insert => 0,
        ChangeOp::Update => 1,
        ChangeOp::Delete => 2,
    }
}

fn op_from_tag(tag: u8, offset: usize) -> Result<ChangeOp, DecodeError> {
    match tag {
        0 => Ok(ChangeOp::Insert),
        1 => Ok(ChangeOp::Update),
        2 => Ok(ChangeOp::Delete),
        _ => Err(DecodeError { expected: "change-op tag", offset }),
    }
}

/// Encodes a backlog [`ChangeRecord`].
pub fn put_change(e: &mut Enc, rec: &ChangeRecord) {
    e.i64(rec.ts.0);
    e.u8(op_tag(rec.op));
    e.u64(rec.tid.0);
    match &rec.after {
        Some(row) => {
            e.bool(true);
            put_row(e, row);
        }
        None => e.bool(false),
    }
}

/// Decodes a backlog [`ChangeRecord`].
pub fn get_change(d: &mut Dec<'_>) -> Result<ChangeRecord, DecodeError> {
    let ts = Timestamp(d.i64()?);
    let off = d.offset();
    let op = op_from_tag(d.u8()?, off)?;
    let tid = Tid(d.u64()?);
    let after = if d.bool()? { Some(get_row(d)?) } else { None };
    Ok(ChangeRecord { ts, op, tid, after })
}

fn put_opt_u32(e: &mut Enc, v: Option<u32>) {
    match v {
        Some(n) => {
            e.bool(true);
            e.u32(n);
        }
        None => e.bool(false),
    }
}

fn get_opt_u32(d: &mut Dec<'_>) -> Result<Option<u32>, DecodeError> {
    Ok(if d.bool()? { Some(d.u32()?) } else { None })
}

/// Encodes one MVCC tuple [`Version`] — its `[xmin, xmax)` interval, the
/// closing change index, and the row image.
pub fn put_version(e: &mut Enc, v: &Version) {
    e.u64(v.tid.0);
    e.i64(v.xmin.0);
    e.i64(v.xmax.0);
    put_opt_u32(e, v.closed_by);
    put_row(e, &v.row);
}

/// Decodes one MVCC tuple [`Version`].
pub fn get_version(d: &mut Dec<'_>) -> Result<Version, DecodeError> {
    let tid = Tid(d.u64()?);
    let xmin = Timestamp(d.i64()?);
    let xmax = Timestamp(d.i64()?);
    let closed_by = get_opt_u32(d)?;
    let row = get_row(d)?.into();
    Ok(Version { tid, xmin, xmax, closed_by, row })
}

/// Encodes one MVCC [`ChangeMeta`] entry (the change log a store keeps
/// alongside its versions).
pub fn put_change_meta(e: &mut Enc, m: &ChangeMeta) {
    e.i64(m.ts.0);
    e.u8(op_tag(m.op));
    e.u64(m.tid.0);
    put_opt_u32(e, m.opened);
}

/// Decodes one MVCC [`ChangeMeta`] entry.
pub fn get_change_meta(d: &mut Dec<'_>) -> Result<ChangeMeta, DecodeError> {
    let ts = Timestamp(d.i64()?);
    let off = d.offset();
    let op = op_from_tag(d.u8()?, off)?;
    let tid = Tid(d.u64()?);
    let opened = get_opt_u32(d)?;
    Ok(ChangeMeta { ts, op, tid, opened })
}

/// Encodes a whole MVCC [`VersionStore`]: identity, schema, and the two
/// parallel arrays [`VersionStore::from_parts`] rebuilds from.
pub fn put_version_store(e: &mut Enc, s: &VersionStore) {
    put_ident(e, s.name());
    put_schema(e, s.schema());
    e.i64(s.created_at().0);
    e.u32(s.versions().len() as u32);
    for v in s.versions() {
        put_version(e, v);
    }
    e.u32(s.meta().len() as u32);
    for m in s.meta() {
        put_change_meta(e, m);
    }
}

/// Decodes an MVCC [`VersionStore`] (indexes and live counts are derived).
pub fn get_version_store(d: &mut Dec<'_>) -> Result<VersionStore, DecodeError> {
    let name = get_ident(d)?;
    let schema = get_schema(d)?;
    let created_at = Timestamp(d.i64()?);
    let n = d.seq_len()?;
    let mut versions = Vec::with_capacity(n);
    for _ in 0..n {
        versions.push(get_version(d)?);
    }
    let n = d.seq_len()?;
    let mut meta = Vec::with_capacity(n);
    for _ in 0..n {
        meta.push(get_change_meta(d)?);
    }
    Ok(VersionStore::from_parts(name, schema, created_at, versions, meta))
}

fn put_base_column(e: &mut Enc, bc: &BaseColumn) {
    put_ident(e, &bc.0);
    put_ident(e, &bc.1);
}

fn get_base_column(d: &mut Dec<'_>) -> Result<BaseColumn, DecodeError> {
    Ok((get_ident(d)?, get_ident(d)?))
}

fn put_resolved_column(e: &mut Enc, rc: &ResolvedColumn) {
    put_ident(e, &rc.table);
    put_ident(e, &rc.column);
}

fn get_resolved_column(d: &mut Dec<'_>) -> Result<ResolvedColumn, DecodeError> {
    let table = get_ident(d)?;
    let column = get_ident(d)?;
    Ok(ResolvedColumn { table, column })
}

/// Encodes a touch-index [`QueryFootprint`]: per combination its
/// (base, tids) groups in base order, per row its (base column, value)
/// cells.
pub fn put_footprint(e: &mut Enc, fp: &QueryFootprint) {
    e.u64(fp.id.0);
    e.u32(fp.bases.len() as u32);
    for b in &fp.bases {
        put_ident(e, b);
    }
    e.u32(fp.covered.len() as u32);
    for bc in &fp.covered {
        put_base_column(e, bc);
    }
    e.u32(fp.combination_count() as u32);
    for c in 0..fp.combination_count() {
        let runs = fp.combination(c);
        e.u32(runs.clone().count() as u32);
        for (table, tids) in runs {
            put_ident(e, table);
            e.u32(tids.len() as u32);
            for t in tids {
                e.u64(t.0);
            }
        }
    }
    let rows = fp.value_rows();
    e.u32(rows.len() as u32);
    for row in rows {
        e.u32(row.len() as u32);
        for (bc, v) in fp.value_columns().iter().zip(row) {
            put_base_column(e, bc);
            put_value(e, v);
        }
    }
}

/// Decodes a touch-index [`QueryFootprint`] into its flat form. Sets are
/// collected through `FromIterator` (not element-wise `insert`) so the
/// standard library's bulk tree construction kicks in — checkpoints hold
/// one footprint per logged query, making this the hottest decoder. A
/// grouping the flat form cannot hold (see [`FootprintBuilder`]) is a
/// decode error, so decode → encode reproduces the bytes.
pub fn get_footprint(d: &mut Dec<'_>) -> Result<QueryFootprint, DecodeError> {
    let id = QueryId(d.u64()?);
    let bases = (0..d.seq_len()?).map(|_| get_ident(d)).collect::<Result<BTreeSet<_>, _>>()?;
    let covered =
        (0..d.seq_len()?).map(|_| get_base_column(d)).collect::<Result<BTreeSet<_>, _>>()?;
    let mut b = FootprintBuilder::new(id, bases, covered);
    let mut tids = Vec::new();
    for _ in 0..d.seq_len()? {
        b.combination();
        for _ in 0..d.seq_len()? {
            let table = get_ident(d)?;
            tids.clear();
            for _ in 0..d.seq_len()? {
                tids.push(Tid(d.u64()?));
            }
            b.run(table, &tids).map_err(shape_at(d.offset()))?;
        }
    }
    for _ in 0..d.seq_len()? {
        b.row().map_err(shape_at(d.offset()))?;
        for _ in 0..d.seq_len()? {
            let bc = get_base_column(d)?;
            let v = get_value(d)?;
            b.cell(bc, v).map_err(shape_at(d.offset()))?;
        }
    }
    b.finish().map_err(shape_at(d.offset()))
}

/// The error of a footprint shape [`FootprintBuilder`] refused at `offset`.
fn shape_at(offset: usize) -> impl FnOnce(&'static str) -> DecodeError {
    move |expected| DecodeError { expected, offset }
}

/// Encodes a triage [`RedactedScore`].
pub fn put_redacted_score(e: &mut Enc, s: &RedactedScore) {
    e.u64(s.audit.0);
    e.f64(s.fact_coverage);
    e.f64(s.column_coverage);
    e.f64(s.closeness);
    e.u64(s.touched);
    e.u64(s.exposed);
    e.u32(s.covered.len() as u32);
    for bc in &s.covered {
        put_base_column(e, bc);
    }
}

/// Decodes a triage [`RedactedScore`].
pub fn get_redacted_score(d: &mut Dec<'_>) -> Result<RedactedScore, DecodeError> {
    let audit = AuditId(d.u64()?);
    let fact_coverage = d.f64()?;
    let column_coverage = d.f64()?;
    let closeness = d.f64()?;
    let touched = d.u64()?;
    let exposed = d.u64()?;
    let mut covered = Vec::new();
    for _ in 0..d.seq_len()? {
        covered.push(get_base_column(d)?);
    }
    Ok(RedactedScore {
        audit,
        fact_coverage,
        column_coverage,
        closeness,
        touched,
        exposed,
        covered,
    })
}

fn state_tag(s: ReviewState) -> u8 {
    match s {
        ReviewState::Open => 0,
        ReviewState::Acked => 1,
        ReviewState::Dismissed => 2,
    }
}

fn state_from_tag(tag: u8, offset: usize) -> Result<ReviewState, DecodeError> {
    match tag {
        0 => Ok(ReviewState::Open),
        1 => Ok(ReviewState::Acked),
        2 => Ok(ReviewState::Dismissed),
        _ => Err(DecodeError { expected: "review-state tag", offset }),
    }
}

/// Encodes a review-queue [`TriageItem`].
pub fn put_triage_item(e: &mut Enc, it: &TriageItem) {
    e.u64(it.query.0);
    e.i64(it.ts.0);
    put_ident(e, &it.user);
    put_ident(e, &it.role);
    put_ident(e, &it.purpose);
    e.f64(it.suspicion);
    e.u32(it.audits.len() as u32);
    for a in &it.audits {
        e.u64(a.0);
    }
    e.u32(it.covered.len() as u32);
    for bc in &it.covered {
        put_base_column(e, bc);
    }
    e.u64(it.touched);
    e.u64(it.exposed);
    e.u8(state_tag(it.state));
}

/// Decodes a review-queue [`TriageItem`].
pub fn get_triage_item(d: &mut Dec<'_>) -> Result<TriageItem, DecodeError> {
    let query = QueryId(d.u64()?);
    let ts = Timestamp(d.i64()?);
    let user = get_ident(d)?;
    let role = get_ident(d)?;
    let purpose = get_ident(d)?;
    let suspicion = d.f64()?;
    let mut audits = BTreeSet::new();
    for _ in 0..d.seq_len()? {
        audits.insert(AuditId(d.u64()?));
    }
    let mut covered = BTreeSet::new();
    for _ in 0..d.seq_len()? {
        covered.insert(get_base_column(d)?);
    }
    let touched = d.u64()?;
    let exposed = d.u64()?;
    let off = d.offset();
    let state = state_from_tag(d.u8()?, off)?;
    Ok(TriageItem {
        query,
        ts,
        user,
        role,
        purpose,
        suspicion,
        audits,
        covered,
        touched,
        exposed,
        state,
    })
}

/// Encodes an online-auditor [`AuditBatchState`].
pub fn put_audit_state(e: &mut Enc, s: &AuditBatchState) {
    e.u32(s.touched.len() as u32);
    for fi in &s.touched {
        e.u64(*fi as u64);
    }
    e.u32(s.covered.len() as u32);
    for bc in &s.covered {
        put_base_column(e, bc);
    }
    e.u32(s.exposure.len() as u32);
    for (fi, cols) in &s.exposure {
        e.u64(*fi as u64);
        e.u32(cols.len() as u32);
        for c in cols {
            put_resolved_column(e, c);
        }
    }
    e.u32(s.contributing.len() as u32);
    for id in &s.contributing {
        e.u64(id.0);
    }
}

/// Decodes an online-auditor [`AuditBatchState`].
pub fn get_audit_state(d: &mut Dec<'_>) -> Result<AuditBatchState, DecodeError> {
    let mut touched = BTreeSet::new();
    for _ in 0..d.seq_len()? {
        touched.insert(d.u64()? as usize);
    }
    let mut covered = BTreeSet::new();
    for _ in 0..d.seq_len()? {
        covered.insert(get_base_column(d)?);
    }
    let mut exposure: BTreeMap<usize, BTreeSet<ResolvedColumn>> = BTreeMap::new();
    for _ in 0..d.seq_len()? {
        let fi = d.u64()? as usize;
        let mut cols = BTreeSet::new();
        for _ in 0..d.seq_len()? {
            cols.insert(get_resolved_column(d)?);
        }
        exposure.insert(fi, cols);
    }
    let mut contributing = Vec::new();
    for _ in 0..d.seq_len()? {
        contributing.push(QueryId(d.u64()?));
    }
    Ok(AuditBatchState { touched, covered, exposure, contributing })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn primitives_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.i64(-42);
        e.f64(-0.0);
        e.bool(true);
        e.str("héllo\u{1F600}");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.bool().unwrap());
        assert_eq!(d.str().unwrap(), "héllo\u{1F600}");
        assert!(d.is_exhausted());
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut e = Enc::new();
        e.str("hello");
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Dec::new(&bytes[..cut]);
            assert!(d.str().is_err(), "cut at {cut} must fail");
        }
        // A corrupt length prefix larger than the buffer errors cleanly too.
        let mut d = Dec::new(&[0xFF, 0xFF, 0xFF, 0xFF, b'x']);
        assert!(d.str().is_err());
    }

    #[test]
    fn values_round_trip_including_edge_floats() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Float(f64::NAN),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(1.5e308),
            Value::Str("with \"quotes\" and \\ and \u{0}".into()),
            Value::Ts(Timestamp(-1)),
        ];
        let mut e = Enc::new();
        for v in &vals {
            put_value(&mut e, v);
        }
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        for v in &vals {
            let got = get_value(&mut d).unwrap();
            match (v, &got) {
                // NaN != NaN; compare bit patterns.
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(format!("{v:?}"), format!("{got:?}")),
            }
        }
        assert!(d.is_exhausted());
    }

    #[test]
    fn schema_and_change_round_trip() {
        let schema = Schema::new(vec![
            (Ident::new("a"), TypeName::Int),
            (Ident { value: "Quoted Col".into(), quoted: true }, TypeName::Text),
            (Ident::new("t"), TypeName::Timestamp),
        ])
        .unwrap();
        let mut e = Enc::new();
        put_schema(&mut e, &schema);
        let rec = ChangeRecord {
            ts: Timestamp(99),
            op: ChangeOp::Update,
            tid: Tid(7),
            after: Some(vec![Value::Int(1), Value::Str("x".into()), Value::Ts(Timestamp(5))]),
        };
        put_change(&mut e, &rec);
        let del =
            ChangeRecord { ts: Timestamp(100), op: ChangeOp::Delete, tid: Tid(7), after: None };
        put_change(&mut e, &del);

        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let schema2 = get_schema(&mut d).unwrap();
        assert_eq!(schema, schema2);
        assert_eq!(get_change(&mut d).unwrap(), rec);
        assert_eq!(get_change(&mut d).unwrap(), del);
        assert!(d.is_exhausted());
    }

    #[test]
    fn triage_types_round_trip() {
        let score = RedactedScore {
            audit: AuditId(3),
            fact_coverage: 0.25,
            column_coverage: 0.5,
            closeness: 0.125,
            touched: 7,
            exposed: 2,
            covered: vec![(Ident::new("t"), Ident::new("a"))],
        };
        let item = TriageItem {
            query: QueryId(9),
            ts: Timestamp(-4),
            user: Ident::new("u"),
            role: Ident { value: "Head Nurse".into(), quoted: true },
            purpose: Ident::new("treatment"),
            suspicion: 0.75,
            audits: [AuditId(1), AuditId(3)].into(),
            covered: [(Ident::new("t"), Ident::new("a"))].into(),
            touched: 7,
            exposed: 2,
            state: ReviewState::Dismissed,
        };
        let mut e = Enc::new();
        put_redacted_score(&mut e, &score);
        put_triage_item(&mut e, &item);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(get_redacted_score(&mut d).unwrap(), score);
        assert_eq!(get_triage_item(&mut d).unwrap(), item);
        assert!(d.is_exhausted());
        // Out-of-range state tags are structured errors, not panics.
        let mut bad = Enc::new();
        bad.u8(9);
        assert!(state_from_tag(Dec::new(&bad.into_bytes()).u8().unwrap(), 0).is_err());
    }

    #[test]
    fn version_store_round_trips() {
        let schema = Schema::new(vec![
            (Ident::new("pid"), TypeName::Text),
            (Ident::new("zip"), TypeName::Text),
        ])
        .unwrap();
        let mut s = VersionStore::new(Ident::new("Patients"), schema, Timestamp(0));
        let recs = [
            ChangeRecord {
                ts: Timestamp(10),
                op: ChangeOp::Insert,
                tid: Tid(1),
                after: Some(vec![Value::Str("p1".into()), Value::Str("120016".into())]),
            },
            ChangeRecord {
                ts: Timestamp(20),
                op: ChangeOp::Update,
                tid: Tid(1),
                after: Some(vec![Value::Str("p1".into()), Value::Str("145568".into())]),
            },
            ChangeRecord { ts: Timestamp(30), op: ChangeOp::Delete, tid: Tid(1), after: None },
        ];
        for rec in recs {
            s.record(rec).unwrap();
        }
        let mut e = Enc::new();
        put_version_store(&mut e, &s);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let decoded = get_version_store(&mut d).unwrap();
        assert!(d.is_exhausted());
        // from_parts re-derives the index and live count, so full equality
        // proves the derived parts came back identical too.
        assert_eq!(decoded, s);
        for cut in 0..bytes.len() {
            let mut d = Dec::new(&bytes[..cut]);
            assert!(get_version_store(&mut d).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn footprint_and_state_round_trip() {
        // One combination holding two `t` tids and lacking `u`; one row.
        let mut b = FootprintBuilder::new(
            QueryId(3),
            [Ident::new("t"), Ident::new("u")].into(),
            [(Ident::new("t"), Ident::new("a"))].into(),
        );
        b.combination();
        b.run(Ident::new("t"), &[Tid(1), Tid(2)]).unwrap();
        b.row().unwrap();
        b.cell((Ident::new("t"), Ident::new("a")), Value::Int(9)).unwrap();
        let fp = b.finish().unwrap();
        assert_eq!(fp.combination_count(), 1);
        let runs: Vec<_> = fp.combination(0).collect();
        assert_eq!(runs, [(&Ident::new("t"), &[Tid(1), Tid(2)][..])]);
        let st = AuditBatchState {
            touched: [0usize, 3].into(),
            covered: [(Ident::new("t"), Ident::new("a"))].into(),
            exposure: [(1usize, [ResolvedColumn::new("t", "a")].into())].into(),
            contributing: vec![QueryId(3), QueryId(5)],
        };
        let mut e = Enc::new();
        put_footprint(&mut e, &fp);
        put_audit_state(&mut e, &st);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(get_footprint(&mut d).unwrap(), fp);
        assert_eq!(get_audit_state(&mut d).unwrap(), st);
        assert!(d.is_exhausted());
    }
}
