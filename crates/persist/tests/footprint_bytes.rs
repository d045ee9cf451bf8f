//! Pinned bytes of touch-index footprints.
//!
//! Checkpoints hold one encoded footprint per logged query, so the bytes
//! `put_footprint` writes are part of the on-disk format. This test builds
//! the footprints of real queries over every lineage shape the executor can
//! produce (self-joins that hit one tid twice or two tids, a three-way join,
//! a zero-width projection, `Str`/`Null`/`Ts` cells, an empty result), plus
//! a hand-encoded combination that lacks one of its query's bases, and pins
//! an FNV-1a of each encoding. It also checks that decoding and re-encoding
//! reproduces the bytes exactly and decodes to an equal footprint.
//!
//! A change to the footprint's in-memory layout must leave every constant
//! below unchanged; a change that moves one changes the checkpoint format.

use audex_core::{BaseColumn, QueryFootprint, TouchIndex};
use audex_log::{AccessContext, QueryLog};
use audex_persist::codec::{get_footprint, put_ident, put_value, Dec, Enc};
use audex_sql::{parse_statement, Ident, Timestamp};
use audex_storage::{Database, JoinStrategy, Tid, Value};

fn db() -> Database {
    let script = [
        "CREATE TABLE T (a INT, s TEXT, at TIMESTAMP)",
        "CREATE TABLE U (a INT, b TEXT)",
        "CREATE TABLE V (b TEXT, c INT)",
        "INSERT INTO T VALUES (1, 'one', 100), (2, NULL, 200), (3, 'three', 300), \
         (4, 'four', 400), (5, 'five', 500)",
        "INSERT INTO U VALUES (1, 'x'), (2, 'y'), (3, 'x')",
        "INSERT INTO V VALUES ('x', 10), ('y', 20), ('z', 30)",
    ];
    let mut db = Database::new();
    for (i, sql) in script.iter().enumerate() {
        db.execute(&parse_statement(sql).unwrap(), Timestamp(i as i64)).unwrap();
    }
    db
}

fn encode(fp: &QueryFootprint) -> Vec<u8> {
    let mut e = Enc::new();
    audex_persist::codec::put_footprint(&mut e, fp);
    e.into_bytes()
}

/// Decodes `bytes` as one footprint, asserts the buffer is consumed and that
/// re-encoding reproduces it, and returns the decoded footprint.
fn round_trip(bytes: &[u8]) -> QueryFootprint {
    let mut d = Dec::new(bytes);
    let fp = get_footprint(&mut d).unwrap();
    assert!(d.is_exhausted());
    assert_eq!(encode(&fp), bytes, "decode → encode must reproduce the bytes");
    fp
}

#[test]
fn footprint_bytes_are_pinned_and_round_trip() {
    let db = db();
    let log = QueryLog::new();
    let ctx = || AccessContext::new("u", "r", "p");
    // (query, FNV-1a of its encoded footprint)
    let cases: [(&str, u64); 9] = [
        // Self-join hitting the same tid through both bindings.
        ("SELECT x.a FROM T x, T y WHERE x.a = y.a", 0xfc4a_f588_35a2_b0a7),
        // Self-join hitting two different tids.
        ("SELECT x.a, y.s FROM T x, T y WHERE x.a + 1 = y.a", 0xa2e7_24e5_0af6_4fec),
        // Three-way join.
        ("SELECT T.s, U.b, V.c FROM T, U, V WHERE T.a = U.a AND U.b = V.b", 0x66b2_1993_84a1_68a1),
        // Zero-width projection: five rows, no plain-column cell.
        ("SELECT a + 1 FROM T", 0xf484_1553_dd6d_5e6d),
        // Str, Null and Ts cells.
        ("SELECT s, at FROM T WHERE a < 4", 0x29d5_8368_7a5a_5417),
        // Empty result.
        ("SELECT a FROM T WHERE a > 1000", 0x7ee6_6dc1_b59f_454b),
        // Wildcard over a join: every column of both bases.
        ("SELECT * FROM T, U WHERE T.a = U.a AND U.b = 'y'", 0xec4d_32c5_ae91_ad3d),
        // The query spells its table unlike the catalog.
        ("SELECT a FROM t WHERE a = 2", 0x06c4_bf91_4802_bbce),
        // A backlog relation: lineage names `b-T`, the footprint its base.
        ("SELECT a FROM b-T WHERE a = 2", 0xfbbf_4fd9_c9a6_096d),
    ];
    for (i, (sql, _)) in cases.iter().enumerate() {
        log.record_text(sql, Timestamp(100 + i as i64), ctx()).unwrap();
    }
    let index = TouchIndex::build(&db, &log.snapshot(), JoinStrategy::Auto);
    assert!(index.skipped_ids().is_empty());
    assert_eq!(index.len(), cases.len());
    let mut got = Vec::new();
    for (fp, (sql, _)) in index.footprints().iter().zip(&cases) {
        let bytes = encode(fp);
        assert_eq!(&round_trip(&bytes), fp, "{sql}");
        got.push(audex_triage::fnv1a64(&bytes));
    }
    let want: Vec<u64> = cases.iter().map(|(_, h)| *h).collect();
    assert_eq!(got, want, "footprint bytes moved: {got:#x?}");
}

#[test]
fn combination_lacking_a_base_round_trips() {
    // No query writes this shape (every combination names every binding),
    // but the decoder accepts it: one query over T and U whose only
    // combination holds two T tids and no U tid, and one row.
    let col: BaseColumn = (Ident::new("t"), Ident::new("a"));
    let put_base_column = |e: &mut Enc, (t, c): &BaseColumn| {
        put_ident(e, t);
        put_ident(e, c);
    };
    let mut e = Enc::new();
    e.u64(3);
    e.u32(2);
    put_ident(&mut e, &Ident::new("t"));
    put_ident(&mut e, &Ident::new("u"));
    e.u32(1);
    put_base_column(&mut e, &col);
    e.u32(1); // combinations
    e.u32(1); // bases in the combination
    put_ident(&mut e, &Ident::new("t"));
    e.u32(2);
    e.u64(Tid(1).0);
    e.u64(Tid(2).0);
    e.u32(1); // rows
    e.u32(1); // cells in the row
    put_base_column(&mut e, &col);
    put_value(&mut e, &Value::Int(9));
    let bytes = e.into_bytes();
    round_trip(&bytes);
    assert_eq!(audex_triage::fnv1a64(&bytes), 0xc626_f287_a68a_6f6f);
}
