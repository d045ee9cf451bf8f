//! Property tests on the storage substrate: the version store answers every
//! versioned read exactly as the replay reference does, reconstruction
//! agrees with the live history, join strategies agree, and value semantics
//! hold.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use audex_sql::ast::TypeName;
use audex_sql::{parse_query, Ident, Timestamp};
use audex_storage::{
    ChangeRecord, ChangeSink, Database, FaultPlan, JoinStrategy, RelationProvider, Schema,
    StorageError, TableHistory, Tid, Value,
};
use proptest::prelude::*;

const TABLES: [&str; 2] = ["t", "u"];

/// One scripted mutation against table `TABLES[table]`, `gap` seconds after
/// the previous one (zero: the same instant).
#[derive(Debug, Clone)]
struct Op {
    table: usize,
    gap: i64,
    kind: OpKind,
}

#[derive(Debug, Clone)]
enum OpKind {
    Insert { key: u8, amount: i64 },
    Update { tid: u8, amount: i64 },
    Delete { tid: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let kind = prop_oneof![
        (any::<u8>(), -100i64..100).prop_map(|(key, amount)| OpKind::Insert { key, amount }),
        (1u8..40, -100i64..100).prop_map(|(tid, amount)| OpKind::Update { tid, amount }),
        (1u8..40).prop_map(|tid| OpKind::Delete { tid }),
    ];
    (0usize..2, 0i64..3, kind).prop_map(|(table, gap, kind)| Op { table, gap, kind })
}

type Snapshot = Vec<(Tid, Arc<[Value]>)>;

fn schema() -> Schema {
    Schema::of(&[("k", TypeName::Text), ("amount", TypeName::Int)])
}

/// The reference engine: one [`TableHistory`] per table, fed every record
/// as the database commits it (through the [`ChangeSink`] hook, not read
/// back out of the store under test).
#[derive(Default)]
struct Reference(Mutex<BTreeMap<Ident, TableHistory>>);

impl ChangeSink for Reference {
    fn on_create_table(&self, name: &Ident, schema: &Schema, ts: Timestamp) {
        let history = TableHistory::new(name.clone(), schema.clone(), ts);
        self.0.lock().unwrap().insert(name.clone(), history);
    }

    fn on_change(&self, table: &Ident, rec: &ChangeRecord) {
        self.0.lock().unwrap().get_mut(table).unwrap().record(rec.clone()).unwrap();
    }
}

struct Run {
    db: Database,
    reference: Arc<Reference>,
    /// The live contents of both tables after the last op at each instant.
    states: BTreeMap<Timestamp, [Snapshot; 2]>,
    /// The instant of the last op.
    last: i64,
}

/// Applies `ops` to a two-table database with the reference attached, and
/// keeps a naive model: the full table contents at each instant.
fn run_ops(ops: &[Op]) -> Run {
    let reference = Arc::new(Reference::default());
    let mut db = Database::new();
    db.set_change_sink(Arc::clone(&reference) as Arc<dyn ChangeSink>);
    for name in TABLES {
        db.create_table(Ident::new(name), schema(), Timestamp(0)).unwrap();
    }
    let mut states = BTreeMap::new();
    let mut now = 0;
    for op in ops {
        now += op.gap;
        let (t, ts) = (Ident::new(TABLES[op.table]), Timestamp(now));
        match &op.kind {
            OpKind::Insert { key, amount } => {
                db.insert(&t, vec![format!("k{key}").into(), Value::Int(*amount)], ts).unwrap();
            }
            OpKind::Update { tid, amount } => {
                let tid = Tid(*tid as u64);
                if let Some(mut row) = db.table(&t).unwrap().get(tid).map(|r| r.to_vec()) {
                    row[1] = Value::Int(*amount);
                    db.update_row(&t, tid, row, ts).unwrap();
                }
            }
            OpKind::Delete { tid } => {
                let tid = Tid(*tid as u64);
                if db.table(&t).unwrap().get(tid).is_some() {
                    db.delete_row(&t, tid, ts).unwrap();
                }
            }
        }
        let live = |name| -> Snapshot {
            db.table(&Ident::new(name)).unwrap().iter().map(|(tid, r)| (tid, r.clone())).collect()
        };
        states.insert(ts, [live(TABLES[0]), live(TABLES[1])]);
    }
    Run { db, reference, states, last: now }
}

/// Every `DatabaseAt::relation` read — `T` and `b-T`, both tables, every
/// instant from one before the first possible change to one past the last.
/// A read `faulted` claims must fail with [`StorageError::Injected`]; every
/// other read must equal the reference's answer.
fn sweep_relations(
    run: &Run,
    mut faulted: impl FnMut(&str, bool, Timestamp) -> bool,
) -> Result<(), String> {
    let reference = run.reference.0.lock().unwrap();
    for i in -1..=run.last + 1 {
        let ts = Timestamp(i);
        for name in TABLES {
            let history = &reference[&Ident::new(name)];
            for backlog in [false, true] {
                let (ident, expected) = if backlog {
                    (Ident::new(format!("b-{name}")), history.backlog_relation(ts))
                } else {
                    (Ident::new(name), history.replay_to(ts))
                };
                let got = run.db.at(ts).relation(&ident);
                if faulted(name, backlog, ts) {
                    prop_assert!(
                        matches!(got, Err(StorageError::Injected { .. })),
                        "{} at ts {} should have failed: {:?}",
                        ident,
                        i,
                        got.map(|r| r.rows.len())
                    );
                } else {
                    prop_assert_eq!(&*got.unwrap(), &expected, "{} at ts {}", ident, i);
                }
            }
        }
    }
    Ok(())
}

/// The reads that bypass the fault gates and the cache: `versions_in` (per
/// table and merged), `row_as_of`, `table_changes`, `table_created_at`.
fn check_ungated_reads(run: &Run) -> Result<(), String> {
    let reference = run.reference.0.lock().unwrap();
    let end = Timestamp(run.last + 1);
    let instants = |names: &[&str], start: Timestamp, end: Timestamp| {
        let mut out = vec![start];
        for name in names {
            out.extend(reference[&Ident::new(*name)].change_instants(start, end));
        }
        out.sort_unstable();
        out.dedup();
        out
    };
    for i in -1..=run.last + 1 {
        let ts = Timestamp(i);
        for (start, end) in [(Timestamp(-1), ts), (ts, end)] {
            prop_assert_eq!(run.db.versions_in(&[], start, end), instants(&TABLES, start, end));
            for name in TABLES {
                prop_assert_eq!(
                    run.db.versions_in(&[Ident::new(name)], start, end),
                    instants(&[name], start, end),
                    "versions_in([{}], {}, {})",
                    name,
                    start,
                    end
                );
            }
        }
        for name in TABLES {
            let ident = Ident::new(name);
            let table = reference[&ident].replay_to(ts);
            for tid in (1..40).map(Tid) {
                prop_assert_eq!(
                    run.db.row_as_of(&ident, tid, ts),
                    table.get(tid).cloned(),
                    "row_as_of({}, {:?}, {})",
                    name,
                    tid,
                    i
                );
            }
        }
    }
    for name in TABLES {
        let ident = Ident::new(name);
        let history = &reference[&ident];
        prop_assert_eq!(run.db.table_changes(&ident), Some(history.changes().to_vec()));
        prop_assert_eq!(run.db.table_created_at(&ident), Some(history.created_at()));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Versioned reads reconstruct exactly the state the live tables had at
    /// each instant of the run.
    #[test]
    fn versioned_reads_agree_with_live_history(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let run = run_ops(&ops);
        for (ts, expected) in &run.states {
            for (name, expected) in TABLES.iter().zip(expected) {
                let rel = run.db.at(*ts).relation(&Ident::new(*name)).unwrap();
                prop_assert_eq!(&rel.rows, expected, "{} at ts {}", name, ts);
            }
        }
    }

    /// The one boundary where a storage engine can influence a report: the
    /// version store answers all five `Database` reads — `T`, `b-T`,
    /// `versions_in`, `table_changes`, `row_as_of` — byte-identically to
    /// the replay reference, at every instant. With a fault plan armed over
    /// a warm cache, exactly the addressed reads fail, every other read
    /// still equals the reference, and nothing the faults touched is served
    /// from, or left in, the snapshot cache.
    #[test]
    fn mvcc_equals_replay_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        nth in 1u64..40,
        cutoff in -1i64..40,
    ) {
        let mut run = run_ops(&ops);
        sweep_relations(&run, |_, _, _| false)?;
        check_ungated_reads(&run)?;

        // The `nth` read of `t` (`T` and `b-T` reads count alike) fails;
        // `u` loses its history past `cutoff` — `b-u` and historical reads,
        // never the live table.
        let cutoff = Timestamp(cutoff);
        run.db.arm_faults(
            FaultPlan::new().fail_scan(TABLES[0], nth).fail_backlog_past(TABLES[1], cutoff),
        );
        let last_ts = run.db.last_ts();
        let mut scans_of_t = 0;
        sweep_relations(&run, |name, backlog, ts| {
            if name == TABLES[0] {
                scans_of_t += 1;
                scans_of_t == nth
            } else {
                ts > cutoff && (backlog || ts < last_ts)
            }
        })?;
        check_ungated_reads(&run)?;

        run.db.disarm_faults();
        sweep_relations(&run, |_, _, _| false)?;
    }

    /// The backlog relation contains every version every surviving or
    /// deleted tuple ever had.
    #[test]
    fn backlog_relation_superset_of_every_state(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let run = run_ops(&ops);
        for (i, name) in TABLES.iter().enumerate() {
            let b = run.db.at(Timestamp(1_000)).relation(&Ident::new(format!("b-{name}"))).unwrap();
            for snap in run.states.values() {
                for (tid, row) in &snap[i] {
                    prop_assert!(
                        b.rows.iter().any(|(bt, br)| bt == tid && br == row),
                        "state row {tid:?} missing from backlog relation b-{name}"
                    );
                }
            }
        }
    }

    /// versions_in() returns exactly the distinct change instants (plus the
    /// interval start), sorted.
    #[test]
    fn versions_in_is_sorted_dedup(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let run = run_ops(&ops);
        let v = run.db.versions_in(&[], Timestamp(0), Timestamp(1_000));
        prop_assert!(v.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(v[0], Timestamp(0));
    }

    /// Hash join and nested loop agree on random data for an equi-join with
    /// extra filters.
    #[test]
    fn join_strategies_agree(
        left in proptest::collection::vec((0u8..20, -50i64..50), 0..30),
        right in proptest::collection::vec((0u8..20, -50i64..50), 0..30),
        threshold in -50i64..50,
    ) {
        let mut db = Database::new();
        let a = Ident::new("a");
        let b = Ident::new("b");
        db.create_table(a.clone(), Schema::of(&[("k", TypeName::Text), ("x", TypeName::Int)]), Timestamp(0)).unwrap();
        db.create_table(b.clone(), Schema::of(&[("k", TypeName::Text), ("y", TypeName::Int)]), Timestamp(0)).unwrap();
        for (k, x) in &left {
            db.insert(&a, vec![format!("k{k}").into(), Value::Int(*x)], Timestamp(1)).unwrap();
        }
        for (k, y) in &right {
            db.insert(&b, vec![format!("k{k}").into(), Value::Int(*y)], Timestamp(1)).unwrap();
        }
        let q = parse_query(&format!(
            "SELECT a.k, x, y FROM a, b WHERE a.k = b.k AND x + y > {threshold}"
        )).unwrap();
        let hash = db.at(Timestamp(1)).query_with(&q, JoinStrategy::Auto).unwrap();
        let nested = db.at(Timestamp(1)).query_with(&q, JoinStrategy::NestedLoop).unwrap();
        prop_assert_eq!(hash.rows, nested.rows);
        prop_assert_eq!(hash.lineage, nested.lineage);
    }

    /// Value total order is a total order (antisymmetric, transitive on
    /// sampled triples) and grouping_eq is reflexive/symmetric.
    #[test]
    fn value_order_laws(xs in proptest::collection::vec(value_strategy(), 3)) {
        let (a, b, c) = (&xs[0], &xs[1], &xs[2]);
        use std::cmp::Ordering;
        prop_assert_eq!(a.total_cmp(a), Ordering::Equal);
        prop_assert_eq!(a.total_cmp(b), b.total_cmp(a).reverse());
        if a.total_cmp(b) != Ordering::Greater && b.total_cmp(c) != Ordering::Greater {
            prop_assert_ne!(a.total_cmp(c), Ordering::Greater);
        }
        prop_assert!(a.grouping_eq(a));
        prop_assert_eq!(a.grouping_eq(b), b.grouping_eq(a));
    }

    /// SQL comparison is consistent with its flip.
    #[test]
    fn sql_cmp_antisymmetry(a in value_strategy(), b in value_strategy()) {
        if let (Some(x), Some(y)) = (a.sql_cmp(&b), b.sql_cmp(&a)) {
            prop_assert_eq!(x, y.reverse());
        }
    }
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(Value::Int),
        (-1000i64..1000).prop_map(|v| Value::Float(v as f64 / 4.0)),
        "[a-z0-9]{0,6}".prop_map(Value::Str),
        (0i64..10_000).prop_map(|s| Value::Ts(Timestamp(s))),
    ]
}
