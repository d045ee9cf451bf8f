//! Allocation-count guard for the executor's inner loop.
//!
//! A one-row answer over a 1,024-row table must cost a few dozen
//! allocations (plan, result, lineage), not a few thousand (a copy of every
//! scanned row). The count repeats exactly from run to run, so unlike a
//! timing it can be asserted; it fails the day a per-row clone comes back.
//!
//! This file holds one test on purpose: the counter is process-wide, and a
//! second test running on another thread would be counted too.

use audex_sql::{parse_query, parse_statement, Timestamp};
use audex_storage::{Database, JoinStrategy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a statistic and guards no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROWS: usize = 1024;

/// The ledger's `Patients` / `Health` shape: TEXT columns, one patient per
/// zipcode, one health row per patient.
fn hospital() -> Database {
    let patients: Vec<String> = (0..ROWS)
        .map(|i| {
            format!("('p{i}', 'name {i}', {}, '{}', '{i} Main Street')", 20 + i % 60, 100_000 + i)
        })
        .collect();
    let health: Vec<String> = (0..ROWS)
        .map(|i| format!("('p{i}', 'ward{}', 'disease{}', 'drug{}')", i % 7, i % 31, i % 13))
        .collect();
    let script = [
        "CREATE TABLE Patients (pid TEXT, name TEXT, age INT, zipcode TEXT, address TEXT)".into(),
        "CREATE TABLE Health (pid TEXT, ward TEXT, disease TEXT, drug TEXT)".into(),
        format!("INSERT INTO Patients VALUES {}", patients.join(", ")),
        format!("INSERT INTO Health VALUES {}", health.join(", ")),
    ];
    let mut db = Database::new();
    for (i, sql) in script.iter().enumerate() {
        db.execute(&parse_statement(sql).unwrap(), Timestamp(i as i64)).unwrap();
    }
    db
}

#[test]
fn one_row_answers_do_not_allocate_per_scanned_row() {
    let db = hospital();
    let at = db.at(db.last_ts());
    for (sql, budget) in [
        ("SELECT name, address FROM Patients WHERE zipcode = '100700'", 64),
        (
            "SELECT disease FROM Patients, Health \
             WHERE Patients.pid = Health.pid AND Patients.zipcode = '100700'",
            160,
        ),
    ] {
        let query = parse_query(sql).unwrap();
        // Warm: the first read of each table builds its snapshot.
        let warm = at.query_with(&query, JoinStrategy::Auto).unwrap();
        assert_eq!(warm.rows.len(), 1, "{sql}");

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let rs = at.query_with(&query, JoinStrategy::Auto).unwrap();
        let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(rs, warm);
        assert!(spent < budget, "{spent} allocations (budget {budget}) for `{sql}`");
        eprintln!("{spent} allocations for `{sql}`");
    }
}
