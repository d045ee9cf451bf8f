//! Allocation-count guard for the first live read after a write.
//!
//! A one-row `UPDATE` opens a new instant, so the next read of the table
//! cannot be served from the snapshot cache: it rebuilds the table's
//! relation. That rebuild must share the stored row images (a pointer copy
//! per row) rather than copy every row and every `String` cell, so the
//! allocations of the read do not grow with the row count. The count
//! repeats exactly from run to run, so unlike a timing it can be asserted.
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

/// The ledger's `Patients` / `Health` shape at `rows` patients: TEXT
/// columns, one patient per zipcode, one health row per patient.
fn hospital(rows: usize) -> Database {
    let patients: Vec<String> = (0..rows)
        .map(|i| {
            format!("('p{i}', 'name {i}', {}, '{}', '{i} Main Street')", 20 + i % 60, 100_000 + i)
        })
        .collect();
    let health: Vec<String> = (0..rows)
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
fn live_reads_after_an_update_do_not_allocate_per_row() {
    let queries = [
        ("SELECT name, address FROM Patients WHERE zipcode = '100200'", 64),
        (
            "SELECT disease FROM Patients, Health \
             WHERE Patients.pid = Health.pid AND Patients.zipcode = '100200'",
            96,
        ),
    ];
    for (sql, budget) in queries {
        let query = parse_query(sql).unwrap();
        let mut spent_at = Vec::new();
        for rows in [256, 1024] {
            let mut db = hospital(rows);
            // Warm both tables' snapshots, then move Patients to a new
            // instant with a one-row write.
            db.at(db.last_ts()).query_with(&query, JoinStrategy::Auto).unwrap();
            let update = parse_statement("UPDATE Patients SET age = 99 WHERE pid = 'p7'").unwrap();
            db.execute(&update, Timestamp(10)).unwrap();
            let misses = db.snapshot_stats().misses;

            let at = db.at(db.last_ts());
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let rs = at.query_with(&query, JoinStrategy::Auto).unwrap();
            let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;

            assert_eq!(rs.rows.len(), 1, "{sql}");
            assert_eq!(db.snapshot_stats().misses, misses + 1, "Patients was rebuilt");
            assert!(
                spent < budget,
                "{spent} allocations (budget {budget}) at {rows} rows: `{sql}`"
            );
            eprintln!("{spent} allocations at {rows} rows for `{sql}`");
            spent_at.push(spent);
        }
        assert_eq!(spent_at[0], spent_at[1], "allocations grow with the row count: `{sql}`");
    }
}
