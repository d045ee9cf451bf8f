//! Allocation and heap guard for touch-index footprints.
//!
//! The streaming service keeps one footprint per logged query for as long
//! as it runs, so a footprint's per-row cost is the daemon's resident
//! memory. Over the 1,024-row `Employ` table, the footprint of a scan that
//! answers hundreds of rows must cost a fixed number of allocations beyond
//! executing the query alone, whatever the row count, and retain at most
//! 64 B of heap per result row (one tid, one run end and one value in the
//! flat form; a per-row tree and cell vector cost ~890 B). Both figures
//! repeat exactly from run to run, so unlike a timing they can be asserted.
//!
//! This file holds one test on purpose: the counters are process-wide, and
//! a second test running on another thread would be counted too.

use audex_core::{Governor, TouchIndex};
use audex_log::{AccessContext, LoggedQuery, QueryId};
use audex_sql::{parse_query, parse_statement, Timestamp};
use audex_storage::{Database, JoinStrategy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Arc;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are statistics and guard no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROWS: usize = 1024;

/// Allocations beyond the query's own execution that one footprint may
/// cost: scope resolution, the header, and a handful of flat vectors.
const FIXED_ALLOCATIONS: usize = 64;

/// Heap one footprint may retain per result row.
const BYTES_PER_ROW: usize = 64;

/// The ledger's `Employ` shape: one row per patient, salaries spread
/// evenly over 5,000..50,000 in shuffled order.
fn employ() -> Database {
    let rows: Vec<String> = (0..ROWS)
        .map(|i| {
            format!("('p{i}', 'E{}', {})", 1 + i % 49, 5_000 + 45_000 * (i * 617 % ROWS) / ROWS)
        })
        .collect();
    let script = [
        "CREATE TABLE Employ (pid TEXT, employer TEXT, salary INT)".to_string(),
        format!("INSERT INTO Employ VALUES {}", rows.join(", ")),
    ];
    let mut db = Database::new();
    for (i, sql) in script.iter().enumerate() {
        db.execute(&parse_statement(sql).unwrap(), Timestamp(i as i64)).unwrap();
    }
    db
}

fn counters() -> (usize, isize) {
    (ALLOCATIONS.load(Ordering::Relaxed), LIVE_BYTES.load(Ordering::Relaxed))
}

#[test]
fn footprints_cost_fixed_allocations_and_a_few_bytes_per_row() {
    let db = employ();
    // (salary floor, expected rows, whether the per-row heap bound applies:
    // a handful of rows spreads the per-query header too thin to judge)
    for (floor, expect_rows, per_row) in
        [(25_000, 550..600, true), (5_000, 1000..1025, true), (49_000, 1..40, false)]
    {
        let sql = format!("SELECT salary FROM Employ WHERE salary > {floor}");
        let q = Arc::new(LoggedQuery::new(
            QueryId(1),
            parse_query(&sql).unwrap(),
            sql.clone(),
            Timestamp(10),
            AccessContext::new("u", "r", "p"),
        ));
        let at = db.at(q.executed_at);
        // Warm: the first read builds the table's snapshot.
        let rows = at.query_with(q.query(), JoinStrategy::Auto).unwrap().rows.len();
        assert!(expect_rows.contains(&rows), "{rows} rows for `{sql}`");

        let (before, _) = counters();
        let rs = at.query_with(q.query(), JoinStrategy::Auto).unwrap();
        let execution = counters().0 - before;
        drop(rs);

        let (before, live_before) = counters();
        let mut index = TouchIndex::new();
        index.extend(&db, &q, JoinStrategy::Auto, &Governor::unlimited()).unwrap();
        let (after, live_after) = counters();
        assert_eq!(index.len(), 1);
        let extra = after - before - execution;
        let retained = (live_after - live_before) as usize;
        eprintln!(
            "`{sql}`: {rows} rows, {extra} allocations beyond execution, {retained} B retained \
             ({:.1} B/row)",
            retained as f64 / rows as f64
        );
        assert!(extra <= FIXED_ALLOCATIONS, "{extra} allocations for the footprint of `{sql}`");
        assert!(
            !per_row || retained <= BYTES_PER_ROW * rows,
            "{retained} B retained for {rows} rows by the footprint of `{sql}`"
        );
        drop(index);
    }
}
