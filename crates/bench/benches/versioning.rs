//! B3: backlog time-travel cost versus update-stream length —
//! `replay_to` (state reconstruction), `versions_in` (DATA-INTERVAL
//! enumeration), and the backlog relation `b-T`.
//!
//! Expected shape: all three are linear in the number of recorded changes;
//! reconstruction of an early instant is cheaper than a late one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use audex_sql::{Ident, Timestamp};
use audex_storage::TableHistory;
use audex_workload::datagen::PATIENTS;
use audex_workload::{apply_update_stream, generate_hospital, HospitalConfig, UpdateStreamConfig};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("versioning");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300));

    for updates in [100usize, 1_000, 10_000] {
        let hospital = HospitalConfig { patients: 500, ..Default::default() };
        let mut db = generate_hospital(&hospital, Timestamp(0));
        let cfg = UpdateStreamConfig { updates, start: Timestamp(10_000), spacing: 10, seed: 3 };
        let applied = apply_update_stream(&mut db, &hospital, &cfg);
        let last = *applied.last().unwrap();
        let mid = applied[applied.len() / 2];
        // This bench measures the replay oracle itself, so it rebuilds the
        // backlog representation from the database's mode-agnostic change
        // log (the engine default is the MVCC store).
        let patients = Ident::new(PATIENTS);
        let table = db.table(&patients).unwrap();
        let mut history = TableHistory::new(
            patients.clone(),
            table.schema().clone(),
            db.table_created_at(&patients).unwrap(),
        );
        for rec in db.table_changes(&patients).unwrap() {
            history.record(rec).unwrap();
        }

        g.bench_with_input(BenchmarkId::new("replay_to_mid", updates), &updates, |b, _| {
            b.iter(|| history.replay_to(mid).rows.len())
        });
        g.bench_with_input(BenchmarkId::new("replay_to_end", updates), &updates, |b, _| {
            b.iter(|| history.replay_to(last).rows.len())
        });
        g.bench_with_input(BenchmarkId::new("versions_in", updates), &updates, |b, _| {
            b.iter(|| db.versions_in(&[Ident::new(PATIENTS)], Timestamp(0), last).len())
        });
        g.bench_with_input(BenchmarkId::new("backlog_relation", updates), &updates, |b, _| {
            b.iter(|| history.backlog_relation(last).rows.len())
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
