//! The touch index (§4 future work) must agree exactly with direct batch
//! evaluation, for every suspicion notion, on generated workloads.

use audex::core::{AuditEngine, EngineOptions, Governor, TouchIndex};
use audex::log::QueryId;
use audex::sql::ast::{AuditExpr, TimeInterval, TsSpec};
use audex::sql::parse_audit;
use audex::storage::JoinStrategy;
use audex::workload::datagen::zip_of_zone;
use audex::workload::{
    generate_hospital, generate_queries, load_log, standard_audit_text, HospitalConfig,
    QueryMixConfig,
};
use audex::Timestamp;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn all_time(mut e: AuditExpr) -> AuditExpr {
    let iv = TimeInterval { start: TsSpec::At(Timestamp(0)), end: TsSpec::Now };
    e.during = Some(iv);
    e.data_interval = Some(iv);
    e
}

#[test]
fn index_agrees_with_direct_evaluation_across_audits() {
    let hospital = HospitalConfig { patients: 120, zip_zones: 6, diseases: 5, seed: 77 };
    let db = generate_hospital(&hospital, Timestamp(0));
    let mix =
        QueryMixConfig { queries: 80, suspicious_rate: 0.15, start: Timestamp(1_000), seed: 78 };
    let (log, _) = load_log(&generate_queries(&hospital, &mix));
    let batch = log.snapshot();
    let admitted: BTreeSet<QueryId> = batch.iter().map(|e| e.id).collect();

    let index = TouchIndex::build(&db, &batch, JoinStrategy::Auto);
    assert_eq!(index.len(), batch.len());

    let engine = AuditEngine::with_options(
        &db,
        &log,
        EngineOptions { static_filter: false, ..Default::default() },
    );
    let audits = [
        format!(
            "AUDIT disease FROM Patients, Health \
             WHERE Patients.pid = Health.pid AND Patients.zipcode = '{}'",
            zip_of_zone(0)
        ),
        format!("AUDIT name FROM Patients WHERE zipcode = '{}'", zip_of_zone(1)),
        "AUDIT (name, disease) FROM Patients, Health WHERE Patients.pid = Health.pid".to_string(),
        "INDISPENSABLE false AUDIT name FROM Patients WHERE age > 60".to_string(),
        "THRESHOLD 2 AUDIT age FROM Patients WHERE age < 30".to_string(),
        "AUDIT [name, age, address] FROM Patients WHERE age < 40".to_string(),
    ];
    for text in &audits {
        let expr = all_time(parse_audit(text).unwrap());
        let prepared = engine.prepare(&expr, Timestamp(1_000_000)).unwrap();
        let direct = engine.run(&prepared).unwrap();
        let indexed = index.evaluate(&prepared, &admitted).unwrap();
        assert_eq!(direct.verdict.suspicious, indexed.suspicious, "{text}");
        assert_eq!(direct.verdict.accessed_granules, indexed.accessed_granules, "{text}");
        assert_eq!(direct.verdict.contributing, indexed.contributing, "{text}");
        assert_eq!(direct.verdict.witnesses, indexed.witnesses, "{text}");
        assert_eq!(direct.verdict.per_scheme_accessed, indexed.per_scheme_accessed, "{text}");
    }
}

#[test]
fn admitted_set_restricts_evaluation() {
    let hospital = HospitalConfig { patients: 50, zip_zones: 4, diseases: 4, seed: 5 };
    let db = generate_hospital(&hospital, Timestamp(0));
    let mix =
        QueryMixConfig { queries: 20, suspicious_rate: 0.5, start: Timestamp(1_000), seed: 6 };
    let (log, planted) = load_log(&generate_queries(&hospital, &mix));
    let batch = log.snapshot();
    let index = TouchIndex::build(&db, &batch, JoinStrategy::Auto);

    let engine = AuditEngine::new(&db, &log);
    let expr = all_time(parse_audit(&standard_audit_text()).unwrap());
    let prepared = engine.prepare(&expr, Timestamp(1_000_000)).unwrap();

    // Nothing admitted → clean.
    let none = index.evaluate(&prepared, &BTreeSet::new()).unwrap();
    assert!(!none.suspicious);

    // Only one planted query admitted → exactly that one contributes.
    let one: BTreeSet<QueryId> = [planted[0]].into_iter().collect();
    let v = index.evaluate(&prepared, &one).unwrap();
    assert!(v.suspicious);
    assert_eq!(v.contributing, vec![planted[0]]);
}

#[test]
fn index_respects_limiting_parameters_via_admitted() {
    // The engine's filter decides `admitted`; the index applies it exactly.
    let hospital = HospitalConfig { patients: 60, zip_zones: 4, diseases: 4, seed: 9 };
    let db = generate_hospital(&hospital, Timestamp(0));
    let mix =
        QueryMixConfig { queries: 40, suspicious_rate: 0.3, start: Timestamp(1_000), seed: 10 };
    let (log, _) = load_log(&generate_queries(&hospital, &mix));
    let batch = log.snapshot();
    let index = TouchIndex::build(&db, &batch, JoinStrategy::Auto);

    let mut expr = all_time(parse_audit(&standard_audit_text()).unwrap());
    expr.neg_role_purpose = vec![audex::sql::ast::RolePurposePattern {
        role: Some(audex::sql::Ident::new("nurse")),
        purpose: None,
    }];
    let engine = AuditEngine::with_options(
        &db,
        &log,
        EngineOptions { static_filter: false, ..Default::default() },
    );
    let prepared = engine.prepare(&expr, Timestamp(1_000_000)).unwrap();
    let direct = engine.run(&prepared).unwrap();
    let admitted: BTreeSet<QueryId> = direct.admitted.iter().copied().collect();
    let indexed = index.evaluate(&prepared, &admitted).unwrap();
    assert_eq!(direct.verdict.contributing, indexed.contributing);
    assert_eq!(direct.verdict.accessed_granules, indexed.accessed_granules);
}

#[test]
fn audit_many_matches_individual_audits() {
    let hospital = HospitalConfig { patients: 80, zip_zones: 5, diseases: 4, seed: 91 };
    let db = generate_hospital(&hospital, Timestamp(0));
    let mix =
        QueryMixConfig { queries: 60, suspicious_rate: 0.2, start: Timestamp(1_000), seed: 92 };
    let (log, _) = load_log(&generate_queries(&hospital, &mix));
    let engine = AuditEngine::new(&db, &log);

    let exprs: Vec<AuditExpr> = (0..4)
        .map(|i| {
            let mut e = all_time(
                parse_audit(&format!(
                    "AUDIT disease FROM Patients, Health \
                     WHERE Patients.pid = Health.pid AND Patients.zipcode = '{}'",
                    zip_of_zone(i)
                ))
                .unwrap(),
            );
            if i == 1 {
                // One audit with a limiting parameter, to exercise per-
                // expression filtering inside audit_many.
                e.neg_role_purpose = vec![audex::sql::ast::RolePurposePattern {
                    role: Some(audex::sql::Ident::new("nurse")),
                    purpose: None,
                }];
            }
            e
        })
        .collect();

    let many = engine.audit_many(&exprs, Timestamp(1_000_000)).unwrap();
    for (expr, outcome) in exprs.iter().zip(&many) {
        let report = outcome.as_ref().expect("healthy expression audits cleanly");
        let single = engine.audit_at(expr, Timestamp(1_000_000)).unwrap();
        assert_eq!(report.verdict.suspicious, single.verdict.suspicious);
        assert_eq!(report.verdict.accessed_granules, single.verdict.accessed_granules);
        assert_eq!(report.verdict.contributing, single.verdict.contributing);
        assert_eq!(report.admitted, single.admitted);
    }
}

proptest! {
    // Workload generation dominates each case; 16 cases × (2 builds + 3
    // audits × 2 evaluations) is plenty of surface for a divergence to show.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Differential: growing the index one query at a time with
    /// [`TouchIndex::extend`] — the streaming service's ingestion path —
    /// yields byte-identical verdicts to a from-scratch batch build.
    #[test]
    fn extend_matches_from_scratch_build(
        db_seed in 0u64..500,
        mix_seed in 0u64..500,
        queries in 8usize..32,
        suspicious_pct in 0u32..40,
    ) {
        let hospital =
            HospitalConfig { patients: 40, zip_zones: 4, diseases: 4, seed: db_seed };
        let db = generate_hospital(&hospital, Timestamp(0));
        let mix = QueryMixConfig {
            queries,
            suspicious_rate: f64::from(suspicious_pct) / 100.0,
            start: Timestamp(1_000),
            seed: mix_seed,
        };
        let (log, _) = load_log(&generate_queries(&hospital, &mix));
        let batch = log.snapshot();
        let governor = Governor::unlimited();

        let built =
            TouchIndex::build_governed(&db, &batch, JoinStrategy::Auto, &governor).unwrap();
        let mut incremental = TouchIndex::new();
        for entry in &batch {
            incremental.extend(&db, entry, JoinStrategy::Auto, &governor).unwrap();
        }
        prop_assert_eq!(incremental.len(), built.len());
        prop_assert_eq!(incremental.skipped_ids(), built.skipped_ids());

        let engine = AuditEngine::new(&db, &log);
        let admitted: BTreeSet<QueryId> = batch.iter().map(|e| e.id).collect();
        let audits = [
            standard_audit_text(),
            format!("AUDIT name FROM Patients WHERE zipcode = '{}'", zip_of_zone(1)),
            "THRESHOLD 2 AUDIT age FROM Patients WHERE age < 45".to_string(),
        ];
        for text in &audits {
            let expr = all_time(parse_audit(text).unwrap());
            let prepared = engine.prepare(&expr, Timestamp(1_000_000)).unwrap();
            let from_inc = incremental.evaluate(&prepared, &admitted).unwrap();
            let from_built = built.evaluate(&prepared, &admitted).unwrap();
            // Byte-identical, not merely equal: the service answers audits
            // from the extended index and its wire output is rendered from
            // this verdict.
            prop_assert_eq!(
                format!("{from_inc:?}"),
                format!("{from_built:?}"),
                "extend vs from-scratch build diverged on {}", text
            );
        }
    }
}
