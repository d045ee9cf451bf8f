//! Seeded synthetic hospital databases for the scalability benchmarks.
//!
//! The paper publishes no measured workload, so the performance study (B1–B7
//! in DESIGN.md) runs on deterministic synthetic data shaped like the
//! paper's running example: `Patients` / `Health` / `Employ` relations keyed
//! by `pid`, with a configurable number of zip-code zones so audit
//! selectivity can be swept.

use audex_sql::ast::TypeName;
use audex_sql::{Ident, Timestamp};
use audex_storage::{Database, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of the synthetic hospital.
#[derive(Debug, Clone, Copy)]
pub struct HospitalConfig {
    /// Number of patients (rows per table).
    pub patients: usize,
    /// Number of distinct zip codes; audit selectivity ≈ 1/zones.
    pub zip_zones: usize,
    /// Number of distinct diseases.
    pub diseases: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HospitalConfig {
    fn default() -> Self {
        HospitalConfig { patients: 1_000, zip_zones: 20, diseases: 12, seed: 42 }
    }
}

/// Fixed names for the generated tables.
pub const PATIENTS: &str = "Patients";
/// Health-record table name.
pub const HEALTH: &str = "Health";
/// Employment table name.
pub const EMPLOY: &str = "Employ";

/// The zip code of zone `z` (zone 0 is the conventional audit target).
pub fn zip_of_zone(z: usize) -> String {
    format!("1{:05}", z)
}

/// The disease label `d`.
pub fn disease_name(d: usize) -> String {
    format!("disease-{d}")
}

/// Generates the hospital database at `t0`. Deterministic in the seed.
pub fn generate_hospital(cfg: &HospitalConfig, t0: Timestamp) -> Database {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut db = Database::new();

    let patients = Ident::new(PATIENTS);
    db.create_table(
        patients.clone(),
        Schema::of(&[
            ("pid", TypeName::Text),
            ("name", TypeName::Text),
            ("age", TypeName::Int),
            ("zipcode", TypeName::Text),
            ("address", TypeName::Text),
        ]),
        t0,
    )
    .expect("create Patients");

    let health = Ident::new(HEALTH);
    db.create_table(
        health.clone(),
        Schema::of(&[
            ("pid", TypeName::Text),
            ("ward", TypeName::Text),
            ("disease", TypeName::Text),
            ("drug", TypeName::Text),
        ]),
        t0,
    )
    .expect("create Health");

    let employ = Ident::new(EMPLOY);
    db.create_table(
        employ.clone(),
        Schema::of(&[
            ("pid", TypeName::Text),
            ("employer", TypeName::Text),
            ("salary", TypeName::Int),
        ]),
        t0,
    )
    .expect("create Employ");

    for i in 0..cfg.patients {
        let pid = format!("p{i}");
        let zone = rng.gen_range(0..cfg.zip_zones.max(1));
        let disease = rng.gen_range(0..cfg.diseases.max(1));
        db.insert(
            &patients,
            vec![
                pid.clone().into(),
                format!("name-{i}").into(),
                Value::Int(rng.gen_range(18..95)),
                zip_of_zone(zone).into(),
                format!("addr-{i}").into(),
            ],
            t0,
        )
        .expect("insert patient");
        db.insert(
            &health,
            vec![
                pid.clone().into(),
                format!("W{}", rng.gen_range(1..20)).into(),
                disease_name(disease).into(),
                format!("drug-{}", rng.gen_range(0..30)).into(),
            ],
            t0,
        )
        .expect("insert health");
        db.insert(
            &employ,
            vec![
                pid.into(),
                format!("E{}", rng.gen_range(1..50)).into(),
                Value::Int(rng.gen_range(5_000..50_000)),
            ],
            t0,
        )
        .expect("insert employ");
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let cfg = HospitalConfig { patients: 50, ..Default::default() };
        let a = generate_hospital(&cfg, Timestamp(0));
        let b = generate_hospital(&cfg, Timestamp(0));
        let t = Ident::new(PATIENTS);
        assert!(a.table(&t).unwrap().iter().eq(b.table(&t).unwrap().iter()));
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_hospital(
            &HospitalConfig { patients: 50, seed: 1, ..Default::default() },
            Timestamp(0),
        );
        let b = generate_hospital(
            &HospitalConfig { patients: 50, seed: 2, ..Default::default() },
            Timestamp(0),
        );
        let t = Ident::new(PATIENTS);
        assert!(a.table(&t).unwrap().iter().ne(b.table(&t).unwrap().iter()));
    }

    #[test]
    fn row_counts_match_config() {
        let db = generate_hospital(
            &HospitalConfig { patients: 120, ..Default::default() },
            Timestamp(0),
        );
        for t in [PATIENTS, HEALTH, EMPLOY] {
            assert_eq!(db.table(&Ident::new(t)).unwrap().len(), 120);
        }
    }

    #[test]
    fn zones_bound_zipcodes() {
        let db = generate_hospital(
            &HospitalConfig { patients: 200, zip_zones: 3, ..Default::default() },
            Timestamp(0),
        );
        for (_, row) in db.table(&Ident::new(PATIENTS)).unwrap().iter() {
            let zip = row[3].to_string();
            assert!((0..3).any(|z| zip == zip_of_zone(z)), "unexpected zipcode {zip}");
        }
    }
}
