//! Seeded update streams: exercise the backlog / DATA-INTERVAL machinery.

use audex_sql::{Ident, Timestamp};
use audex_storage::{Database, Tid, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::datagen::{disease_name, zip_of_zone, HospitalConfig, HEALTH, PATIENTS};

/// Shape of the update stream.
#[derive(Debug, Clone, Copy)]
pub struct UpdateStreamConfig {
    /// Number of updates to apply.
    pub updates: usize,
    /// First update timestamp; updates are spaced `spacing` seconds apart.
    pub start: Timestamp,
    /// Seconds between consecutive updates.
    pub spacing: i64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for UpdateStreamConfig {
    fn default() -> Self {
        UpdateStreamConfig { updates: 100, start: Timestamp(10_000), spacing: 10, seed: 11 }
    }
}

/// Applies a stream of zipcode/disease updates to a generated hospital.
/// Returns the timestamps applied (ascending). Deterministic in the seed.
pub fn apply_update_stream(
    db: &mut Database,
    hospital: &HospitalConfig,
    cfg: &UpdateStreamConfig,
) -> Vec<Timestamp> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let patients = Ident::new(PATIENTS);
    let health = Ident::new(HEALTH);
    let n = db.table(&patients).map_or(0, |t| t.len()) as u64;
    let mut applied = Vec::with_capacity(cfg.updates);
    for i in 0..cfg.updates {
        let ts = cfg.start.plus_seconds(i as i64 * cfg.spacing);
        let tid = Tid(rng.gen_range(0..n.max(1)) + 1);
        if rng.gen_bool(0.5) {
            // Move a patient to a random zone.
            if let Some(row) = db.table(&patients).and_then(|t| t.get(tid)).map(|r| r.to_vec()) {
                let mut new_row = row;
                new_row[3] = Value::Str(zip_of_zone(rng.gen_range(0..hospital.zip_zones.max(1))));
                db.update_row(&patients, tid, new_row, ts).expect("update patient");
            }
        } else {
            // Re-diagnose a patient.
            if let Some(row) = db.table(&health).and_then(|t| t.get(tid)).map(|r| r.to_vec()) {
                let mut new_row = row;
                new_row[2] = Value::Str(disease_name(rng.gen_range(0..hospital.diseases.max(1))));
                db.update_row(&health, tid, new_row, ts).expect("update health");
            }
        }
        applied.push(ts);
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::generate_hospital;

    #[test]
    fn updates_create_versions() {
        let h = HospitalConfig { patients: 50, ..Default::default() };
        let mut db = generate_hospital(&h, Timestamp(0));
        let cfg = UpdateStreamConfig { updates: 20, ..Default::default() };
        let applied = apply_update_stream(&mut db, &h, &cfg);
        assert_eq!(applied.len(), 20);
        let versions = db.versions_in(&[], Timestamp(0), Timestamp(1_000_000));
        // t0 load + some distinct update instants.
        assert!(versions.len() > 10, "{versions:?}");
    }

    #[test]
    fn deterministic_in_seed() {
        let h = HospitalConfig { patients: 30, ..Default::default() };
        let cfg = UpdateStreamConfig { updates: 15, ..Default::default() };
        let mut a = generate_hospital(&h, Timestamp(0));
        let mut b = generate_hospital(&h, Timestamp(0));
        apply_update_stream(&mut a, &h, &cfg);
        apply_update_stream(&mut b, &h, &cfg);
        let t = Ident::new(PATIENTS);
        assert!(a.table(&t).unwrap().iter().eq(b.table(&t).unwrap().iter()));
    }

    #[test]
    fn old_state_reconstructable_after_updates() {
        let h = HospitalConfig { patients: 30, ..Default::default() };
        let mut db = generate_hospital(&h, Timestamp(0));
        let before: Vec<_> =
            db.table(&Ident::new(PATIENTS)).unwrap().iter().map(|(t, r)| (t, r.clone())).collect();
        apply_update_stream(&mut db, &h, &UpdateStreamConfig { updates: 25, ..Default::default() });
        let replayed = {
            use audex_storage::RelationProvider;
            db.at(Timestamp(0)).relation(&Ident::new(PATIENTS)).unwrap()
        };
        assert_eq!(before, replayed.rows);
    }
}
