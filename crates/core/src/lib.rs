//! `audex-core` — the unified audit expression model of Goyal, Gupta &
//! Gupta (ICDE 2008): target data views over data versions, a granule-based
//! suspicion model expressing every prior notion, limiting parameters, and
//! an end-to-end audit engine.
//!
//! The model's three constituents (paper §3) map to modules:
//!
//! * **Target data view** (§3.1) — [`target`]: the sensitive data under
//!   disclosure review, computed over the `DATA-INTERVAL` data versions.
//! * **Suspicion notion** (§3.2) — [`attrspec`] (the Table 6 attribute
//!   algebra → granule *schemes*), [`granule`] (schemes × THRESHOLD ×
//!   INDISPENSABLE → the granule set `G`), [`suspicion`] (accessibility and
//!   batch evaluation), and [`notions`] (the prior-work notions, both as
//!   granule encodings and as direct baselines).
//! * **Limiting parameters** (§3.3) — [`limits`], building on
//!   `audex_log::AccessFilter` with negative precedence.
//!
//! [`engine::AuditEngine`] runs the full pipeline (filter → static
//! candidates → semantic evaluation); [`rank::OnlineAuditor`] implements the
//! §4 future-work online suspicion ranking.
//!
//! ```
//! use audex_core::AuditEngine;
//! use audex_log::{AccessContext, QueryLog};
//! use audex_sql::{parse_audit, parse_statement, Timestamp};
//! use audex_storage::Database;
//!
//! let mut db = Database::new();
//! db.execute(&parse_statement("CREATE TABLE Patients (pid TEXT, zipcode TEXT, disease TEXT)").unwrap(), Timestamp(0)).unwrap();
//! db.execute(&parse_statement("INSERT INTO Patients VALUES ('p1','120016','cancer')").unwrap(), Timestamp(1)).unwrap();
//!
//! let log = QueryLog::new();
//! log.record_text("SELECT zipcode FROM Patients WHERE disease='cancer'",
//!                 Timestamp(50), AccessContext::new("u1","nurse","treatment")).unwrap();
//!
//! let engine = AuditEngine::new(&db, &log);
//! let audit = parse_audit("DURING 1/1/1970 TO now() AUDIT disease FROM Patients WHERE zipcode='120016'").unwrap();
//! let report = engine.audit_at(&audit, Timestamp(1000)).unwrap();
//! assert!(report.verdict.suspicious);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Robustness policy: library code must surface failures as structured
// errors, never panic on them (tests are exempt via clippy.toml).
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod attrspec;
pub mod candidate;
pub mod catalog;
pub mod compliance;
pub mod dispatch;
pub mod engine;
pub mod error;
pub mod governor;
pub mod granule;
pub mod index;
pub mod limits;
pub mod lineage;
pub mod notions;
pub mod parallel;
pub mod rank;
pub mod report;
pub mod static_batch;
pub mod suspicion;
pub mod target;

pub use attrspec::{normalize_with, NormalizedSpec, ResolvedColumn, Scheme};
pub use candidate::BaseColumn;
pub use candidate::CandidateChecker;
pub use catalog::{base_name, AuditScope};
pub use compliance::{assess, suggest_limits, AccessClass, Assessment};
pub use dispatch::{AuditId, DispatchIndex, DispatchStats};
pub use engine::{AuditEngine, AuditMode, AuditReport, EngineObs, EngineOptions, PreparedAudit};
pub use error::AuditError;
pub use governor::{AuditPhase, Governor, ResourceLimits};
pub use granule::{binomial, Granule, GranuleModel};
pub use index::{QueryFootprint, TouchIndex};
pub use lineage::FootprintBuilder;
pub use parallel::{default_parallelism, par_map};
pub use rank::{OnlineAuditor, QueryScore, ScoreEvidence};
pub use static_batch::{static_semantic_bound, static_weak_syntactic, StaticVerdict};
pub use suspicion::{
    AuditBatchState, AuditTerms, BatchEvaluator, BatchVerdict, QueryContribution, Role, Verdict,
};
pub use target::{compute_target_view, TargetView, UFact};
