//! `audex-storage` — the in-memory, versioned relational substrate.
//!
//! The paper assumes a Hippocratic database in the style of Agrawal et al.
//! (VLDB'04): base tables whose every change is captured in *backlog* tables,
//! so that "the state of the database at any past point in time" can be
//! reconstructed, plus an executor for the SPJ query fragment. This crate is
//! that substrate, built from scratch:
//!
//! * [`value`] — dynamically-typed values with SQL three-valued comparison
//!   semantics (including the string/number coercion the paper's own
//!   examples rely on),
//! * [`schema`] / [`table`] — typed relations whose rows carry stable tuple
//!   ids (`t11`, `t24`, … as in the paper's Tables 1–3),
//! * [`mvcc`] — the versioned-tuple store behind every [`Database`]: each
//!   version carries a `[xmin, xmax)` validity interval, so time travel is
//!   a visibility filter,
//! * [`backlog`] — the [`ChangeRecord`] stream both consume, and
//!   [`backlog::TableHistory`], the replay-the-change-log *reference*
//!   implementation of the same reads. Nothing in [`database`] names it;
//!   tests hold the version store equal to it,
//! * [`eval`] — compiled expression evaluation,
//! * [`exec`] — SPJ execution with **tuple-level lineage**, the primitive
//!   from which indispensable-tuple auditing (paper Definition 2) is built,
//! * [`database`] — the mutable database tying it all together, with
//!   timestamped DML and `DATA-INTERVAL` version enumeration.
//!
//! ```
//! use audex_sql::{parse_statement, parse_query, Timestamp};
//! use audex_storage::Database;
//!
//! let mut db = Database::new();
//! db.execute(&parse_statement("CREATE TABLE Patients (pid TEXT, zipcode TEXT)").unwrap(),
//!            Timestamp(0)).unwrap();
//! db.execute(&parse_statement("INSERT INTO Patients VALUES ('p1', '120016')").unwrap(),
//!            Timestamp(10)).unwrap();
//! db.execute(&parse_statement("UPDATE Patients SET zipcode = '145568'").unwrap(),
//!            Timestamp(20)).unwrap();
//!
//! // Time travel: the old zipcode is still visible at ts 10.
//! let q = parse_query("SELECT zipcode FROM Patients").unwrap();
//! let old = db.at(Timestamp(10)).query(&q).unwrap();
//! assert_eq!(old.rows[0][0].to_string(), "120016");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Robustness policy: library code must surface failures as structured
// errors, never panic on them (tests are exempt via clippy.toml).
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod backlog;
pub mod database;
pub mod error;
pub mod eval;
pub mod exec;
pub mod fault;
pub mod mvcc;
pub mod schema;
pub mod snapshot;
pub mod table;
pub mod value;

pub use backlog::{ChangeOp, ChangeRecord, TableHistory};
pub use database::{ChangeSink, Database, DatabaseAt, ExecOutcome};
pub use error::StorageError;
pub use exec::{
    execute_query, JoinStrategy, LineageEntry, LineageRow, RelationProvider, ResultSet,
};
pub use fault::{FaultPlan, IoAppendFault, IoFaultPlan, IoFaultState};
pub use mvcc::{LiveTable, StoreStats, VersionStore, VisibilityScan};
pub use schema::Schema;
pub use snapshot::{SnapshotKind, SnapshotStats};
pub use table::{Relation, Row, Tid};
pub use value::{Truth, Value};
