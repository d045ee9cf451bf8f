//! `audex-log` — the annotated query-log substrate.
//!
//! During normal operation a Hippocratic DBMS logs the text of every query
//! with annotations: execution time, the submitting user, the role acted
//! under, and the declared purpose (Agrawal et al., VLDB'04, §"During normal
//! operation"). The auditing framework of the paper replays and filters this
//! log. This crate provides:
//!
//! * [`entry::LoggedQuery`] — a parsed query plus its [`entry::AccessContext`]
//!   annotations, with the `C_Q` accessed-column computation,
//! * [`log::QueryLog`] — a thread-safe append-only log,
//! * [`filter::AccessFilter`] — the paper's §3.3 limiting parameters
//!   (`Pos-/Neg-Role-Purpose`, `Pos-/Neg-User-Identity`, `DURING`) with
//!   negative-precedence conflict resolution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod entry;
pub mod filter;
pub mod log;

pub use entry::{AccessContext, AccessedColumn, LoggedQuery, QueryId};
pub use filter::AccessFilter;
pub use log::{AppendError, QueryLog};
