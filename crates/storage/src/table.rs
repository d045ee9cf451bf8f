//! Tuple identifiers, rows, and the relations the executor scans.

use audex_sql::Ident;
use std::fmt;
use std::sync::Arc;

use crate::schema::Schema;
use crate::value::Value;

/// A stable tuple identifier, displayed `t<id>` to match the paper's
/// `t11`, `t24`, … naming. Tids survive updates (an update produces a new
/// version of the *same* tid) which is what makes backlog reconstruction and
/// indispensable-tuple bookkeeping possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tid(pub u64);

impl fmt::Display for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One tuple: values in schema order.
pub type Row = Vec<Value>;

/// A relation fed to the executor: a table's state at one instant, or a
/// backlog relation `b-T`, whose tids repeat (it holds several versions of
/// the same tuple, all carrying the original tid). Rows share the version
/// store's row images, so building a relation copies pointers, not values
/// (a cached historical snapshot is the one copy; see `DatabaseAt`).
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    /// Relation name (for diagnostics).
    pub name: Ident,
    /// Column layout.
    pub schema: Schema,
    /// `(tid, row image)` pairs.
    pub rows: Vec<(Tid, Arc<[Value]>)>,
}

impl Relation {
    /// The first row carrying `tid` (the only one in a table state).
    pub fn get(&self, tid: Tid) -> Option<&Arc<[Value]>> {
        self.rows.iter().find(|(t, _)| *t == tid).map(|(_, row)| row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use audex_sql::ast::TypeName;
    use audex_sql::Timestamp;

    fn name() -> Ident {
        Ident::new("P-Personal")
    }

    fn table() -> Database {
        let mut db = Database::new();
        let schema = Schema::of(&[("pid", TypeName::Text), ("age", TypeName::Int)]);
        db.create_table(name(), schema, Timestamp(0)).unwrap();
        db
    }

    #[test]
    fn tid_displays_like_paper() {
        assert_eq!(Tid(11).to_string(), "t11");
    }

    #[test]
    fn auto_tids_are_sequential_and_skip_explicit() {
        let mut t = table();
        let t1 = t.insert(&name(), vec!["p1".into(), Value::Int(25)], Timestamp(1)).unwrap();
        assert_eq!(t1, Tid(1));
        t.insert_with_tid(&name(), Tid(10), vec!["p2".into(), Value::Int(30)], Timestamp(1))
            .unwrap();
        let t11 = t.insert(&name(), vec!["p3".into(), Value::Int(40)], Timestamp(1)).unwrap();
        assert_eq!(t11, Tid(11));
    }

    #[test]
    fn duplicate_tid_rejected() {
        let mut t = table();
        t.insert_with_tid(&name(), Tid(5), vec!["p".into(), Value::Int(1)], Timestamp(1)).unwrap();
        let again =
            t.insert_with_tid(&name(), Tid(5), vec!["q".into(), Value::Int(2)], Timestamp(1));
        assert!(again.is_err());
    }

    #[test]
    fn arity_and_type_validation() {
        let mut t = table();
        assert!(t.insert(&name(), vec!["p1".into()], Timestamp(1)).is_err());
        assert!(t.insert(&name(), vec![Value::Int(3), Value::Int(25)], Timestamp(1)).is_err());
        assert!(t.insert(&name(), vec!["p1".into(), Value::Null], Timestamp(1)).is_ok());
    }

    #[test]
    fn update_and_delete() {
        let mut t = table();
        let tid = t.insert(&name(), vec!["p1".into(), Value::Int(25)], Timestamp(1)).unwrap();
        t.update_row(&name(), tid, vec!["p1".into(), Value::Int(26)], Timestamp(2)).unwrap();
        assert_eq!(t.table(&name()).unwrap().get(tid).unwrap()[1], Value::Int(26));
        let missing = t.update_row(&name(), Tid(99), vec!["x".into(), Value::Int(0)], Timestamp(2));
        assert!(missing.is_err());
        assert!(t.delete_row(&name(), tid, Timestamp(3)).is_ok());
        assert!(t.delete_row(&name(), tid, Timestamp(3)).is_err());
        assert!(t.table(&name()).unwrap().is_empty());
    }

    #[test]
    fn relation_snapshot_is_decoupled() {
        use crate::exec::RelationProvider;
        let mut t = table();
        t.insert(&name(), vec!["p1".into(), Value::Int(25)], Timestamp(1)).unwrap();
        let r = t.at(Timestamp(1)).relation(&name()).unwrap();
        t.insert(&name(), vec!["p2".into(), Value::Int(30)], Timestamp(1)).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(t.table(&name()).unwrap().len(), 2);
    }
}
