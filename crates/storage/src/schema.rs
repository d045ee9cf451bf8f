//! Table schemas and column resolution.

use audex_sql::ast::TypeName;
use audex_sql::Ident;

use crate::error::StorageError;
use crate::table::Row;
use crate::value::Value;

/// Schema of one relation: an ordered list of typed columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<(Ident, TypeName)>,
}

impl Schema {
    /// Builds a schema; column names must be unique (case-insensitively).
    pub fn new(columns: Vec<(Ident, TypeName)>) -> Result<Self, StorageError> {
        for (i, (name, _)) in columns.iter().enumerate() {
            if columns[..i].iter().any(|(n, _)| n == name) {
                return Err(StorageError::UnknownColumn(format!("duplicate column {name}")));
            }
        }
        Ok(Schema { columns })
    }

    /// Convenience constructor from `(name, type)` string pairs. Panics on
    /// duplicate column names — it exists for statically written fixtures.
    pub fn of(cols: &[(&str, TypeName)]) -> Self {
        match Schema::new(cols.iter().map(|(n, t)| (Ident::new(*n), *t)).collect()) {
            Ok(s) => s,
            Err(e) => panic!("static schema must have unique columns: {e}"),
        }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Iterates `(name, type)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = &(Ident, TypeName)> {
        self.columns.iter()
    }

    /// The position of `name`, if present.
    pub fn position(&self, name: &Ident) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }

    /// Column name at `idx`.
    pub fn name_at(&self, idx: usize) -> &Ident {
        &self.columns[idx].0
    }

    /// Column type at `idx`.
    pub fn type_at(&self, idx: usize) -> TypeName {
        self.columns[idx].1
    }

    /// Checks that `value` is storable in column `idx` (NULL always is;
    /// Int is accepted by Float and Timestamp columns).
    pub fn check_value(&self, idx: usize, value: &Value) -> Result<(), StorageError> {
        let (name, ty) = &self.columns[idx];
        let ok = matches!(
            (ty, value),
            (_, Value::Null)
                | (TypeName::Int, Value::Int(_))
                | (TypeName::Float, Value::Float(_) | Value::Int(_))
                | (TypeName::Text, Value::Str(_))
                | (TypeName::Bool, Value::Bool(_))
                | (TypeName::Timestamp, Value::Ts(_) | Value::Int(_))
        );
        if ok {
            Ok(())
        } else {
            Err(StorageError::ColumnTypeMismatch {
                column: name.clone(),
                expected: type_name_str(*ty),
                actual: value.type_name(),
            })
        }
    }

    /// Coerces an accepted value into the canonical representation of the
    /// column type (Int → Float for FLOAT columns, Int → Ts for TIMESTAMP).
    pub fn canonicalize(&self, idx: usize, value: Value) -> Value {
        match (self.columns[idx].1, value) {
            (TypeName::Float, Value::Int(v)) => Value::Float(v as f64),
            (TypeName::Timestamp, Value::Int(v)) => Value::Ts(audex_sql::Timestamp(v)),
            (_, v) => v,
        }
    }

    /// Validates a row for storage: the arity, then every value's type,
    /// each accepted value canonicalized.
    pub fn check_row(&self, row: Row) -> Result<Row, StorageError> {
        if row.len() != self.len() {
            return Err(StorageError::ArityMismatch { expected: self.len(), actual: row.len() });
        }
        row.into_iter()
            .enumerate()
            .map(|(i, v)| {
                self.check_value(i, &v)?;
                Ok(self.canonicalize(i, v))
            })
            .collect()
    }
}

/// Printable name of a column type.
pub fn type_name_str(ty: TypeName) -> &'static str {
    match ty {
        TypeName::Int => "INT",
        TypeName::Float => "FLOAT",
        TypeName::Text => "TEXT",
        TypeName::Bool => "BOOL",
        TypeName::Timestamp => "TIMESTAMP",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_columns_rejected() {
        let r =
            Schema::new(vec![(Ident::new("a"), TypeName::Int), (Ident::new("A"), TypeName::Text)]);
        assert!(r.is_err());
    }

    #[test]
    fn position_is_case_insensitive() {
        let s = Schema::of(&[("Name", TypeName::Text), ("Age", TypeName::Int)]);
        assert_eq!(s.position(&Ident::new("name")), Some(0));
        assert_eq!(s.position(&Ident::new("AGE")), Some(1));
        assert_eq!(s.position(&Ident::new("zip")), None);
    }

    #[test]
    fn value_checking() {
        let s =
            Schema::of(&[("a", TypeName::Int), ("b", TypeName::Float), ("c", TypeName::Timestamp)]);
        assert!(s.check_value(0, &Value::Int(1)).is_ok());
        assert!(s.check_value(0, &Value::Str("x".into())).is_err());
        assert!(s.check_value(0, &Value::Null).is_ok());
        assert!(s.check_value(1, &Value::Int(1)).is_ok());
        assert!(s.check_value(2, &Value::Int(100)).is_ok());
    }

    #[test]
    fn canonicalization() {
        let s = Schema::of(&[("b", TypeName::Float), ("t", TypeName::Timestamp)]);
        assert_eq!(s.canonicalize(0, Value::Int(2)), Value::Float(2.0));
        assert_eq!(s.canonicalize(1, Value::Int(7)), Value::Ts(audex_sql::Timestamp(7)));
    }
}
