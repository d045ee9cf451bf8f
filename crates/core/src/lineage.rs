//! The flat lineage form: one query's satisfying combinations and its
//! plain-column output cells, in a handful of flat arrays per query.
//!
//! A [`Lineage`] is built once per execution ([`Lineage::from_result`])
//! and read by every consumer of that execution: the dispatch index's
//! tuple-id layer, the per-audit derivation, and — moved, not copied — the
//! touch index's stored [`crate::index::QueryFootprint`]. Its layout:
//!
//! * `keys` — the base tables the combinations name, ascending, spelled as
//!   the lineage spells them (the executor's relation names with the
//!   backlog prefix stripped, which need not match the query's spelling);
//! * `tids` + `ends` — per combination, per key, that base's tids
//!   ascending and distinct (a self-join hitting one tuple twice holds it
//!   once), as one run of `tids`; `ends` holds each run's end offset,
//!   `keys.len()` per combination, and an empty run means the combination
//!   lacks that base;
//! * `columns` + `values` — the plain-column outputs once per query, and
//!   every result row's cells in one vector, `columns.len()` per row, with
//!   the row count kept explicitly so a zero-width projection keeps its
//!   rows.
//!
//! A single-table result row costs one tid, one run end and one value:
//! 36 B of heap (plus a string value's own bytes), against ~890 B for the
//! per-row tree and cell vector this form replaced. The touch-index codec writes the same bytes from either:
//! per combination the base → tid-set groups in base order, per row its
//! (base column, value) cells. [`FootprintBuilder`] is the decoder's way
//! back in; it accepts exactly the encodings the flat form holds, so
//! decode → encode reproduces the bytes.

use audex_log::QueryId;
use audex_sql::Ident;
use audex_storage::{ResultSet, Tid, Value};
use std::collections::BTreeSet;

use crate::candidate::BaseColumn;
use crate::catalog::base_name;
use crate::index::QueryFootprint;

/// One query's executed lineage in flat form (see the module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Lineage {
    /// Base tables the combinations name, ascending.
    keys: Vec<Ident>,
    /// Every run of tids, combination by combination, key by key.
    tids: Vec<Tid>,
    /// End offset in `tids` of each (combination, key) run.
    ends: Vec<u32>,
    /// Number of satisfying combinations.
    combos: usize,
    /// Plain-column outputs in result order; empty when there are no rows.
    columns: Vec<BaseColumn>,
    /// Output cells, `columns.len()` per row.
    values: Vec<Value>,
    /// Number of result rows.
    rows: usize,
}

impl Lineage {
    /// Flattens one execution: its lineage grouped by base table, and the
    /// cells at the `out_columns` positions of every row, moved out of the
    /// result set.
    pub(crate) fn from_result(rs: ResultSet, out_columns: &[(usize, BaseColumn)]) -> Lineage {
        let ResultSet { rows, lineage, .. } = rs;
        // Every combination names the same bindings over the same
        // relations, so the first one fixes the keys and each binding's
        // key. A key keeps the spelling of its first binding.
        let mut keys: Vec<Ident> = Vec::new();
        let mut slot_of: Vec<usize> = Vec::new();
        if let Some(first) = lineage.first() {
            let names: Vec<Ident> = first.iter().map(|e| base_name(&e.table)).collect();
            for name in &names {
                if !keys.contains(name) {
                    keys.push(name.clone());
                }
            }
            keys.sort();
            slot_of = names
                .iter()
                .map(|n| match keys.binary_search(n) {
                    Ok(k) | Err(k) => k,
                })
                .collect();
        }
        let mut tids = Vec::with_capacity(lineage.len() * slot_of.len());
        let mut ends = Vec::with_capacity(lineage.len() * keys.len());
        for combo in &lineage {
            for k in 0..keys.len() {
                let start = tids.len();
                tids.extend(
                    combo.iter().zip(&slot_of).filter(|(_, s)| **s == k).map(|(e, _)| e.tid),
                );
                sort_dedup_tail(&mut tids, start);
                ends.push(tids.len() as u32);
            }
        }
        // Only a self-join that hit one tuple twice leaves slack.
        tids.shrink_to_fit();

        let n_rows = rows.len();
        let columns: Vec<BaseColumn> = if n_rows == 0 {
            Vec::new()
        } else {
            out_columns.iter().map(|(_, bc)| bc.clone()).collect()
        };
        let mut values = Vec::with_capacity(n_rows * columns.len());
        for mut row in rows {
            for (ri, _) in out_columns {
                // A result row is as wide as its projection.
                values.push(
                    row.get_mut(*ri).map_or(Value::Null, |v| std::mem::replace(v, Value::Null)),
                );
            }
        }
        Lineage { keys, tids, ends, combos: lineage.len(), columns, values, rows: n_rows }
    }

    /// The base tables the combinations name, ascending.
    pub(crate) fn keys(&self) -> &[Ident] {
        &self.keys
    }

    /// Number of satisfying combinations.
    pub(crate) fn combinations(&self) -> usize {
        self.combos
    }

    /// The tids combination `c` holds of base `keys()[k]`, ascending and
    /// distinct; empty when the combination lacks that base.
    pub(crate) fn run(&self, c: usize, k: usize) -> &[Tid] {
        let i = c * self.keys.len() + k;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.tids[start..self.ends[i] as usize]
    }

    /// The plain-column outputs every row carries, in result order.
    pub(crate) fn columns(&self) -> &[BaseColumn] {
        &self.columns
    }

    /// Every result row's plain-column cells, `columns()` wide.
    pub(crate) fn rows(&self) -> impl ExactSizeIterator<Item = &[Value]> {
        let w = self.columns.len();
        (0..self.rows).map(move |r| &self.values[r * w..(r + 1) * w])
    }
}

/// Sorts `v[start..]` and drops its repeats in place.
fn sort_dedup_tail(v: &mut Vec<Tid>, start: usize) {
    if v.len() - start < 2 {
        return;
    }
    v[start..].sort_unstable();
    let mut w = start + 1;
    for r in start + 1..v.len() {
        if v[r] != v[w - 1] {
            v[w] = v[r];
            w += 1;
        }
    }
    v.truncate(w);
}

fn same_spelling(a: &Ident, b: &Ident) -> bool {
    a.value == b.value && a.quoted == b.quoted
}

/// Builds a [`QueryFootprint`] from its grouped parts — the way a
/// durability layer decodes a stored footprint back into the flat form.
///
/// Combinations come one at a time ([`FootprintBuilder::combination`]),
/// each as (base, tids) groups in ascending base order
/// ([`FootprintBuilder::run`]); rows come one at a time
/// ([`FootprintBuilder::row`]), each as its (base column, value) cells
/// ([`FootprintBuilder::cell`]). A call that breaks the shape the flat
/// form holds fails with the expectation it broke: bases must ascend
/// within a combination and keep one spelling per query, tids must be
/// non-empty, ascending and distinct, and every row must carry the first
/// row's columns, spelled alike.
#[derive(Debug)]
pub struct FootprintBuilder {
    id: QueryId,
    bases: BTreeSet<Ident>,
    covered: BTreeSet<BaseColumn>,
    lineage: Lineage,
    /// Whether a combination is open (its runs not yet in `ends`).
    open: bool,
    /// The open combination's runs so far: (key index, end offset).
    open_runs: Vec<(usize, u32)>,
    /// Cells of the current row so far.
    cells: usize,
}

impl FootprintBuilder {
    /// An empty footprint of query `id` over `bases`, accessing `covered`.
    pub fn new(
        id: QueryId,
        bases: BTreeSet<Ident>,
        covered: BTreeSet<BaseColumn>,
    ) -> FootprintBuilder {
        FootprintBuilder {
            id,
            bases,
            covered,
            lineage: Lineage::default(),
            open: false,
            open_runs: Vec::new(),
            cells: 0,
        }
    }

    /// Starts the next satisfying combination.
    pub fn combination(&mut self) {
        self.close_combination();
        self.lineage.combos += 1;
        self.open = true;
    }

    /// Adds the open combination's `tids` of table `base`.
    pub fn run(&mut self, base: Ident, tids: &[Tid]) -> Result<(), &'static str> {
        if !self.open {
            return Err("a combination before its tids");
        }
        if tids.is_empty() || tids.windows(2).any(|w| w[0] >= w[1]) {
            return Err("ascending distinct tids in a footprint combination");
        }
        let l = &mut self.lineage;
        if let Some(&(prev, _)) = self.open_runs.last() {
            if l.keys[prev] >= base {
                return Err("ascending bases in a footprint combination");
            }
        }
        let k = match l.keys.binary_search(&base) {
            Ok(k) if same_spelling(&l.keys[k], &base) => k,
            Ok(_) => return Err("one spelling per footprint base"),
            Err(k) => {
                self.insert_key(k, base);
                k
            }
        };
        let l = &mut self.lineage;
        l.tids.extend_from_slice(tids);
        self.open_runs.push((k, l.tids.len() as u32));
        Ok(())
    }

    /// Starts the next result row.
    pub fn row(&mut self) -> Result<(), &'static str> {
        self.close_row()?;
        self.lineage.rows += 1;
        self.cells = 0;
        Ok(())
    }

    /// Adds the current row's next cell.
    pub fn cell(&mut self, column: BaseColumn, value: Value) -> Result<(), &'static str> {
        let l = &mut self.lineage;
        match l.rows {
            0 => return Err("a row before its cells"),
            1 => l.columns.push(column),
            _ => {
                let same = l.columns.get(self.cells).is_some_and(|(t, c)| {
                    same_spelling(t, &column.0) && same_spelling(c, &column.1)
                });
                if !same {
                    return Err("the first row's columns in every footprint row");
                }
            }
        }
        l.values.push(value);
        self.cells += 1;
        Ok(())
    }

    /// The footprint built so far.
    pub fn finish(mut self) -> Result<QueryFootprint, &'static str> {
        self.close_combination();
        self.close_row()?;
        Ok(QueryFootprint {
            id: self.id,
            bases: self.bases,
            covered: self.covered,
            lineage: self.lineage,
        })
    }

    /// Writes the open combination's run ends, one per key.
    fn close_combination(&mut self) {
        if !std::mem::take(&mut self.open) {
            return;
        }
        let l = &mut self.lineage;
        let mut runs = self.open_runs.drain(..).peekable();
        for k in 0..l.keys.len() {
            let end = match runs.next_if(|(rk, _)| *rk == k) {
                Some((_, end)) => end,
                None => l.ends.last().copied().unwrap_or(0),
            };
            l.ends.push(end);
        }
    }

    fn close_row(&self) -> Result<(), &'static str> {
        if self.lineage.rows > 1 && self.cells != self.lineage.columns.len() {
            return Err("the first row's columns in every footprint row");
        }
        Ok(())
    }

    /// Inserts a base first named after earlier combinations closed: each
    /// of them gets an empty run for it.
    fn insert_key(&mut self, k: usize, base: Ident) {
        let l = &mut self.lineage;
        let nk = l.keys.len();
        let closed = l.combos - 1;
        let mut ends = Vec::with_capacity(closed * (nk + 1));
        for c in 0..closed {
            let i = c * nk + k;
            ends.extend_from_slice(&l.ends[c * nk..i]);
            ends.push(if i == 0 { 0 } else { l.ends[i - 1] });
            ends.extend_from_slice(&l.ends[i..(c + 1) * nk]);
        }
        l.ends = ends;
        l.keys.insert(k, base);
        for (rk, _) in &mut self.open_runs {
            if *rk >= k {
                *rk += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builder() -> FootprintBuilder {
        FootprintBuilder::new(
            QueryId(1),
            [Ident::new("t"), Ident::new("u")].into(),
            BTreeSet::new(),
        )
    }

    fn groups(fp: &QueryFootprint) -> Vec<Vec<(String, Vec<u64>)>> {
        (0..fp.combination_count())
            .map(|c| {
                fp.combination(c)
                    .map(|(b, tids)| (b.value.clone(), tids.iter().map(|t| t.0).collect()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn a_base_first_named_late_gets_empty_runs_before_it() {
        let mut b = builder();
        b.combination();
        b.run(Ident::new("u"), &[Tid(5)]).unwrap();
        b.combination();
        b.combination();
        b.run(Ident::new("t"), &[Tid(1), Tid(2)]).unwrap();
        b.run(Ident::new("u"), &[Tid(6)]).unwrap();
        b.combination();
        b.run(Ident::new("t"), &[Tid(3)]).unwrap();
        let fp = b.finish().unwrap();
        let u = |t: u64| ("u".to_string(), vec![t]);
        assert_eq!(
            groups(&fp),
            vec![
                vec![u(5)],
                vec![],
                vec![("t".into(), vec![1, 2]), u(6)],
                vec![("t".into(), vec![3])],
            ]
        );
    }

    #[test]
    fn zero_width_rows_are_kept() {
        let mut b = builder();
        for _ in 0..5 {
            b.row().unwrap();
        }
        let fp = b.finish().unwrap();
        assert_eq!(fp.value_rows().len(), 5);
        assert!(fp.value_rows().all(|r| r.is_empty()));
        assert!(fp.value_columns().is_empty());
    }

    #[test]
    fn shapes_the_flat_form_cannot_hold_are_refused() {
        let t = || Ident::new("t");
        let col = |c: &str| (t(), Ident::new(c));
        assert!(builder().run(t(), &[Tid(1)]).is_err(), "a run outside a combination");
        let mut b = builder();
        b.combination();
        assert!(b.run(t(), &[]).is_err(), "an empty run");
        assert!(b.run(t(), &[Tid(2), Tid(1)]).is_err(), "descending tids");
        assert!(b.run(t(), &[Tid(1), Tid(1)]).is_err(), "a repeated tid");
        b.run(Ident::new("u"), &[Tid(1)]).unwrap();
        assert!(b.run(t(), &[Tid(1)]).is_err(), "bases out of order");
        b.combination();
        assert!(b.run(Ident::new("U"), &[Tid(1)]).is_err(), "a second spelling");

        assert!(builder().cell(col("a"), Value::Int(1)).is_err(), "a cell outside a row");
        let mut b = builder();
        b.row().unwrap();
        b.cell(col("a"), Value::Int(1)).unwrap();
        b.row().unwrap();
        assert!(b.cell(col("b"), Value::Int(1)).is_err(), "another column");
        b.row().unwrap_err(); // the row before it is narrower than the first
        let mut b = builder();
        b.row().unwrap();
        b.cell(col("a"), Value::Int(1)).unwrap();
        b.row().unwrap();
        assert!(b.finish().is_err(), "a narrower last row");
    }
}
