//! Typed columnar batches — the executor's data representation.
//!
//! A [`ColumnBatch`] is a fixed window of rows stored column-major: one
//! typed vector per column plus a validity bitmap marking NULL slots.
//! Columns whose non-null values are uniformly `Int`, `Float` or `Str`
//! get a dense typed vector; mixed-type columns (and date columns) fall
//! back to a `Vec<Value>` so no value representation is ever lossy.
//!
//! Batches are built from base rows one column list at a time
//! ([`ColumnBatch::from_row_refs`]): a scan copies only the columns its
//! consumer reads, never the whole relation width.
//!
//! Columns are individually reference-counted (`Arc<Column>`), which
//! makes two hot paths allocation-free: `Project` re-arranges `Arc`s
//! without touching data, and the shared-subplan replay
//! (`aqks-equiv` → `CachedRows`) re-emits a materialized batch per
//! consumer for the cost of a handful of `Arc` bumps instead of a deep
//! row-by-row clone. Batches are `Send + Sync`, so parallel operator
//! sections can hand them across the morsel worker pool.

use std::sync::Arc;

use aqks_relational::{Row, Value};

/// A packed validity bitmap: bit `i` set means slot `i` holds a
/// non-NULL value.
#[derive(Debug, Clone, PartialEq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
    zeros: usize,
}

impl Bitmap {
    /// An empty bitmap with room for `cap` bits.
    pub fn with_capacity(cap: usize) -> Bitmap {
        Bitmap { words: Vec::with_capacity(cap.div_ceil(64)), len: 0, zeros: 0 }
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << (self.len % 64);
        } else {
            self.zeros += 1;
        }
        self.len += 1;
    }

    /// Bit `i` (true = valid / non-NULL).
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when every bit is set (no NULLs) — the fast-path guard that
    /// lets kernels skip per-slot validity checks.
    pub fn all_valid(&self) -> bool {
        self.zeros == 0
    }

    /// Appends all bits of `other`.
    pub fn extend(&mut self, other: &Bitmap) {
        for i in 0..other.len {
            self.push(other.get(i));
        }
    }
}

/// The typed storage of one column. NULL slots hold a type-default
/// placeholder (`0`, `0.0`, `""`); the validity bitmap is authoritative.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// All non-null values are `Value::Int`.
    Int(Vec<i64>),
    /// All non-null values are `Value::Float`.
    Float(Vec<f64>),
    /// All non-null values are `Value::Str`.
    Str(Vec<String>),
    /// Mixed-type, date, or all-NULL column: verbatim values.
    Any(Vec<Value>),
}

/// One column of a [`ColumnBatch`]: typed data plus validity.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    validity: Bitmap,
}

impl Column {
    /// Builds a column from row-major values, choosing the densest
    /// representation whose non-null values are type-uniform.
    pub fn from_values(vals: Vec<Value>) -> Column {
        let (mut ints, mut floats, mut strs, mut others) = (0usize, 0usize, 0usize, 0usize);
        for v in &vals {
            match v {
                Value::Null => {}
                Value::Int(_) => ints += 1,
                Value::Float(_) => floats += 1,
                Value::Str(_) => strs += 1,
                _ => others += 1,
            }
        }
        let non_null = ints + floats + strs + others;
        let mut validity = Bitmap::with_capacity(vals.len());
        let data = if non_null > 0 && ints == non_null {
            let mut out = Vec::with_capacity(vals.len());
            for v in &vals {
                match v {
                    Value::Int(i) => {
                        validity.push(true);
                        out.push(*i);
                    }
                    _ => {
                        validity.push(false);
                        out.push(0);
                    }
                }
            }
            ColumnData::Int(out)
        } else if non_null > 0 && floats == non_null {
            let mut out = Vec::with_capacity(vals.len());
            for v in &vals {
                match v {
                    Value::Float(f) => {
                        validity.push(true);
                        out.push(*f);
                    }
                    _ => {
                        validity.push(false);
                        out.push(0.0);
                    }
                }
            }
            ColumnData::Float(out)
        } else if non_null > 0 && strs == non_null {
            let mut out = Vec::with_capacity(vals.len());
            for v in vals {
                match v {
                    Value::Str(s) => {
                        validity.push(true);
                        out.push(s);
                    }
                    _ => {
                        validity.push(false);
                        out.push(String::new());
                    }
                }
            }
            ColumnData::Str(out)
        } else {
            for v in &vals {
                validity.push(!v.is_null());
            }
            ColumnData::Any(vals)
        };
        Column { data, validity }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// True when the column holds no slots.
    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// The typed storage.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The validity bitmap.
    pub fn validity(&self) -> &Bitmap {
        &self.validity
    }

    /// True when slot `i` holds a non-NULL value.
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.get(i)
    }

    /// Exact bytes of this column's typed storage and validity bitmap:
    /// element storage (including per-`String`/`Value` heap payloads)
    /// plus the bitmap words. Vec spare capacity is not counted — the
    /// figure is the data actually resident, which is what operator
    /// memory accounting reports.
    pub fn byte_size(&self) -> u64 {
        let data = match &self.data {
            ColumnData::Int(v) => v.len() * std::mem::size_of::<i64>(),
            ColumnData::Float(v) => v.len() * std::mem::size_of::<f64>(),
            ColumnData::Str(v) => v.iter().map(|s| std::mem::size_of::<String>() + s.len()).sum(),
            ColumnData::Any(v) => v
                .iter()
                .map(|val| {
                    std::mem::size_of::<Value>()
                        + match val {
                            Value::Str(s) => s.len(),
                            _ => 0,
                        }
                })
                .sum(),
        };
        (data + self.validity.words.len() * std::mem::size_of::<u64>()) as u64
    }

    /// Slot `i` as an owned [`Value`] (NULL slots yield `Value::Null`).
    pub fn value(&self, i: usize) -> Value {
        if !self.validity.get(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
            ColumnData::Any(v) => v[i].clone(),
        }
    }

    /// A new column holding `self[idx[0]], self[idx[1]], …`, preserving
    /// the typed representation.
    pub fn gather(&self, idx: &[u32]) -> Column {
        let mut validity = Bitmap::with_capacity(idx.len());
        for &i in idx {
            validity.push(self.validity.get(i as usize));
        }
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Float(v) => ColumnData::Float(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Str(v) => {
                ColumnData::Str(idx.iter().map(|&i| v[i as usize].clone()).collect())
            }
            ColumnData::Any(v) => {
                ColumnData::Any(idx.iter().map(|&i| v[i as usize].clone()).collect())
            }
        };
        Column { data, validity }
    }

    /// Concatenates columns in order. Typed storage is preserved when
    /// every input shares a representation; otherwise the result falls
    /// back to `Any`.
    pub fn concat(cols: &[&Column]) -> Column {
        let total: usize = cols.iter().map(|c| c.len()).sum();
        let same_kind = |probe: fn(&ColumnData) -> bool| cols.iter().all(|c| probe(&c.data));
        let mut validity = Bitmap::with_capacity(total);
        for c in cols {
            validity.extend(&c.validity);
        }
        let data = if same_kind(|d| matches!(d, ColumnData::Int(_))) {
            let mut out = Vec::with_capacity(total);
            for c in cols {
                if let ColumnData::Int(v) = &c.data {
                    out.extend_from_slice(v);
                }
            }
            ColumnData::Int(out)
        } else if same_kind(|d| matches!(d, ColumnData::Float(_))) {
            let mut out = Vec::with_capacity(total);
            for c in cols {
                if let ColumnData::Float(v) = &c.data {
                    out.extend_from_slice(v);
                }
            }
            ColumnData::Float(out)
        } else if same_kind(|d| matches!(d, ColumnData::Str(_))) {
            let mut out = Vec::with_capacity(total);
            for c in cols {
                if let ColumnData::Str(v) = &c.data {
                    out.extend_from_slice(v);
                }
            }
            ColumnData::Str(out)
        } else {
            let mut out = Vec::with_capacity(total);
            for c in cols {
                for i in 0..c.len() {
                    out.push(c.value(i));
                }
            }
            ColumnData::Any(out)
        };
        Column { data, validity }
    }
}

/// A window of rows stored column-major. Columns are `Arc`-shared, so
/// column-preserving transforms (projection, replay) are zero-copy.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    len: usize,
    columns: Vec<Arc<Column>>,
}

impl ColumnBatch {
    /// An empty batch with `width` (empty) columns.
    pub fn empty(width: usize) -> ColumnBatch {
        ColumnBatch::from_rows(width, &[])
    }

    /// Builds a batch from borrowed rows, keeping only row positions
    /// `cols` (in that order, repeats allowed): output column `k` holds
    /// `r[cols[k]]` of every row `r`. Columns not listed are never
    /// copied, which is what lets a scan build only the columns its
    /// consumer reads.
    pub fn from_row_refs(cols: &[usize], rows: &[&Row]) -> ColumnBatch {
        let columns = cols
            .iter()
            .map(|&j| Arc::new(Column::from_values(rows.iter().map(|r| r[j].clone()).collect())))
            .collect();
        ColumnBatch { len: rows.len(), columns }
    }

    /// Builds a batch from owned rows (each of `width` values, all kept).
    pub fn from_rows(width: usize, rows: &[Row]) -> ColumnBatch {
        let refs: Vec<&Row> = rows.iter().collect();
        ColumnBatch::from_row_refs(&(0..width).collect::<Vec<_>>(), &refs)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Column `c`.
    pub fn column(&self, c: usize) -> &Column {
        &self.columns[c]
    }

    /// The `Arc` handle of column `c` (for zero-copy re-use).
    pub fn column_arc(&self, c: usize) -> Arc<Column> {
        Arc::clone(&self.columns[c])
    }

    /// Value at (column `c`, row `i`) as an owned [`Value`].
    pub fn value(&self, c: usize, i: usize) -> Value {
        self.columns[c].value(i)
    }

    /// Exact resident bytes of the batch: the sum of its columns'
    /// [`Column::byte_size`]. `Arc`-shared columns are counted in every
    /// batch that references them — the figure answers "how much data
    /// does this batch address", not unique heap ownership.
    pub fn byte_size(&self) -> u64 {
        self.columns.iter().map(|c| c.byte_size()).sum()
    }

    /// Row `i` materialized as an owned row.
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// All rows, materialized row-major.
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.len).map(|i| self.row(i)).collect()
    }

    /// Zero-copy column projection: the output shares the selected
    /// columns' storage (only `Arc` reference counts move).
    pub fn select(&self, cols: &[usize]) -> ColumnBatch {
        ColumnBatch {
            len: self.len,
            columns: cols.iter().map(|&c| Arc::clone(&self.columns[c])).collect(),
        }
    }

    /// Row selection: the output holds rows `idx[0], idx[1], …` in that
    /// order (duplicates allowed).
    pub fn gather(&self, idx: &[u32]) -> ColumnBatch {
        ColumnBatch {
            len: idx.len(),
            columns: self.columns.iter().map(|c| Arc::new(c.gather(idx))).collect(),
        }
    }

    /// The first `n` rows (the whole batch when `n >= len`).
    pub fn head(&self, n: usize) -> ColumnBatch {
        if n >= self.len {
            return self.clone();
        }
        let idx: Vec<u32> = (0..n as u32).collect();
        self.gather(&idx)
    }

    /// Horizontal concatenation: `left`'s columns then `right`'s, for
    /// join output assembly. Both sides must have equal row counts.
    pub fn hcat(left: &ColumnBatch, right: &ColumnBatch) -> ColumnBatch {
        debug_assert_eq!(left.len, right.len);
        ColumnBatch {
            len: left.len,
            columns: left.columns.iter().chain(&right.columns).cloned().collect(),
        }
    }

    /// Vertical concatenation of `width`-column batches into one batch.
    pub fn concat(width: usize, batches: &[ColumnBatch]) -> ColumnBatch {
        let len = batches.iter().map(|b| b.len).sum();
        let columns = (0..width)
            .map(|j| {
                let cols: Vec<&Column> = batches.iter().map(|b| &*b.columns[j]).collect();
                Arc::new(Column::concat(&cols))
            })
            .collect();
        ColumnBatch { len, columns }
    }
}

/// Compile-time `Send + Sync` guarantees for everything the parallel
/// executor shares across worker threads (and the `aqks-server`
/// groundwork: batches and shared state must be safe to move between
/// request handlers).
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<Bitmap>();
    assert_send_sync::<Column>();
    assert_send_sync::<ColumnData>();
    assert_send_sync::<ColumnBatch>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use aqks_relational::Date;

    fn rows() -> Vec<Row> {
        vec![
            vec![Value::Int(1), Value::str("a"), Value::Float(1.5), Value::Int(7)],
            vec![Value::Null, Value::str("b"), Value::Null, Value::Float(2.5)],
            vec![
                Value::Int(3),
                Value::Null,
                Value::Float(-0.5),
                Value::Date(Date::new(2011, 6, 13)),
            ],
        ]
    }

    #[test]
    fn roundtrip_preserves_values_and_nulls() {
        let rs = rows();
        let b = ColumnBatch::from_rows(4, &rs);
        assert_eq!(b.len(), 3);
        assert_eq!(b.width(), 4);
        assert_eq!(b.to_rows(), rs);
    }

    #[test]
    fn row_refs_build_only_the_listed_columns() {
        let rs = rows();
        let refs: Vec<&Row> = rs.iter().collect();
        let b = ColumnBatch::from_row_refs(&[3, 1, 1], &refs);
        assert_eq!(b.width(), 3);
        let want: Vec<Row> =
            rs.iter().map(|r| vec![r[3].clone(), r[1].clone(), r[1].clone()]).collect();
        assert_eq!(b.to_rows(), want);
        assert_eq!(ColumnBatch::from_row_refs(&[], &refs).width(), 0);
    }

    #[test]
    fn typed_columns_are_detected() {
        let b = ColumnBatch::from_rows(4, &rows());
        assert!(matches!(b.column(0).data(), ColumnData::Int(_)));
        assert!(matches!(b.column(1).data(), ColumnData::Str(_)));
        assert!(matches!(b.column(2).data(), ColumnData::Float(_)));
        // Mixed Int/Float/Date column falls back to verbatim values.
        assert!(matches!(b.column(3).data(), ColumnData::Any(_)));
        assert!(!b.column(0).validity().all_valid());
    }

    #[test]
    fn all_null_column_is_any() {
        let c = Column::from_values(vec![Value::Null, Value::Null]);
        assert!(matches!(c.data(), ColumnData::Any(_)));
        assert_eq!(c.value(0), Value::Null);
    }

    #[test]
    fn gather_reorders_and_duplicates() {
        let b = ColumnBatch::from_rows(4, &rows());
        let g = b.gather(&[2, 0, 2]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.value(0, 0), Value::Int(3));
        assert_eq!(g.value(0, 1), Value::Int(1));
        assert_eq!(g.row(2), b.row(2));
    }

    #[test]
    fn select_is_zero_copy() {
        let b = ColumnBatch::from_rows(4, &rows());
        let s = b.select(&[1, 0]);
        assert!(Arc::ptr_eq(&s.column_arc(0), &b.column_arc(1)));
        assert_eq!(s.row(0), vec![Value::str("a"), Value::Int(1)]);
    }

    #[test]
    fn concat_unifies_typed_and_mixed() {
        let a = ColumnBatch::from_rows(1, &[vec![Value::Int(1)], vec![Value::Int(2)]]);
        let b = ColumnBatch::from_rows(1, &[vec![Value::Float(0.5)]]);
        let same = ColumnBatch::concat(1, &[a.clone(), a.clone()]);
        assert!(matches!(same.column(0).data(), ColumnData::Int(_)));
        assert_eq!(same.len(), 4);
        let mixed = ColumnBatch::concat(1, &[a, b]);
        assert!(matches!(mixed.column(0).data(), ColumnData::Any(_)));
        assert_eq!(mixed.value(0, 2), Value::Float(0.5));
    }

    #[test]
    fn head_truncates() {
        let b = ColumnBatch::from_rows(4, &rows());
        assert_eq!(b.head(2).len(), 2);
        assert_eq!(b.head(10).len(), 3);
    }

    #[test]
    fn hcat_appends_columns() {
        let b = ColumnBatch::from_rows(4, &rows());
        let j = ColumnBatch::hcat(&b.select(&[0]), &b.select(&[1]));
        assert_eq!(j.width(), 2);
        assert_eq!(j.row(0), vec![Value::Int(1), Value::str("a")]);
    }
}
