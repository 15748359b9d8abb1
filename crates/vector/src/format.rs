//! `.vec` reading into [`Vector`], the one in-memory column. The one
//! writer is [`crate::SpillVector`].

use crate::{Result, VectorError};
use std::fs;
use std::ops::Range;
use std::path::Path;
use vx_storage::varint;

pub(crate) const MAGIC: &[u8; 4] = b"VXVC";
pub(crate) const TRAILER_MAGIC: &[u8; 4] = b"VXVE";
pub(crate) const V1_PLAIN: u8 = 1;
pub(crate) const V2_DICT: u8 = 2;
pub(crate) const V3_SORTED: u8 = 3;
/// One skip entry per this many records (version 1).
pub const SKIP_STRIDE: u64 = 256;
/// Vectors shorter than this skip the version-3 value index: a linear
/// scan beats the index bookkeeping at that size.
pub const INDEX_MIN_COUNT: u64 = 64;
/// Data section starts right after magic + version byte.
pub(crate) const DATA_START: usize = 5;
/// Dictionary (version 2) cut-off: one `u8` code per record.
pub(crate) const MAX_DICT: usize = 128;

/// Size statistics for a loaded vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorStats {
    pub count: u64,
    /// Bytes of the record/code stream (the catalog's `data_bytes`).
    pub data_bytes: u64,
    /// Sum of raw value lengths.
    pub value_bytes: u64,
    /// Bytes of the persistent value index (0 for versions 1 and 2).
    pub index_bytes: u64,
    pub version: u8,
}

/// One data vector in memory: the values of one root-to-text path in
/// document order, as `len + 1` offsets into one byte arena, plus the
/// version-3 value index when the column was read from a file that
/// carries one. Every reader decodes into it and every in-memory
/// document holds its vectors as it.
#[derive(Debug, Clone)]
pub struct Vector {
    /// `offsets[i]..offsets[i + 1]` is value `i` in `bytes`; the first
    /// entry is 0.
    offsets: Vec<u32>,
    bytes: Vec<u8>,
    /// Record positions sorted by `(value bytes, position)`.
    sorted: Option<Vec<u32>>,
}

impl Default for Vector {
    fn default() -> Self {
        Vector {
            offsets: vec![0],
            bytes: Vec::new(),
            sorted: None,
        }
    }
}

/// Equal values, in the same order. The value index is derived from the
/// values, so whether a column carries one does not matter.
impl PartialEq for Vector {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets && self.bytes == other.bytes
    }
}

impl Eq for Vector {}

impl Vector {
    /// Strict load: validates magic, version, trailer, skip index, and
    /// record-stream integrity.
    pub fn open(path: &Path) -> Result<(Vector, VectorStats)> {
        Self::decode(&fs::read(path)?)
    }

    /// Strict decode from bytes.
    pub fn decode(bytes: &[u8]) -> Result<(Vector, VectorStats)> {
        let version = check_header(bytes)?;
        if bytes.len() < DATA_START + 28 {
            return Err(VectorError::BadHeader("file too short for trailer".into()));
        }
        let tail = &bytes[bytes.len() - 28..];
        if &tail[24..28] != TRAILER_MAGIC {
            return Err(VectorError::BadHeader("missing VXVE trailer magic".into()));
        }
        let data_end = u64::from_le_bytes(tail[0..8].try_into().expect("8 bytes")) as usize;
        let skip_start = u64::from_le_bytes(tail[8..16].try_into().expect("8 bytes")) as usize;
        let count = u64::from_le_bytes(tail[16..24].try_into().expect("8 bytes"));
        // Versions 1/2 have no index section: skip_start must equal
        // data_end. Version 3's value index lives in the gap.
        let gap_ok = match version {
            V3_SORTED => skip_start >= data_end && skip_start <= bytes.len() - 28,
            _ => skip_start == data_end,
        };
        if data_end < DATA_START || data_end > bytes.len() - 28 || !gap_ok {
            return Err(VectorError::Corrupt {
                offset: bytes.len() - 28,
                message: "inconsistent trailer offsets".into(),
            });
        }
        match version {
            V1_PLAIN => decode_plain(bytes, data_end, count, true),
            V2_DICT => decode_dict(bytes, data_end, count, true),
            V3_SORTED => decode_v3(bytes, data_end, Some(skip_start), count),
            _ => unreachable!("check_header validated version"),
        }
    }

    /// Salvage load for files whose trailer was damaged by the seed
    /// capture's sanitizer: trusts the caller's record count (from
    /// `catalog.json`) and parses the record stream forward, ignoring the
    /// trailer entirely.
    pub fn open_salvage(path: &Path, expected_count: u64) -> Result<(Vector, VectorStats)> {
        let bytes = fs::read(path)?;
        let version = check_header(&bytes)?;
        let end = bytes.len();
        match version {
            V1_PLAIN => decode_plain(&bytes, end, expected_count, false),
            V2_DICT => decode_dict(&bytes, end, expected_count, false),
            V3_SORTED => decode_v3(&bytes, end, None, expected_count),
            _ => unreachable!("check_header validated version"),
        }
    }

    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at occurrence position `i`.
    pub fn get(&self, i: usize) -> Option<&[u8]> {
        (i < self.len()).then(|| &self[i])
    }

    /// All values in document order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.bytes[w[0] as usize..w[1] as usize])
    }

    /// Appends a value. The value index no longer covers every position,
    /// so the column drops it. Fails when the arena would pass
    /// `u32::MAX` bytes.
    pub fn push(&mut self, value: &[u8]) -> Result<()> {
        let bytes = self.bytes.len() + value.len();
        let end = u32::try_from(bytes).map_err(|_| VectorError::TooLarge {
            bytes: bytes as u64,
        })?;
        self.bytes.extend_from_slice(value);
        self.offsets.push(end);
        self.sorted = None;
        Ok(())
    }

    /// The persistent value index, when this column has one (read from
    /// a version-3 file and not pushed to since): record positions
    /// ordered by value bytes ascending, ties in document order.
    pub fn sorted_order(&self) -> Option<&[u32]> {
        self.sorted.as_deref()
    }

    /// Sum of the value lengths.
    pub fn value_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }
}

impl std::ops::Index<usize> for Vector {
    type Output = [u8];

    /// The value at position `i`; panics when `i` is out of range.
    fn index(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Collects values into a column; panics when the arena would pass
/// `u32::MAX` bytes ([`Vector::push`] reports that as an error).
impl<V: AsRef<[u8]>> FromIterator<V> for Vector {
    fn from_iter<I: IntoIterator<Item = V>>(values: I) -> Self {
        let mut column = Vector::default();
        for value in values {
            column
                .push(value.as_ref())
                .expect("column within u32::MAX bytes");
        }
        column
    }
}

fn decode_plain(
    bytes: &[u8],
    limit: usize,
    count: u64,
    strict: bool,
) -> Result<(Vector, VectorStats)> {
    let parsed = parse_records(bytes, limit, count)?;
    if strict {
        if parsed.end != limit {
            return Err(VectorError::Corrupt {
                offset: parsed.end,
                message: "record stream does not end at data_end".into(),
            });
        }
        validate_skips(bytes, limit, &parsed.record_starts)?;
    }
    let stats = VectorStats {
        count,
        data_bytes: (parsed.end - DATA_START) as u64,
        value_bytes: parsed.column.value_bytes(),
        index_bytes: 0,
        version: V1_PLAIN,
    };
    Ok((parsed.column, stats))
}

/// Version 3: plain records, then the value index in
/// `[data_end, skip_start)`, then the skip index. `skip_start` is
/// `None` in salvage mode (`limit` is then the file length) — the index
/// is parsed right after the forward-recovered record stream, and any
/// damage to it degrades the vector to "no index" rather than failing
/// the load.
fn decode_v3(
    bytes: &[u8],
    limit: usize,
    skip_start: Option<usize>,
    count: u64,
) -> Result<(Vector, VectorStats)> {
    let mut parsed = parse_records(bytes, limit, count)?;
    let index_bytes: u64;
    if let Some(skip_start) = skip_start {
        if parsed.end != limit {
            return Err(VectorError::Corrupt {
                offset: parsed.end,
                message: "record stream does not end at data_end".into(),
            });
        }
        let (order, index_end) = parse_value_index(bytes, limit, count)?;
        if index_end != skip_start {
            return Err(VectorError::Corrupt {
                offset: index_end,
                message: "value index does not end at skip_start".into(),
            });
        }
        validate_value_index(&order, &parsed.column, limit)?;
        validate_skips(bytes, skip_start, &parsed.record_starts)?;
        index_bytes = (skip_start - limit) as u64;
        parsed.column.sorted = Some(order);
    } else {
        // Salvage: a short or inconsistent index section means the
        // vector simply loads without one.
        index_bytes = match parse_value_index(bytes, parsed.end, count) {
            Ok((order, end))
                if validate_value_index(&order, &parsed.column, parsed.end).is_ok() =>
            {
                parsed.column.sorted = Some(order);
                (end - parsed.end) as u64
            }
            _ => 0,
        };
    }
    let stats = VectorStats {
        count,
        data_bytes: (parsed.end - DATA_START) as u64,
        value_bytes: parsed.column.value_bytes(),
        index_bytes,
        version: V3_SORTED,
    };
    Ok((parsed.column, stats))
}

/// Version 2: the dictionary entries, then one code per record, expanded
/// into the column.
fn decode_dict(
    bytes: &[u8],
    data_end: usize,
    count: u64,
    strict: bool,
) -> Result<(Vector, VectorStats)> {
    let (dict_len, mut pos) = varint::read(bytes, DATA_START)?;
    // Every entry takes at least its length byte.
    let mut dict: Vec<Range<usize>> = Vec::with_capacity((dict_len as usize).min(bytes.len()));
    for i in 0..dict_len {
        let (len, next) = varint::read(bytes, pos)?;
        let end = next
            .checked_add(len as usize)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| VectorError::Corrupt {
                offset: pos,
                message: format!("dictionary entry {i} runs past end"),
            })?;
        dict.push(next..end);
        pos = end;
    }
    let codes_end = pos
        .checked_add(count as usize)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| VectorError::Corrupt {
            offset: pos,
            message: "code stream truncated".into(),
        })?;
    if strict && codes_end != data_end {
        return Err(VectorError::Corrupt {
            offset: codes_end,
            message: "code stream does not end at data_end".into(),
        });
    }
    let codes = &bytes[pos..codes_end];
    let mut value_bytes = 0u64;
    for (i, &code) in codes.iter().enumerate() {
        let entry = dict
            .get(code as usize)
            .ok_or_else(|| VectorError::Corrupt {
                offset: pos + i,
                message: format!("code {code} out of dictionary range"),
            })?;
        value_bytes += entry.len() as u64;
    }
    if value_bytes > u64::from(u32::MAX) {
        return Err(VectorError::Corrupt {
            offset: pos,
            message: format!("{value_bytes} value bytes do not fit one column"),
        });
    }
    let mut offsets = Vec::with_capacity(codes.len() + 1);
    offsets.push(0);
    let mut arena = Vec::with_capacity(value_bytes as usize);
    for &code in codes {
        arena.extend_from_slice(&bytes[dict[code as usize].clone()]);
        offsets.push(arena.len() as u32);
    }
    let column = Vector {
        offsets,
        bytes: arena,
        sorted: None,
    };
    let stats = VectorStats {
        count,
        data_bytes: count,
        value_bytes,
        index_bytes: 0,
        version: V2_DICT,
    };
    Ok((column, stats))
}

/// Records parsed forward from `DATA_START`.
struct ParsedRecords {
    column: Vector,
    /// Data-relative byte offsets of records `0, 256, 512, …`: what the
    /// skip index must say.
    record_starts: Vec<u64>,
    /// Absolute offset one past the last record.
    end: usize,
}

/// Parses `count` records forward from `DATA_START` straight into a
/// column; every record must end by `limit`.
fn parse_records(bytes: &[u8], limit: usize, count: u64) -> Result<ParsedRecords> {
    let section = limit.saturating_sub(DATA_START);
    // Every record takes at least its length byte, and the values fit in
    // the section: neither reservation trusts a damaged count.
    let mut offsets = Vec::with_capacity((count as usize).min(section) + 1);
    offsets.push(0u32);
    let mut arena: Vec<u8> = Vec::with_capacity(section);
    let mut pos = DATA_START;
    let mut record_starts: Vec<u64> = Vec::new();
    for i in 0..count {
        if i % SKIP_STRIDE == 0 {
            record_starts.push((pos - DATA_START) as u64);
        }
        let (len, next) = varint::read(bytes, pos)?;
        let end = next
            .checked_add(len as usize)
            .filter(|&e| e <= limit)
            .ok_or_else(|| VectorError::Corrupt {
                offset: pos,
                message: format!("record {i} runs past data section"),
            })?;
        arena.extend_from_slice(&bytes[next..end]);
        let offset = u32::try_from(arena.len()).map_err(|_| VectorError::Corrupt {
            offset: pos,
            message: format!("record {i} ends past u32::MAX value bytes"),
        })?;
        offsets.push(offset);
        pos = end;
    }
    // The reservation counted the length varints too; give that back.
    arena.shrink_to_fit();
    Ok(ParsedRecords {
        column: Vector {
            offsets,
            bytes: arena,
            sorted: None,
        },
        record_starts,
        end: pos,
    })
}

/// Parses a value-index section at `start`: varint record count, then
/// one `u32` position per record. Returns the order and the offset one
/// past the section.
fn parse_value_index(bytes: &[u8], start: usize, count: u64) -> Result<(Vec<u32>, usize)> {
    let (n, mut pos) = varint::read(bytes, start)?;
    if n != count {
        return Err(VectorError::Corrupt {
            offset: start,
            message: format!("value index covers {n} records, expected {count}"),
        });
    }
    let end = (n as usize)
        .checked_mul(4)
        .and_then(|len| pos.checked_add(len))
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| VectorError::Corrupt {
            offset: pos,
            message: "value index truncated".into(),
        })?;
    let mut order = Vec::with_capacity(n as usize);
    while pos < end {
        order.push(u32::from_le_bytes(
            bytes[pos..pos + 4].try_into().expect("4 bytes"),
        ));
        pos += 4;
    }
    Ok((order, end))
}

/// Checks that `order` is a permutation of the column's positions
/// sorted by `(value bytes, position)`.
fn validate_value_index(order: &[u32], column: &Vector, at: usize) -> Result<()> {
    let count = column.len();
    let mut seen = vec![false; count];
    for (k, &p) in order.iter().enumerate() {
        if p as usize >= count || std::mem::replace(&mut seen[p as usize], true) {
            return Err(VectorError::Corrupt {
                offset: at,
                message: format!("value index entry {k} is not a fresh record position"),
            });
        }
        if k > 0 {
            let q = order[k - 1];
            if (&column[q as usize], q) >= (&column[p as usize], p) {
                return Err(VectorError::Corrupt {
                    offset: at,
                    message: format!("value index not sorted at entry {k}"),
                });
            }
        }
    }
    Ok(())
}

/// Validates the skip index at `start` against the actual record
/// offsets, and that it ends exactly at the trailer.
fn validate_skips(bytes: &[u8], start: usize, record_starts: &[u64]) -> Result<()> {
    let mut sp = start;
    for (k, &expected) in record_starts.iter().enumerate() {
        let (entry, next) = varint::read(bytes, sp)?;
        if entry != expected {
            return Err(VectorError::Corrupt {
                offset: sp,
                message: format!("skip entry {k}: {entry} != {expected}"),
            });
        }
        sp = next;
    }
    if sp != bytes.len() - 28 {
        return Err(VectorError::Corrupt {
            offset: sp,
            message: "skip index does not end at trailer".into(),
        });
    }
    Ok(())
}

fn check_header(bytes: &[u8]) -> Result<u8> {
    if bytes.len() < DATA_START || &bytes[0..4] != MAGIC {
        return Err(VectorError::BadHeader("missing VXVC magic".into()));
    }
    match bytes[4] {
        v @ (V1_PLAIN | V2_DICT | V3_SORTED) => Ok(v),
        v => Err(VectorError::BadHeader(format!("unsupported version {v}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Writer;

    fn sample_values(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("value-{i:05}-{}", "x".repeat(i % 40)).into_bytes())
            .collect()
    }

    #[test]
    fn plain_round_trip_with_skip_index() {
        let values = sample_values(1000);
        let mut w = Writer::new();
        for v in &values {
            w.push(v);
        }
        let bytes = w.encode_plain();
        let (vec, stats) = Vector::decode(&bytes).unwrap();
        assert_eq!(vec.len(), 1000);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(vec.get(i).unwrap(), v.as_slice());
        }
        assert_eq!(
            stats.value_bytes,
            values.iter().map(|v| v.len() as u64).sum::<u64>()
        );
    }

    #[test]
    fn empty_vector_round_trips() {
        let bytes = Writer::new().encode_plain();
        let (vec, _) = Vector::decode(&bytes).unwrap();
        assert!(vec.is_empty());
        assert!(vec.get(0).is_none());
    }

    #[test]
    fn large_records_round_trip() {
        let mut w = Writer::new();
        let big = vec![b'z'; 100_000];
        w.push(&big);
        w.push(b"");
        w.push(&big);
        let bytes = w.encode_plain();
        let (vec, _) = Vector::decode(&bytes).unwrap();
        assert_eq!(vec.get(0).unwrap().len(), 100_000);
        assert_eq!(vec.get(1).unwrap(), b"");
        assert_eq!(vec.get(2).unwrap(), &big[..]);
    }

    #[test]
    fn dictionary_round_trip() {
        let mut w = Writer::new();
        for i in 0..500usize {
            w.push(format!("{}", i % 7).as_bytes());
        }
        let bytes = w.encode_dictionary().unwrap();
        let (vec, stats) = Vector::decode(&bytes).unwrap();
        assert_eq!(stats.version, 2);
        assert_eq!(stats.data_bytes, 500);
        for i in 0..500 {
            assert_eq!(vec.get(i).unwrap(), format!("{}", i % 7).as_bytes());
        }
    }

    #[test]
    fn dictionary_rejects_high_cardinality() {
        let mut w = Writer::new();
        for i in 0..200usize {
            w.push(format!("{i}").as_bytes());
        }
        assert!(w.encode_dictionary().is_none());
        // encode_auto falls back to the indexed plain form.
        let (vec, stats) = Vector::decode(&w.encode_auto()).unwrap();
        assert_eq!(stats.version, 3);
        assert!(vec.sorted_order().is_some());
    }

    #[test]
    fn indexed_round_trip_orders_values() {
        let values = sample_values(300);
        let mut w = Writer::new();
        for v in values.iter().rev() {
            w.push(v);
        }
        let bytes = w.encode_indexed();
        let (vec, stats) = Vector::decode(&bytes).unwrap();
        assert_eq!(stats.version, 3);
        assert_eq!(stats.index_bytes, 2 + 4 * 300);
        for (i, v) in values.iter().rev().enumerate() {
            assert_eq!(vec.get(i).unwrap(), v.as_slice());
        }
        let order = vec.sorted_order().unwrap();
        assert_eq!(order.len(), 300);
        for pair in order.windows(2) {
            let a = &vec[pair[0] as usize];
            let b = &vec[pair[1] as usize];
            assert!((a, pair[0]) < (b, pair[1]), "index out of order");
        }
    }

    #[test]
    fn indexed_ties_stay_in_document_order() {
        let mut w = Writer::new();
        for i in 0..100usize {
            w.push(format!("{}", i % 3).as_bytes());
        }
        let (vec, _) = Vector::decode(&w.encode_indexed()).unwrap();
        let order = vec.sorted_order().unwrap();
        // Equal values keep ascending positions.
        for pair in order.windows(2) {
            if vec[pair[0] as usize] == vec[pair[1] as usize] {
                assert!(pair[0] < pair[1]);
            }
        }
    }

    #[test]
    fn auto_picks_indexed_only_at_scale() {
        // Below INDEX_MIN_COUNT the plain form wins over the index.
        let mut small = Writer::new();
        for i in 0..(INDEX_MIN_COUNT - 1) as usize {
            small.push(format!("v{i}").as_bytes());
        }
        let (_, small) = Vector::decode(&small.encode_auto()).unwrap();
        assert_eq!(small.version, 1);
        // At scale with > 128 distinct values (dictionary impossible)
        // the indexed form wins.
        let mut big = Writer::new();
        for i in 0..200usize {
            big.push(format!("v{i}").as_bytes());
        }
        assert_eq!(Vector::decode(&big.encode_auto()).unwrap().1.version, 3);
        // Low-cardinality data still prefers the dictionary: one byte
        // per record beats plain data plus a four-byte index entry.
        let mut dictish = Writer::new();
        for i in 0..200usize {
            dictish.push(format!("{}", i % 5).as_bytes());
        }
        assert_eq!(Vector::decode(&dictish.encode_auto()).unwrap().1.version, 2);
    }

    #[test]
    fn strict_reader_rejects_unsorted_index() {
        let mut w = Writer::new();
        for v in sample_values(80) {
            w.push(&v);
        }
        let good = w.encode_indexed();
        let (_, stats) = Vector::decode(&good).unwrap();
        assert_eq!(stats.version, 3);
        // Swap the first two index entries: positions stay a permutation
        // but the value order breaks.
        let data_end = DATA_START + stats.data_bytes as usize;
        let mut bad = good.clone();
        let e0 = data_end + 1; // past the 1-byte varint count
        for k in 0..4 {
            bad.swap(e0 + k, e0 + 4 + k);
        }
        assert!(Vector::decode(&bad).is_err());
    }

    #[test]
    fn salvage_reads_indexed_without_trailer() {
        let values = sample_values(90);
        let mut w = Writer::new();
        for v in &values {
            w.push(v);
        }
        let mut bytes = w.encode_indexed();
        let n = bytes.len();
        bytes.truncate(n - 20);
        let path =
            std::env::temp_dir().join(format!("vx-vec-salvage-v3-{}.vec", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let (vec, stats) = Vector::open_salvage(&path, 90).unwrap();
        for (i, v) in values.iter().enumerate() {
            assert_eq!(vec.get(i).unwrap(), v.as_slice());
        }
        // The index section survives trailer loss intact.
        assert!(vec.sorted_order().is_some());

        // Truncating into the index itself degrades to "no index"
        // without failing the load.
        let index_start = DATA_START + stats.data_bytes as usize;
        std::fs::write(&path, &bytes[..index_start + 10]).unwrap();
        let (vec, _) = Vector::open_salvage(&path, 90).unwrap();
        assert!(vec.sorted_order().is_none());
        assert_eq!(vec.len(), 90);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn strict_reader_rejects_corruption() {
        let mut w = Writer::new();
        for v in sample_values(10) {
            w.push(&v);
        }
        let good = w.encode_plain();
        // Flip the record count in the trailer.
        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 12] ^= 0x01;
        assert!(Vector::decode(&bad).is_err());
        // Truncate mid-data.
        assert!(Vector::decode(&good[..good.len() - 40]).is_err());
    }

    #[test]
    fn salvage_reads_without_trailer() {
        let values = sample_values(50);
        let mut w = Writer::new();
        for v in &values {
            w.push(v);
        }
        let mut bytes = w.encode_plain();
        // Destroy the entire trailer region.
        let n = bytes.len();
        bytes.truncate(n - 20);
        let path = std::env::temp_dir().join(format!("vx-vec-salvage-{}.vec", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let (vec, _) = Vector::open_salvage(&path, 50).unwrap();
        for (i, v) in values.iter().enumerate() {
            assert_eq!(vec.get(i).unwrap(), v.as_slice());
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Values that exercise every encoding edge: empty ones, one over
    /// 64 KiB (a three-byte length varint), and `distinct` different
    /// values in all, around the 128-entry dictionary cut-off.
    fn edge_values(distinct: usize) -> Vec<Vec<u8>> {
        let mut values: Vec<Vec<u8>> = (0..300)
            .map(|i| format!("d{}", i % (distinct - 2)).into_bytes())
            .collect();
        values[3] = Vec::new();
        values[200] = Vec::new();
        values[150] = vec![b'w'; 70_000];
        values
    }

    fn encodings(w: &Writer) -> Vec<(u8, Vec<u8>)> {
        let mut out = vec![
            (V1_PLAIN, w.encode_plain()),
            (V3_SORTED, w.encode_indexed()),
        ];
        out.extend(w.encode_dictionary().map(|d| (V2_DICT, d)));
        out
    }

    /// Strict and salvage decodes of v1, v2 and v3 each equal the column
    /// built by `push`, value for value.
    #[test]
    fn every_version_decodes_to_the_pushed_column() {
        let path = std::env::temp_dir().join(format!("vx-vec-column-{}.vec", std::process::id()));
        let mut versions = Vec::new();
        for distinct in [128, 129] {
            let values = edge_values(distinct);
            let mut pushed = Vector::default();
            let mut w = Writer::new();
            for v in &values {
                pushed.push(v).unwrap();
                w.push(v);
            }
            assert_eq!(pushed.len(), values.len());
            assert!(pushed.iter().eq(values.iter().map(Vec::as_slice)));
            for (version, bytes) in encodings(&w) {
                let (strict, stats) = Vector::decode(&bytes).unwrap();
                assert_eq!(stats.version, version);
                assert_eq!(strict, pushed, "strict v{version}, {distinct} distinct");
                assert_eq!(stats.value_bytes, pushed.value_bytes());
                assert_eq!(strict.sorted_order().is_some(), version == V3_SORTED);
                std::fs::write(&path, &bytes).unwrap();
                let (salvaged, _) = Vector::open_salvage(&path, values.len() as u64).unwrap();
                assert_eq!(salvaged, pushed, "salvage v{version}, {distinct} distinct");
                versions.push(version);
            }
        }
        let _ = std::fs::remove_file(&path);
        // 128 distinct values still fit the dictionary; 129 do not.
        assert_eq!(versions, [1, 3, 2, 1, 3]);
    }

    /// Equality ignores the value index, and `push` drops it.
    #[test]
    fn push_clears_the_value_index() {
        let mut w = Writer::new();
        for v in sample_values(100) {
            w.push(&v);
        }
        let (mut indexed, _) = Vector::decode(&w.encode_indexed()).unwrap();
        let plain: Vector = sample_values(100).iter().collect();
        assert!(indexed.sorted_order().is_some());
        assert_eq!(indexed, plain);
        indexed.push(b"late").unwrap();
        assert!(indexed.sorted_order().is_none());
        assert_eq!(indexed.get(100), Some(&b"late"[..]));
        assert_eq!(indexed.len(), 101);
    }
}
