//! `.vec` reading. The one writer is [`crate::SpillVector`].

use crate::{Result, VectorError};
use std::fs;
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

enum Body {
    Plain {
        /// `(offset, len)` into `data` per record.
        index: Vec<(u32, u32)>,
        data: Vec<u8>,
        skips: Vec<u64>,
        /// Version-3 value index: record positions sorted by value.
        sorted: Option<Vec<u32>>,
    },
    Dict {
        dict: Vec<Vec<u8>>,
        codes: Vec<u8>,
    },
}

/// A fully loaded, randomly accessible vector.
pub struct Vector {
    body: Body,
    stats: VectorStats,
}

impl Vector {
    /// Strict load: validates magic, version, trailer, skip index, and
    /// record-stream integrity.
    pub fn open(path: &Path) -> Result<Self> {
        Self::decode(&fs::read(path)?)
    }

    /// Strict decode from bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
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
            V1_PLAIN => Self::decode_plain(bytes, data_end, count, true),
            V2_DICT => Self::decode_dict(bytes, data_end, count, true),
            V3_SORTED => Self::decode_v3(bytes, data_end, Some(skip_start), count),
            _ => unreachable!("check_header validated version"),
        }
    }

    /// Salvage load for files whose trailer was damaged by the seed
    /// capture's sanitizer: trusts the caller's record count (from
    /// `catalog.json`) and parses the record stream forward, ignoring the
    /// trailer entirely.
    pub fn open_salvage(path: &Path, expected_count: u64) -> Result<Self> {
        let bytes = fs::read(path)?;
        let version = check_header(&bytes)?;
        match version {
            V1_PLAIN => Self::decode_plain(&bytes, usize::MAX, expected_count, false),
            V2_DICT => Self::decode_dict(&bytes, usize::MAX, expected_count, false),
            V3_SORTED => Self::decode_v3(&bytes, usize::MAX, None, expected_count),
            _ => unreachable!("check_header validated version"),
        }
    }

    fn decode_plain(bytes: &[u8], data_end: usize, count: u64, strict: bool) -> Result<Self> {
        let parsed = parse_records(bytes, data_end, count, strict)?;
        if strict {
            if parsed.end != data_end {
                return Err(VectorError::Corrupt {
                    offset: parsed.end,
                    message: "record stream does not end at data_end".into(),
                });
            }
            validate_skips(bytes, data_end, &parsed.record_starts)?;
        }
        Ok(Vector {
            stats: VectorStats {
                count,
                data_bytes: (parsed.end - DATA_START) as u64,
                value_bytes: parsed.data.len() as u64,
                index_bytes: 0,
                version: V1_PLAIN,
            },
            body: Body::Plain {
                index: parsed.index,
                data: parsed.data,
                skips: parsed.record_starts,
                sorted: None,
            },
        })
    }

    /// Version 3: plain records, then the value index in
    /// `[data_end, skip_start)`, then the skip index. `skip_start` is
    /// `None` in salvage mode — the index is parsed right after the
    /// forward-recovered record stream, and any damage to it degrades
    /// the vector to "no index" rather than failing the load.
    fn decode_v3(
        bytes: &[u8],
        data_end: usize,
        skip_start: Option<usize>,
        count: u64,
    ) -> Result<Self> {
        let strict = skip_start.is_some();
        let parsed = parse_records(bytes, data_end, count, strict)?;
        let sorted: Option<Vec<u32>>;
        let index_bytes: u64;
        if let Some(skip_start) = skip_start {
            if parsed.end != data_end {
                return Err(VectorError::Corrupt {
                    offset: parsed.end,
                    message: "record stream does not end at data_end".into(),
                });
            }
            let (order, index_end) = parse_value_index(bytes, data_end, count)?;
            if index_end != skip_start {
                return Err(VectorError::Corrupt {
                    offset: index_end,
                    message: "value index does not end at skip_start".into(),
                });
            }
            validate_value_index(&order, &parsed, data_end)?;
            validate_skips(bytes, skip_start, &parsed.record_starts)?;
            index_bytes = (skip_start - data_end) as u64;
            sorted = Some(order);
        } else {
            // Salvage: a short or inconsistent index section means the
            // vector simply loads without one.
            (sorted, index_bytes) = match parse_value_index(bytes, parsed.end, count) {
                Ok((order, end)) if validate_value_index(&order, &parsed, parsed.end).is_ok() => {
                    let len = (end - parsed.end) as u64;
                    (Some(order), len)
                }
                _ => (None, 0),
            };
        }
        Ok(Vector {
            stats: VectorStats {
                count,
                data_bytes: (parsed.end - DATA_START) as u64,
                value_bytes: parsed.data.len() as u64,
                index_bytes,
                version: V3_SORTED,
            },
            body: Body::Plain {
                index: parsed.index,
                data: parsed.data,
                skips: parsed.record_starts,
                sorted,
            },
        })
    }

    fn decode_dict(bytes: &[u8], data_end: usize, count: u64, strict: bool) -> Result<Self> {
        let (dict_len, mut pos) = varint::read(bytes, DATA_START)?;
        let mut dict = Vec::with_capacity(dict_len as usize);
        for i in 0..dict_len {
            let (len, next) = varint::read(bytes, pos)?;
            let end = next
                .checked_add(len as usize)
                .filter(|&e| e <= bytes.len())
                .ok_or(VectorError::Corrupt {
                    offset: pos,
                    message: format!("dictionary entry {i} runs past end"),
                })?;
            dict.push(bytes[next..end].to_vec());
            pos = end;
        }
        let codes_end = pos + count as usize;
        if codes_end > bytes.len() {
            return Err(VectorError::Corrupt {
                offset: pos,
                message: "code stream truncated".into(),
            });
        }
        let codes = bytes[pos..codes_end].to_vec();
        if strict && codes_end != data_end {
            return Err(VectorError::Corrupt {
                offset: codes_end,
                message: "code stream does not end at data_end".into(),
            });
        }
        let mut value_bytes = 0u64;
        for (i, &code) in codes.iter().enumerate() {
            let entry = dict.get(code as usize).ok_or(VectorError::Corrupt {
                offset: pos + i,
                message: format!("code {code} out of dictionary range"),
            })?;
            value_bytes += entry.len() as u64;
        }
        Ok(Vector {
            body: Body::Dict { dict, codes },
            stats: VectorStats {
                count,
                data_bytes: count,
                value_bytes,
                index_bytes: 0,
                version: V2_DICT,
            },
        })
    }

    pub fn stats(&self) -> VectorStats {
        self.stats
    }

    pub fn len(&self) -> u64 {
        self.stats.count
    }

    pub fn is_empty(&self) -> bool {
        self.stats.count == 0
    }

    /// Random access by occurrence position.
    pub fn get(&self, i: u64) -> Result<&[u8]> {
        if i >= self.stats.count {
            return Err(VectorError::OutOfBounds {
                index: i,
                count: self.stats.count,
            });
        }
        Ok(match &self.body {
            Body::Plain { index, data, .. } => {
                let (off, len) = index[i as usize];
                &data[off as usize..off as usize + len as usize]
            }
            Body::Dict { dict, codes } => &dict[codes[i as usize] as usize],
        })
    }

    /// Skip-index entries (versions 1 and 3): data-relative byte offsets
    /// of records `0, 256, 512, …` as written on disk.
    pub fn skip_entries(&self) -> &[u64] {
        match &self.body {
            Body::Plain { skips, .. } => skips,
            Body::Dict { .. } => &[],
        }
    }

    /// The persistent value index, when this vector has one (version 3):
    /// record positions ordered by value bytes ascending, ties in
    /// document order. `None` for versions 1/2 and for salvaged
    /// version-3 files whose index section was damaged.
    pub fn sorted_order(&self) -> Option<&[u32]> {
        match &self.body {
            Body::Plain { sorted, .. } => sorted.as_deref(),
            Body::Dict { .. } => None,
        }
    }

    /// Sequential scan cursor starting at record `start`.
    pub fn cursor(&self, start: u64) -> Cursor<'_> {
        Cursor {
            vector: self,
            next: start,
            stats: CursorStats::default(),
        }
    }

    /// Iterates all values.
    pub fn iter(&self) -> Cursor<'_> {
        self.cursor(0)
    }
}

/// What one cursor did: values it decoded versus values it jumped over
/// without touching (forward seeks). Deterministic for a given access
/// pattern.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CursorStats {
    /// Values returned by `next()`.
    pub decoded: u64,
    /// Values skipped by forward `seek`s without being decoded.
    pub skipped: u64,
}

/// Sequential scan over a vector.
pub struct Cursor<'a> {
    vector: &'a Vector,
    next: u64,
    stats: CursorStats,
}

impl Cursor<'_> {
    /// Repositions the cursor. Forward moves count the jumped-over
    /// values as skipped.
    pub fn seek(&mut self, index: u64) {
        if index > self.next {
            self.stats.skipped += index - self.next;
        }
        self.next = index;
    }

    /// Current position (index of the value `next()` would return).
    pub fn position(&self) -> u64 {
        self.next
    }

    /// Decoded/skipped tallies for this cursor so far.
    pub fn stats(&self) -> CursorStats {
        self.stats
    }
}

impl<'a> Iterator for Cursor<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let v = self.vector.get(self.next).ok()?;
        self.next += 1;
        self.stats.decoded += 1;
        Some(v)
    }
}

/// Records parsed forward from `DATA_START`.
struct ParsedRecords {
    /// `(offset, len)` into `data` per record.
    index: Vec<(u32, u32)>,
    data: Vec<u8>,
    /// Data-relative byte offsets of records `0, 256, 512, …`.
    record_starts: Vec<u64>,
    /// Absolute offset one past the last record.
    end: usize,
}

fn parse_records(bytes: &[u8], data_end: usize, count: u64, strict: bool) -> Result<ParsedRecords> {
    let mut index = Vec::with_capacity(count as usize);
    let mut data = Vec::new();
    let mut pos = DATA_START;
    let mut record_starts: Vec<u64> = Vec::new();
    for i in 0..count {
        if i % SKIP_STRIDE == 0 {
            record_starts.push((pos - DATA_START) as u64);
        }
        let (len, next) = varint::read(bytes, pos)?;
        let end = next
            .checked_add(len as usize)
            .filter(|&e| e <= if strict { data_end } else { bytes.len() })
            .ok_or(VectorError::Corrupt {
                offset: pos,
                message: format!("record {i} runs past data section"),
            })?;
        index.push((data.len() as u32, len as u32));
        data.extend_from_slice(&bytes[next..end]);
        pos = end;
    }
    Ok(ParsedRecords {
        index,
        data,
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
    let end = pos
        .checked_add(4 * n as usize)
        .filter(|&e| e <= bytes.len())
        .ok_or(VectorError::Corrupt {
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

/// Checks that `order` is a permutation of the record positions sorted
/// by `(value bytes, position)`.
fn validate_value_index(order: &[u32], parsed: &ParsedRecords, at: usize) -> Result<()> {
    let value = |p: u32| -> &[u8] {
        let (off, len) = parsed.index[p as usize];
        &parsed.data[off as usize..(off + len) as usize]
    };
    let count = parsed.index.len();
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
            if (value(q), q) >= (value(p), p) {
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
        let vec = Vector::decode(&bytes).unwrap();
        assert_eq!(vec.len(), 1000);
        assert_eq!(vec.skip_entries().len(), 4); // records 0, 256, 512, 768
        for (i, v) in values.iter().enumerate() {
            assert_eq!(vec.get(i as u64).unwrap(), v.as_slice());
        }
        assert_eq!(
            vec.stats().value_bytes,
            values.iter().map(|v| v.len() as u64).sum::<u64>()
        );
    }

    #[test]
    fn empty_vector_round_trips() {
        let bytes = Writer::new().encode_plain();
        let vec = Vector::decode(&bytes).unwrap();
        assert!(vec.is_empty());
        assert!(vec.get(0).is_err());
    }

    #[test]
    fn large_records_round_trip() {
        let mut w = Writer::new();
        let big = vec![b'z'; 100_000];
        w.push(&big);
        w.push(b"");
        w.push(&big);
        let bytes = w.encode_plain();
        let vec = Vector::decode(&bytes).unwrap();
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
        let vec = Vector::decode(&bytes).unwrap();
        assert_eq!(vec.stats().version, 2);
        assert_eq!(vec.stats().data_bytes, 500);
        for i in 0..500u64 {
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
        let vec = Vector::decode(&w.encode_auto()).unwrap();
        assert_eq!(vec.stats().version, 3);
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
        let vec = Vector::decode(&bytes).unwrap();
        assert_eq!(vec.stats().version, 3);
        assert_eq!(vec.stats().index_bytes, 2 + 4 * 300);
        assert_eq!(vec.skip_entries().len(), 2); // records 0, 256
        for (i, v) in values.iter().rev().enumerate() {
            assert_eq!(vec.get(i as u64).unwrap(), v.as_slice());
        }
        let order = vec.sorted_order().unwrap();
        assert_eq!(order.len(), 300);
        for pair in order.windows(2) {
            let a = vec.get(pair[0] as u64).unwrap();
            let b = vec.get(pair[1] as u64).unwrap();
            assert!((a, pair[0]) < (b, pair[1]), "index out of order");
        }
    }

    #[test]
    fn indexed_ties_stay_in_document_order() {
        let mut w = Writer::new();
        for i in 0..100usize {
            w.push(format!("{}", i % 3).as_bytes());
        }
        let vec = Vector::decode(&w.encode_indexed()).unwrap();
        let order = vec.sorted_order().unwrap();
        // Equal values keep ascending positions.
        for pair in order.windows(2) {
            if vec.get(pair[0] as u64).unwrap() == vec.get(pair[1] as u64).unwrap() {
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
        let small = Vector::decode(&small.encode_auto()).unwrap();
        assert_eq!(small.stats().version, 1);
        // At scale with > 128 distinct values (dictionary impossible)
        // the indexed form wins.
        let mut big = Writer::new();
        for i in 0..200usize {
            big.push(format!("v{i}").as_bytes());
        }
        assert_eq!(
            Vector::decode(&big.encode_auto()).unwrap().stats().version,
            3
        );
        // Low-cardinality data still prefers the dictionary: one byte
        // per record beats plain data plus a four-byte index entry.
        let mut dictish = Writer::new();
        for i in 0..200usize {
            dictish.push(format!("{}", i % 5).as_bytes());
        }
        assert_eq!(
            Vector::decode(&dictish.encode_auto())
                .unwrap()
                .stats()
                .version,
            2
        );
    }

    #[test]
    fn strict_reader_rejects_unsorted_index() {
        let mut w = Writer::new();
        for v in sample_values(80) {
            w.push(&v);
        }
        let good = w.encode_indexed();
        let vec = Vector::decode(&good).unwrap();
        assert_eq!(vec.stats().version, 3);
        // Swap the first two index entries: positions stay a permutation
        // but the value order breaks.
        let data_end = good.len()
            - 28
            - vec.skip_entries().len() // 1-byte varints at this size
            - vec.stats().index_bytes as usize;
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
        let vec = Vector::open_salvage(&path, 90).unwrap();
        for (i, v) in values.iter().enumerate() {
            assert_eq!(vec.get(i as u64).unwrap(), v.as_slice());
        }
        // The index section survives trailer loss intact.
        assert!(vec.sorted_order().is_some());

        // Truncating into the index itself degrades to "no index"
        // without failing the load.
        let index_start = DATA_START + vec.stats().data_bytes as usize;
        std::fs::write(&path, &bytes[..index_start + 10]).unwrap();
        let vec = Vector::open_salvage(&path, 90).unwrap();
        assert!(vec.sorted_order().is_none());
        assert_eq!(vec.len(), 90);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cursor_scans_and_seeks() {
        let values = sample_values(300);
        let mut w = Writer::new();
        for v in &values {
            w.push(v);
        }
        let vec = Vector::decode(&w.encode_plain()).unwrap();
        let collected: Vec<_> = vec.iter().map(|v| v.to_vec()).collect();
        assert_eq!(collected, values);
        let mut c = vec.cursor(0);
        c.seek(299);
        assert_eq!(c.next().unwrap(), values[299].as_slice());
        assert!(c.next().is_none());
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
        let vec = Vector::open_salvage(&path, 50).unwrap();
        for (i, v) in values.iter().enumerate() {
            assert_eq!(vec.get(i as u64).unwrap(), v.as_slice());
        }
        let _ = std::fs::remove_file(&path);
    }
}
