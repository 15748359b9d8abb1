//! The reference `.vec` encoder, compiled for tests only.
//!
//! It holds every value in memory and encodes each format the obvious
//! way. Production code writes through [`crate::SpillVector`]; the tests
//! compare that encoder's output with this one byte for byte, and the
//! reader tests use it to build their fixtures.

use crate::format::{
    DATA_START, INDEX_MIN_COUNT, MAGIC, MAX_DICT, SKIP_STRIDE, TRAILER_MAGIC, V1_PLAIN, V2_DICT,
    V3_SORTED,
};
use vx_storage::varint;

/// Builds a `.vec` file in memory.
#[derive(Default)]
pub struct Writer {
    records: Vec<Vec<u8>>,
}

impl Writer {
    pub fn new() -> Self {
        Writer::default()
    }

    pub fn push(&mut self, value: &[u8]) {
        self.records.push(value.to_vec());
    }

    /// Encodes as version 1 (plain).
    pub fn encode_plain(&self) -> Vec<u8> {
        self.encode_records(V1_PLAIN)
    }

    /// Encodes as version 3: the plain record stream plus a persistent
    /// value index (record positions sorted by value bytes, ties in
    /// document order) between the data section and the skip index.
    pub fn encode_indexed(&self) -> Vec<u8> {
        self.encode_records(V3_SORTED)
    }

    fn encode_records(&self, version: u8) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(version);
        let mut skips: Vec<u64> = Vec::new();
        for (i, record) in self.records.iter().enumerate() {
            if (i as u64).is_multiple_of(SKIP_STRIDE) {
                skips.push((out.len() - DATA_START) as u64);
            }
            varint::write(&mut out, record.len() as u64);
            out.extend_from_slice(record);
        }
        let data_end = out.len() as u64;
        if version == V3_SORTED {
            let records = &self.records;
            let mut order: Vec<u32> = (0..records.len() as u32).collect();
            order.sort_by(|&a, &b| {
                records[a as usize]
                    .cmp(&records[b as usize])
                    .then(a.cmp(&b))
            });
            varint::write(&mut out, order.len() as u64);
            for pos in order {
                out.extend_from_slice(&pos.to_le_bytes());
            }
        }
        let skip_start = out.len() as u64;
        for offset in skips {
            varint::write(&mut out, offset);
        }
        finish_trailer(&mut out, data_end, skip_start, self.records.len() as u64);
        out
    }

    /// Encodes as version 2 (dictionary-compacted), or `None` when the
    /// data has more than 128 distinct values.
    pub fn encode_dictionary(&self) -> Option<Vec<u8>> {
        let mut dict: Vec<&[u8]> = Vec::new();
        let mut codes: Vec<u8> = Vec::with_capacity(self.records.len());
        for record in &self.records {
            let code = match dict.iter().position(|d| *d == record.as_slice()) {
                Some(i) => i,
                None if dict.len() >= MAX_DICT => return None,
                None => {
                    dict.push(record.as_slice());
                    dict.len() - 1
                }
            };
            codes.push(code as u8);
        }
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(V2_DICT);
        varint::write(&mut out, dict.len() as u64);
        for entry in &dict {
            varint::write(&mut out, entry.len() as u64);
            out.extend_from_slice(entry);
        }
        out.extend_from_slice(&codes);
        let data_end = out.len() as u64;
        finish_trailer(&mut out, data_end, data_end, self.records.len() as u64);
        Some(out)
    }

    /// Picks the best encoding: version 3 (indexed) for vectors of at
    /// least [`INDEX_MIN_COUNT`] records, else version 1 — unless the
    /// dictionary form is both possible and strictly smaller.
    pub fn encode_auto(&self) -> Vec<u8> {
        let candidate = if self.records.len() as u64 >= INDEX_MIN_COUNT {
            self.encode_indexed()
        } else {
            self.encode_plain()
        };
        match self.encode_dictionary() {
            Some(dict) if dict.len() < candidate.len() => dict,
            _ => candidate,
        }
    }
}

fn finish_trailer(out: &mut Vec<u8>, data_end: u64, skip_start: u64, count: u64) {
    out.extend_from_slice(&data_end.to_le_bytes());
    out.extend_from_slice(&skip_start.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(TRAILER_MAGIC);
}
