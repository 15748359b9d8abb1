//! The `.vec` encoder: one path's values in, one `.vec` file out.
//!
//! A [`SpillVector`] takes one path's values in document order. Records
//! are varint-length-prefixed into a one-page tail buffer, and each full
//! page is appended to a shared [`Spill`] — a file for streaming ingest,
//! an in-memory cursor for `Store::save` — so peak memory per path is one
//! 8 KiB page plus the ≤ 128-entry dictionary candidate, however many
//! values the path accumulates. A vector that will be written plain
//! ([`SpillVector::plain`]) keeps no candidate at all.
//!
//! `finish_plain` / `finish_indexed` / `finish_auto` then read the
//! path's pages back once, in order, through the spill's one page
//! buffer, and write the three `.vec` formats (see the crate docs). This
//! is the only production `.vec` writer; the tests hold it byte for byte
//! to an in-memory reference encoder.

use crate::format::{DATA_START, MAGIC, MAX_DICT, TRAILER_MAGIC, V1_PLAIN, V2_DICT, V3_SORTED};
use crate::{Result, VectorError, VectorStats, INDEX_MIN_COUNT, SKIP_STRIDE};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use vx_storage::varint;

/// Spill page size: one tail buffer per path, one unit of spill I/O.
const PAGE_SIZE: usize = 8192;

/// What a [`Spill`] did, under the field names the benchmark reads.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpillStats {
    /// Always 0: nothing is cached, so no read is served from memory.
    pub hits: u64,
    /// Pages read back from the spill. Finishing a vector reads each of
    /// its pages once.
    pub misses: u64,
    /// Pages written to the spill.
    pub evictions: u64,
}

/// An append-only page file shared by many [`SpillVector`]s, which
/// interleave their full pages in it.
pub struct Spill<B> {
    backing: B,
    /// Pages appended so far.
    pages: u64,
    /// The one buffer pages are read back into.
    page: Box<[u8; PAGE_SIZE]>,
    stats: SpillStats,
    /// The file to remove on drop, for a spill on disk.
    remove_on_drop: Option<PathBuf>,
}

impl Spill<File> {
    /// Creates an empty spill file at `path`, deleting any leftover from
    /// a crashed run first. The file is removed when the spill is
    /// dropped.
    pub fn create(path: &Path) -> Result<Self> {
        let _ = fs::remove_file(path);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)?;
        let mut spill = Spill::new(file);
        spill.remove_on_drop = Some(path.to_path_buf());
        Ok(spill)
    }
}

impl<B: Read + Write + Seek> Spill<B> {
    /// A spill over `backing`, which must start empty.
    pub fn new(backing: B) -> Self {
        Spill {
            backing,
            pages: 0,
            page: Box::new([0u8; PAGE_SIZE]),
            stats: SpillStats::default(),
            remove_on_drop: None,
        }
    }

    /// Pages written so far, across all vectors.
    pub fn page_count(&self) -> u64 {
        self.pages
    }

    pub fn stats(&self) -> SpillStats {
        self.stats
    }

    /// Appends one full page and returns its page number.
    fn append_page(&mut self, page: &[u8]) -> Result<u64> {
        self.backing
            .seek(SeekFrom::Start(self.pages * PAGE_SIZE as u64))?;
        self.backing.write_all(page)?;
        self.stats.evictions += 1;
        self.pages += 1;
        Ok(self.pages - 1)
    }

    /// Reads page `page` back into the page buffer.
    fn read_page(&mut self, page: u64) -> Result<&[u8; PAGE_SIZE]> {
        self.backing
            .seek(SeekFrom::Start(page * PAGE_SIZE as u64))?;
        self.backing.read_exact(&mut self.page[..])?;
        self.stats.misses += 1;
        Ok(&self.page)
    }
}

impl<B> Drop for Spill<B> {
    fn drop(&mut self) {
        if let Some(path) = &self.remove_on_drop {
            let _ = fs::remove_file(path);
        }
    }
}

/// One path's record stream: full pages in the spill, plus a one-page
/// tail.
#[derive(Default)]
pub struct SpillVector {
    /// Spill pages holding full `PAGE_SIZE` slices of the stream.
    pages: Vec<u64>,
    /// The rest of the stream, shorter than a page.
    tail: Vec<u8>,
    count: u64,
    /// Total record-stream bytes (varint prefixes + raw values).
    stream_len: u64,
    value_bytes: u64,
    /// Data-relative offsets of records `0, 256, 512, …`.
    skips: Vec<u64>,
    /// Dictionary candidate in first-occurrence order; emptied on overflow.
    dict: Vec<Vec<u8>>,
    dict_overflow: bool,
}

impl SpillVector {
    /// A vector that keeps no dictionary candidate, for a caller that
    /// will only finish it plain or indexed: appending then compares and
    /// copies no value. [`SpillVector::finish_auto`] on it never picks
    /// the dictionary form.
    pub fn plain() -> Self {
        SpillVector {
            dict_overflow: true,
            ..SpillVector::default()
        }
    }

    /// Appends one value, spilling the tail page when it fills.
    pub fn append<B: Read + Write + Seek>(
        &mut self,
        spill: &mut Spill<B>,
        value: &[u8],
    ) -> Result<()> {
        if self.count.is_multiple_of(SKIP_STRIDE) {
            self.skips.push(self.stream_len);
        }
        let (prefix, n) = varint::encode(value.len() as u64);
        self.write_stream(spill, &prefix[..n])?;
        self.write_stream(spill, value)?;
        if !self.dict_overflow && !self.dict.iter().any(|d| d == value) {
            if self.dict.len() >= MAX_DICT {
                self.dict_overflow = true;
                self.dict = Vec::new();
            } else {
                self.dict.push(value.to_vec());
            }
        }
        self.count += 1;
        self.value_bytes += value.len() as u64;
        Ok(())
    }

    fn write_stream<B: Read + Write + Seek>(
        &mut self,
        spill: &mut Spill<B>,
        mut bytes: &[u8],
    ) -> Result<()> {
        self.stream_len += bytes.len() as u64;
        self.tail.reserve_exact(PAGE_SIZE - self.tail.len());
        while !bytes.is_empty() {
            let take = (PAGE_SIZE - self.tail.len()).min(bytes.len());
            self.tail.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if self.tail.len() == PAGE_SIZE {
                self.pages.push(spill.append_page(&self.tail)?);
                self.tail.clear();
            }
        }
        Ok(())
    }

    /// Feeds the record stream to `f` in order: each spilled page, read
    /// back once, then the tail.
    fn read_stream<B: Read + Write + Seek>(
        &self,
        spill: &mut Spill<B>,
        mut f: impl FnMut(&[u8]) -> Result<()>,
    ) -> Result<()> {
        for &page in &self.pages {
            f(spill.read_page(page)?)?;
        }
        f(&self.tail)
    }

    /// Total on-disk size of the version-1 encoding.
    fn plain_size(&self) -> u64 {
        let skip_bytes: u64 = self
            .skips
            .iter()
            .map(|&s| varint::encoded_len(s) as u64)
            .sum();
        DATA_START as u64 + self.stream_len + skip_bytes + 28
    }

    /// Total on-disk size of the version-3 encoding.
    fn indexed_size(&self) -> u64 {
        self.plain_size() + varint::encoded_len(self.count) as u64 + 4 * self.count
    }

    /// Total on-disk size of the version-2 encoding, if possible.
    fn dict_size(&self) -> Option<u64> {
        if self.dict_overflow {
            return None;
        }
        let dict_bytes: u64 = self
            .dict
            .iter()
            .map(|e| (varint::encoded_len(e.len() as u64) + e.len()) as u64)
            .sum();
        Some(
            DATA_START as u64
                + varint::encoded_len(self.dict.len() as u64) as u64
                + dict_bytes
                + self.count
                + 28,
        )
    }

    /// Writes what follows the record stream of versions 1 and 3: the
    /// value `index` (empty for version 1), the skip index and the
    /// trailer. Returns the stats of the finished file.
    fn write_end(
        &self,
        version: u8,
        mut index: Vec<u8>,
        out: &mut impl Write,
    ) -> Result<VectorStats> {
        let index_bytes = index.len() as u64;
        for &skip in &self.skips {
            varint::write(&mut index, skip);
        }
        let data_end = DATA_START as u64 + self.stream_len;
        write_trailer(&mut index, data_end, data_end + index_bytes, self.count);
        out.write_all(&index)?;
        Ok(VectorStats {
            count: self.count,
            data_bytes: self.stream_len,
            value_bytes: self.value_bytes,
            index_bytes,
            version,
        })
    }

    /// Writes the version-1 (plain) encoding.
    pub fn finish_plain<B: Read + Write + Seek>(
        self,
        spill: &mut Spill<B>,
        out: &mut impl Write,
    ) -> Result<VectorStats> {
        out.write_all(MAGIC)?;
        out.write_all(&[V1_PLAIN])?;
        self.read_stream(spill, |chunk| Ok(out.write_all(chunk)?))?;
        self.write_end(V1_PLAIN, Vec::new(), out)
    }

    /// Writes the version-3 (indexed) encoding.
    ///
    /// The value index is the one part that is not bounded-memory: it
    /// sorts every value, so the pass that copies the record stream also
    /// collects the values into one arena.
    pub fn finish_indexed<B: Read + Write + Seek>(
        self,
        spill: &mut Spill<B>,
        out: &mut impl Write,
    ) -> Result<VectorStats> {
        out.write_all(MAGIC)?;
        out.write_all(&[V3_SORTED])?;
        let mut arena = Vec::with_capacity(self.value_bytes as usize);
        let mut spans: Vec<(usize, usize)> = Vec::with_capacity(self.count as usize);
        let mut records = Records::default();
        self.read_stream(spill, |chunk| {
            out.write_all(chunk)?;
            records.split(chunk, |value| {
                spans.push((arena.len(), value.len()));
                arena.extend_from_slice(value);
                Ok(())
            })
        })?;
        let value = |pos: u32| {
            let (start, len) = spans[pos as usize];
            &arena[start..start + len]
        };
        let mut order: Vec<u32> = (0..self.count as u32).collect();
        // Ties break by position, so the order is total and an unstable
        // sort gives the stable sort's permutation.
        order.sort_unstable_by(|&a, &b| value(a).cmp(value(b)).then(a.cmp(&b)));

        let mut index = Vec::with_capacity(varint::MAX_LEN + 4 * order.len());
        varint::write(&mut index, self.count);
        for pos in order {
            index.extend_from_slice(&pos.to_le_bytes());
        }
        self.write_end(V3_SORTED, index, out)
    }

    /// Writes the smallest encoding: version 3 at [`INDEX_MIN_COUNT`]
    /// records or more, else version 1, with the dictionary form winning
    /// whenever it is both possible and strictly smaller.
    pub fn finish_auto<B: Read + Write + Seek>(
        self,
        spill: &mut Spill<B>,
        out: &mut impl Write,
    ) -> Result<VectorStats> {
        let candidate_size = if self.count >= INDEX_MIN_COUNT {
            self.indexed_size()
        } else {
            self.plain_size()
        };
        match self.dict_size() {
            Some(dict_size) if dict_size < candidate_size => self.finish_dict(spill, out),
            _ if self.count >= INDEX_MIN_COUNT => self.finish_indexed(spill, out),
            _ => self.finish_plain(spill, out),
        }
    }

    /// Writes the version-2 (dictionary) encoding: one code per record,
    /// found while the record stream is read back.
    fn finish_dict<B: Read + Write + Seek>(
        self,
        spill: &mut Spill<B>,
        out: &mut impl Write,
    ) -> Result<VectorStats> {
        debug_assert!(!self.dict_overflow);
        let mut head = Vec::new();
        head.extend_from_slice(MAGIC);
        head.push(V2_DICT);
        varint::write(&mut head, self.dict.len() as u64);
        for entry in &self.dict {
            varint::write(&mut head, entry.len() as u64);
            head.extend_from_slice(entry);
        }
        out.write_all(&head)?;
        let mut records = Records::default();
        let mut i = 0usize;
        self.read_stream(spill, |chunk| {
            records.split(chunk, |value| {
                let code = self.dict.iter().position(|d| d == value).ok_or_else(|| {
                    VectorError::Corrupt {
                        offset: head.len() + i,
                        message: format!("spilled record {i} missing from dictionary"),
                    }
                })?;
                i += 1;
                Ok(out.write_all(&[code as u8])?)
            })
        })?;
        let data_end = head.len() as u64 + self.count;
        let mut trailer = Vec::new();
        write_trailer(&mut trailer, data_end, data_end, self.count);
        out.write_all(&trailer)?;
        Ok(VectorStats {
            count: self.count,
            data_bytes: self.count,
            value_bytes: self.value_bytes,
            index_bytes: 0,
            version: V2_DICT,
        })
    }
}

fn write_trailer(out: &mut Vec<u8>, data_end: u64, skip_start: u64, count: u64) {
    out.extend_from_slice(&data_end.to_le_bytes());
    out.extend_from_slice(&skip_start.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(TRAILER_MAGIC);
}

/// Splits a record stream, fed in chunks cut anywhere, into its values.
#[derive(Default)]
struct Records {
    /// Length of the value being read, once its prefix is complete.
    len: Option<usize>,
    prefix: u64,
    shift: u32,
    /// The bytes of a value that began in an earlier chunk.
    partial: Vec<u8>,
}

impl Records {
    fn split(&mut self, mut chunk: &[u8], mut emit: impl FnMut(&[u8]) -> Result<()>) -> Result<()> {
        loop {
            let Some(len) = self.len else {
                let Some((&byte, rest)) = chunk.split_first() else {
                    return Ok(());
                };
                chunk = rest;
                self.prefix |= u64::from(byte & 0x7f) << self.shift;
                self.shift += 7;
                if byte & 0x80 == 0 {
                    self.len = Some(self.prefix as usize);
                    (self.prefix, self.shift) = (0, 0);
                }
                continue;
            };
            let need = len - self.partial.len();
            if chunk.len() < need {
                self.partial.extend_from_slice(chunk);
                return Ok(());
            }
            let (rest_of_value, rest) = chunk.split_at(need);
            chunk = rest;
            if self.partial.is_empty() {
                emit(rest_of_value)?;
            } else {
                self.partial.extend_from_slice(rest_of_value);
                emit(&self.partial)?;
                self.partial.clear();
            }
            self.len = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Writer;
    use crate::Vector;
    use std::io::Cursor;

    fn temp_spill(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("vx-spill-{}-{name}.spill", std::process::id()))
    }

    #[derive(Clone, Copy)]
    enum Finish {
        Plain,
        Indexed,
        Auto,
    }

    fn encode<B: Read + Write + Seek>(
        spill: &mut Spill<B>,
        values: &[Vec<u8>],
        finish: Finish,
    ) -> Vec<u8> {
        let mut sv = SpillVector::default();
        for v in values {
            sv.append(spill, v).unwrap();
        }
        let mut out = Vec::new();
        let stats = match finish {
            Finish::Plain => sv.finish_plain(spill, &mut out),
            Finish::Indexed => sv.finish_indexed(spill, &mut out),
            Finish::Auto => sv.finish_auto(spill, &mut out),
        }
        .unwrap();
        assert_eq!(
            stats,
            Vector::decode(&out).unwrap().1,
            "returned stats must be what a strict decode reads"
        );
        out
    }

    /// Encodes `values` with the reference writer, and with the spill
    /// encoder over both backings: a file (ingest) that starts out
    /// holding a stale leftover, and an in-memory cursor (`Store::save`).
    /// Asserts the three agree and the file is gone after the drop.
    fn finish_both(values: &[Vec<u8>], name: &str, finish: Finish) -> (Vec<u8>, Vec<u8>) {
        let mut w = Writer::new();
        for v in values {
            w.push(v);
        }
        let reference = match finish {
            Finish::Plain => w.encode_plain(),
            Finish::Indexed => w.encode_indexed(),
            Finish::Auto => w.encode_auto(),
        };

        let path = temp_spill(name);
        std::fs::write(&path, vec![0xAB; PAGE_SIZE + 3]).unwrap();
        let mut spill = Spill::create(&path).unwrap();
        let streamed = encode(&mut spill, values, finish);
        drop(spill);
        assert!(!path.exists(), "spill file must be removed on drop");

        let in_memory = encode(&mut Spill::new(Cursor::new(Vec::new())), values, finish);
        assert_eq!(streamed, in_memory, "file and cursor backings must agree");
        (reference, streamed)
    }

    fn auto_or_plain(auto: bool) -> Finish {
        if auto {
            Finish::Auto
        } else {
            Finish::Plain
        }
    }

    #[test]
    fn plain_matches_in_memory_writer() {
        let values: Vec<Vec<u8>> = (0..3000)
            .map(|i| format!("value-{i:05}-{}", "x".repeat(i % 90)).into_bytes())
            .collect();
        let (reference, streamed) = finish_both(&values, "plain", Finish::Plain);
        assert_eq!(reference, streamed);
    }

    #[test]
    fn values_larger_than_a_page_match() {
        let values = vec![
            vec![b'a'; PAGE_SIZE * 3 + 17],
            Vec::new(),
            vec![b'b'; PAGE_SIZE - 1],
            vec![b'c'; PAGE_SIZE],
            vec![b'd'; 5],
        ];
        for auto in [false, true] {
            let name = if auto { "big-a" } else { "big-p" };
            let (reference, streamed) = finish_both(&values, name, auto_or_plain(auto));
            assert_eq!(reference, streamed);
        }
        // Indexed (too many distinct values for a dictionary), with
        // records cut across page ends.
        let values: Vec<Vec<u8>> = (0..130)
            .map(|i| vec![b'a' + (i * 7 % 26) as u8; PAGE_SIZE / 3 + i])
            .collect();
        let (reference, streamed) = finish_both(&values, "big-i", Finish::Auto);
        assert_eq!(reference[4], 3, "reference must pick the indexed encoding");
        assert_eq!(reference, streamed);
    }

    #[test]
    fn low_cardinality_picks_dictionary_identically() {
        let values: Vec<Vec<u8>> = (0..4000)
            .map(|i| format!("{}", i % 9).into_bytes())
            .collect();
        let (reference, streamed) = finish_both(&values, "dict", Finish::Auto);
        assert_eq!(reference[4], 2, "reference must pick the dict encoding");
        assert_eq!(reference, streamed);
    }

    #[test]
    fn high_cardinality_falls_back_to_indexed_identically() {
        let values: Vec<Vec<u8>> = (0..600).map(|i| format!("{i}").into_bytes()).collect();
        let (reference, streamed) = finish_both(&values, "fallback", Finish::Auto);
        assert_eq!(reference[4], 3, "reference must fall back to indexed plain");
        assert_eq!(reference, streamed);
    }

    #[test]
    fn explicit_indexed_matches_in_memory_writer() {
        let values: Vec<Vec<u8>> = (0..900)
            .map(|i| format!("key-{:04}", (i * 37) % 900).into_bytes())
            .collect();
        let (reference, streamed) = finish_both(&values, "indexed", Finish::Indexed);
        assert_eq!(reference, streamed);
    }

    #[test]
    fn small_vector_auto_stays_plain() {
        let values: Vec<Vec<u8>> = (0..40).map(|i| format!("d{i}").into_bytes()).collect();
        let (reference, streamed) = finish_both(&values, "small", Finish::Auto);
        assert_eq!(reference[4], 1, "below INDEX_MIN_COUNT auto stays v1");
        assert_eq!(reference, streamed);
    }

    #[test]
    fn borderline_dictionary_decision_matches() {
        // Exactly 128 distinct values, short records: auto must agree.
        let values: Vec<Vec<u8>> = (0..1000)
            .map(|i| format!("{}", i % 128).into_bytes())
            .collect();
        let (reference, streamed) = finish_both(&values, "border", Finish::Auto);
        assert_eq!(reference, streamed);
        // One more distinct value overflows the dictionary.
        let values: Vec<Vec<u8>> = (0..1000)
            .map(|i| format!("{}", i % 129).into_bytes())
            .collect();
        let (reference, streamed) = finish_both(&values, "border-over", Finish::Auto);
        assert_eq!(
            reference[4], 3,
            "129 distinct values rule out the dictionary"
        );
        assert_eq!(reference, streamed);
        // Tiny vector where the dictionary overhead loses: still identical.
        let values = vec![b"only".to_vec()];
        let (reference, streamed) = finish_both(&values, "tiny", Finish::Auto);
        assert_eq!(reference, streamed);
    }

    /// A vector without a dictionary candidate still writes the plain
    /// and indexed encodings byte for byte.
    #[test]
    fn plain_vectors_keep_no_candidate_and_match() {
        let values: Vec<Vec<u8>> = (0..700)
            .map(|i| format!("{}", i % 5).into_bytes())
            .collect();
        let mut w = Writer::new();
        for v in &values {
            w.push(v);
        }
        for indexed in [false, true] {
            let mut spill = Spill::new(Cursor::new(Vec::new()));
            let mut sv = SpillVector::plain();
            for v in &values {
                sv.append(&mut spill, v).unwrap();
            }
            assert!(sv.dict.is_empty(), "no candidate is kept");
            let mut out = Vec::new();
            if indexed {
                sv.finish_indexed(&mut spill, &mut out).unwrap();
                assert_eq!(out, w.encode_indexed());
            } else {
                sv.finish_plain(&mut spill, &mut out).unwrap();
                assert_eq!(out, w.encode_plain());
            }
        }
    }

    #[test]
    fn empty_vector_matches() {
        for finish in [Finish::Plain, Finish::Indexed, Finish::Auto] {
            let (reference, streamed) = finish_both(&[], "empty", finish);
            assert_eq!(reference, streamed);
        }
    }

    #[test]
    fn many_vectors_interleave_in_one_pool() {
        let path = temp_spill("interleave");
        let mut spill = Spill::create(&path).unwrap();
        let mut vectors: Vec<SpillVector> = (0..8).map(|_| SpillVector::default()).collect();
        let mut expected: Vec<Writer> = (0..8).map(|_| Writer::new()).collect();
        for round in 0..2000 {
            for (k, sv) in vectors.iter_mut().enumerate() {
                let value = format!("v{k}-{round}-{}", "p".repeat(round % 30));
                sv.append(&mut spill, value.as_bytes()).unwrap();
                expected[k].push(value.as_bytes());
            }
        }
        assert!(spill.page_count() > 8, "interleaved streams must spill");
        for (sv, w) in vectors.into_iter().zip(&expected) {
            let mut streamed = Vec::new();
            sv.finish_auto(&mut spill, &mut streamed).unwrap();
            assert_eq!(streamed, w.encode_auto());
        }
        let stats = spill.stats();
        assert_eq!(stats.evictions, spill.page_count());
        assert_eq!(stats.misses, spill.page_count(), "each page is read once");
        assert_eq!(stats.hits, 0);
    }
}
