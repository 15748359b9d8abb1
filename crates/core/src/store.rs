//! The persistent store: a directory with `skeleton.vxsk`, numbered
//! `v{NNNNNN}.vec` files, and `catalog.json`.
//!
//! ```json
//! {
//!   "vectors": [
//!     {"path": "…/PMID", "file": "v000000.vec", "count": 4000,
//!      "data_bytes": 36000, "version": 3},
//!     …
//!   ],
//!   "node_count": 168129,
//!   "text_bytes": 1620783
//! }
//! ```
//!
//! `count` is the number of text occurrences of the path, `data_bytes` the
//! byte length of the `.vec` record/code stream, `node_count` the expanded
//! (uncompressed) element+text node count of the document, and
//! `text_bytes` the sum of raw value lengths. This matches the surviving
//! `bench_results/stores/` catalogs in structure. `version` records each
//! file's `.vec` format version so mixed v1/v2/v3 stores open cleanly;
//! catalogs written before it existed parse with version 0 ("unrecorded")
//! and the file's own header stays authoritative.

use crate::json::{self, Json};
use crate::vecdoc::{PathVector, VecDoc};
use crate::{CoreError, Result};
use std::fs;
use std::io::{self, BufWriter, Read, Seek, Write};
use std::path::{Path, PathBuf};
use vx_skeleton::format as skformat;
use vx_vector::{Spill, SpillVector, Vector, VectorStats};

/// One catalog row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    pub path: String,
    pub file: String,
    pub count: u64,
    pub data_bytes: u64,
    /// `.vec` format version of the file (1 plain, 2 dict, 3 indexed).
    /// 0 means the catalog predates this field; the file header decides.
    pub version: u8,
}

/// The parsed `catalog.json`.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    pub vectors: Vec<CatalogEntry>,
    pub node_count: u64,
    pub text_bytes: u64,
}

impl Catalog {
    pub fn parse(text: &str) -> Result<Catalog> {
        let value = json::parse(text).map_err(CoreError::Catalog)?;
        let vectors_json = value
            .get("vectors")
            .and_then(Json::as_array)
            .ok_or_else(|| CoreError::Catalog("missing `vectors` array".into()))?;
        let mut vectors = Vec::with_capacity(vectors_json.len());
        for (i, row) in vectors_json.iter().enumerate() {
            let field = |name: &str| {
                row.get(name)
                    .ok_or_else(|| CoreError::Catalog(format!("vector {i}: missing `{name}`")))
            };
            vectors.push(CatalogEntry {
                path: field("path")?
                    .as_str()
                    .ok_or_else(|| CoreError::Catalog(format!("vector {i}: `path` not a string")))?
                    .to_string(),
                file: field("file")?
                    .as_str()
                    .ok_or_else(|| CoreError::Catalog(format!("vector {i}: `file` not a string")))?
                    .to_string(),
                count: field("count")?
                    .as_u64()
                    .ok_or_else(|| CoreError::Catalog(format!("vector {i}: bad `count`")))?,
                data_bytes: field("data_bytes")?
                    .as_u64()
                    .ok_or_else(|| CoreError::Catalog(format!("vector {i}: bad `data_bytes`")))?,
                // Absent in catalogs written before the field existed
                // (golden stores) — tolerate, don't error.
                version: row.get("version").and_then(Json::as_u64).unwrap_or(0) as u8,
            });
        }
        let u64_field = |name: &str| {
            value
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| CoreError::Catalog(format!("missing or bad `{name}`")))
        };
        Ok(Catalog {
            vectors,
            node_count: u64_field("node_count")?,
            text_bytes: u64_field("text_bytes")?,
        })
    }

    pub fn to_json(&self) -> String {
        let vectors = self
            .vectors
            .iter()
            .map(|e| {
                Json::Object(vec![
                    ("path".into(), Json::Str(e.path.clone())),
                    ("file".into(), Json::Str(e.file.clone())),
                    ("count".into(), Json::Num(e.count as f64)),
                    ("data_bytes".into(), Json::Num(e.data_bytes as f64)),
                    ("version".into(), Json::Num(e.version as f64)),
                ])
            })
            .collect();
        json::to_string_pretty(&Json::Object(vec![
            ("vectors".into(), Json::Array(vectors)),
            ("node_count".into(), Json::Num(self.node_count as f64)),
            ("text_bytes".into(), Json::Num(self.text_bytes as f64)),
        ]))
    }
}

/// Vector file compaction policy on save.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Compaction {
    /// Always write plain (version 1) vectors.
    #[default]
    None,
    /// Per vector, write the dictionary form when it is smaller (§6's
    /// compacted-store extension; the `ss-1500-compact` golden store).
    Auto,
}

/// Persistent store operations.
pub struct Store;

impl Store {
    /// Writes `doc` as a store directory (created if needed). Existing
    /// vector files in the directory are not deleted first; the catalog is
    /// the source of truth for which files belong to the store.
    pub fn save(dir: &Path, doc: &VecDoc, compaction: Compaction) -> Result<Catalog> {
        let root = doc
            .root
            .ok_or_else(|| CoreError::Corrupt("cannot save a document with no root".into()))?;
        fs::create_dir_all(dir)?;
        let skeleton_bytes = skformat::write(&doc.skeleton, root);
        fs::write(dir.join("skeleton.vxsk"), &skeleton_bytes)?;
        write_structural_index(dir, &skeleton_bytes)?;
        vx_obs::crash_point("store.mid_save");

        let mut entries = Vec::with_capacity(doc.vectors().len());
        for (i, vector) in doc.vectors().iter().enumerate() {
            // One in-memory spill per vector: it holds that vector's
            // record stream only until its file is written.
            let mut spill = Spill::new(io::Cursor::new(Vec::new()));
            let mut encoder = match compaction {
                Compaction::None => SpillVector::plain(),
                Compaction::Auto => SpillVector::default(),
            };
            for value in vector.values.iter() {
                encoder.append(&mut spill, value)?;
            }
            let (entry, _) =
                write_vector(dir, i, vector.path.clone(), encoder, &mut spill, compaction)?;
            entries.push(entry);
        }
        let catalog = Catalog {
            vectors: entries,
            node_count: doc.node_count(),
            text_bytes: doc.text_bytes(),
        };
        write_catalog_atomic(dir, &catalog)?;
        Ok(catalog)
    }

    /// Strict load: every file of the active generation must decode
    /// cleanly and agree with the catalog, then any WAL tail is replayed
    /// into the in-memory document (see `append.rs`). The returned
    /// catalog describes the document *including* the overlay; use
    /// [`Store::open_report`] for the on-disk base catalog and WAL
    /// detail.
    pub fn open(dir: &Path) -> Result<(VecDoc, Catalog)> {
        let report = Store::open_report(dir)?;
        Ok((report.doc, report.catalog))
    }

    /// Loads one generation directory strictly, with no layout
    /// resolution or WAL replay. Every vector file must agree with its
    /// catalog row on record count, data bytes and (where recorded)
    /// format version; returns each file's stats in catalog order.
    pub(crate) fn load_base(dir: &Path) -> Result<(VecDoc, Catalog, Vec<VectorStats>)> {
        let catalog = read_catalog(dir)?;
        let skeleton_bytes = fs::read(dir.join("skeleton.vxsk"))?;
        let (skeleton, root) = skformat::read(&skeleton_bytes)?;
        let mut doc = VecDoc::new(skeleton, Some(root));
        let mut stats = Vec::with_capacity(catalog.vectors.len());
        for entry in &catalog.vectors {
            let (values, file) = Vector::open(&dir.join(&entry.file))?;
            // Version 0 is a catalog written before the field existed.
            if entry.version != 0 && entry.version != file.version {
                return Err(CoreError::Corrupt(format!(
                    "vector `{}`: catalog says format v{}, file is v{}",
                    entry.path, entry.version, file.version
                )));
            }
            if file.count != entry.count {
                return Err(CoreError::Corrupt(format!(
                    "vector `{}`: catalog says {} records, file has {}",
                    entry.path, entry.count, file.count
                )));
            }
            if file.data_bytes != entry.data_bytes {
                return Err(CoreError::Corrupt(format!(
                    "vector `{}`: catalog says {} data bytes, file has {}",
                    entry.path, entry.data_bytes, file.data_bytes
                )));
            }
            doc.insert_vector(PathVector {
                path: entry.path.clone(),
                values,
            });
            stats.push(file);
        }
        Ok((doc, catalog, stats))
    }

    /// Salvage load for the damaged golden stores: drives every reader in
    /// lenient mode off the catalog, tolerates missing vector files, and
    /// reports exactly what was recovered. Strictly read-only (so no
    /// stale-temp cleanup and no WAL replay; the active generation's
    /// files are still resolved through `CURRENT`).
    pub fn open_salvage(dir: &Path) -> Result<SalvageStore> {
        let dir = &Store::base_dir(dir)?;
        let catalog = read_catalog(dir)?;
        let skeleton_bytes = fs::read(dir.join("skeleton.vxsk"))?;
        let (raw, skeleton_report) = skformat::read_lenient(&skeleton_bytes)?;
        // The sanitizer shrank the root's damaged edge-count varint, so the
        // true root record is not necessarily last; pick the record with
        // the most edges (the root fans out to every top-level subtree).
        let root_record = raw
            .nodes
            .iter()
            .enumerate()
            .max_by_key(|(i, n)| (n.edges.len(), *i))
            .map(|(i, _)| i)
            .ok_or_else(|| CoreError::Corrupt("skeleton has no node records".into()))?;
        let (skeleton, root) = skformat::rebuild_lenient(&raw, root_record)?;
        let mut doc = VecDoc::new(skeleton, Some(root));
        let mut missing_files = Vec::new();
        let mut damaged_files = Vec::new();
        let mut loaded = 0usize;
        for entry in &catalog.vectors {
            let path: PathBuf = dir.join(&entry.file);
            if !path.exists() {
                missing_files.push(entry.file.clone());
                doc.insert_vector(PathVector {
                    path: entry.path.clone(),
                    values: Vector::default(),
                });
                continue;
            }
            // A damaged record-length varint can throw the whole stream
            // off; keep whatever the reader managed and carry on.
            let values = match Vector::open_salvage(&path, entry.count) {
                Ok((values, _)) => {
                    loaded += 1;
                    values
                }
                Err(e) => {
                    damaged_files.push((entry.file.clone(), e.to_string()));
                    Vector::default()
                }
            };
            doc.insert_vector(PathVector {
                path: entry.path.clone(),
                values,
            });
        }
        Ok(SalvageStore {
            doc,
            catalog,
            skeleton_report,
            raw_skeleton: raw,
            missing_files,
            damaged_files,
            vectors_loaded: loaded,
        })
    }
}

/// Writes `dir/v{i:06}.vec` from the values in `encoder`, in the encoding
/// `compaction` picks, and returns its catalog row and stats. Every
/// store vector file is written here: ingest, save and compaction.
pub(crate) fn write_vector<B: Read + Write + Seek>(
    dir: &Path,
    i: usize,
    path: String,
    encoder: SpillVector,
    spill: &mut Spill<B>,
    compaction: Compaction,
) -> Result<(CatalogEntry, VectorStats)> {
    let file = format!("v{i:06}.vec");
    let mut out = BufWriter::new(fs::File::create(dir.join(&file))?);
    let stats = match compaction {
        Compaction::None => encoder.finish_plain(spill, &mut out),
        Compaction::Auto => encoder.finish_auto(spill, &mut out),
    }?;
    out.flush()?;
    let entry = CatalogEntry {
        path,
        file,
        count: stats.count,
        data_bytes: stats.data_bytes,
        version: stats.version,
    };
    Ok((entry, stats))
}

fn read_catalog(dir: &Path) -> Result<Catalog> {
    let text = fs::read_to_string(dir.join("catalog.json"))?;
    Catalog::parse(&text)
}

/// Writes `index.vxpi` — the persisted structural self-index — next to a
/// just-written `skeleton.vxsk`. The index must be built from the
/// *canonical* skeleton decoded back out of the file bytes, not from the
/// in-memory arena: the writer garbage-collects unreachable nodes and
/// densely renumbers the rest, so only the re-read arena's node ids match
/// what a later `Store::open` will see. Building from bytes also makes
/// the DOM and streaming ingest paths produce byte-identical `.vxpi`
/// files.
pub(crate) fn write_structural_index(dir: &Path, skeleton_bytes: &[u8]) -> Result<()> {
    let (canonical, root) = skformat::read(skeleton_bytes)?;
    let index = vx_skeleton::StructIndex::build(&canonical, root);
    fs::write(dir.join("index.vxpi"), vx_skeleton::write_index(&index))?;
    Ok(())
}

/// Writes `catalog.json` atomically: full content to a temp file in the
/// same directory, then rename over the final name. A crash mid-write can
/// therefore never leave a valid-looking catalog pointing at half-written
/// vectors — the store either has its previous catalog or the new one.
pub(crate) fn write_catalog_atomic(dir: &Path, catalog: &Catalog) -> Result<()> {
    let tmp = dir.join("catalog.json.tmp");
    fs::write(&tmp, catalog.to_json())?;
    if let Err(e) = fs::rename(&tmp, dir.join("catalog.json")) {
        let _ = fs::remove_file(&tmp);
        return Err(e.into());
    }
    Ok(())
}

/// The result of a lenient store load.
pub struct SalvageStore {
    pub doc: VecDoc,
    pub catalog: Catalog,
    pub skeleton_report: skformat::SalvageReport,
    pub raw_skeleton: skformat::RawSkeleton,
    /// Catalog entries whose `.vec` file is absent on disk.
    pub missing_files: Vec<String>,
    /// Files present but undecodable even leniently, with the error.
    pub damaged_files: Vec<(String, String)>,
    pub vectors_loaded: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reconstruct::reconstruct;
    use crate::vectorize::vectorize;
    use vx_xml::parse;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vx-store-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_open_reconstruct() {
        let src = "<lib><book><title>T1</title><author>A</author></book>\
                   <book><title>T2</title><author>B</author></book></lib>";
        let doc = parse(src).unwrap();
        let v = vectorize(&doc).unwrap();
        let dir = temp_dir("basic");
        let saved = Store::save(&dir, &v, Compaction::None).unwrap();
        assert_eq!(saved.vectors.len(), 2);
        assert_eq!(saved.vectors[0].file, "v000000.vec");
        assert_eq!(saved.node_count, doc.root.node_count());

        let (loaded, catalog) = Store::open(&dir).unwrap();
        assert_eq!(catalog.vectors, saved.vectors);
        let back = reconstruct(&loaded).unwrap();
        assert_eq!(back.root, doc.root);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compacted_store_round_trips() {
        // A low-cardinality column triggers dictionary compaction.
        let mut src = String::from("<t>");
        for i in 0..400 {
            src.push_str(&format!("<r><type>{}</type></r>", i % 5));
        }
        src.push_str("</t>");
        let doc = parse(&src).unwrap();
        let v = vectorize(&doc).unwrap();
        let dir = temp_dir("compact");
        let catalog = Store::save(&dir, &v, Compaction::Auto).unwrap();
        // Dictionary form: data_bytes == count (one code byte per record).
        assert_eq!(catalog.vectors[0].count, 400);
        assert_eq!(catalog.vectors[0].data_bytes, 400);
        let (loaded, _) = Store::open(&dir).unwrap();
        assert_eq!(reconstruct(&loaded).unwrap().root, doc.root);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn indexed_store_round_trips_with_sorted_run() {
        // High-cardinality column (no dictionary possible, count ≥ 64)
        // triggers the version-3 value index under Auto compaction.
        let mut src = String::from("<t>");
        for i in 0..200 {
            src.push_str(&format!("<r><id>{}</id></r>", (i * 37) % 200));
        }
        src.push_str("</t>");
        let doc = parse(&src).unwrap();
        let v = vectorize(&doc).unwrap();
        let dir = temp_dir("indexed");
        let catalog = Store::save(&dir, &v, Compaction::Auto).unwrap();
        assert_eq!(catalog.vectors[0].version, 3);

        let (loaded, reread) = Store::open(&dir).unwrap();
        assert_eq!(reread.vectors, catalog.vectors);
        let pos = loaded.vector_position(&catalog.vectors[0].path).unwrap();
        let values = &loaded.vectors()[pos].values;
        let order = values
            .sorted_order()
            .expect("v3 store populates sorted run");
        assert_eq!(order.len(), 200);
        assert!(order
            .windows(2)
            .all(|w| values[w[0] as usize] < values[w[1] as usize]));
        // The loaded column equals the vectorized one, run or no run.
        assert_eq!(loaded.vectors(), v.vectors());
        assert_eq!(reconstruct(&loaded).unwrap().root, doc.root);

        // Plain saves of the same doc record version 1 and load no run.
        let dir2 = temp_dir("indexed-plain");
        let plain = Store::save(&dir2, &v, Compaction::None).unwrap();
        assert_eq!(plain.vectors[0].version, 1);
        let (loaded2, _) = Store::open(&dir2).unwrap();
        assert!(loaded2.vectors()[pos].values.sorted_order().is_none());
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&dir2);
    }

    #[test]
    fn catalog_without_version_field_parses_as_zero() {
        let text = r#"{
  "vectors": [
    {"path": "a/b", "file": "v000000.vec", "count": 2, "data_bytes": 4}
  ],
  "node_count": 5,
  "text_bytes": 2
}"#;
        let catalog = Catalog::parse(text).unwrap();
        assert_eq!(catalog.vectors[0].version, 0);
    }

    #[test]
    fn strict_open_rejects_count_mismatch() {
        let doc = parse("<a><b>1</b><b>2</b></a>").unwrap();
        let v = vectorize(&doc).unwrap();
        let dir = temp_dir("mismatch");
        Store::save(&dir, &v, Compaction::None).unwrap();
        // Tamper with the catalog's count.
        let catalog_path = dir.join("catalog.json");
        let text = fs::read_to_string(&catalog_path)
            .unwrap()
            .replace("\"count\": 2", "\"count\": 3");
        fs::write(&catalog_path, text).unwrap();
        assert!(Store::open(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn salvage_tolerates_missing_vector_file() {
        let doc = parse("<a><b>1</b><c>2</c></a>").unwrap();
        let v = vectorize(&doc).unwrap();
        let dir = temp_dir("salvage");
        Store::save(&dir, &v, Compaction::None).unwrap();
        fs::remove_file(dir.join("v000001.vec")).unwrap();
        let salvage = Store::open_salvage(&dir).unwrap();
        assert_eq!(salvage.missing_files, vec!["v000001.vec".to_string()]);
        assert_eq!(salvage.vectors_loaded, 1);
        assert!(salvage.skeleton_report.is_clean());
        let (back, report) = crate::reconstruct_salvage(&salvage.doc).unwrap();
        assert_eq!(back.root.name, "a");
        assert_eq!(report.missing_values, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
