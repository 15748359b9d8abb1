//! `StoreHandle` — an opened store as a shared immutable value.
//!
//! The paper's stores are read-mostly and the skeleton is tiny by
//! design, which makes an opened store ideal for many concurrent
//! readers. A [`StoreHandle`] packages everything the read path needs —
//! the hash-consed skeleton (inside the [`VecDoc`]), the fully decoded
//! data vectors, the [`Catalog`], and the precomputed [`PathIndex`] —
//! behind one `Arc`. Cloning a handle is a reference-count bump; the
//! store directory is read **once**, at [`StoreHandle::open`] time, and
//! never touched again.
//!
//! The split the engine relies on:
//!
//! * **Shared immutable** (this type): skeleton DAG, data vectors,
//!   catalog, per-node text layout. `Send + Sync` is enforced at compile
//!   time below, so a handle can be captured by any number of worker
//!   threads (`vx serve`, the parallel reduce loop, the bench harness).
//! * **Per-query scratch** (owned by each evaluation): NFA machine
//!   states, per-path cursors, extended-vector rows, join indexes. The
//!   engine allocates those per call; nothing in this type is ever
//!   mutated by a query.

use crate::append::WalStatus;
use crate::store::{Catalog, Store};
use crate::vecdoc::VecDoc;
use crate::{CoreError, Result};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use vx_skeleton::{NodeId, PathIndex, Skeleton, StructIndex};
use vx_vector::VectorStats;

/// Everything derived from one store directory, immutable after open.
struct StoreInner {
    /// Directory the store was opened from; empty for in-memory handles.
    dir: PathBuf,
    /// Directory the active generation's files were read from (`dir`
    /// for flat stores, `dir/gen-NNNN` after a compaction; empty for
    /// in-memory handles).
    base_dir: PathBuf,
    /// Default `doc("…")` name: the directory's file name (or an
    /// explicit override for in-memory handles).
    name: String,
    doc: VecDoc,
    catalog: Catalog,
    /// The on-disk catalog of the active generation (equal to `catalog`
    /// when no WAL overlay was replayed at open).
    base_catalog: Catalog,
    /// Stats of each vector file of the active generation, in
    /// `base_catalog` order (empty for in-memory handles).
    vector_stats: Vec<VectorStats>,
    /// Active generation (0 = flat layout / in-memory).
    generation: u32,
    /// WAL state observed at open time (all zeros for in-memory
    /// handles and stores without a `wal/` directory).
    wal: WalStatus,
    /// Seconds [`Store::open_report`] spent replaying the WAL tail.
    replay_secs: f64,
    index: PathIndex,
    /// Whether the structural self-index came from a persisted
    /// `index.vxpi` (false = rebuilt from the skeleton at open).
    structural_loaded: bool,
}

/// A shared, immutable, opened store. See the module docs for the
/// concurrency contract. Cheap to clone (`Arc` bump).
#[derive(Clone)]
pub struct StoreHandle {
    inner: Arc<StoreInner>,
}

/// The whole read path must be shareable across threads without locks:
/// a handle that stopped being `Send + Sync` (say, a cache slipped in a
/// `Cell`) is a compile error here, not a runtime surprise.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<StoreHandle>();

impl StoreHandle {
    /// Opens the store in `dir` once: strict [`Store::open`] (every
    /// vector file must decode and agree with the catalog), then the
    /// skeleton/vector integrity gate, then the path-index precompute.
    /// The returned handle never reads the directory again.
    pub fn open(dir: &Path) -> Result<StoreHandle> {
        let report = Store::open_report(dir)?;
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        Self::assemble(
            dir.to_path_buf(),
            report.base_dir,
            name,
            report.doc,
            report.catalog,
            report.base_catalog,
            report.vector_stats,
            report.generation,
            report.wal,
            report.replay_secs,
            report.structural,
        )
    }

    /// Wraps an in-memory [`VecDoc`] (e.g. freshly vectorized, never
    /// saved) as a handle named `name`. The catalog is synthesized from
    /// the document; there is no backing directory.
    pub fn from_doc(name: &str, doc: VecDoc) -> Result<StoreHandle> {
        let catalog = Catalog {
            vectors: doc
                .vectors()
                .iter()
                .enumerate()
                .map(|(i, v)| crate::store::CatalogEntry {
                    path: v.path.clone(),
                    file: format!("v{i:06}.vec"),
                    count: v.values.len() as u64,
                    data_bytes: v.values.value_bytes(),
                    version: 0,
                })
                .collect(),
            node_count: doc.node_count(),
            text_bytes: doc.text_bytes(),
        };
        let base_catalog = catalog.clone();
        Self::assemble(
            PathBuf::new(),
            PathBuf::new(),
            name.to_string(),
            doc,
            catalog,
            base_catalog,
            Vec::new(),
            0,
            WalStatus::default(),
            0.0,
            None,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        dir: PathBuf,
        base_dir: PathBuf,
        name: String,
        doc: VecDoc,
        catalog: Catalog,
        base_catalog: Catalog,
        vector_stats: Vec<VectorStats>,
        generation: u32,
        wal: WalStatus,
        replay_secs: f64,
        structural: Option<StructIndex>,
    ) -> Result<StoreHandle> {
        let root = doc
            .root
            .ok_or_else(|| CoreError::Corrupt("store has no root node".into()))?;
        let structural_loaded = structural.is_some();
        let index = match structural {
            // A persisted `index.vxpi` that passed the staleness gate at
            // open time replaces the per-open rebuild.
            Some(structural) => PathIndex::with_structural(&doc.skeleton, root, structural),
            None => PathIndex::new(&doc.skeleton, root),
        };

        // Integrity gate, hoisted out of the engine's per-query path.
        crate::check_text_counts(&doc, &index).map_err(CoreError::Corrupt)?;

        Ok(StoreHandle {
            inner: Arc::new(StoreInner {
                dir,
                base_dir,
                name,
                doc,
                catalog,
                base_catalog,
                vector_stats,
                generation,
                wal,
                replay_secs,
                index,
                structural_loaded,
            }),
        })
    }

    /// The directory this handle was opened from (empty for
    /// [`StoreHandle::from_doc`] handles).
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// The handle's default `doc("…")` name (directory basename).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The decoded vectorized document.
    pub fn doc(&self) -> &VecDoc {
        &self.inner.doc
    }

    /// The store's skeleton DAG.
    pub fn skeleton(&self) -> &Skeleton {
        &self.inner.doc.skeleton
    }

    /// The skeleton root.
    pub fn root(&self) -> NodeId {
        self.inner.index.root()
    }

    /// The parsed catalog (synthesized for in-memory handles). With a
    /// WAL overlay this describes the *served* document; see
    /// [`StoreHandle::base_catalog`] for the on-disk generation.
    pub fn catalog(&self) -> &Catalog {
        &self.inner.catalog
    }

    /// The on-disk catalog of the active generation, verbatim (equal to
    /// [`StoreHandle::catalog`] without a WAL overlay).
    pub fn base_catalog(&self) -> &Catalog {
        &self.inner.base_catalog
    }

    /// Stats of each vector file of the active generation (format
    /// version, index bytes, …), in [`StoreHandle::base_catalog`] order,
    /// as decoded and checked at open. Empty for
    /// [`StoreHandle::from_doc`] handles.
    pub fn vector_stats(&self) -> &[VectorStats] {
        &self.inner.vector_stats
    }

    /// Directory the active generation's files were read from — the
    /// store dir itself for flat stores, `dir/gen-NNNN` after a
    /// compaction (empty for in-memory handles).
    pub fn base_dir(&self) -> &Path {
        &self.inner.base_dir
    }

    /// Active generation number (0 = flat layout / in-memory).
    pub fn generation(&self) -> u32 {
        self.inner.generation
    }

    /// WAL state observed when the handle was opened.
    pub fn wal(&self) -> &WalStatus {
        &self.inner.wal
    }

    /// Seconds the open spent replaying pending WAL records into the
    /// base document (0 when none were pending, and for in-memory
    /// handles).
    pub fn replay_secs(&self) -> f64 {
        self.inner.replay_secs
    }

    /// The precomputed per-node text layout, shared by every query that
    /// runs over this handle.
    pub fn index(&self) -> &PathIndex {
        &self.inner.index
    }

    /// Whether the structural self-index was loaded from a persisted
    /// `index.vxpi` rather than rebuilt from the skeleton at open time.
    pub fn structural_loaded(&self) -> bool {
        self.inner.structural_loaded
    }
}

impl std::fmt::Debug for StoreHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreHandle")
            .field("dir", &self.inner.dir)
            .field("name", &self.inner.name)
            .field("vectors", &self.inner.doc.vectors().len())
            .field("node_count", &self.inner.catalog.node_count)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Compaction;
    use crate::vectorize::vectorize;
    use std::fs;
    use vx_xml::parse;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vx-handle-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn open_clone_and_share() {
        let doc = parse("<lib><book><t>A</t></book><book><t>B</t></book></lib>").unwrap();
        let v = vectorize(&doc).unwrap();
        let dir = temp_dir("share");
        Store::save(&dir, &v, Compaction::None).unwrap();
        let handle = StoreHandle::open(&dir).unwrap();
        assert_eq!(handle.catalog().vectors.len(), 1);
        assert!(handle.name().starts_with("vx-handle-"));

        // Clones share the same inner store; threads may hold them.
        let clone = handle.clone();
        let joined = std::thread::spawn(move || clone.doc().text_count())
            .join()
            .unwrap();
        assert_eq!(joined, handle.doc().text_count());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn from_doc_synthesizes_catalog() {
        let doc = parse("<a><b>1</b><b>2</b><c>x</c></a>").unwrap();
        let v = vectorize(&doc).unwrap();
        let handle = StoreHandle::from_doc("mem", v).unwrap();
        assert_eq!(handle.name(), "mem");
        assert_eq!(handle.catalog().vectors.len(), 2);
        assert_eq!(handle.catalog().vectors[0].count, 2);
        assert_eq!(handle.dir(), Path::new(""));
    }

    #[test]
    fn structural_index_loads_and_degrades_to_rebuild() {
        let doc = parse("<lib><book><t>A</t></book><book><t>B</t></book></lib>").unwrap();
        let v = vectorize(&doc).unwrap();
        let dir = temp_dir("vxpi");
        Store::save(&dir, &v, Compaction::None).unwrap();

        // Fresh save persists the index and open adopts it.
        let handle = StoreHandle::open(&dir).unwrap();
        assert!(handle.structural_loaded());
        let baseline = handle.index().structural().clone();

        // Truncated, corrupted, and missing `.vxpi` files all degrade to
        // a rebuild that produces the identical index — never an error.
        let vxpi = dir.join("index.vxpi");
        let bytes = fs::read(&vxpi).unwrap();
        for damage in [bytes[..bytes.len() / 2].to_vec(), {
            let mut b = bytes.clone();
            let mid = b.len() / 2;
            b[mid] ^= 0xff;
            b
        }] {
            fs::write(&vxpi, damage).unwrap();
            let degraded = StoreHandle::open(&dir).unwrap();
            assert!(!degraded.structural_loaded());
            assert_eq!(degraded.index().structural(), &baseline);
        }
        fs::remove_file(&vxpi).unwrap();
        let rebuilt = StoreHandle::open(&dir).unwrap();
        assert!(!rebuilt.structural_loaded());
        assert_eq!(rebuilt.index().structural(), &baseline);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_structural_index_is_not_adopted() {
        // Persist store A's index into store B's directory: the
        // staleness gate must reject it and rebuild B's own.
        let a = vectorize(&parse("<lib><x><y>1</y></x></lib>").unwrap()).unwrap();
        let b = vectorize(&parse("<lib><p>1</p><q>2</q><r>3</r></lib>").unwrap()).unwrap();
        let dir_a = temp_dir("stale-a");
        let dir_b = temp_dir("stale-b");
        Store::save(&dir_a, &a, Compaction::None).unwrap();
        Store::save(&dir_b, &b, Compaction::None).unwrap();
        fs::copy(dir_a.join("index.vxpi"), dir_b.join("index.vxpi")).unwrap();
        let handle = StoreHandle::open(&dir_b).unwrap();
        assert!(!handle.structural_loaded());
        let fresh = PathIndex::new(handle.skeleton(), handle.root());
        assert_eq!(handle.index().structural(), fresh.structural());
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn open_rejects_vector_count_mismatch() {
        let doc = parse("<a><b>1</b><b>2</b></a>").unwrap();
        let mut v = vectorize(&doc).unwrap();
        // Drop a value behind the skeleton's back.
        let path = v.vectors()[0].path.clone();
        v.insert_vector(crate::vecdoc::PathVector {
            path,
            values: [b"1"].into_iter().collect(),
        });
        assert!(StoreHandle::from_doc("bad", v).is_err());
    }
}
