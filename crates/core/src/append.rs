//! Appends, generations, and crash recovery (DESIGN.md §11).
//!
//! A store starts life **flat** — `skeleton.vxsk`, `v*.vec`,
//! `catalog.json` directly in the store directory (generation 0, the
//! layout every ingest writes). Appending documents never rewrites
//! those files; instead:
//!
//! * [`Store::append_stream`] / [`Store::append_batch`] validate each
//!   appended document (well-formed UTF-8 XML, root tag equal to the
//!   store's root, no root attributes, representable content — checked
//!   by the same splice replay runs) and journal its
//!   raw bytes to the checksummed WAL (`wal/seg-*.wal`, see `vx-wal`),
//!   group-committed with one `fdatasync`.
//! * [`Store::open`] replays the WAL tail: the base document's root is
//!   reopened in the vectorizer ([`vx_ingest::Pipeline::resume`]) and
//!   the events of every record newer than the manifest's `wal_applied`
//!   are fed under it, so the appended root children are consed into
//!   the base DAG after the existing ones — the **log-backed overlay**,
//!   built in time proportional to the appended documents. New tag
//!   paths appearing only in appended documents extend the catalog and
//!   (through `StoreHandle`) the `PathIndex` in place.
//! * [`Store::compact`] folds the overlay into a fresh
//!   `gen-NNNN/` directory holding a complete, self-contained store —
//!   byte-identical to a from-scratch ingest of the combined document —
//!   then atomically swaps the `CURRENT` manifest and purges the
//!   applied WAL segments.
//!
//! The `CURRENT` manifest (`{"generation": "gen-0001",
//! "wal_applied": N}`) is the only mutable pointer: it is written with
//! the same temp-file + rename discipline as `catalog.json`, so a crash
//! at any step leaves either the old generation (with the WAL intact —
//! replay reproduces the appended state) or the new one (replay skips
//! records with `seq <= wal_applied`, so nothing is applied twice).
//! Recovery is therefore always to *exactly* the pre-append or
//! post-append document, never a torn mix.

use crate::json::{self, Json};
use crate::store::{Catalog, CatalogEntry, Compaction, Store};
use crate::vecdoc::VecDoc;
use crate::{CoreError, Result};
use std::collections::HashMap;
use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use vx_ingest::{Pipeline, PipelineOptions};
use vx_skeleton::format as skformat;
use vx_wal::{Record, SyncMode, Wal, FLAG_DROP_UNREPRESENTABLE, KIND_APPEND_DOC};
use vx_xml::{EventRef, Events};

/// Name of the generation manifest file.
pub const CURRENT_FILE: &str = "CURRENT";

/// Directory name of generation `n` (`n >= 1`).
pub fn generation_dir_name(generation: u32) -> String {
    format!("gen-{generation:04}")
}

/// Where a store's current files live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreLayout {
    /// The store directory itself.
    pub dir: PathBuf,
    /// Active generation: 0 = flat legacy layout (files at top level),
    /// `n >= 1` = `gen-NNNN/` subdirectory named by `CURRENT`.
    pub generation: u32,
    /// Last WAL sequence number folded into the on-disk generation;
    /// replay skips records at or below it.
    pub wal_applied: u64,
}

impl StoreLayout {
    /// The directory holding the active generation's
    /// `skeleton.vxsk`/`v*.vec`/`catalog.json`.
    pub fn base(&self) -> PathBuf {
        if self.generation == 0 {
            self.dir.clone()
        } else {
            self.dir.join(generation_dir_name(self.generation))
        }
    }
}

/// Reads the `CURRENT` manifest (absent = flat generation-0 layout).
pub fn resolve_layout(dir: &Path) -> Result<StoreLayout> {
    let path = dir.join(CURRENT_FILE);
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(StoreLayout {
                dir: dir.to_path_buf(),
                generation: 0,
                wal_applied: 0,
            });
        }
        Err(e) => return Err(e.into()),
    };
    let value =
        json::parse(&text).map_err(|e| CoreError::Corrupt(format!("bad CURRENT manifest: {e}")))?;
    let gen_name = value
        .get("generation")
        .and_then(Json::as_str)
        .ok_or_else(|| CoreError::Corrupt("CURRENT manifest: missing `generation`".into()))?;
    let generation: u32 = gen_name
        .strip_prefix("gen-")
        .and_then(|s| s.parse().ok())
        .filter(|&g| g >= 1)
        .ok_or_else(|| {
            CoreError::Corrupt(format!("CURRENT manifest: bad generation `{gen_name}`"))
        })?;
    let wal_applied = value
        .get("wal_applied")
        .and_then(Json::as_u64)
        .ok_or_else(|| CoreError::Corrupt("CURRENT manifest: missing `wal_applied`".into()))?;
    Ok(StoreLayout {
        dir: dir.to_path_buf(),
        generation,
        wal_applied,
    })
}

/// Writes the `CURRENT` manifest atomically (temp + rename, directory
/// fsync'd under the durable sync mode).
fn write_current_atomic(
    dir: &Path,
    generation: u32,
    wal_applied: u64,
    sync: SyncMode,
) -> Result<()> {
    let text = json::to_string_pretty(&Json::Object(vec![
        (
            "generation".into(),
            Json::Str(generation_dir_name(generation)),
        ),
        ("wal_applied".into(), Json::Num(wal_applied as f64)),
    ]));
    let tmp = dir.join("CURRENT.tmp");
    fs::write(&tmp, text)?;
    if sync == SyncMode::Data {
        if let Ok(file) = fs::File::open(&tmp) {
            let _ = file.sync_all();
        }
    }
    if let Err(e) = fs::rename(&tmp, dir.join(CURRENT_FILE)) {
        let _ = fs::remove_file(&tmp);
        return Err(e.into());
    }
    if sync == SyncMode::Data {
        vx_wal::sync_dir(dir);
    }
    Ok(())
}

/// The WAL's state as seen at open time.
#[derive(Debug, Clone, Default)]
pub struct WalStatus {
    /// Segment files on disk.
    pub segments: u64,
    /// Total bytes across segments.
    pub wal_bytes: u64,
    /// Records newer than the manifest's `wal_applied` (the overlay).
    pub pending_records: u64,
    /// Appended documents among the pending records.
    pub pending_docs: u64,
    /// Body bytes of pending records.
    pub pending_bytes: u64,
    /// Unreadable tail bytes dropped by torn-tail tolerance.
    pub torn_bytes: u64,
    /// Highest sequence number folded into the in-memory document
    /// (manifest's `wal_applied`, advanced by replay).
    pub applied_seq: u64,
}

/// Everything [`Store::open_report`] learns about a store.
#[derive(Debug)]
pub struct OpenReport {
    /// The document, with any WAL overlay already merged in.
    pub doc: VecDoc,
    /// Catalog describing [`OpenReport::doc`]. Without pending WAL
    /// records this is exactly the on-disk catalog; with an overlay,
    /// extended vectors keep their file name but re-count, and paths
    /// introduced by appended documents gain entries with an empty
    /// `file` (they have no on-disk vector until compaction).
    pub catalog: Catalog,
    /// The on-disk catalog of the active generation, verbatim.
    pub base_catalog: Catalog,
    /// Stats of each vector file of the active generation, in
    /// [`OpenReport::base_catalog`] order (format version, index bytes).
    pub vector_stats: Vec<vx_vector::VectorStats>,
    /// Active generation number (0 = flat layout).
    pub generation: u32,
    /// Directory the generation's files were read from.
    pub base_dir: PathBuf,
    /// WAL state (all zeros for a store with no `wal/` directory).
    pub wal: WalStatus,
    /// Wall-clock seconds spent replaying the pending WAL records into
    /// the base document (0 when nothing was pending).
    pub replay_secs: f64,
    /// Stale temp files/directories removed before opening (crash
    /// leftovers: `catalog.json.tmp`, `CURRENT.tmp`, `.ingest.spill`,
    /// superseded generations, fully-applied WAL segments).
    pub cleaned: Vec<String>,
    /// The persisted structural self-index (`index.vxpi`), when present,
    /// valid for [`OpenReport::doc`]'s skeleton, and no WAL overlay was
    /// merged (replay conses a new root the persisted index does not
    /// describe). `None` means "rebuild from the skeleton".
    pub structural: Option<vx_skeleton::StructIndex>,
}

/// Append policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct AppendOptions {
    /// Accept comments/PIs in appended documents by dropping them
    /// (recorded per WAL record so replay vectorizes identically).
    pub drop_unrepresentable: bool,
    /// Overrides the `VX_WAL_SYNC` environment sync policy.
    pub sync: Option<SyncMode>,
}

/// What an append journaled.
#[derive(Debug, Clone)]
pub struct AppendReport {
    pub docs: u64,
    /// Frame bytes written to the WAL.
    pub wal_bytes: u64,
    pub first_seq: u64,
    pub last_seq: u64,
    /// Segment file the batch went to.
    pub segment: String,
    /// Whether the batch was fsync'd before returning.
    pub synced: bool,
}

/// What a compaction did.
#[derive(Debug, Clone)]
pub struct CompactReport {
    /// False when the WAL had nothing pending (no-op).
    pub compacted: bool,
    /// Active generation after the call.
    pub generation: u32,
    /// WAL records folded into the new generation.
    pub records_applied: u64,
    /// Appended documents among them.
    pub docs_merged: u64,
    /// The new generation's directory (the old base if no-op).
    pub gen_dir: PathBuf,
}

impl Store {
    /// The directory holding the active generation's files — `dir`
    /// itself for flat stores, `dir/gen-NNNN` after a compaction.
    pub fn base_dir(dir: &Path) -> Result<PathBuf> {
        Ok(resolve_layout(dir)?.base())
    }

    /// Opens the store with full layout/WAL detail; [`Store::open`] is
    /// this minus the report. Cleans stale temp files, loads the active
    /// generation strictly, then replays any WAL tail into the
    /// in-memory overlay.
    pub fn open_report(dir: &Path) -> Result<OpenReport> {
        let layout = resolve_layout(dir)?;
        let mut cleaned = cleanup_stale(&layout);
        let base = layout.base();
        let (doc, base_catalog, vector_stats) = Store::load_base(&base)?;
        let structural = load_structural(&base, &doc);

        let wal = Wal::open(dir);
        // A crash between the CURRENT swap and compaction's purge
        // leaves fully-applied segments behind; the next compact
        // no-ops, so drop them here (best-effort, like the rest of the
        // salvage) or they are rescanned on every open forever.
        if layout.wal_applied > 0 {
            if let Ok(purged) = wal.purge_upto(layout.wal_applied) {
                if purged > 0 {
                    cleaned.push(format!("wal: {purged} applied segment(s)"));
                }
            }
        }
        let scan = wal.scan().map_err(wal_error)?;
        let pending: Vec<&Record> = scan
            .records
            .iter()
            .filter(|r| r.seq > layout.wal_applied && r.kind == KIND_APPEND_DOC)
            .collect();
        let mut status = WalStatus {
            segments: scan.segments.len() as u64,
            wal_bytes: scan.bytes,
            pending_records: pending.len() as u64,
            pending_docs: pending.len() as u64,
            pending_bytes: pending.iter().map(|r| r.body.len() as u64).sum(),
            torn_bytes: scan.torn_bytes,
            applied_seq: layout.wal_applied,
        };

        let mut replay_secs = 0.0;
        let (doc, catalog, structural) = if pending.is_empty() {
            let catalog = base_catalog.clone();
            (doc, catalog, structural)
        } else {
            status.applied_seq = pending.iter().map(|r| r.seq).max().unwrap_or(0);
            let replay = std::time::Instant::now();
            let merged = merge_pending(doc, &pending)?;
            replay_secs = replay.elapsed().as_secs_f64();
            let catalog = overlay_catalog(&base_catalog, &merged);
            if vx_obs::log_enabled() {
                vx_obs::event(
                    "wal.replay",
                    &[
                        ("dir", vx_obs::Value::Str(&dir.display().to_string())),
                        ("records", vx_obs::Value::U64(status.pending_records)),
                        ("docs", vx_obs::Value::U64(status.pending_docs)),
                        ("bytes", vx_obs::Value::U64(status.pending_bytes)),
                        ("torn_bytes", vx_obs::Value::U64(status.torn_bytes)),
                        ("applied_seq", vx_obs::Value::U64(status.applied_seq)),
                    ],
                );
            }
            // Replay conses a new root (and new nodes) into the base
            // arena; the persisted index describes the base root only.
            (merged, catalog, None)
        };

        Ok(OpenReport {
            doc,
            catalog,
            base_catalog,
            vector_stats,
            generation: layout.generation,
            base_dir: base,
            wal: status,
            replay_secs,
            cleaned,
            structural,
        })
    }

    /// Journals one XML document read from `reader` to the store's WAL.
    /// The document becomes part of the store's answer set on the next
    /// open (or server reload) and is folded into the on-disk files by
    /// [`Store::compact`]. Validation happens *before* journaling: the
    /// bytes must be well-formed XML whose root element carries the
    /// store's root tag and no attributes, and whose content
    /// vectorizes under `options`.
    pub fn append_stream<R: Read>(
        dir: &Path,
        mut reader: R,
        options: &AppendOptions,
    ) -> Result<AppendReport> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        Store::append_batch(dir, &[bytes], options)
    }

    /// As [`Store::append_stream`] for several documents in one batch:
    /// all are validated, then journaled and group-committed with a
    /// single fsync — either every document is durable or none is.
    pub fn append_batch(
        dir: &Path,
        docs: &[Vec<u8>],
        options: &AppendOptions,
    ) -> Result<AppendReport> {
        if docs.is_empty() {
            return Err(CoreError::Unsupported("append of zero documents".into()));
        }
        let layout = resolve_layout(dir)?;
        let root_name = store_root_name(&layout.base())?;
        // The splice replay will run, over an empty root instead of the
        // base: a journaled record can never fail replay.
        let mut check = Pipeline::new(VecDoc::default(), PipelineOptions::default());
        check.start(&root_name)?;
        for bytes in docs {
            splice(&mut check, &root_name, bytes, options.drop_unrepresentable)?;
        }

        let sync = options.sync.unwrap_or_else(SyncMode::from_env);
        let wal = Wal::with_sync(dir, sync);
        let flags = if options.drop_unrepresentable {
            FLAG_DROP_UNREPRESENTABLE
        } else {
            0
        };
        let entries: Vec<(u8, u8, &[u8])> = docs
            .iter()
            .map(|bytes| (KIND_APPEND_DOC, flags, bytes.as_slice()))
            .collect();
        let appended = wal
            .append(layout.wal_applied + 1, &entries)
            .map_err(wal_error)?;
        if vx_obs::log_enabled() {
            vx_obs::event(
                "wal.append",
                &[
                    ("dir", vx_obs::Value::Str(&dir.display().to_string())),
                    ("docs", vx_obs::Value::U64(docs.len() as u64)),
                    ("bytes", vx_obs::Value::U64(appended.bytes)),
                    ("first_seq", vx_obs::Value::U64(appended.first_seq)),
                    ("last_seq", vx_obs::Value::U64(appended.last_seq)),
                    ("segment", vx_obs::Value::Str(&appended.segment)),
                    ("synced", vx_obs::Value::Bool(appended.synced)),
                ],
            );
        }
        Ok(AppendReport {
            docs: docs.len() as u64,
            wal_bytes: appended.bytes,
            first_seq: appended.first_seq,
            last_seq: appended.last_seq,
            segment: appended.segment,
            synced: appended.synced,
        })
    }

    /// Folds the WAL overlay into a fresh generation: writes
    /// `gen-NNNN/` as a complete store (byte-identical to a
    /// from-scratch ingest of the combined document), fsyncs it,
    /// atomically swaps the `CURRENT` manifest, then purges applied WAL
    /// segments and the superseded generation. A crash anywhere leaves
    /// a store that opens to either the same appended state (old
    /// generation + WAL) or the identical new generation — never both
    /// and never neither. No-op when the WAL has nothing pending.
    pub fn compact(dir: &Path, compaction: Compaction) -> Result<CompactReport> {
        let report = Store::open_report(dir)?;
        if report.wal.pending_records == 0 {
            return Ok(CompactReport {
                compacted: false,
                generation: report.generation,
                records_applied: 0,
                docs_merged: 0,
                gen_dir: report.base_dir,
            });
        }
        let sync = SyncMode::from_env();
        let new_generation = report.generation + 1;
        let gen_dir = dir.join(generation_dir_name(new_generation));
        vx_obs::crash_point("compact.before_gen");
        if gen_dir.exists() {
            // Leftover from a compaction that crashed before the
            // manifest swap; rebuild it from scratch.
            fs::remove_dir_all(&gen_dir)?;
        }
        Store::save(&gen_dir, &report.doc, compaction)?;
        if sync == SyncMode::Data {
            for entry in fs::read_dir(&gen_dir)? {
                let entry = entry?;
                if let Ok(file) = fs::File::open(entry.path()) {
                    let _ = file.sync_all();
                }
            }
            vx_wal::sync_dir(&gen_dir);
            vx_wal::sync_dir(dir);
        }
        vx_obs::crash_point("compact.before_current");
        write_current_atomic(dir, new_generation, report.wal.applied_seq, sync)?;
        vx_obs::crash_point("compact.after_current");

        // Past the commit point: everything below is cleanup that the
        // next open redoes if we die here.
        let wal = Wal::with_sync(dir, sync);
        let _ = wal.purge_upto(report.wal.applied_seq);
        if report.generation == 0 {
            let _ = remove_flat_files(dir);
        } else {
            let _ = fs::remove_dir_all(dir.join(generation_dir_name(report.generation)));
        }
        if vx_obs::log_enabled() {
            vx_obs::event(
                "store.compact",
                &[
                    ("dir", vx_obs::Value::Str(&dir.display().to_string())),
                    ("generation", vx_obs::Value::U64(new_generation as u64)),
                    ("records", vx_obs::Value::U64(report.wal.pending_records)),
                    ("docs", vx_obs::Value::U64(report.wal.pending_docs)),
                    ("applied_seq", vx_obs::Value::U64(report.wal.applied_seq)),
                    (
                        "vectors",
                        vx_obs::Value::U64(report.catalog.vectors.len() as u64),
                    ),
                ],
            );
        }
        Ok(CompactReport {
            compacted: true,
            generation: new_generation,
            records_applied: report.wal.pending_records,
            docs_merged: report.wal.pending_docs,
            gen_dir,
        })
    }
}

fn wal_error(e: vx_wal::WalError) -> CoreError {
    match e {
        vx_wal::WalError::Io(e) => CoreError::Io(e),
        other => CoreError::Corrupt(other.to_string()),
    }
}

/// The store's root element name, read from the active generation's
/// skeleton (cheap: the skeleton is the compressed DAG, not the data).
fn store_root_name(base: &Path) -> Result<String> {
    // A real store must have a catalog; the check distinguishes "not a
    // store" from deeper damage that open would diagnose.
    if !base.join("catalog.json").exists() {
        return Err(CoreError::Corrupt(format!(
            "{} is not a store (no catalog.json)",
            base.display()
        )));
    }
    let bytes = fs::read(base.join("skeleton.vxsk"))?;
    let (skeleton, root) = skformat::read(&bytes)?;
    root_tag(&skeleton, Some(root))
}

fn root_tag(skeleton: &vx_skeleton::Skeleton, root: Option<vx_skeleton::NodeId>) -> Result<String> {
    root.and_then(|root| skeleton.node(root).name)
        .map(|name| skeleton.name(name).to_string())
        .ok_or_else(|| CoreError::Corrupt("store root is not an element".into()))
}

/// Resumes the base document and feeds every pending record under its
/// root. This *is* the recovery semantics: the overlay is exactly `VEC`
/// of the document a from-scratch ingest of base + appends would build —
/// the same pipeline consing the same events — so query results and a
/// later compaction agree byte-for-byte. Each record is replayed under
/// its own `FLAG_DROP_UNREPRESENTABLE`.
fn merge_pending(base: VecDoc, pending: &[&Record]) -> Result<VecDoc> {
    let root_name = root_tag(&base.skeleton, base.root)?;
    let mut pipeline = crate::builder::resume(base)?;
    for record in pending {
        let drop_unrepresentable = record.flags & FLAG_DROP_UNREPRESENTABLE != 0;
        splice(
            &mut pipeline,
            &root_name,
            &record.body,
            drop_unrepresentable,
        )
        .map_err(|e| CoreError::Corrupt(format!("WAL record {}: {e}", record.seq)))?;
    }
    pipeline.end()?;
    Ok(pipeline.finish()?)
}

/// Feeds one appended document into `pipeline`, whose root element
/// (named `root_name`) is open: the document must be UTF-8, well-formed,
/// rooted at `root_name` with no attributes, and representable under
/// `drop_unrepresentable`; its root's children become the open root's
/// next children. Prolog and epilog misc is ignored, as in an ingest.
fn splice(
    pipeline: &mut Pipeline<VecDoc>,
    root_name: &str,
    bytes: &[u8],
    drop_unrepresentable: bool,
) -> Result<()> {
    std::str::from_utf8(bytes)
        .map_err(|_| CoreError::Unsupported("appended document is not UTF-8".into()))?;
    pipeline.set_options(PipelineOptions {
        drop_unrepresentable,
    });
    // Depth inside the appended document; 0 = prolog/epilog, 1 = its root.
    let mut depth = 0usize;
    let mut events = Events::new(bytes);
    while let Some(event) = events.next_ref()? {
        match (depth, event) {
            (0, EventRef::Start(name)) => {
                if name != root_name {
                    return Err(CoreError::Unsupported(format!(
                        "appended document root `{name}` does not match store root `{root_name}`"
                    )));
                }
                depth = 1;
            }
            (0, _) => {}
            (1, EventRef::Attr { .. }) => {
                return Err(CoreError::Unsupported(
                    "appended document root must not carry attributes".into(),
                ));
            }
            (1, EventRef::End(_)) => depth = 0,
            (_, event) => {
                match event {
                    EventRef::Start(_) => depth += 1,
                    EventRef::End(_) => depth -= 1,
                    _ => {}
                }
                pipeline.feed(event)?;
            }
        }
    }
    Ok(())
}

/// Synthesizes the catalog of a merged (overlay) document: untouched
/// vectors keep their on-disk row, extended vectors re-count with
/// `version` 0, and WAL-only paths get file-less rows (extending the
/// catalog in place for schema evolution under appends).
fn overlay_catalog(base: &Catalog, doc: &VecDoc) -> Catalog {
    let by_path: HashMap<&str, &CatalogEntry> =
        base.vectors.iter().map(|e| (e.path.as_str(), e)).collect();
    let vectors = doc
        .vectors()
        .iter()
        .map(|v| match by_path.get(v.path.as_str()) {
            Some(e) if e.count == v.values.len() as u64 => (*e).clone(),
            Some(e) => CatalogEntry {
                path: v.path.clone(),
                file: e.file.clone(),
                count: v.values.len() as u64,
                data_bytes: v.values.value_bytes(),
                version: 0,
            },
            None => CatalogEntry {
                path: v.path.clone(),
                file: String::new(),
                count: v.values.len() as u64,
                data_bytes: v.values.value_bytes(),
                version: 0,
            },
        })
        .collect();
    Catalog {
        vectors,
        node_count: doc.node_count(),
        text_bytes: doc.text_bytes(),
    }
}

/// Best-effort load of the persisted structural index. Absent, damaged,
/// or stale (`matches` fails) files all mean "rebuild from the
/// skeleton"; a broken `.vxpi` is never an open failure, mirroring how
/// `.vec` salvage degrades instead of refusing.
fn load_structural(base: &Path, doc: &VecDoc) -> Option<vx_skeleton::StructIndex> {
    let bytes = fs::read(base.join("index.vxpi")).ok()?;
    let index = vx_skeleton::read_index(&bytes).ok()?;
    index.matches(&doc.skeleton, doc.root?).then_some(index)
}

/// Removes crash leftovers before a strict open: orphaned temp files
/// from interrupted atomic writes, the streaming-ingest spill file, and
/// storage superseded by the `CURRENT` manifest (old generations, stale
/// flat files). Generations *newer* than `CURRENT` are left alone — an
/// in-flight compaction owns them. Best-effort: cleanup failures never
/// fail the open.
fn cleanup_stale(layout: &StoreLayout) -> Vec<String> {
    fn remove_file(cleaned: &mut Vec<String>, path: PathBuf) {
        if path.is_file() && fs::remove_file(&path).is_ok() {
            cleaned.push(
                path.file_name()
                    .unwrap_or_default()
                    .to_string_lossy()
                    .into_owned(),
            );
        }
    }
    let mut cleaned = Vec::new();
    remove_file(&mut cleaned, layout.dir.join("catalog.json.tmp"));
    remove_file(&mut cleaned, layout.dir.join("CURRENT.tmp"));
    remove_file(&mut cleaned, layout.dir.join(".ingest.spill"));
    if layout.generation > 0 {
        remove_file(&mut cleaned, layout.base().join("catalog.json.tmp"));
        // Flat files and older generations are superseded storage: a
        // crash between the manifest swap and compaction's cleanup
        // leaves them behind.
        for name in ["skeleton.vxsk", "index.vxpi", "catalog.json"] {
            remove_file(&mut cleaned, layout.dir.join(name));
        }
        if let Ok(entries) = fs::read_dir(&layout.dir) {
            for entry in entries.filter_map(|e| e.ok()) {
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.ends_with(".vec") {
                    remove_file(&mut cleaned, layout.dir.join(&name));
                } else if let Some(number) = name
                    .strip_prefix("gen-")
                    .and_then(|s| s.parse::<u32>().ok())
                {
                    if number < layout.generation && fs::remove_dir_all(entry.path()).is_ok() {
                        cleaned.push(name);
                    }
                }
            }
        }
    }
    if !cleaned.is_empty() && vx_obs::log_enabled() {
        vx_obs::event(
            "store.salvage_cleanup",
            &[
                ("dir", vx_obs::Value::Str(&layout.dir.display().to_string())),
                ("removed", vx_obs::Value::U64(cleaned.len() as u64)),
                ("names", vx_obs::Value::Str(&cleaned.join(","))),
            ],
        );
    }
    cleaned
}

/// Deletes a superseded flat (generation-0) store's files from the top
/// level of `dir` — called after the `CURRENT` swap made `gen-0001`
/// authoritative.
fn remove_flat_files(dir: &Path) -> std::io::Result<()> {
    for name in ["skeleton.vxsk", "index.vxpi", "catalog.json"] {
        let _ = fs::remove_file(dir.join(name));
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".vec") {
            let _ = fs::remove_file(entry.path());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reconstruct::reconstruct;
    use crate::vectorize::vectorize;

    const BASE: &str = "<lib><book><title>T1</title><author>A</author></book></lib>";
    const ADD1: &str = "<lib><book><title>T2</title><author>B</author></book></lib>";
    const ADD2: &str = "<lib><book><title>T3</title><year>2005</year></book></lib>";
    /// A subtree identical to the base's book (consed to the same node),
    /// a new tag name, and a new attribute path.
    const ADD3: &str = "<lib><book><title>T4</title><author>C</author></book>\
                        <shelf><book isbn=\"9\"><title>T5</title></book></shelf></lib>";

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vx-append-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn save_fresh(dir: &Path, xml: &str) {
        let doc = vx_xml::parse(xml).unwrap();
        Store::save(dir, &vectorize(&doc).unwrap(), Compaction::None).unwrap();
    }

    /// The document a from-scratch ingest of base + appends would see.
    fn combined(parts: &[&str]) -> vx_xml::Document {
        let mut dom = vx_xml::parse(parts[0]).unwrap();
        for part in &parts[1..] {
            let extra = vx_xml::parse(part).unwrap();
            dom.root.children.extend(extra.root.children);
        }
        dom
    }

    fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_file())
            .map(|e| {
                (
                    e.file_name().to_string_lossy().into_owned(),
                    fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn append_then_open_serves_the_overlay() {
        let dir = temp_dir("overlay");
        save_fresh(&dir, BASE);
        let report =
            Store::append_batch(&dir, &[ADD1.into(), ADD2.into()], &AppendOptions::default())
                .unwrap();
        assert_eq!((report.docs, report.first_seq, report.last_seq), (2, 1, 2));

        let open = Store::open_report(&dir).unwrap();
        assert_eq!(open.generation, 0);
        assert_eq!(open.wal.pending_docs, 2);
        assert_eq!(open.wal.applied_seq, 2);
        assert!(open.replay_secs > 0.0, "replay is timed");
        assert_eq!(
            reconstruct(&open.doc).unwrap().root,
            combined(&[BASE, ADD1, ADD2]).root
        );
        // Extended vector keeps its file name but re-counts; the path
        // introduced only by ADD2 gets a file-less entry.
        let title = open
            .catalog
            .vectors
            .iter()
            .find(|e| e.path.ends_with("title"))
            .unwrap();
        assert_eq!((title.count, title.file.as_str()), (3, "v000000.vec"));
        let year = open
            .catalog
            .vectors
            .iter()
            .find(|e| e.path.ends_with("year"))
            .unwrap();
        assert_eq!((year.count, year.file.as_str()), (1, ""));
        // The on-disk base is untouched.
        assert_eq!(open.base_catalog.vectors.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_matches_fresh_ingest_byte_for_byte() {
        let dir = temp_dir("compact");
        save_fresh(&dir, BASE);
        Store::append_batch(&dir, &[ADD1.into()], &AppendOptions::default()).unwrap();
        Store::append_batch(&dir, &[ADD2.into(), ADD3.into()], &AppendOptions::default()).unwrap();
        // Replay conses into the base arena: still no duplicate node,
        // and the served document counts only the reachable DAG.
        let dom = combined(&[BASE, ADD1, ADD2, ADD3]);
        let fresh_doc = vectorize(&dom).unwrap();
        let open = Store::open_report(&dir).unwrap();
        assert_eq!(open.doc.skeleton.duplicate_nodes(), 0);
        assert_eq!(open.doc.vectors(), fresh_doc.vectors());
        assert_eq!(open.catalog.node_count, fresh_doc.node_count());
        let root = open.doc.root.unwrap();
        assert_eq!(
            open.doc.skeleton.dag_size(root),
            fresh_doc.skeleton.dag_size(fresh_doc.root.unwrap())
        );
        let report = Store::compact(&dir, Compaction::None).unwrap();
        assert!(report.compacted);
        assert_eq!(report.generation, 1);
        assert_eq!(report.records_applied, 3);

        // gen-0001 must be byte-identical to a from-scratch save of the
        // combined document.
        let fresh = temp_dir("compact-fresh");
        Store::save(&fresh, &fresh_doc, Compaction::None).unwrap();
        assert_eq!(dir_bytes(&report.gen_dir), dir_bytes(&fresh));

        // The flat files are gone, the WAL is purged, and a reopen sees
        // the same document with nothing pending.
        assert!(!dir.join("catalog.json").exists());
        let open = Store::open_report(&dir).unwrap();
        assert_eq!(open.generation, 1);
        assert_eq!(open.wal.pending_records, 0);
        assert_eq!(open.replay_secs, 0.0, "nothing pending, nothing replayed");
        assert_eq!(reconstruct(&open.doc).unwrap().root, dom.root);

        // Appending after compaction keeps sequences monotonic and a
        // second compaction advances the generation.
        Store::append_batch(&dir, &[ADD1.into()], &AppendOptions::default()).unwrap();
        let open = Store::open_report(&dir).unwrap();
        assert_eq!(open.wal.pending_records, 1);
        assert_eq!(open.wal.applied_seq, 4);
        let report = Store::compact(&dir, Compaction::None).unwrap();
        assert_eq!(report.generation, 2);
        assert!(!dir.join(generation_dir_name(1)).exists());
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&fresh);
    }

    #[test]
    fn compact_without_pending_records_is_a_noop() {
        let dir = temp_dir("noop");
        save_fresh(&dir, BASE);
        let report = Store::compact(&dir, Compaction::None).unwrap();
        assert!(!report.compacted);
        assert_eq!(report.generation, 0);
        assert!(dir.join("catalog.json").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_validates_before_journaling() {
        let dir = temp_dir("validate");
        save_fresh(&dir, BASE);
        for bad in [
            "<shelf><book/></shelf>",                // wrong root tag
            "<lib edition=\"2\"><book/></lib>",      // root attributes
            "<lib><book><!-- note --></book></lib>", // unrepresentable, strict
            "<lib><book>",                           // malformed
        ] {
            assert!(
                Store::append_batch(&dir, &[bad.into()], &AppendOptions::default()).is_err(),
                "append accepted {bad:?}"
            );
        }
        // Nothing was journaled by the failures.
        let open = Store::open_report(&dir).unwrap();
        assert_eq!(open.wal.pending_records, 0);
        // drop_unrepresentable makes the comment case acceptable, and the
        // flag round-trips through replay.
        Store::append_batch(
            &dir,
            &["<lib><book><!-- note --><title>T4</title></book></lib>".into()],
            &AppendOptions {
                drop_unrepresentable: true,
                ..Default::default()
            },
        )
        .unwrap();
        // A strict record after it: each record replays under its own
        // flag, to the document a fresh ingest of the parts builds.
        Store::append_batch(&dir, &[ADD1.into()], &AppendOptions::default()).unwrap();
        let open = Store::open_report(&dir).unwrap();
        assert_eq!(open.wal.pending_docs, 2);
        let dropped = "<lib><book><title>T4</title></book></lib>";
        let dom = combined(&[BASE, dropped, ADD1]);
        assert_eq!(reconstruct(&open.doc).unwrap().root, dom.root);
        assert_eq!(open.doc.vectors(), vectorize(&dom).unwrap().vectors());

        // The flags are not pooled: a strict record holding a comment
        // fails replay even next to a record that drops them. (Append
        // never journals one; write it to the WAL directly.)
        let wal = vx_wal::Wal::with_sync(&dir, SyncMode::Off);
        let strict = "<lib><book><!-- note --></book></lib>";
        wal.append(1, &[(KIND_APPEND_DOC, 0, strict.as_bytes())])
            .unwrap();
        let err = Store::open_report(&dir).unwrap_err().to_string();
        assert!(err.contains("WAL record 3"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_cleans_stale_temp_files() {
        let dir = temp_dir("stale");
        save_fresh(&dir, BASE);
        fs::write(dir.join("catalog.json.tmp"), b"{").unwrap();
        fs::write(dir.join("CURRENT.tmp"), b"{").unwrap();
        fs::write(dir.join(".ingest.spill"), b"junk").unwrap();
        let open = Store::open_report(&dir).unwrap();
        let mut cleaned = open.cleaned.clone();
        cleaned.sort();
        assert_eq!(
            cleaned,
            [".ingest.spill", "CURRENT.tmp", "catalog.json.tmp"]
        );
        assert!(!dir.join("catalog.json.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_cleans_superseded_flat_files_after_generation_swap() {
        let dir = temp_dir("swap");
        save_fresh(&dir, BASE);
        Store::append_batch(&dir, &[ADD1.into()], &AppendOptions::default()).unwrap();
        Store::compact(&dir, Compaction::None).unwrap();
        // Simulate a crash that left flat files behind: recreate them.
        fs::write(dir.join("catalog.json"), b"{}").unwrap();
        fs::write(dir.join("skeleton.vxsk"), b"junk").unwrap();
        fs::write(dir.join("v000000.vec"), b"junk").unwrap();
        let open = Store::open_report(&dir).unwrap();
        assert!(open.cleaned.contains(&"catalog.json".to_string()));
        assert!(!dir.join("v000000.vec").exists());
        assert_eq!(
            reconstruct(&open.doc).unwrap().root,
            combined(&[BASE, ADD1]).root
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_purges_applied_wal_segments_left_by_a_crashed_compaction() {
        let dir = temp_dir("purge-on-open");
        save_fresh(&dir, BASE);
        Store::append_batch(&dir, &[ADD1.into()], &AppendOptions::default()).unwrap();
        Store::compact(&dir, Compaction::None).unwrap();
        // Simulate a crash between the CURRENT swap and the purge: put
        // a segment holding only already-applied records (seq 1 <=
        // wal_applied) back into wal/.
        let wal = vx_wal::Wal::with_sync(&dir, SyncMode::Off);
        wal.append(1, &[(KIND_APPEND_DOC, 0, ADD1.as_bytes())])
            .unwrap();

        // Open drops the applied segment instead of rescanning it on
        // every open forever; answers are unaffected.
        let open = Store::open_report(&dir).unwrap();
        assert_eq!(open.wal.pending_records, 0);
        assert_eq!(open.wal.segments, 0, "applied segment must be purged");
        assert!(open.cleaned.iter().any(|c| c.starts_with("wal:")));
        assert_eq!(fs::read_dir(wal.dir()).unwrap().count(), 0);
        assert_eq!(
            reconstruct(&open.doc).unwrap().root,
            combined(&[BASE, ADD1]).root
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn current_manifest_round_trips_and_rejects_damage() {
        let dir = temp_dir("manifest");
        fs::create_dir_all(&dir).unwrap();
        write_current_atomic(&dir, 3, 17, SyncMode::Off).unwrap();
        let layout = resolve_layout(&dir).unwrap();
        assert_eq!((layout.generation, layout.wal_applied), (3, 17));
        assert_eq!(layout.base(), dir.join("gen-0003"));
        fs::write(dir.join(CURRENT_FILE), b"{\"generation\": \"gen-zero\"}").unwrap();
        assert!(resolve_layout(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
