//! Streaming store construction: `Store::ingest_stream`.
//!
//! The reader is consumed through `vx-xml`'s pull parser and `vx-ingest`'s
//! spilling pipeline ([`vx_ingest::run`]) — no [`vx_xml::Document`]
//! ever exists. It is the same pipeline [`crate::vectorize`] feeds from a
//! DOM, so the store directory is **byte-identical** to
//! `Store::save(dir, &vectorize_with(..)?, ..)` for the same input and
//! options (`tests/ingest_stream.rs` at the workspace root pins this
//! differentially; both write their `.vec` files through
//! [`vx_vector::SpillVector`]).
//!
//! Memory model: compressed skeleton DAG + open-element stack + one 8 KiB
//! tail page per distinct path. Full pages are appended to a temporary
//! `.ingest.spill` file inside the store directory (removed on completion
//! or failure) and read back once each when the vectors are written;
//! nothing is cached. The catalog is written atomically
//! last, so a crash mid-ingest can never leave a store whose catalog
//! points at half-written vectors.

use crate::store::{write_catalog_atomic, write_vector, Catalog, Compaction, Store};
use crate::{CoreError, Result};
use std::fs;
use std::io::Read;
use std::path::Path;
use vx_ingest::{IngestOutput, PipelineOptions};
use vx_skeleton::format as skformat;
use vx_vector::{Spill, SpillStats};
use vx_xml::Events;

/// Streaming-ingest policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestOptions {
    /// Vector compaction on save, as in [`Store::save`].
    pub compaction: Compaction,
    /// Drop comments/PIs inside the tree instead of erroring, as in
    /// [`vx_ingest::PipelineOptions::drop_unrepresentable`].
    pub drop_unrepresentable: bool,
}

/// What a streaming ingest produced, plus how the spill file was used.
#[derive(Debug, Clone)]
pub struct IngestReport {
    pub catalog: Catalog,
    /// Pages the spill file grew to (0 when everything fit in tail pages).
    pub spill_pages: u64,
    /// Spill-file page traffic: `evictions` pages written, `misses`
    /// pages read back, `hits` always 0 (see [`SpillStats`]). The
    /// benchmark reads it under this name.
    pub pager: SpillStats,
    /// Event-pipeline tallies (elements, values, events consumed).
    pub stats: vx_ingest::PipelineStats,
    /// Seconds in the parse/cons/spill phase (reader → `IngestOutput`).
    pub pipeline_secs: f64,
    /// Seconds in the write phase (skeleton + vectors + catalog to disk).
    pub write_secs: f64,
}

impl From<vx_ingest::IngestError> for CoreError {
    fn from(e: vx_ingest::IngestError) -> Self {
        match e {
            vx_ingest::IngestError::Xml(e) => CoreError::Xml(e),
            vx_ingest::IngestError::Storage(e) => CoreError::Storage(e),
            vx_ingest::IngestError::Skeleton(e) => CoreError::Skeleton(e),
            vx_ingest::IngestError::Vector(e) => CoreError::Vector(e),
            vx_ingest::IngestError::Unsupported(m) => CoreError::Unsupported(m),
        }
    }
}

impl Store {
    /// Ingests XML from `reader` straight into a store directory without
    /// building a DOM. Output is byte-identical to
    /// `Store::save(dir, &vectorize_with(&parse(..)?, ..)?, ..)`: both
    /// run the same pipeline over the same events.
    pub fn ingest_stream<R: Read>(
        dir: &Path,
        reader: R,
        options: &IngestOptions,
    ) -> Result<IngestReport> {
        fs::create_dir_all(dir)?;
        let spill = Spill::create(&dir.join(".ingest.spill"))?;
        let pipeline_options = PipelineOptions {
            drop_unrepresentable: options.drop_unrepresentable,
        };
        // Only `Compaction::Auto` weighs the dictionary form.
        let dictionary = options.compaction == Compaction::Auto;
        let timer = vx_obs::Timer::start();
        let output = vx_ingest::run(Events::new(reader), spill, pipeline_options, dictionary)?;
        let pipeline_secs = timer.secs();
        write_output(dir, output, options, pipeline_secs)
    }
}

fn write_output(
    dir: &Path,
    output: IngestOutput,
    options: &IngestOptions,
    pipeline_secs: f64,
) -> Result<IngestReport> {
    let timer = vx_obs::Timer::start();
    let IngestOutput {
        skeleton,
        root,
        vectors,
        mut spill,
        stats,
    } = output;
    let skeleton_bytes = skformat::write(&skeleton, root);
    fs::write(dir.join("skeleton.vxsk"), &skeleton_bytes)?;
    // Built from the file bytes so streaming and DOM ingests stay
    // byte-identical (see `store::write_structural_index`).
    crate::store::write_structural_index(dir, &skeleton_bytes)?;

    let mut entries = Vec::with_capacity(vectors.len());
    let mut text_bytes = 0u64;
    for (i, (path, encoder)) in vectors.into_iter().enumerate() {
        let (entry, stats) = write_vector(dir, i, path, encoder, &mut spill, options.compaction)?;
        text_bytes += stats.value_bytes;
        entries.push(entry);
    }

    let catalog = Catalog {
        vectors: entries,
        node_count: skeleton.expanded_size(root),
        text_bytes,
    };
    // Vectors and skeleton are durable; only now does the catalog appear,
    // atomically, making the store visible as a whole.
    write_catalog_atomic(dir, &catalog)?;
    let report = IngestReport {
        catalog,
        spill_pages: spill.page_count(),
        pager: spill.stats(),
        stats,
        pipeline_secs,
        write_secs: timer.secs(),
    };
    drop(spill); // removes the spill file
    if vx_obs::log_enabled() {
        vx_obs::event(
            "core.ingest",
            &[
                ("dir", vx_obs::Value::Str(&dir.display().to_string())),
                ("pipeline_secs", vx_obs::Value::F64(report.pipeline_secs)),
                ("write_secs", vx_obs::Value::F64(report.write_secs)),
                ("events", vx_obs::Value::U64(report.stats.events)),
                ("elements", vx_obs::Value::U64(report.stats.elements)),
                ("values", vx_obs::Value::U64(report.stats.values())),
                (
                    "vectors",
                    vx_obs::Value::U64(report.catalog.vectors.len() as u64),
                ),
                ("spill_pages", vx_obs::Value::U64(report.spill_pages)),
                ("spill_pages_read", vx_obs::Value::U64(report.pager.misses)),
            ],
        );
    }
    Ok(report)
}
