//! Differential suite for the streaming ingest pipeline (PR 3 tentpole).
//!
//! The contract under test: for any document and any options,
//! `Store::ingest_stream` (event pipeline, no DOM, spill-to-disk vectors)
//! produces a store directory **byte-identical** to `parse` → `vectorize`
//! → `Store::save`. Every test here builds both and compares the full
//! file sets: `skeleton.vxsk`, every `v*.vec`, and `catalog.json`.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use xmlvec::core::{
    reconstruct, vectorize_with, Compaction, IngestOptions, Store, VectorizeOptions,
};
use xmlvec::data::{medline, skyserver, Rng};
use xmlvec::xml::{parse, write_document, Document, Element, Node, WriteOptions};

fn temp_base(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vx-ingest-diff-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every file in a store directory, by name.
fn store_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().into_string().unwrap();
        files.insert(name, fs::read(entry.path()).unwrap());
    }
    files
}

/// Builds the store both ways from the same XML text and asserts the
/// directories are byte-identical. Returns the streaming report.
fn assert_byte_identical(
    base: &Path,
    label: &str,
    xml: &str,
    compaction: Compaction,
    ingest: &IngestOptions,
) -> xmlvec::core::IngestReport {
    let dom_dir = base.join(format!("{label}-dom"));
    let stream_dir = base.join(format!("{label}-stream"));

    let doc = parse(xml).unwrap_or_else(|e| panic!("{label}: parse: {e}"));
    let options = VectorizeOptions {
        drop_unrepresentable: ingest.drop_unrepresentable,
    };
    let vec_doc =
        vectorize_with(&doc, &options).unwrap_or_else(|e| panic!("{label}: vectorize: {e}"));
    Store::save(&dom_dir, &vec_doc, compaction).unwrap_or_else(|e| panic!("{label}: save: {e}"));

    let report = Store::ingest_stream(&stream_dir, xml.as_bytes(), ingest)
        .unwrap_or_else(|e| panic!("{label}: ingest_stream: {e}"));

    assert!(
        !stream_dir.join(".ingest.spill").exists(),
        "{label}: spill file must be removed after ingest"
    );
    let dom_files = store_files(&dom_dir);
    let stream_files = store_files(&stream_dir);
    assert_eq!(
        dom_files.keys().collect::<Vec<_>>(),
        stream_files.keys().collect::<Vec<_>>(),
        "{label}: file sets differ"
    );
    for (name, bytes) in &dom_files {
        assert_eq!(
            bytes, &stream_files[name],
            "{label}: `{name}` differs between DOM and streaming ingest"
        );
    }
    report
}

fn both_ways(base: &Path, label: &str, xml: &str, compaction: Compaction) {
    let ingest = IngestOptions {
        compaction,
        ..IngestOptions::default()
    };
    assert_byte_identical(base, label, xml, compaction, &ingest);
}

#[test]
fn generated_corpora_are_byte_identical() {
    let base = temp_base("corpora");
    let opts = WriteOptions::compact();
    for (name, doc) in [
        ("ml-small", medline(11, 40)),
        ("ml-medium", medline(12, 300)),
        ("ss-small", skyserver(21, 60)),
        ("ss-medium", skyserver(22, 400)),
    ] {
        let xml = write_document(&doc, &opts);
        for (compaction, sub) in [(Compaction::None, "plain"), (Compaction::Auto, "auto")] {
            both_ways(&base, &format!("{name}-{sub}"), &xml, compaction);
        }
    }
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn edge_case_documents_are_byte_identical() {
    let base = temp_base("edge");
    let cases: &[(&str, &str)] = &[
        ("empty-root", "<a/>"),
        (
            "attrs",
            r#"<r><e id="1" k="x">v</e><e id="2" k="x">w</e></r>"#,
        ),
        ("empty-cdata", "<a><![CDATA[]]></a>"),
        ("cdata-split", "<a>t<![CDATA[c]]>u</a>"),
        ("mixed", "<p>one <b>two</b> three <b>four</b></p>"),
        ("entities", "<a>&lt;tag&gt; &amp; &#x2713;</a>"),
        ("unicode", "<données été=\"öß\">héllo ✓ — 漢字</données>"),
        ("runs", "<t><r>1</r><r>2</r><r>3</r><r>4</r><r>5</r></t>"),
        ("deep", "<a><b><c><d><e><f>leaf</f></e></d></c></b></a>"),
        (
            "decl-doctype",
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><!DOCTYPE r><r><v>1</v></r>",
        ),
        (
            "prolog-misc",
            "<!-- pre --><?style x?><r>v</r><!-- post -->",
        ),
        ("whitespace", "<a>\n  <b> padded </b>\n  <b>\t</b>\n</a>"),
        (
            "empty-values",
            r#"<r><e k="">text</e><e k="">text</e><e k=""></e></r>"#,
        ),
    ];
    for (name, xml) in cases {
        for (compaction, sub) in [(Compaction::None, "plain"), (Compaction::Auto, "auto")] {
            both_ways(&base, &format!("{name}-{sub}"), xml, compaction);
        }
    }
    let _ = fs::remove_dir_all(&base);
}

const TAGS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];
const WORDS: [&str; 5] = ["x", "yy", "zzz", "", "mixed content"];

/// Same shape as `tests/prop_roundtrip.rs`: repetition-biased random
/// attributed elements, so runs, sharing, and `@`-paths all trigger.
fn random_element(rng: &mut Rng, depth: u32) -> Element {
    let mut element = Element::new(TAGS[rng.below(TAGS.len() as u64) as usize]);
    if rng.below(4) == 0 {
        element = element.with_attr("id", format!("{}", rng.below(100)));
    }
    if rng.below(8) == 0 {
        element = element.with_attr("k", WORDS[rng.below(5) as usize]);
    }
    let children = rng.below(5);
    for _ in 0..children {
        if rng.below(2) == 0 && !element.children.is_empty() {
            let last = element.children.last().unwrap().clone();
            element.children.push(last);
            continue;
        }
        match rng.below(3) {
            0 if depth > 0 => {
                let child = random_element(rng, depth - 1);
                element.children.push(child.into_node());
            }
            1 => element
                .children
                .push(Node::Text(WORDS[rng.below(5) as usize].to_string())),
            _ => {
                let child = Element::new(TAGS[rng.below(6) as usize])
                    .with_text(format!("{}", rng.below(10)));
                element.children.push(child.into_node());
            }
        }
    }
    element
}

#[test]
fn random_attributed_documents_are_byte_identical() {
    let base = temp_base("random");
    let opts = WriteOptions::compact();
    for seed in 0..60u64 {
        let mut rng = Rng::new(seed);
        let doc = Document::from_root(random_element(&mut rng, 4));
        let xml = write_document(&doc, &opts);
        let compaction = if seed % 2 == 0 {
            Compaction::None
        } else {
            Compaction::Auto
        };
        both_ways(&base, &format!("seed-{seed}"), &xml, compaction);
    }
    let _ = fs::remove_dir_all(&base);
}

/// Size-parameterized large-document smoke: a corpus big enough that the
/// per-path tail pages overflow into the spill file, each page written
/// once and read back when its vector is finished. `VX_SMOKE_ROWS` scales
/// it up in CI.
#[test]
fn large_document_page_spill_smoke() {
    let rows: usize = std::env::var("VX_SMOKE_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1500);
    let base = temp_base("spill");
    let xml = write_document(&skyserver(77, rows), &WriteOptions::compact());
    let ingest = IngestOptions {
        compaction: Compaction::Auto,
        drop_unrepresentable: false,
    };
    let report = assert_byte_identical(&base, "spill", &xml, Compaction::Auto, &ingest);
    assert!(
        report.spill_pages > 0,
        "{rows} rows must exceed the one-page-per-path tail budget \
         (spilled {} pages)",
        report.spill_pages
    );
    assert_eq!(
        report.pager.evictions, report.spill_pages,
        "every spilled page is written once"
    );
    assert!(
        report.pager.misses >= report.spill_pages,
        "finishing vectors must read every spilled page back \
         ({} pages, {} read back)",
        report.spill_pages,
        report.pager.misses
    );

    // The streamed store is a real store: it opens strictly and
    // reconstructs to the original document.
    let (loaded, catalog) = Store::open(&base.join("spill-stream")).unwrap();
    assert_eq!(catalog.vectors.len(), 7);
    assert_eq!(catalog.vectors[0].count, rows as u64);
    let back = reconstruct(&loaded).unwrap();
    assert_eq!(write_document(&back, &WriteOptions::compact()), xml);
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn strict_mode_matches_dom_on_comments_and_pis() {
    let base = temp_base("strict");
    // Strict: both paths must reject, with the same message.
    let xml = "<a><b>ok</b><!-- nope --></a>";
    let doc = parse(xml).unwrap();
    let dom_err = vectorize_with(&doc, &VectorizeOptions::default()).unwrap_err();
    let stream_err = Store::ingest_stream(
        &base.join("strict"),
        xml.as_bytes(),
        &IngestOptions::default(),
    )
    .unwrap_err();
    assert_eq!(dom_err.to_string(), stream_err.to_string());

    // Dropping mode: identical stores.
    let ingest = IngestOptions {
        drop_unrepresentable: true,
        ..IngestOptions::default()
    };
    assert_byte_identical(
        &base,
        "drop",
        "<a><b>ok</b><!-- gone --><?pi also gone?><b>ok</b></a>",
        Compaction::None,
        &ingest,
    );
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn failed_ingest_leaves_no_catalog_and_no_spill() {
    let base = temp_base("atomic");
    // 1 500 SkyServer rows spill pages (`large_document_page_spill_smoke`),
    // so the second input fails with pages already in the spill file.
    let rows = write_document(&skyserver(77, 1500), &WriteOptions::compact());
    let cut = rows[..rows.len() - 200].rfind('<').unwrap() + 2;
    let inputs = [("fresh", "<a><b>1</b><c>"), ("spilled", &rows[..cut])];
    for (name, xml) in inputs {
        let dir = base.join(name);
        // Malformed XML: the pipeline dies mid-stream.
        let err = Store::ingest_stream(&dir, xml.as_bytes(), &IngestOptions::default());
        assert!(err.is_err(), "{name}: truncated input must fail");
        assert!(
            !dir.join("catalog.json").exists(),
            "{name}: failed ingest must not publish a catalog"
        );
        assert!(
            !dir.join(".ingest.spill").exists(),
            "{name}: failed ingest must clean up its spill file"
        );
    }
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn failed_reingest_preserves_the_previous_store() {
    let base = temp_base("reingest");
    let dir = base.join("store");
    Store::ingest_stream(
        &dir,
        "<r><v>1</v><v>2</v></r>".as_bytes(),
        &IngestOptions::default(),
    )
    .unwrap();
    let before = store_files(&dir);

    // A re-ingest that fails during parsing must leave the directory
    // exactly as it was: old catalog, old skeleton, old vectors.
    assert!(
        Store::ingest_stream(&dir, "<r><v>3</v".as_bytes(), &IngestOptions::default()).is_err()
    );
    assert_eq!(before, store_files(&dir));
    let (loaded, _) = Store::open(&dir).unwrap();
    let back = reconstruct(&loaded).unwrap();
    assert_eq!(
        write_document(&back, &WriteOptions::compact()),
        "<r><v>1</v><v>2</v></r>"
    );
    let _ = fs::remove_dir_all(&base);
}
