//! Golden-store integration tests.
//!
//! `bench_results/stores/` holds stores produced by an earlier build of
//! this system. They are damaged in a known way: a byte-level sanitizer
//! dropped every byte ≥ 0x80 that did not form a valid 2-byte UTF-8
//! sequence, truncating multi-byte varints (and `ml-*` lost their
//! `v000006.vec` outright). These tests pin down that the current readers
//! (a) still understand the formats, (b) salvage everything the damage
//! left intact, and (c) can rebuild a well-formed document from what
//! remains. Everything here is strictly read-only on the checked-in
//! artifacts.

use std::path::{Path, PathBuf};
use xmlvec::core::Store;
use xmlvec::vector::Vector;

fn store_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("bench_results/stores")
        .join(name)
}

#[test]
fn ml_4000_catalog_and_vectors_agree() {
    let salvage = Store::open_salvage(&store_dir("ml-4000")).unwrap();

    // Catalog facts (plain JSON, undamaged).
    assert_eq!(salvage.catalog.vectors.len(), 11);
    assert_eq!(salvage.catalog.node_count, 168_129);
    assert_eq!(salvage.catalog.text_bytes, 1_620_783);
    assert_eq!(
        salvage.catalog.vectors[0].path,
        "MedlineCitationSet/MedlineCitation/PMID"
    );

    // The seed capture lost the AbstractText vector; nothing else.
    assert_eq!(salvage.missing_files, vec!["v000006.vec".to_string()]);

    // Every surviving vector either decodes to exactly the catalog count
    // or is explicitly reported damaged — never silently short.
    for entry in &salvage.catalog.vectors {
        if salvage.missing_files.contains(&entry.file) {
            continue;
        }
        let damaged = salvage.damaged_files.iter().any(|(f, _)| f == &entry.file);
        let loaded = salvage.doc.vector(&entry.path).unwrap().values.len() as u64;
        assert!(
            (damaged && loaded == 0) || loaded == entry.count,
            "{}: loaded {loaded}, catalog {}, damaged {damaged}",
            entry.file,
            entry.count
        );
    }

    // Short-record vectors survived the sanitizer wholesale: PMIDs are
    // 8-digit strings, languages are 3-letter codes.
    let pmids = &salvage
        .doc
        .vector("MedlineCitationSet/MedlineCitation/PMID")
        .unwrap()
        .values;
    assert_eq!(pmids.len(), 4000);
    assert!(pmids
        .iter()
        .all(|v| v.len() == 8 && v.iter().all(u8::is_ascii_digit)));
    let languages = &salvage
        .doc
        .vector("MedlineCitationSet/MedlineCitation/Language")
        .unwrap()
        .values;
    assert!(languages.iter().all(|v| v.len() == 3));
}

#[test]
fn ml_4000_skeleton_decodes_and_reconstructs() {
    let salvage = Store::open_salvage(&store_dir("ml-4000")).unwrap();

    // The lenient skeleton reader must recover the full name table even
    // though the root record's edge list is truncated.
    let names = salvage.doc.skeleton.names();
    for expected in [
        "MedlineCitationSet",
        "MedlineCitation",
        "PMID",
        "Language",
        "Article",
        "ArticleTitle",
        "AuthorList",
        "Author",
        "LastName",
        "Initials",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "missing name {expected:?} in {names:?}"
        );
    }
    assert!(!salvage.skeleton_report.is_clean());

    // The chosen root must be the document element.
    let root = salvage.doc.root.unwrap();
    let root_name = salvage.doc.skeleton.node(root).name.unwrap();
    assert_eq!(salvage.doc.skeleton.name(root_name), "MedlineCitationSet");

    // Reconstruction of the salvaged (S, V) must yield well-formed XML:
    // it re-parses, and its root is the MedLine document element.
    let (document, report) = xmlvec::core::reconstruct_salvage(&salvage.doc).unwrap();
    assert_eq!(document.root.name, "MedlineCitationSet");
    assert!(document.root.child("MedlineCitation").is_some());
    let text = xmlvec::xml::write_document(&document, &xmlvec::xml::WriteOptions::compact());
    let reparsed = xmlvec::xml::parse(&text).unwrap();
    assert_eq!(reparsed.root.name, "MedlineCitationSet");
    // The store is damaged, so salvage is lossy — but it must say so.
    let _ = report;
}

#[test]
fn ml_4000_text_paths_are_all_cataloged() {
    let salvage = Store::open_salvage(&store_dir("ml-4000")).unwrap();
    let root = salvage.doc.root.unwrap();
    let skeleton = &salvage.doc.skeleton;
    let index = xmlvec::skeleton::PathIndex::new(skeleton, root);
    let catalog_paths: Vec<&str> = salvage
        .catalog
        .vectors
        .iter()
        .map(|v| v.path.as_str())
        .collect();
    for (path, _count) in index.text_paths(skeleton) {
        let joined = path
            .iter()
            .map(|&id| skeleton.name(id))
            .collect::<Vec<_>>()
            .join("/");
        assert!(
            catalog_paths.contains(&joined.as_str()),
            "skeleton path {joined} not in catalog"
        );
    }
}

#[test]
fn ml_20000_spot_check() {
    let salvage = Store::open_salvage(&store_dir("ml-20000")).unwrap();
    assert_eq!(salvage.catalog.node_count, 839_479);
    assert_eq!(salvage.missing_files, vec!["v000006.vec".to_string()]);
    let pmids = &salvage
        .doc
        .vector("MedlineCitationSet/MedlineCitation/PMID")
        .unwrap()
        .values;
    assert_eq!(pmids.len(), 20_000);
}

#[test]
fn ss_1500_compact_dictionary_vector_decodes() {
    // v000008.vec (`…/row/type`) is a version-2 dictionary vector; its
    // dictionary entries and 1-byte codes are all < 0x80, so the data
    // survived sanitization completely (only the trailer is damaged —
    // hence the salvage reader, with the count from the catalog).
    let path = store_dir("ss-1500-compact").join("v000008.vec");
    let (vector, stats) = Vector::open_salvage(&path, 1500).unwrap();
    assert_eq!(vector.len(), 1500);
    assert_eq!(stats.version, 2);
    let mut distinct: Vec<Vec<u8>> = Vec::new();
    for value in vector.iter() {
        assert_eq!(value.len(), 1);
        assert!(value[0].is_ascii_digit());
        if !distinct.contains(&value.to_vec()) {
            distinct.push(value.to_vec());
        }
    }
    assert_eq!(distinct.len(), 7);
}

/// Pre-v9 stores predate the `index.vxpi` structural-index section.
/// The checked-in golden stores must carry no such file (pinning what
/// "pre-v9" means), still open through the salvage path, and a modern
/// store whose `index.vxpi` is removed must open all the same — the
/// handle rebuilds the structural index from the skeleton and answers
/// queries identically.
#[test]
fn stores_without_a_structural_index_still_open() {
    use xmlvec::core::{vectorize, Compaction, StoreHandle};
    use xmlvec::{Query, RunOptions};

    for name in ["ml-4000", "ml-20000", "ss-1500-compact"] {
        assert!(
            !store_dir(name).join("index.vxpi").exists(),
            "{name} is a pre-v9 golden store and must not grow an index.vxpi"
        );
        Store::open_salvage(&store_dir(name)).unwrap();
    }

    let dir = std::env::temp_dir().join(format!("vx-golden-vxpi-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let doc = xmlvec::data::medline(3, 40);
    Store::save(&dir, &vectorize(&doc).unwrap(), Compaction::Auto).unwrap();
    assert!(
        dir.join("index.vxpi").exists(),
        "v9 saves persist the index"
    );

    let src = r#"for $c in doc("ml")/MedlineCitationSet/MedlineCitation return $c/PMID"#;
    let query = Query::new(src).unwrap();
    let with_index = StoreHandle::open(&dir).unwrap();
    assert!(with_index.structural_loaded());
    let expected = query
        .run_with(&with_index, &RunOptions::default())
        .unwrap()
        .output
        .strings();
    assert_eq!(expected.len(), 40);

    std::fs::remove_file(dir.join("index.vxpi")).unwrap();
    let rebuilt = StoreHandle::open(&dir).unwrap();
    assert!(
        !rebuilt.structural_loaded(),
        "no persisted section — must fall back to rebuild-on-open"
    );
    let got = query
        .run_with(&rebuilt, &RunOptions::default())
        .unwrap()
        .output
        .strings();
    assert_eq!(got, expected);
    let _ = std::fs::remove_dir_all(&dir);
}
