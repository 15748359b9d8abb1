//! Pins the bytes a store ingest writes. The four corpus generators at
//! the benchmark's smoke scales (XK 40, TB 40, ML 120, SS 120; seed 42)
//! and a set of edge-case documents are ingested with
//! `Store::ingest_stream` under both compaction policies, and every
//! store file's name and bytes are folded into one FNV-1a-64 hash per
//! input and policy.
//!
//! The constants were computed with the byte-at-a-time tokenizer and
//! the string-keyed pipeline that the borrowing tokenizer and path-id
//! pipeline replaced. They are the independent differential for those
//! rewrites: `tests/ingest_stream.rs` compares two routes that both run
//! the same tokenizer.

use std::fs;
use std::path::{Path, PathBuf};
use xmlvec::core::{Compaction, IngestOptions, Store};
use xmlvec::xml::{write_document, WriteOptions};

/// Edge cases: empty elements, attributes, CDATA, mixed content,
/// references, non-ASCII names and values, runs, depth, declarations,
/// prolog/epilog misc, whitespace and empty values.
const EDGE_CASES: &[(&str, &str)] = &[
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

/// `(input, Compaction::None hash, Compaction::Auto hash)`.
const EXPECTED: &[(&str, u64, u64)] = &[
    ("xk", 0x28ddafaf3cb73ff0, 0x38a93c7a5a0849fc),
    ("tb", 0x3615b733c967ab8a, 0xd761d0f756b5b8df),
    ("ml", 0x1d5fc70463b03bda, 0x4bd626c3dae4e760),
    ("ss", 0xa6e037ff15c089cc, 0x4b183081ca66f07d),
    ("edge", 0x22d0ec891b842a37, 0xf019b1259c8f940e),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn field(&mut self, bytes: &[u8]) {
        self.bytes(&(bytes.len() as u64).to_le_bytes());
        self.bytes(bytes);
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vx-store-bytes-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Ingests `xml` into a fresh directory and folds every file's name and
/// bytes, in name order, into `fnv`.
fn fold_store(fnv: &mut Fnv, dir: &Path, xml: &str, compaction: Compaction) {
    let options = IngestOptions {
        compaction,
        ..IngestOptions::default()
    };
    Store::ingest_stream(dir, xml.as_bytes(), &options)
        .unwrap_or_else(|e| panic!("{}: ingest: {e}", dir.display()));
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    for name in names {
        fnv.field(name.as_bytes());
        fnv.field(&fs::read(dir.join(&name)).unwrap());
    }
    fs::remove_dir_all(dir).unwrap();
}

fn inputs(name: &str) -> Vec<String> {
    let doc = match name {
        "xk" => xmlvec::data::xmark(42, 40),
        "tb" => xmlvec::data::treebank(42, 40),
        "ml" => xmlvec::data::medline(42, 120),
        "ss" => xmlvec::data::skyserver(42, 120),
        "edge" => return EDGE_CASES.iter().map(|(_, xml)| xml.to_string()).collect(),
        other => panic!("unknown input {other}"),
    };
    vec![write_document(&doc, &WriteOptions::compact())]
}

fn store_hash(name: &str, compaction: Compaction) -> u64 {
    let mut fnv = Fnv::new();
    for (i, xml) in inputs(name).iter().enumerate() {
        let dir = temp_dir(&format!("{name}-{i}-{compaction:?}"));
        fold_store(&mut fnv, &dir, xml, compaction);
    }
    fnv.0
}

#[test]
fn ingested_store_bytes_match_the_pinned_hashes() {
    let mut actual = Vec::new();
    for &(name, _, _) in EXPECTED {
        let plain = store_hash(name, Compaction::None);
        let auto = store_hash(name, Compaction::Auto);
        eprintln!("(\"{name}\", {plain:#018x}, {auto:#018x}),");
        actual.push((name, plain, auto));
    }
    assert_eq!(
        actual, EXPECTED,
        "store bytes differ from the pinned hashes"
    );
}
