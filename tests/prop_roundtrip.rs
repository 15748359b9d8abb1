//! Property-style round-trip tests.
//!
//! The build environment is fully offline, so the `proptest` crate is
//! unavailable; this is a hand-rolled equivalent — a deterministic
//! seeded generator of random documents plus explicit laws checked over
//! a few hundred cases. Failures print the seed, which reproduces the
//! exact document.

use xmlvec::core::{reconstruct, vectorize, write_xml, Compaction, Store};
use xmlvec::data::Rng;
use xmlvec::xml::{write_document, Document, Element, Node, WriteOptions};
use xmlvec::QueryOutput;

const TAGS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];
const WORDS: [&str; 5] = ["x", "yy", "zzz", "", "mixed content"];

/// A random element of bounded depth/width. Shapes are biased towards
/// repetition so hash-consing and run-length edges actually trigger.
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
        // Half the time, repeat the previous child to exercise runs.
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

fn random_document(seed: u64) -> Document {
    let mut rng = Rng::new(seed);
    Document::from_root(random_element(&mut rng, 4))
}

/// Law: `reconstruct(vectorize(T)) == T` for every comment-free tree.
#[test]
fn vectorize_reconstruct_is_identity() {
    for seed in 0..200 {
        let doc = random_document(seed);
        let vec_doc = vectorize(&doc).unwrap_or_else(|e| panic!("seed {seed}: vectorize: {e}"));
        let back =
            reconstruct(&vec_doc).unwrap_or_else(|e| panic!("seed {seed}: reconstruct: {e}"));
        assert_eq!(
            doc.root, back.root,
            "seed {seed}: round trip changed the tree"
        );
        // Each attribute becomes a synthetic `@name` element plus a text
        // marker in the skeleton; the DOM count excludes attributes.
        assert_eq!(
            vec_doc.node_count(),
            doc.root.node_count() + 2 * attr_count(&doc.root),
            "seed {seed}: node accounting"
        );
    }
}

fn attr_count(element: &Element) -> u64 {
    element.attributes.len() as u64 + element.child_elements().map(attr_count).sum::<u64>()
}

/// Law: the skeleton arena never holds two identical nodes, and interning
/// the same subtree twice yields the same `NodeId`.
#[test]
fn hash_consing_is_canonical() {
    for seed in 0..200 {
        let doc = random_document(seed);
        let vec_doc = vectorize(&doc).unwrap();
        assert_eq!(
            vec_doc.skeleton.duplicate_nodes(),
            0,
            "seed {seed}: duplicate DAG nodes"
        );
    }

    // Two copies of one subtree under different parents share a node.
    let doc = xmlvec::xml::parse("<r><p><s><t>v</t></s></p><q><s><t>v</t></s></q></r>").unwrap();
    let vec_doc = vectorize(&doc).unwrap();
    let root = vec_doc.root.unwrap();
    let skeleton = &vec_doc.skeleton;
    let kids: Vec<_> = skeleton.node(root).edges.iter().map(|e| e.child).collect();
    assert_eq!(kids.len(), 2);
    let s_under_p = skeleton.node(kids[0]).edges[0].child;
    let s_under_q = skeleton.node(kids[1]).edges[0].child;
    assert_eq!(
        s_under_p, s_under_q,
        "identical subtrees must share one node"
    );
}

/// Law: `reconstruct(vectorize(T)) == T` for every corpus generator at
/// several seeds and sizes — XMark and TreeBank exercise shapes the
/// random documents above cannot (id-reference attributes, a recursive
/// grammar with thousands of distinct paths).
#[test]
fn corpus_generators_round_trip() {
    let opts = WriteOptions::compact();
    for (name, generate) in GENERATORS {
        for seed in [0, 1, 7, 42, 1_000_003] {
            let doc = generate(seed, 30);
            let vec_doc =
                vectorize(&doc).unwrap_or_else(|e| panic!("{name} seed {seed}: vectorize: {e}"));
            let back = reconstruct(&vec_doc)
                .unwrap_or_else(|e| panic!("{name} seed {seed}: reconstruct: {e}"));
            assert_eq!(doc.root, back.root, "{name} seed {seed}: tree changed");
            // The serialized forms agree byte for byte, so a store built
            // from the writer's output reconstructs to identical text —
            // the property the CLI round-trip tests rely on.
            assert_eq!(
                write_document(&doc, &opts),
                write_document(&back, &opts),
                "{name} seed {seed}: serialization changed"
            );
        }
    }
}

type Gen = fn(u64, usize) -> Document;

const GENERATORS: [(&str, Gen); 4] = [
    ("xmark", |s, n| xmlvec::data::xmark(s, n)),
    ("treebank", |s, n| xmlvec::data::treebank(s, n)),
    ("medline", |s, n| xmlvec::data::medline(s, n)),
    ("skyserver", |s, n| xmlvec::data::skyserver(s, n)),
];

/// `vectorize(doc)` streamed as XML, with no DOM in between.
fn streamed(doc: &Document, label: &str) -> String {
    let vec_doc = vectorize(doc).unwrap_or_else(|e| panic!("{label}: vectorize: {e}"));
    let mut out = Vec::new();
    write_xml(&vec_doc, &mut out).unwrap_or_else(|e| panic!("{label}: write_xml: {e}"));
    String::from_utf8(out).unwrap_or_else(|e| panic!("{label}: not UTF-8: {e}"))
}

/// Law: the streaming write of `vectorize(T)` is byte-identical to
/// `write_document(T)`, for random documents and every corpus generator.
#[test]
fn streaming_write_of_vectorized_is_write_document() {
    let opts = WriteOptions::compact();
    for seed in 0..200 {
        let doc = random_document(seed);
        let label = format!("seed {seed}");
        assert_eq!(
            streamed(&doc, &label),
            write_document(&doc, &opts),
            "{label}"
        );
    }
    for (name, generate) in GENERATORS {
        for seed in [0, 7, 42] {
            let doc = generate(seed, 30);
            let label = format!("{name} seed {seed}");
            assert_eq!(
                streamed(&doc, &label),
                write_document(&doc, &opts),
                "{label}"
            );
        }
    }
}

/// The writer's edge cases hold on the streaming path: an element with
/// only attributes self-closes, an empty text keeps the element open, an
/// empty value list is `<results/>` and an empty value `<value></value>`.
#[test]
fn streaming_write_edge_cases() {
    let opts = WriteOptions::compact();
    for (root, expected) in [
        (
            Element::new("r").with_child(Element::new("a").with_attr("x", "1")),
            r#"<r><a x="1"/></r>"#,
        ),
        (
            Element::new("r").with_child(Element::new("a").with_text("")),
            "<r><a></a></r>",
        ),
        (
            Element::new("r")
                .with_attr("k", "<\"&>")
                .with_text("a<b>&c\""),
            r#"<r k="&lt;&quot;&amp;&gt;">a&lt;b&gt;&amp;c"</r>"#,
        ),
    ] {
        let doc = Document::from_root(root);
        assert_eq!(write_document(&doc, &opts), expected);
        assert_eq!(streamed(&doc, expected), expected);
    }
    assert_eq!(
        QueryOutput::Values(Vec::new()).to_xml().unwrap(),
        "<results/>"
    );
    assert_eq!(
        QueryOutput::Values(vec![Vec::new(), b"v".to_vec()])
            .to_xml()
            .unwrap(),
        "<results><value></value><value>v</value></results>"
    );
}

/// Law: generated corpora survive the full persist/reload cycle under
/// both compaction policies (TreeBank makes this a many-small-vectors
/// stress test; XMark a many-attributes one).
#[test]
fn corpus_store_round_trip() {
    let base = std::env::temp_dir().join(format!("vx-prop-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    for (name, doc) in [
        ("xmark", xmlvec::data::xmark(13, 24)),
        ("treebank", xmlvec::data::treebank(13, 40)),
    ] {
        let vec_doc = vectorize(&doc).unwrap();
        for (mode, sub) in [(Compaction::None, "plain"), (Compaction::Auto, "auto")] {
            let dir = base.join(format!("{name}-{sub}"));
            Store::save(&dir, &vec_doc, mode).unwrap_or_else(|e| panic!("{name} {sub}: save: {e}"));
            let (loaded, _catalog) =
                Store::open(&dir).unwrap_or_else(|e| panic!("{name} {sub}: open: {e}"));
            let back = reconstruct(&loaded).unwrap();
            assert_eq!(doc.root, back.root, "{name} {sub}: store round trip");
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Law: persisting and reloading a store is lossless, for both plain and
/// dictionary vector encodings.
#[test]
fn store_round_trip_is_lossless() {
    let base = std::env::temp_dir().join(format!("vx-prop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    for seed in 0..25 {
        let doc = random_document(seed);
        let vec_doc = vectorize(&doc).unwrap();
        for (mode, sub) in [(Compaction::None, "plain"), (Compaction::Auto, "auto")] {
            let dir = base.join(format!("{seed}-{sub}"));
            Store::save(&dir, &vec_doc, mode)
                .unwrap_or_else(|e| panic!("seed {seed} {sub}: save: {e}"));
            let (loaded, _catalog) =
                Store::open(&dir).unwrap_or_else(|e| panic!("seed {seed} {sub}: open: {e}"));
            let back = reconstruct(&loaded).unwrap();
            assert_eq!(doc.root, back.root, "seed {seed} {sub}: store round trip");
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}
