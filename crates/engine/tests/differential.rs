//! Differential suite: `reduce` (vectorized) vs `naive_eval` (DOM
//! nested loops) over the XQ[*,//] fragment — wildcards, descendant
//! steps, qualifiers, joins (including two-collection joins), and
//! element construction. Value outputs compare byte-for-byte; document
//! outputs compare by serialized XML after reconstructing the engine's
//! vectorized result.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use vx_core::{reconstruct, vectorize, AppendOptions, Compaction, Store, StoreHandle, VecDoc};
use vx_engine::{naive_eval, EngineError, NaiveOutput, Query, QueryOutput, RunOptions};
use vx_xml::{parse, write_document, Document, WriteOptions};

/// Documents saved as stores with `Compaction::Auto` — join-key vectors
/// of at least 64 records get version-3 sorted runs, which in-memory
/// documents never have — and reopened as handles. The stores live in a
/// fresh temporary directory, removed on drop.
struct Stores {
    dir: PathBuf,
    handles: Vec<StoreHandle>,
}

impl Stores {
    fn save(docs: &[(&str, &VecDoc)]) -> Stores {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vx-diff-stores-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let handles = docs
            .iter()
            .map(|&(name, doc)| {
                Store::save(&dir.join(name), doc, Compaction::Auto).unwrap();
                StoreHandle::open(&dir.join(name)).unwrap()
            })
            .collect();
        Stores { dir, handles }
    }

    /// Runs `query` over the stores with persistent value indexes on and
    /// off (off sorts every join side at query time) and demands
    /// `expected` byte-for-byte from both.
    fn assert_agree(&self, query: &Query, expected: &QueryOutput, src: &str) {
        for use_indexes in [true, false] {
            let options = RunOptions {
                use_indexes,
                ..RunOptions::default()
            };
            let got = query.run_with(&self.handles, &options).expect(src).output;
            let label = format!("store use_indexes={use_indexes}");
            assert_outputs_identical(expected, &got, src, &label);
        }
    }
}

impl Drop for Stores {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn xml_of(doc: &VecDoc) -> String {
    write_document(&reconstruct(doc).unwrap(), &WriteOptions::compact())
}

/// Byte-level equality between two engine outputs (documents compare by
/// serialized XML after reconstruction).
fn assert_outputs_identical(a: &QueryOutput, b: &QueryOutput, src: &str, label: &str) {
    match (a, b) {
        (QueryOutput::Values(x), QueryOutput::Values(y)) => {
            assert_eq!(x, y, "{label} changed values for {src}");
        }
        (QueryOutput::Document(x), QueryOutput::Document(y)) => {
            assert_eq!(
                xml_of(x),
                xml_of(y),
                "{label} changed the document for {src}"
            );
        }
        _ => panic!("{label} changed the output shape for {src}"),
    }
}

/// A small hand-written corpus with attributes and nesting — the shapes
/// the generated MedLine/SkyServer corpora don't exercise.
const SHOP: &str = "<shop>\
  <item sku=\"a1\" lang=\"en\"><name>pen</name><price>2</price><tag>office</tag><tag>blue</tag></item>\
  <item sku=\"b2\" lang=\"de\"><name>ink</name><price>5</price><tag>office</tag></item>\
  <bundle><item sku=\"c3\" lang=\"en\"><name>set</name><price>5</price></item></bundle>\
  <item sku=\"d4\" lang=\"en\"><name>pad</name><price>2</price><tag>paper</tag></item>\
</shop>";

struct Corpus {
    docs: Vec<(String, Document, VecDoc)>,
    stores: Stores,
}

impl Corpus {
    fn new() -> Corpus {
        let mut docs = Vec::new();
        for (name, dom) in [
            ("ml".to_string(), vx_data::medline(7, 60)),
            ("ml2".to_string(), vx_data::medline(99, 40)),
            ("sky".to_string(), vx_data::skyserver(3, 80)),
            ("shop".to_string(), parse(SHOP).unwrap()),
            ("xk".to_string(), vx_data::xmark(11, 48)),
            ("tb".to_string(), vx_data::treebank(5, 60)),
        ] {
            let vec = vectorize(&dom).unwrap();
            docs.push((name, dom, vec));
        }
        let vecs: Vec<(&str, &VecDoc)> = docs.iter().map(|(n, _, v)| (n.as_str(), v)).collect();
        let stores = Stores::save(&vecs);
        Corpus { docs, stores }
    }

    fn doms(&self) -> Vec<(&str, &Document)> {
        self.docs.iter().map(|(n, d, _)| (n.as_str(), d)).collect()
    }

    fn vecs(&self) -> Vec<(&str, &VecDoc)> {
        self.docs.iter().map(|(n, _, v)| (n.as_str(), v)).collect()
    }

    /// Runs one query in memory against the oracle, then over the saved
    /// stores with value indexes on and off, demanding the in-memory
    /// answer byte-for-byte. Returns the engine output for additional
    /// shape assertions.
    fn check(&self, src: &str) -> QueryOutput {
        let parsed = vx_xquery::parse_query(src).expect(src);
        let expected = naive_eval(&parsed, &self.doms()).expect(src);
        let query = Query::new(src).expect(src);
        let vecs = self.vecs();
        let got = query
            .run_with(&vecs, &RunOptions::default())
            .expect(src)
            .output;
        match (&got, &expected) {
            (QueryOutput::Values(g), NaiveOutput::Values(e)) => {
                assert_eq!(g, e, "value mismatch for {src}");
            }
            (QueryOutput::Document(g), NaiveOutput::Document(e)) => {
                let opts = WriteOptions::compact();
                let engine_xml = write_document(&reconstruct(g).expect(src), &opts);
                let oracle_xml = write_document(e, &opts);
                assert_eq!(engine_xml, oracle_xml, "document mismatch for {src}");
            }
            _ => panic!("output shape mismatch for {src}"),
        }
        self.stores.assert_agree(&query, &got, src);
        got
    }

    fn values(&self, src: &str) -> Vec<String> {
        match self.check(src) {
            QueryOutput::Values(v) => v
                .into_iter()
                .map(|b| String::from_utf8(b).unwrap())
                .collect(),
            QueryOutput::Document(_) => panic!("expected values for {src}"),
        }
    }
}

#[test]
fn chains_selections_and_projections() {
    let c = Corpus::new();
    // Plain chain.
    let all = c.values(r#"for $c in doc("ml")/MedlineCitationSet/MedlineCitation return $c/PMID"#);
    assert_eq!(all.len(), 60);
    assert_eq!(all[0], "10000000");
    // Literal selection.
    let eng = c.values(
        r#"for $c in doc("ml")/MedlineCitationSet/MedlineCitation
           where $c/Language = "ENG"
           return $c/PMID"#,
    );
    assert!(!eng.is_empty() && eng.len() < 60);
    // Existential selection.
    c.check(
        r#"for $c in doc("ml")/MedlineCitationSet/MedlineCitation
           where exists($c/Article/Abstract)
           return $c/PMID"#,
    );
    // Qualifier sugar desugars to the same thing.
    let sugared = c.values(
        r#"for $c in doc("ml")/MedlineCitationSet/MedlineCitation[Language = "SPA"]
           return $c/PMID"#,
    );
    let explicit = c.values(
        r#"for $c in doc("ml")/MedlineCitationSet/MedlineCitation
           where $c/Language = "SPA"
           return $c/PMID"#,
    );
    assert_eq!(sugared, explicit);
    // Conjunction of selections.
    c.check(
        r#"for $c in doc("ml")/MedlineCitationSet/MedlineCitation
           where $c/Language = "ENG" and exists($c/Article/Abstract)
           return $c/Article/ArticleTitle"#,
    );
}

#[test]
fn wildcard_steps() {
    let c = Corpus::new();
    // `*` over a homogeneous child set.
    let via_star = c.values(r#"for $c in doc("ml")/MedlineCitationSet/* return $c/PMID"#);
    let via_name =
        c.values(r#"for $c in doc("ml")/MedlineCitationSet/MedlineCitation return $c/PMID"#);
    assert_eq!(via_star, via_name);
    // `*` in a reference path: direct texts of every child element.
    c.check(r#"for $p in doc("sky")/PhotoObjAll/PhotoObj return $p/*"#);
    // `*` never matches attribute pseudo-children.
    let texts = c.values(r#"for $i in doc("shop")/shop/item return $i/*"#);
    assert!(texts.contains(&"pen".to_string()));
    assert!(!texts.contains(&"a1".to_string()), "`*` must skip @sku");
    // Wildcard mid-pattern.
    c.check(r#"for $a in doc("ml")/MedlineCitationSet/*/Article/*/Author return $a/LastName"#);
}

#[test]
fn descendant_steps() {
    let c = Corpus::new();
    let deep = c.values(r#"for $a in doc("ml")//Author return $a/LastName"#);
    assert!(!deep.is_empty());
    // Binding and reference both descendant.
    c.check(r#"for $c in doc("ml")//MedlineCitation return $c//LastName"#);
    // Descendant finds nested elements the child axis misses.
    let items = c.values(r#"for $i in doc("shop")//item return $i/@sku"#);
    assert_eq!(items, ["a1", "b2", "c3", "d4"]);
    let shallow = c.values(r#"for $i in doc("shop")/shop/item return $i/@sku"#);
    assert_eq!(shallow, ["a1", "b2", "d4"]);
    // `//*` wildcard descent.
    c.check(r#"for $x in doc("shop")/shop//* return $x/name"#);
    // Descendant below a bound variable.
    c.check(r#"for $c in doc("ml")//MedlineCitation, $a in $c//Author where $c/Language = "FRE" return $a/LastName"#);
}

#[test]
fn attribute_axes() {
    let c = Corpus::new();
    let skus = c.values(r#"for $i in doc("shop")//item where $i/@lang = "en" return $i/@sku"#);
    assert_eq!(skus, ["a1", "c3", "d4"]);
    // Attribute-valued join key.
    c.check(
        r#"for $a in doc("shop")//item, $b in doc("shop")//item
           where $a/price = $b/price
           return $b/@sku"#,
    );
    // Descendant attribute step.
    c.check(r#"for $s in doc("shop")/shop return $s//@sku"#);
}

#[test]
fn equality_joins() {
    let c = Corpus::new();
    // Self join on publication year, selection on one side first.
    c.check(
        r#"for $a in doc("ml")//MedlineCitation, $b in doc("ml")//MedlineCitation
           where $a/Language = "FRE" and $a/PubData/Year = $b/PubData/Year
           return $b/PMID"#,
    );
    // Two-collection join: different corpora, shared year vocabulary.
    let joined = c.values(
        r#"for $a in doc("ml")/MedlineCitationSet/MedlineCitation,
               $b in doc("ml2")/MedlineCitationSet/MedlineCitation
           where $a/PubData/Year = $b/PubData/Year
           return $b/PMID"#,
    );
    assert!(!joined.is_empty(), "seeded corpora must share some years");
    // Three-way binding with a join and a selection.
    c.check(
        r#"for $a in doc("ml")//MedlineCitation,
               $b in doc("ml2")//MedlineCitation,
               $x in $a/Article/AuthorList/Author
           where $a/PubData/Year = $b/PubData/Year and $b/Language = "GER"
           return $x/LastName"#,
    );
    // Join with no shared values: empty, on both sides.
    let empty = c.values(
        r#"for $p in doc("sky")//PhotoObj, $m in doc("ml")//MedlineCitation
           where $p/objID = $m/PMID
           return $p/ra"#,
    );
    assert!(empty.is_empty());
    // Same-variable path pair (degenerate join).
    c.check(r#"for $p in doc("sky")/PhotoObjAll/PhotoObj where $p/g = $p/r return $p/objID"#);
    // Document-rooted condition path (synthesized anchor variable).
    c.check(
        r#"for $c in doc("ml")//MedlineCitation
           where doc("ml")/MedlineCitationSet/MedlineCitation/Language = "ENG"
           return $c/PMID"#,
    );
}

#[test]
fn element_construction_is_vectorized() {
    let c = Corpus::new();
    // Projection into a constructed element.
    let out = c.check(
        r#"for $c in doc("ml")//MedlineCitation
           where $c/Language = "FRE"
           return <cite>{$c/PMID}{$c/PubData/Year}</cite>"#,
    );
    let QueryOutput::Document(doc) = out else {
        panic!("constructor must produce a document");
    };
    // The result is a VecDoc: vectors named by result paths, no DOM.
    assert!(doc.vector("results/cite/PMID").is_some());
    assert!(doc.vector("results/cite/Year").is_some());

    // Deep element copies.
    c.check(
        r#"for $c in doc("ml")//MedlineCitation
           where $c/PubData/Year = "1999"
           return <r>{$c/Article}</r>"#,
    );
    // Copy of the bound element itself.
    c.check(r#"for $p in doc("sky")//PhotoObj where $p/type = "6" return <o>{$p}</o>"#);
    // Attribute copy attaches to the constructed element.
    c.check(r#"for $i in doc("shop")//item return <it>{$i/@sku}{$i/name}</it>"#);
    // Literal nested element plus descendant copy.
    c.check(
        r#"for $c in doc("ml")//MedlineCitation
           where $c/Language = "GER"
           return <r>{$c/PMID}<who>{$c//LastName}</who></r>"#,
    );
}

#[test]
fn nested_flwr_in_constructors() {
    let c = Corpus::new();
    // Nested loop over a child collection.
    c.check(
        r#"for $c in doc("ml")//MedlineCitation
           where $c/Language = "GER"
           return <r>{$c/PMID}<authors>{for $a in $c//Author return $a/LastName}</authors></r>"#,
    );
    // Correlated join inside a constructor block (outer variable in the
    // inner where clause).
    c.check(
        r#"for $a in doc("ml")//MedlineCitation
           where $a/Language = "ENG"
           return <m>{$a/PMID}{for $b in doc("ml2")//MedlineCitation
                               where $b/PubData/Year = $a/PubData/Year
                               return $b/PMID}</m>"#,
    );
    // Nested constructor inside a nested block.
    c.check(
        r#"for $i in doc("shop")/shop/item
           return <item>{$i/name}{for $t in $i/tag return <t>{$t}</t>}</item>"#,
    );
}

#[test]
fn xmark_reference_joins() {
    let c = Corpus::new();
    // The defining XMark query shape: equality joins through id-reference
    // attributes (person/@id against seller/@person and buyer/@person).
    let sellers = c.values(
        r#"for $p in doc("xk")/site/people/person,
               $o in doc("xk")/site/open_auctions/open_auction
           where $o/seller/@person = $p/@id
           return $p/name"#,
    );
    assert!(!sellers.is_empty(), "every auction has a generated seller");
    // Join plus a filter on the joined side.
    c.check(
        r#"for $p in doc("xk")/site/people/person,
               $a in doc("xk")/site/closed_auctions/closed_auction
           where $a/buyer/@person = $p/@id and $p/address/country = "United States"
           return $a/price"#,
    );
    // Wildcard over the region fan-out.
    let names = c.values(r#"for $i in doc("xk")/site/regions/*/item return $i/name"#);
    assert_eq!(names.len(), 48, "one name per generated item");
    // Descendant step across the whole site.
    c.check(r#"for $b in doc("xk")//bidder return $b/personref/@person"#);
}

#[test]
fn treebank_deep_recursion() {
    let c = Corpus::new();
    // `//` binding and `//` reference over the recursive grammar — the
    // vector-explosion case (TQ2's shape).
    let deep = c.values(r#"for $v in doc("tb")//VP return $v//NN"#);
    assert!(!deep.is_empty());
    // Nested `//NP` finds phrases at every recursion depth; the child
    // axis from the sentence root finds strictly fewer.
    let all_np = c.values(r#"for $n in doc("tb")//NP return $n/NN"#);
    let top_np = c.values(r#"for $s in doc("tb")/FILE/S return $s/NP/NN"#);
    assert!(all_np.len() > top_np.len(), "recursion must nest NPs");
    // A value join between descendant phrase sets (TQ3's shape).
    c.check(
        r#"for $a in doc("tb")//NP, $b in doc("tb")//PP
           where $a/NN = $b/NP/NN
           return $a/NN"#,
    );
}

#[test]
fn workload_queries_agree_with_oracle_and_are_nonempty() {
    // The 13 Table-2 queries run differentially over a small corpus
    // keyed by the bench dataset names; each must produce at least one
    // result so the table3 timings measure real work.
    let mut docs = Vec::new();
    for (name, dom) in [
        ("xk", vx_data::xmark(42, 120)),
        ("tb", vx_data::treebank(42, 160)),
        ("ml", vx_data::medline(42, 120)),
        ("ss", vx_data::skyserver(42, 160)),
    ] {
        let vec = vectorize(&dom).unwrap();
        docs.push((name, dom, vec));
    }
    let doms: Vec<(&str, &Document)> = docs.iter().map(|(n, d, _)| (*n, d)).collect();
    let vecs: Vec<(&str, &VecDoc)> = docs.iter().map(|(n, _, v)| (*n, v)).collect();
    let stores = Stores::save(&vecs);
    for spec in vx_data::workload() {
        let parsed = vx_xquery::parse_query(spec.xq).expect(spec.name);
        let expected = naive_eval(&parsed, &doms).expect(spec.name);
        let query = Query::new(spec.xq).expect(spec.name);
        let got = query
            .run_with(&vecs, &RunOptions::default())
            .expect(spec.name)
            .output;
        stores.assert_agree(&query, &got, spec.xq);
        let cardinality = match (&got, &expected) {
            (QueryOutput::Values(g), NaiveOutput::Values(e)) => {
                assert_eq!(g, e, "value mismatch for {}", spec.name);
                g.len()
            }
            (QueryOutput::Document(g), NaiveOutput::Document(e)) => {
                let opts = WriteOptions::compact();
                let engine_xml = write_document(&reconstruct(g).expect(spec.name), &opts);
                let oracle_xml = write_document(e, &opts);
                assert_eq!(
                    engine_xml, oracle_xml,
                    "document mismatch for {}",
                    spec.name
                );
                e.root.child_elements().count()
            }
            _ => panic!("output shape mismatch for {}", spec.name),
        };
        assert!(
            cardinality > 0,
            "{} returned no results at test scale",
            spec.name
        );
    }
}

#[test]
fn empty_results_agree() {
    let c = Corpus::new();
    let none = c.values(r#"for $c in doc("ml")//NoSuchTag return $c/PMID"#);
    assert!(none.is_empty());
    let out = c.check(r#"for $c in doc("ml")//NoSuchTag return <r>{$c/x}</r>"#);
    let QueryOutput::Document(doc) = out else {
        panic!("constructor must produce a document");
    };
    assert_eq!(
        write_document(&reconstruct(&doc).unwrap(), &WriteOptions::compact()),
        "<results/>"
    );
}

#[test]
fn unsupported_constructs_are_structured() {
    for (src, needle) in [
        (
            r#"for $x in doc("ml")//MedlineCitation return $x"#,
            "whole-element return",
        ),
        (
            r#"for $x in doc("ml")//MedlineCitation return doc("ml")/MedlineCitationSet"#,
            "document-rooted return",
        ),
        (
            r#"for $x in doc("ml")//MedlineCitation return <r>{$x/Article[Abstract]}</r>"#,
            "qualifier in constructor content",
        ),
        (
            r#"for $x in doc("ml")//MedlineCitation where $y/PMID = "1" return $x/PMID"#,
            "unbound variable",
        ),
    ] {
        match Query::new(src) {
            Err(EngineError::Unsupported { construct, span }) => {
                assert!(
                    construct.contains(needle),
                    "{src}: got {construct:?}, wanted {needle:?}"
                );
                assert!(span.is_some(), "{src}: span missing");
            }
            other => panic!("{src}: expected Unsupported, got {other:?}"),
        }
    }
}

#[test]
fn unknown_documents_are_reported() {
    let c = Corpus::new();
    let q = Query::new(r#"for $x in doc("nowhere")/a return $x/b"#).unwrap();
    match q.run_with(&c.vecs(), &RunOptions::default()) {
        Err(EngineError::UnknownDocument(name)) => assert_eq!(name, "nowhere"),
        other => panic!("expected UnknownDocument, got {other:?}"),
    }
}

/// The persistent-index path: save the corpora with `Compaction::Auto`
/// (join-key vectors get version-3 value indexes), reopen as handles,
/// and demand that SQ3's self-join and the XMark id-reference join give
/// the same bytes as the in-memory run, with indexes on and off, and
/// that explain reports the persistent runs the indexed run reads.
#[test]
fn store_backed_joins_agree_with_and_without_indexes() {
    // 200 rows: more distinct `objID`s than a dictionary vector holds,
    // so the key vector is saved with a version-3 sorted run.
    let ss = vectorize(&vx_data::skyserver(3, 200)).unwrap();
    let xk = vectorize(&vx_data::xmark(11, 48)).unwrap();
    let vecs: Vec<(&str, &VecDoc)> = vec![("ss", &ss), ("xk", &xk)];
    let stores = Stores::save(&vecs);
    let sq3 = r#"for $a in doc("ss")//PhotoObj, $b in doc("ss")//PhotoObj
           where $a/objID = $b/objID
           return $b/ra"#;
    for src in [
        // SQ3's shape: the large×large self-join behind the Table 3 cliff.
        sq3,
        // XMark id-reference join with a literal filter on the build side.
        r#"for $p in doc("xk")/site/people/person,
               $o in doc("xk")/site/open_auctions/open_auction
           where $o/seller/@person = $p/@id
           return $p/name"#,
        // Selective literal filter → index point lookup over the store.
        r#"for $p in doc("ss")/PhotoObjAll/PhotoObj
           where $p/type = "3"
           return $p/objID"#,
    ] {
        let query = Query::new(src).expect(src);
        let expected = query
            .run_with(&vecs, &RunOptions::default())
            .expect(src)
            .output;
        stores.assert_agree(&query, &expected, src);
    }
    let query = Query::new(sq3).unwrap();
    for (use_indexes, access) in [(true, "persistent-index"), (false, "query-sort")] {
        let options = RunOptions {
            use_indexes,
            ..RunOptions::default()
        };
        let plan = query.explain_with(&stores.handles, &options).unwrap();
        let rendered = plan.render();
        assert!(
            rendered.contains(&format!("access={access} ")),
            "use_indexes={use_indexes}: {rendered}"
        );
    }
    let in_memory = query.explain(&vecs).unwrap().render();
    assert!(in_memory.contains("access=query-sort "), "{in_memory}");

    // A pending WAL record extends `objID` and leaves `ra` alone: the
    // extended vector must drop its sorted run (it no longer covers the
    // appended value), the untouched one keeps serving its own.
    let ss_dir = stores.dir.join("ss");
    let extra = "<PhotoObjAll><PhotoObj><objID>587000000007</objID></PhotoObj></PhotoObjAll>";
    Store::append_batch(&ss_dir, &[extra.into()], &AppendOptions::default()).unwrap();
    let handle = StoreHandle::open(&ss_dir).unwrap();
    assert_eq!(handle.wal().pending_docs, 1);
    let mut combined = vx_data::skyserver(3, 200);
    combined
        .root
        .children
        .extend(parse(extra).unwrap().root.children);
    let src = r#"for $a in doc("ss")//PhotoObj, $b in doc("ss")//PhotoObj, $c in doc("ss")//PhotoObj
           where $a/objID = $b/objID and $b/ra = $c/ra
           return $a/objID"#;
    let NaiveOutput::Values(oracle) =
        naive_eval(&vx_xquery::parse_query(src).unwrap(), &[("ss", &combined)]).unwrap()
    else {
        panic!("expected values for {src}");
    };
    let query = Query::new(src).unwrap();
    for use_indexes in [true, false] {
        let options = RunOptions {
            use_indexes,
            ..RunOptions::default()
        };
        let got = query
            .run_with(std::slice::from_ref(&handle), &options)
            .unwrap()
            .output;
        assert!(
            matches!(&got, QueryOutput::Values(v) if *v == oracle),
            "use_indexes={use_indexes}"
        );
    }
    // The appended `objID` equals row 7's, so the extended edge has one
    // more tuple than the 200 diagonal ones.
    assert_eq!(oracle.len(), 201);
    let rendered = query
        .explain(std::slice::from_ref(&handle))
        .unwrap()
        .render();
    let access = |edge: &str| {
        let line = rendered
            .lines()
            .find(|l| l.contains(edge))
            .unwrap_or_else(|| panic!("no `{edge}` edge in {rendered}"));
        line.split("access=")
            .nth(1)
            .unwrap()
            .split(' ')
            .next()
            .unwrap()
            .to_string()
    };
    assert_eq!(access("$a/objID = $b/objID"), "query-sort", "{rendered}");
    assert_eq!(access("$b/ra = $c/ra"), "persistent-index", "{rendered}");
}

/// TQ3's shape: a value join whose `$b/NP/NN` reference spans several
/// vectors (one per `NP/NN` path below a `PP`).
const TQ3_SHAPED: &str = r#"for $a in doc("tb")//NP, $b in doc("tb")//PP
   where $a/NN = $b/NP/NN
   return $a/NN"#;

/// MQ2's shape: a self-join on a low-cardinality key behind a selective
/// probe-side filter.
const MQ2_SHAPED: &str = r#"for $a in doc("ml")//MedlineCitation,
       $b in doc("ml")//MedlineCitation
   where $a/Language = "FRE" and $a/PubData/Year = $b/PubData/Year
   return $b/PMID"#;

/// The join shapes that used to scan every build occurrence per probe:
/// TQ3's multi-vector reference and MQ2's `Year` key, which has no
/// sorted run (in memory there are none; in a store the vector is
/// dictionary-coded). In memory and over a store with value indexes on
/// and off, each must give the oracle's answer, and `bind` may examine at most
/// two candidates per probe occurrence and emitted tuple
/// (`enum.candidates`) — a count guard a per-probe scan cannot pass.
#[test]
fn multi_vector_and_unsorted_key_joins_stay_linear() {
    let c = Corpus::new();
    let vecs = c.vecs();
    for src in [TQ3_SHAPED, MQ2_SHAPED] {
        let expected = c.values(src);
        assert!(!expected.is_empty(), "degenerate corpus for {src}");
        let query = Query::new(src).expect(src);
        for use_indexes in [true, false] {
            let options = RunOptions {
                use_indexes,
                profile: true,
                ..RunOptions::default()
            };
            for (target, outcome) in [
                ("memory", query.run_with(&vecs, &options).expect(src)),
                (
                    "store",
                    query.run_with(&c.stores.handles, &options).expect(src),
                ),
            ] {
                let label = format!("use_indexes={use_indexes} over {target}");
                assert_eq!(outcome.output.strings(), expected, "{label}: {src}");
                let profile = outcome.profile.expect("profile requested");
                let probes = profile
                    .variables
                    .iter()
                    .find(|v| v.name == "a")
                    .expect("probe variable $a")
                    .occurrences;
                let tuples = profile.counters.get("tuples.emitted");
                let candidates = profile.counters.get("enum.candidates");
                assert!(
                    candidates <= 2 * (probes + tuples),
                    "{label}: {candidates} candidates for {probes} probes and {tuples} tuples: {src}"
                );
            }
        }
    }
}

/// Nested occurrences share vector positions: under `//S` with `S`
/// inside `S`, `$a//NN` reaches the inner `S`'s values from the outer
/// one too. The key vector has 200 distinct values, so the store saves
/// it with a version-3 sorted run, and both the join over persistent
/// runs and the indexed point lookup must credit every occurrence.
#[test]
fn nested_occurrences_sharing_values_agree_over_stores() {
    let mut xml = String::from("<r>");
    for i in 0..200 {
        xml.push_str(&format!("<S><S><NN>v{i:03}</NN></S></S>"));
    }
    xml.push_str("</r>");
    let dom = parse(&xml).unwrap();
    let vec = vectorize(&dom).unwrap();
    let stores = Stores::save(&[("d", &vec)]);
    for src in [
        r#"for $a in doc("d")//S, $b in doc("d")//S where $a//NN = $b//NN return $b//NN"#,
        r#"for $a in doc("d")//S where $a//NN = "v007" return $a//NN"#,
    ] {
        let parsed = vx_xquery::parse_query(src).expect(src);
        let NaiveOutput::Values(expected) = naive_eval(&parsed, &[("d", &dom)]).expect(src) else {
            panic!("values expected for {src}");
        };
        let query = Query::new(src).expect(src);
        let got = query
            .run_with(&vec, &RunOptions::default())
            .expect(src)
            .output;
        assert_outputs_identical(&QueryOutput::Values(expected), &got, src, "in memory");
        stores.assert_agree(&query, &got, src);
    }
    let plan = Query::new(
        r#"for $a in doc("d")//S, $b in doc("d")//S where $a//NN = $b//NN return $b//NN"#,
    )
    .unwrap()
    .explain(&stores.handles)
    .unwrap()
    .render();
    assert!(plan.contains("access=persistent-index "), "{plan}");
}

/// The four join shapes behind the workload's planned edges — SQ3's
/// self-join, XMark's id reference, TQ3's multi-vector key and MQ2's
/// low-cardinality key — each held to the oracle in memory and over
/// stores with value indexes on and off.
#[test]
fn workload_join_shapes_agree_in_memory_and_over_stores() {
    let c = Corpus::new();
    c.check(
        r#"for $a in doc("sky")//PhotoObj, $b in doc("sky")//PhotoObj
           where $a/objID = $b/objID
           return $b/ra"#,
    );
    c.check(
        r#"for $p in doc("xk")/site/people/person,
               $o in doc("xk")/site/open_auctions/open_auction
           where $o/seller/@person = $p/@id
           return $p/name"#,
    );
    c.check(TQ3_SHAPED);
    c.check(MQ2_SHAPED);
}

#[test]
fn query_handle_is_reusable_across_documents() {
    let c = Corpus::new();
    let q = Query::new(r#"for $c in doc("ml")/MedlineCitationSet/MedlineCitation return $c/PMID"#)
        .unwrap();
    // Same compiled query, two different stores (run() maps every doc
    // name onto the given document).
    let ml = &c.docs[0].2;
    let ml2 = &c.docs[1].2;
    let a = q.run_with(ml, &RunOptions::default()).unwrap().output;
    let b = q.run_with(ml2, &RunOptions::default()).unwrap().output;
    assert_eq!(a.strings().len(), 60);
    assert_eq!(b.strings().len(), 40);
}

/// A document whose element chain is `depth` levels deep: `FILE` over
/// nested `NP`s, each level carrying its own `NN` leaf. Past 64 levels
/// this exceeds the NFA's one-bit-per-step `u64` state width — the
/// *document* may recurse arbitrarily even though *patterns* are capped
/// at [`vx_skeleton::PathPattern::MAX_STEPS`] steps.
fn deep_doc(depth: usize) -> (Document, VecDoc) {
    let mut xml = String::from("<FILE>");
    for d in 0..depth {
        xml.push_str(&format!("<NP><NN>n{d}</NN>"));
    }
    xml.push_str("<CC>and</CC>");
    for _ in 0..depth {
        xml.push_str("</NP>");
    }
    xml.push_str("</FILE>");
    let dom = parse(&xml).unwrap();
    let vdoc = vectorize(&dom).unwrap();
    (dom, vdoc)
}

/// Deep `//` recursion well past the 64-bit state width, pinned against
/// the oracle in both structural-index and NFA-fallback matching modes
/// (machines spawn per element, so document depth must never alias
/// pattern state bits).
#[test]
fn documents_deeper_than_the_state_width_agree() {
    let (dom, vdoc) = deep_doc(70);
    let doms: Vec<(&str, &Document)> = vec![("deep", &dom)];
    let vecs: Vec<(&str, &VecDoc)> = vec![("deep", &vdoc)];
    for src in [
        r#"for $f in doc("deep")/FILE return $f//NP/NN"#,
        r#"for $n in doc("deep")//NP/NP/NP return $n/NN"#,
        r#"for $n in doc("deep")//NP where exists($n/NP/NN) return $n/NN"#,
        r#"for $f in doc("deep")//FILE return $f//CC"#,
        r#"for $n in doc("deep")//NP where $n/NN = "n69" return $n/CC"#,
    ] {
        let parsed = vx_xquery::parse_query(src).expect(src);
        let expected = match naive_eval(&parsed, &doms).expect(src) {
            NaiveOutput::Values(v) => v,
            NaiveOutput::Document(_) => panic!("expected values for {src}"),
        };
        assert!(!expected.is_empty(), "degenerate oracle result for {src}");
        let query = Query::new(src).expect(src);
        for struct_index in [true, false] {
            let options = RunOptions {
                struct_index,
                ..RunOptions::default()
            };
            match query.run_with(&vecs, &options).expect(src).output {
                QueryOutput::Values(got) => {
                    assert_eq!(got, expected, "{src} struct_index={struct_index}");
                }
                QueryOutput::Document(_) => panic!("expected values for {src}"),
            }
        }
    }
}

/// The NFA packs its live set into a `u64` — one bit per step plus the
/// accept bit. Patterns beyond that width must fail as a structured
/// `Unsupported`, not wrap the bitmask; patterns exactly at the width
/// still compile and answer correctly.
#[test]
fn patterns_past_the_state_width_are_rejected() {
    let (dom, vdoc) = deep_doc(70);
    // 1 (`FILE`) + 63 (`NP`) steps = 64 > MAX_STEPS.
    let over = format!(
        r#"for $x in doc("deep")/FILE{} return $x/NN"#,
        "/NP".repeat(63)
    );
    match Query::new(&over) {
        Err(EngineError::Unsupported { construct, span }) => {
            assert!(
                construct.contains("more than 63 steps"),
                "got {construct:?}"
            );
            assert!(span.is_some(), "span missing");
        }
        other => panic!("expected Unsupported for a 64-step pattern, got {other:?}"),
    }
    // 1 + 62 = 63 steps: exactly MAX_STEPS, still supported.
    let at_limit = format!(
        r#"for $x in doc("deep")/FILE{} return $x/NN"#,
        "/NP".repeat(62)
    );
    let parsed = vx_xquery::parse_query(&at_limit).unwrap();
    let expected = match naive_eval(&parsed, &[("deep", &dom)]).unwrap() {
        NaiveOutput::Values(v) => v,
        NaiveOutput::Document(_) => panic!("expected values"),
    };
    assert_eq!(expected, vec![b"n61".to_vec()]);
    let query = Query::new(&at_limit).expect("63-step pattern is within the state width");
    for struct_index in [true, false] {
        let options = RunOptions {
            struct_index,
            ..RunOptions::default()
        };
        let vecs: Vec<(&str, &VecDoc)> = vec![("deep", &vdoc)];
        match query.run_with(&vecs, &options).unwrap().output {
            QueryOutput::Values(got) => assert_eq!(got, expected),
            QueryOutput::Document(_) => panic!("expected values"),
        }
    }
}
