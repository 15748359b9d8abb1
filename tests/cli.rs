//! End-to-end tests for the compiled `vx` binary.
//!
//! Every test drives the real executable (`CARGO_BIN_EXE_vx`) over temp
//! stores built from the four corpus generators, and pins the CLI's
//! contract: reconstruction is byte-identical to the writer's
//! serialization of the ingested XML, `query` agrees with the in-process
//! engine, and the exit codes are part of the interface — `0` success,
//! `1` operational failure, `2` usage error.

use std::path::PathBuf;
use std::process::{Command, Output};
use xmlvec::xml::{write_document, Document, WriteOptions};
use xmlvec::{Query, QueryOutput};

fn vx() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vx"))
}

fn run(args: &[&str]) -> Output {
    vx().args(args).output().expect("spawning vx")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn assert_code(output: &Output, code: i32, context: &str) {
    assert_eq!(
        output.status.code(),
        Some(code),
        "{context}: expected exit {code}\nstdout: {}\nstderr: {}",
        stdout(output),
        stderr(output)
    );
}

/// A scratch directory removed on drop, unique per test.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("vx-cli-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Serializes `doc` compactly, writes it to `dir/<name>.xml`, ingests it
/// into `dir/<name>-store`, and returns (xml text, store dir).
fn ingest(scratch: &Scratch, name: &str, doc: &Document, extra: &[&str]) -> (String, PathBuf) {
    let xml = write_document(doc, &WriteOptions::compact());
    let xml_file = scratch.path(&format!("{name}.xml"));
    std::fs::write(&xml_file, &xml).unwrap();
    let store = scratch.path(&format!("{name}-store"));
    let mut args = vec![
        "ingest",
        xml_file.to_str().unwrap(),
        store.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let out = run(&args);
    assert_code(&out, 0, &format!("ingest {name}"));
    (xml, store)
}

fn the_four_corpora() -> Vec<(&'static str, Document)> {
    vec![
        ("xmark", xmlvec::data::xmark(21, 40)),
        ("treebank", xmlvec::data::treebank(21, 60)),
        ("medline", xmlvec::data::medline(21, 40)),
        ("skyserver", xmlvec::data::skyserver(21, 60)),
    ]
}

/// ingest → stats → reconstruct on all four corpora: stats must succeed
/// and report the store, and `reconstruct` must reproduce the ingested
/// XML byte for byte, both to stdout and through `--out`.
#[test]
fn reconstruct_round_trips_all_four_corpora() {
    let scratch = Scratch::new("roundtrip");
    for (name, doc) in the_four_corpora() {
        let (xml, store) = ingest(&scratch, name, &doc, &[]);
        let store_arg = store.to_str().unwrap();

        let stats = run(&["stats", store_arg]);
        assert_code(&stats, 0, &format!("stats {name}"));
        assert!(
            stdout(&stats).contains("vectors"),
            "{name}: stats output missing summary"
        );

        let direct = run(&["reconstruct", store_arg]);
        assert_code(&direct, 0, &format!("reconstruct {name}"));
        assert_eq!(
            direct.stdout,
            xml.as_bytes(),
            "{name}: stdout reconstruction must be byte-identical"
        );

        let out_file = scratch.path(&format!("{name}-back.xml"));
        let to_file = run(&[
            "reconstruct",
            store_arg,
            "--out",
            out_file.to_str().unwrap(),
        ]);
        assert_code(&to_file, 0, &format!("reconstruct --out {name}"));
        assert_eq!(
            std::fs::read(&out_file).unwrap(),
            xml.as_bytes(),
            "{name}: --out reconstruction must be byte-identical"
        );
    }
}

/// Every ingest flag combination yields a store that reconstructs to the
/// ingested bytes: plain and `--auto` encodings, and `--drop-misc` on a
/// document without misc. (That the streaming
/// store is byte-identical to `Store::save` of the DOM vectorization,
/// encoders included, is `tests/ingest_stream.rs`'s contract.)
#[test]
fn ingest_flags_preserve_reconstruction() {
    let scratch = Scratch::new("flags");
    let doc = xmlvec::data::skyserver(5, 80);
    let variants: [(&str, &[&str]); 3] = [
        ("plain", &[]),
        ("auto", &["--auto"]),
        ("misc", &["--drop-misc"]),
    ];
    for (label, flags) in variants {
        let (xml, store) = ingest(&scratch, label, &doc, flags);
        let out = run(&["reconstruct", store.to_str().unwrap()]);
        assert_code(&out, 0, label);
        assert_eq!(out.stdout, xml.as_bytes(), "{label} round trip");
    }
}

/// `vx query --out values` emits exactly what `Query::run_with`
/// produces in-process, one value per line; `--out xml` matches
/// `QueryOutput::to_xml` for both value and document outputs.
#[test]
fn query_matches_in_process_engine() {
    let scratch = Scratch::new("query");
    let doc = xmlvec::data::xmark(9, 36);
    let (_, store) = ingest(&scratch, "xk", &doc, &[]);
    let store_arg = store.to_str().unwrap();
    let vec_doc = xmlvec::core::vectorize(&doc).unwrap();

    let queries = [
        r#"for $i in doc("xk")/site/regions/*/item where $i/location = "United States" return $i/name"#,
        r#"for $p in doc("xk")/site/people/person, $o in doc("xk")/site/open_auctions/open_auction
           where $o/seller/@person = $p/@id return $p/name"#,
        r#"for $a in doc("xk")/site/closed_auctions/closed_auction return <sold>{$a/price}{$a/date}</sold>"#,
    ];
    for xq in queries {
        let expected = Query::new(xq)
            .unwrap()
            .run_with(&vec_doc, &Default::default())
            .unwrap()
            .output;

        let values = run(&["query", store_arg, xq]);
        assert_code(&values, 0, xq);
        let expected_lines: String = expected
            .strings()
            .iter()
            .map(|s| format!("{s}\n"))
            .collect();
        assert_eq!(stdout(&values), expected_lines, "values mismatch for {xq}");

        let xml = run(&["query", store_arg, xq, "--out", "xml"]);
        assert_code(&xml, 0, xq);
        assert_eq!(
            stdout(&xml),
            format!("{}\n", expected.to_xml().unwrap()),
            "xml mismatch for {xq}"
        );
    }

    // A query with no matches succeeds with empty output.
    let empty = run(&[
        "query",
        store_arg,
        r#"for $x in doc("xk")//NoSuchTag return $x/y"#,
    ]);
    assert_code(&empty, 0, "empty result");
    assert_eq!(stdout(&empty), "");

    // Document outputs also flatten to one text value per line by default.
    let constructed = Query::new(queries[2])
        .unwrap()
        .run_with(&vec_doc, &Default::default())
        .unwrap()
        .output;
    assert!(matches!(constructed, QueryOutput::Document(_)));
    let flat = run(&["query", store_arg, queries[2]]);
    assert_eq!(
        stdout(&flat),
        constructed
            .strings()
            .iter()
            .map(|s| format!("{s}\n"))
            .collect::<String>()
    );
}

/// `vx explain` output is a stable, golden-checked surface: the
/// SQ3-shaped self-join must read both sides' persistent value indexes,
/// sort at query time under `--no-indexes`, and selective literal
/// filters must route through the value index. Byte-exact so downstream
/// tooling can parse it.
#[test]
fn explain_golden_plan_is_stable() {
    let scratch = Scratch::new("explain");
    // 200 distinct objID/ra values: enough that `--auto` picks the v3
    // value-indexed encoding (the dictionary form needs ≤ 128 distinct).
    let mut xml = String::from("<sky>");
    for i in 0..200 {
        xml.push_str(&format!(
            "<PhotoObj><objID>{i:06}</objID><ra>{i}.5</ra></PhotoObj>"
        ));
    }
    xml.push_str("</sky>");
    let xml_file = scratch.path("sky.xml");
    std::fs::write(&xml_file, &xml).unwrap();
    let store = scratch.path("sky-store");
    let out = run(&[
        "ingest",
        xml_file.to_str().unwrap(),
        store.to_str().unwrap(),
        "--auto",
    ]);
    assert_code(&out, 0, "ingest explain fixture");
    let store_arg = store.to_str().unwrap();

    let sq3 = r#"for $a in doc("sky-store")//PhotoObj, $b in doc("sky-store")//PhotoObj where $a/objID = $b/objID return $b/ra"#;
    let join_plan = |access: &str| {
        format!(
            "variables:\n  \
               $a := doc(\"sky-store\")//PhotoObj  occurrences=200 match=summary\n  \
               $b := doc(\"sky-store\")//PhotoObj  occurrences=200 match=summary\n\
             joins:\n  \
               $a/objID = $b/objID  access={access} probe_values=200 build_values=200\n\
             output: values\n"
        )
    };

    for (args, expected) in [
        (
            vec!["explain", store_arg, sq3],
            join_plan("persistent-index"),
        ),
        (
            vec!["explain", store_arg, sq3, "--no-indexes"],
            join_plan("query-sort"),
        ),
        (
            vec![
                "explain",
                store_arg,
                r#"for $a in doc("sky-store")//PhotoObj where $a/objID = "000007" return $a/ra"#,
            ],
            "variables:\n  $a := doc(\"sky-store\")//PhotoObj  occurrences=200 match=summary\n\
             filters:\n  $a/objID = \"000007\"  access=value-index\n\
             output: values\n"
                .to_string(),
        ),
    ] {
        let out = run(&args);
        assert_code(&out, 0, &format!("{args:?}"));
        assert_eq!(stdout(&out), expected, "plan drifted for {args:?}");
    }
}

/// A join and a filter inside a block nested two constructors deep are
/// each one planned decision, so `vx explain` lists each exactly once.
#[test]
fn explain_lists_each_nested_edge_once() {
    let scratch = Scratch::new("explain-nested");
    let (_, store) = ingest(&scratch, "ml", &xmlvec::data::medline(3, 20), &[]);
    let query = r#"for $c in doc("ml")//MedlineCitation return <r>{$c/PMID}<as>{for $a in $c//Author return <a>{for $b in doc("ml")//MedlineCitation where $b/PMID = $c/PMID and $b/Language = "FRE" return $b/PMID}</a>}</as></r>"#;
    let out = run(&["explain", store.to_str().unwrap(), query]);
    assert_code(&out, 0, "explain nested");
    assert_eq!(
        stdout(&out),
        "variables:\n  \
           $c := doc(\"ml\")//MedlineCitation  occurrences=20 match=summary\n  \
           $a := $c//Author  occurrences=50 match=summary\n  \
           $b := doc(\"ml\")//MedlineCitation  occurrences=20 match=summary\n\
         joins:\n  \
           $c/PMID = $b/PMID  access=query-sort probe_values=20 build_values=20\n\
         filters:\n  \
           $b/Language = \"FRE\"  access=scan\n\
         output: document\n"
    );
}

/// Missing stores are operational failures: exit 1, a `vx:` message on
/// stderr, nothing on stdout — for all three store-reading commands.
#[test]
fn missing_store_fails_with_exit_1() {
    let scratch = Scratch::new("missing");
    let nowhere = scratch.path("does-not-exist");
    let nowhere = nowhere.to_str().unwrap();
    for args in [
        vec!["stats", nowhere],
        vec!["query", nowhere, r#"for $x in doc("d")/a return $x/b"#],
        vec!["reconstruct", nowhere],
    ] {
        let out = run(&args);
        assert_code(&out, 1, &format!("{args:?}"));
        assert!(
            stderr(&out).starts_with("vx: "),
            "{args:?}: structured message expected, got {:?}",
            stderr(&out)
        );
        assert_eq!(stdout(&out), "", "{args:?}: no output on failure");
    }
}

/// The integrity gate: a store whose `.vec` file is truncated is refused
/// by `stats` (and the strict loaders behind `query`/`reconstruct`) with
/// exit 1 and no partial stdout.
#[test]
fn damaged_store_is_refused_whole() {
    let scratch = Scratch::new("damaged");
    let doc = xmlvec::data::medline(3, 30);
    let (_, store) = ingest(&scratch, "ml", &doc, &[]);
    let store_arg = store.to_str().unwrap();

    // Truncate the first vector file to half its length.
    let victim = store.join("v000000.vec");
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

    for args in [
        vec!["stats", store_arg],
        vec![
            "query",
            store_arg,
            r#"for $c in doc("ml")//MedlineCitation return $c/PMID"#,
        ],
        vec!["reconstruct", store_arg],
    ] {
        let out = run(&args);
        assert_code(&out, 1, &format!("{args:?}"));
        assert_eq!(stdout(&out), "", "{args:?}: no partial output");
        assert!(stderr(&out).starts_with("vx: "), "{args:?}");
    }

    // A corrupted catalog is refused the same way.
    let catalog = store.join("catalog.json");
    let text = std::fs::read_to_string(&catalog).unwrap();
    std::fs::write(&catalog, text.replace("vectors", "victors")).unwrap();
    let out = run(&["stats", store_arg]);
    assert_code(&out, 1, "stats with damaged catalog");
    assert_eq!(stdout(&out), "");
}

/// The strict open checks each vector file's format version against its
/// catalog row: a catalog that misstates one makes `query` exit 1 with no
/// output.
#[test]
fn tampered_catalog_version_is_refused() {
    let scratch = Scratch::new("version");
    let (_, store) = ingest(&scratch, "ml", &xmlvec::data::medline(3, 30), &[]);
    let store_arg = store.to_str().unwrap();
    let catalog = store.join("catalog.json");
    let text = std::fs::read_to_string(&catalog).unwrap();
    let key = "\"version\": ";
    let at = text.find(key).expect("catalog records versions") + key.len();
    let tampered = if &text[at..at + 1] == "2" { "1" } else { "2" };
    std::fs::write(
        &catalog,
        format!("{}{tampered}{}", &text[..at], &text[at + 1..]),
    )
    .unwrap();

    let out = run(&[
        "query",
        store_arg,
        r#"for $c in doc("ml")//MedlineCitation return $c/PMID"#,
    ]);
    assert_code(&out, 1, "query with tampered catalog version");
    assert_eq!(stdout(&out), "");
    assert!(
        stderr(&out).contains("catalog says format v"),
        "{}",
        stderr(&out)
    );
}

/// Malformed command lines are usage errors: exit 2 with the usage text
/// on stderr — distinct from operational failures.
#[test]
fn bad_arguments_exit_2_with_usage() {
    let cases: Vec<Vec<&str>> = vec![
        vec![],                                        // no command
        vec!["frobnicate"],                            // unknown command
        vec!["ingest", "only-one-arg"],                // missing operand
        vec!["ingest", "a.xml", "s", "--dom"],         // unknown flag (one ingest path)
        vec!["ingest", "a.xml", "s", "--dict"],        // unknown flag
        vec!["ingest", "a.xml", "s", "--frames", "4"], // unknown flag (no spill pool)
        vec!["stats"],                                 // missing operand
        vec!["stats", "a", "--wat"],                   // unknown flag
        vec!["query", "store-only"],                   // missing query
        vec!["query", "s", "q", "--out", "csv"],       // bad --out mode
        vec!["explain", "store-only"],                 // missing query
        vec!["explain", "s", "q", "--plan", "merge"],  // unknown flag
        vec!["reconstruct"],                           // missing operand
        vec!["reconstruct", "s", "--out"],             // --out without value
    ];
    for args in cases {
        let out = run(&args);
        assert_code(&out, 2, &format!("{args:?}"));
        assert!(
            stderr(&out).contains("usage:"),
            "{args:?}: usage text expected on stderr"
        );
    }
}

/// Query-side failures on a healthy store are operational (exit 1) and
/// carry the engine's structured message through to stderr.
#[test]
fn query_errors_are_structured() {
    let scratch = Scratch::new("queryerr");
    let doc = xmlvec::data::skyserver(1, 10);
    let (_, store) = ingest(&scratch, "ss", &doc, &[]);
    let store_arg = store.to_str().unwrap();

    // Outside the fragment: the structured Unsupported error surfaces.
    let unsupported = run(&[
        "query",
        store_arg,
        r#"for $x in doc("ss")//PhotoObj return $x"#,
    ]);
    assert_code(&unsupported, 1, "unsupported construct");
    assert!(
        stderr(&unsupported).contains("unsupported query construct"),
        "got {:?}",
        stderr(&unsupported)
    );

    // Unparseable query text.
    let parse_error = run(&["query", store_arg, "for $x in"]);
    assert_code(&parse_error, 1, "parse error");
    assert!(stderr(&parse_error).starts_with("vx: query:"));
}

/// `ingest` on a nonexistent input file is an operational failure.
#[test]
fn ingest_missing_input_fails() {
    let scratch = Scratch::new("noinput");
    let store = scratch.path("store");
    let out = run(&["ingest", "/no/such/input.xml", store.to_str().unwrap()]);
    assert_code(&out, 1, "ingest missing input");
    assert!(stderr(&out).starts_with("vx: "));
}

/// `vx append` + `vx compact`: appended documents answer queries before
/// and after compaction, the compacted store reconstructs to the
/// combined document, and both commands report what they did.
#[test]
fn append_and_compact_round_trip() {
    let scratch = Scratch::new("append");
    let doc = xmlvec::data::medline(7, 20);
    let (_, store) = ingest(&scratch, "ml", &doc, &[]);
    let store_arg = store.to_str().unwrap();

    // Two more medline batches, serialized as standalone documents with
    // the same root tag.
    let extra1 = xmlvec::data::medline(8, 5);
    let extra2 = xmlvec::data::medline(9, 5);
    let extra1_file = scratch.path("extra1.xml");
    let extra2_file = scratch.path("extra2.xml");
    std::fs::write(
        &extra1_file,
        write_document(&extra1, &WriteOptions::compact()),
    )
    .unwrap();
    std::fs::write(
        &extra2_file,
        write_document(&extra2, &WriteOptions::compact()),
    )
    .unwrap();

    let xq = r#"for $c in doc("ml")//MedlineCitation return $c/PMID"#;
    let count_lines = |out: &Output| stdout(out).lines().count();
    let before = run(&["query", store_arg, xq]);
    assert_code(&before, 0, "query before append");

    let appended = run(&[
        "append",
        store_arg,
        extra1_file.to_str().unwrap(),
        extra2_file.to_str().unwrap(),
    ]);
    assert_code(&appended, 0, "append");
    assert!(
        stdout(&appended).starts_with("appended 2 docs"),
        "append report: {}",
        stdout(&appended)
    );

    // The WAL overlay serves immediately: 10 more citations.
    let after = run(&["query", store_arg, xq]);
    assert_code(&after, 0, "query after append");
    assert_eq!(count_lines(&after), count_lines(&before) + 10);

    // stats --metrics reports the journal.
    let stats = run(&["stats", store_arg, "--metrics"]);
    assert_code(&stats, 0, "stats with pending WAL");
    assert!(
        stdout(&stats).contains("2 pending docs"),
        "{}",
        stdout(&stats)
    );
    let wal_line = stdout(&stats)
        .lines()
        .find(|l| l.starts_with("wal "))
        .map(str::to_string)
        .unwrap_or_default();
    assert!(
        wal_line.contains(", replay ") && wal_line.ends_with(" ms"),
        "the WAL line reports the replay time: {wal_line}"
    );

    // Compact, then identical answers from the new generation.
    let compacted = run(&["compact", store_arg]);
    assert_code(&compacted, 0, "compact");
    assert!(
        stdout(&compacted).starts_with("compacted"),
        "compact report: {}",
        stdout(&compacted)
    );
    let final_q = run(&["query", store_arg, xq]);
    assert_eq!(
        stdout(&final_q),
        stdout(&after),
        "answers changed across compact"
    );

    // A second compact is a no-op.
    let again = run(&["compact", store_arg]);
    assert_code(&again, 0, "compact no-op");
    assert!(stdout(&again).starts_with("nothing to compact"));

    // The compacted store reconstructs to the combined document.
    let mut combined = doc.clone();
    combined.root.children.extend(extra1.root.children.clone());
    combined.root.children.extend(extra2.root.children.clone());
    let expected = write_document(&combined, &WriteOptions::compact());
    let back = run(&["reconstruct", store_arg]);
    assert_code(&back, 0, "reconstruct after compact");
    assert_eq!(stdout(&back), expected, "compacted reconstruction drifted");
}

/// Append validation failures are operational (exit 1) and leave the
/// store serving exactly what it served before.
#[test]
fn append_rejects_mismatched_documents() {
    let scratch = Scratch::new("appendbad");
    let doc = xmlvec::data::skyserver(2, 10);
    let (_, store) = ingest(&scratch, "ss", &doc, &[]);
    let store_arg = store.to_str().unwrap();
    let bad = scratch.path("bad.xml");
    std::fs::write(&bad, "<wrongroot><x>1</x></wrongroot>").unwrap();
    let out = run(&["append", store_arg, bad.to_str().unwrap()]);
    assert_code(&out, 1, "append wrong root");
    assert!(stderr(&out).contains("does not match store root"));

    // Usage errors for both commands.
    for args in [
        vec!["append", store_arg],
        vec!["append"],
        vec!["compact"],
        vec!["compact", store_arg, "--wat"],
    ] {
        let out = run(&args);
        assert_code(&out, 2, &format!("{args:?}"));
    }
}
