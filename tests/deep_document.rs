//! Deep documents on a small stack: no pass over `(S, V)` recurses per
//! document level. A 200 000-level chain is vectorized, reconstructed,
//! queried and copied into a constructed result on a thread with a
//! 256 KiB stack. Results are compared as bytes: a DOM this deep would
//! drop recursively.

use xmlvec::{Query, QueryOutput, RunOptions};

const DEPTH: usize = 200_000;

#[test]
fn a_deep_chain_round_trips_and_answers_on_a_small_stack() {
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(|| {
            let xml = format!(
                "<r>{}<b>x</b>{}</r>",
                "<a>".repeat(DEPTH),
                "</a>".repeat(DEPTH)
            );
            let doc = xmlvec::vectorize_str(&xml).unwrap();

            let mut written = Vec::new();
            xmlvec::core::write_xml(&doc, &mut written).unwrap();
            assert!(written == xml.as_bytes(), "write_xml is byte-identical");

            let run = |query: &str| {
                Query::new(query)
                    .unwrap()
                    .run_with(&[("x", &doc)][..], &RunOptions::default())
                    .unwrap()
                    .output
            };
            let values = run(r#"for $a in doc("x")//a return $a/b"#);
            assert_eq!(values.strings(), ["x"]);

            let QueryOutput::Document(copied) = run(r#"for $r in doc("x")/r return <o>{$r}</o>"#)
            else {
                panic!("a constructor query builds a document");
            };
            let copied = xmlvec::to_xml(&copied).unwrap();
            assert!(copied == format!("<results><o>{xml}</o></results>"));
        })
        .unwrap()
        .join()
        .expect("no stack overflow");
}
