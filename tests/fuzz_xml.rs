//! Byte-level fuzzer for the XML tokenizer. Seed documents — the four
//! corpus generators at tiny scale plus the tokenizer's own test cases —
//! are mutated (byte flips, inserts, deletes, truncation, and splices of
//! `<`, `&`, `]]>`, `--` and UTF-8 lead bytes), and every mutant must
//! satisfy:
//!
//! * `parse` never panics;
//! * if `parse` accepts `x`, then `parse(write_document(parse(x))) ==
//!   parse(x)`;
//! * [`Events`] over a one-byte-at-a-time reader and over the whole slice
//!   agree on the complete result sequence — every event, and the error
//!   (with its position) if there is one.
//!
//! Knobs, shared with `tests/fuzz_queries.rs` and read once at test
//! start:
//!
//! * `VX_FUZZ_SEED`  — u64 mutation seed (default `0xF022`). CI runs a
//!   fixed seed plus the run number.
//! * `VX_FUZZ_CASES` — mutants per seed document (default 200).
//!
//! On failure the panic message carries `seed=… doc=… case=…` and the
//! mutant's bytes.

use std::io::Read;
use std::panic::{catch_unwind, AssertUnwindSafe};
use xmlvec::data::Rng;
use xmlvec::xml::{parse, write_document, Event, Events, WriteOptions, XmlError};

include!("../crates/xml/src/cases.rs");

/// Inputs earlier fuzzing runs found the tokenizer mishandling, pinned
/// so they are checked on every run whatever the seed.
const FIXED: &[&[u8]] = &[
    // A DOCTYPE's skipped bytes were never checked for UTF-8, so this
    // non-UTF-8 document tokenized without error.
    b"<!DOCTYPE a [<\xc3ELEMENT a ANY>]>\n<a/>",
];

/// Fragments spliced in at random positions: markup openers and closers
/// the grammar treats specially, and UTF-8 lead bytes with and without
/// their continuation bytes.
const SPLICES: &[&[u8]] = &[
    b"<",
    b"&",
    b"]]>",
    b"--",
    b"\xc3",
    b"\xc3\xa9",
    b"\xe2\x9c",
    b"\xe2\x9c\x93",
    b"\xf0\x9f",
    b"\x80",
];

/// A reader that trickles one byte per `read` call, to exercise every
/// buffer-refill path of the tokenizer.
struct OneByte<'a>(&'a [u8]);

impl Read for OneByte<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.0.split_first() {
            Some((&b, rest)) => {
                buf[0] = b;
                self.0 = rest;
                Ok(1)
            }
            None => Ok(0),
        }
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("{name} must be a u64, got {v:?}")),
        Err(_) => default,
    }
}

/// The seed documents: each generator at a scale of a few kilobytes,
/// then the tokenizer's cases.
fn seed_documents() -> Vec<(String, Vec<u8>)> {
    let opts = WriteOptions::compact();
    let mut docs = vec![
        ("ml".to_string(), xmlvec::data::medline(3, 2)),
        ("ss".to_string(), xmlvec::data::skyserver(5, 4)),
        ("xk".to_string(), xmlvec::data::xmark(7, 2)),
        ("tb".to_string(), xmlvec::data::treebank(9, 2)),
    ]
    .into_iter()
    .map(|(name, doc)| (name, write_document(&doc, &opts).into_bytes()))
    .collect::<Vec<_>>();
    for (i, case) in CASES.iter().enumerate() {
        docs.push((format!("case{i}"), case.as_bytes().to_vec()));
    }
    docs
}

/// One to three random edits of `input`.
fn mutate(rng: &mut Rng, input: &[u8]) -> Vec<u8> {
    let mut out = input.to_vec();
    for _ in 0..rng.range(1, 3) {
        let at = rng.below(out.len() as u64 + 1) as usize;
        match rng.below(5) {
            0 if at < out.len() => out[at] ^= 1 << rng.below(8),
            1 => out.insert(at, rng.below(256) as u8),
            2 if at < out.len() => {
                out.remove(at);
            }
            3 => out.truncate(at),
            _ => {
                let splice = SPLICES[rng.below(SPLICES.len() as u64) as usize];
                out.splice(at..at, splice.iter().copied());
            }
        }
    }
    out
}

fn events_of(reader: impl Read) -> Vec<Result<Event, XmlError>> {
    Events::new(reader).collect()
}

/// Checks every property on one input, and says whether `parse`
/// accepted it; `label` identifies the input on failure.
fn check(input: &[u8], label: &str) -> bool {
    let whole = events_of(input);
    let trickled = events_of(OneByte(input));
    assert_eq!(
        whole, trickled,
        "one-byte and slice readers disagree [{label}]"
    );

    let Ok(text) = std::str::from_utf8(input) else {
        assert!(
            whole.iter().any(Result::is_err),
            "non-UTF-8 input tokenized without error [{label}]"
        );
        return false;
    };
    let parsed = catch_unwind(AssertUnwindSafe(|| parse(text)))
        .unwrap_or_else(|_| panic!("parse panicked [{label}]"));
    assert_eq!(
        parsed.is_ok(),
        whole.iter().all(Result::is_ok),
        "parse and Events disagree on acceptance [{label}]"
    );
    let Ok(doc) = parsed else {
        return false;
    };
    let written = write_document(&doc, &WriteOptions::compact());
    let reparsed = parse(&written)
        .unwrap_or_else(|e| panic!("written form does not reparse: {e} [{label}] {written:?}"));
    assert_eq!(
        doc, reparsed,
        "parse/write/parse is not a fixpoint [{label}]"
    );
    true
}

#[test]
fn mutated_documents_keep_the_tokenizer_laws() {
    let seed = env_u64("VX_FUZZ_SEED", 0xF022);
    let cases = env_u64("VX_FUZZ_CASES", 200);
    for (i, input) in FIXED.iter().enumerate() {
        check(
            input,
            &format!("fixed={i} input={:?}", String::from_utf8_lossy(input)),
        );
    }
    let mut rng = Rng::new(seed);
    let mut accepted = 0u64;
    let mut total = 0u64;
    for (name, doc) in seed_documents() {
        check(&doc, &format!("doc={name} unmutated"));
        for case in 0..cases {
            let input = mutate(&mut rng, &doc);
            let label = format!(
                "seed={seed} doc={name} case={case} input={:?}",
                String::from_utf8_lossy(&input)
            );
            total += 1;
            accepted += u64::from(check(&input, &label));
        }
    }
    eprintln!("fuzz_xml: seed={seed}: {total} mutants, {accepted} well-formed");
    // The mutations must leave some inputs well-formed, or the fixpoint
    // law is never exercised.
    assert!(accepted > 0, "seed={seed}: every mutant was rejected");
}

/// FNV-1a-64, the fold [`pinned_token_stream_hash`] pins.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A length-prefixed field, so adjacent fields cannot run together.
    fn field(&mut self, bytes: &[u8]) {
        self.bytes(&(bytes.len() as u64).to_le_bytes());
        self.bytes(bytes);
    }

    fn result(&mut self, result: &Result<Event, XmlError>) {
        match result {
            Ok(Event::Decl(decl)) => {
                self.bytes(&[0]);
                self.field(decl.version.as_bytes());
                self.field(decl.encoding.as_deref().unwrap_or("\0").as_bytes());
                self.bytes(&[decl.standalone.map_or(2, u8::from)]);
            }
            Ok(Event::Start(name)) => {
                self.bytes(&[1]);
                self.field(name.as_bytes());
            }
            Ok(Event::Attr { name, value }) => {
                self.bytes(&[2]);
                self.field(name.as_bytes());
                self.field(value.as_bytes());
            }
            Ok(Event::Text(text)) => {
                self.bytes(&[3]);
                self.field(text.as_bytes());
            }
            Ok(Event::CData(text)) => {
                self.bytes(&[4]);
                self.field(text.as_bytes());
            }
            Ok(Event::End(name)) => {
                self.bytes(&[5]);
                self.field(name.as_bytes());
            }
            Ok(Event::Comment(text)) => {
                self.bytes(&[6]);
                self.field(text.as_bytes());
            }
            Ok(Event::Pi { target, data }) => {
                self.bytes(&[7]);
                self.field(target.as_bytes());
                self.field(data.as_bytes());
            }
            Err(e) => {
                self.bytes(&[8]);
                self.bytes(&e.line.to_le_bytes());
                self.bytes(&e.column.to_le_bytes());
                self.field(e.message.as_bytes());
            }
        }
    }
}

/// Every seed document's and mutant's full result sequence — each
/// event, or the error's line, column and message — folded into one
/// hash at a fixed seed and case count, whatever the `VX_FUZZ_*`
/// environment. The constant was computed with the byte-at-a-time
/// tokenizer the slice-scanning one replaced, so it pins acceptance,
/// events and error positions to that independent implementation.
#[test]
fn pinned_token_stream_hash() {
    const SEED: u64 = 0xF022;
    const CASES_PER_DOC: u64 = 200;
    const EXPECTED: u64 = 0x6729_f65d_9c3f_c729;
    let mut rng = Rng::new(SEED);
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    let mut inputs = 0u64;
    for (_, doc) in seed_documents() {
        let mutants = (0..CASES_PER_DOC).map(|_| mutate(&mut rng, &doc));
        for input in std::iter::once(doc.clone()).chain(mutants.collect::<Vec<_>>()) {
            let results = events_of(input.as_slice());
            fnv.bytes(&(results.len() as u64).to_le_bytes());
            for result in &results {
                fnv.result(result);
            }
            inputs += 1;
        }
    }
    eprintln!(
        "pinned token stream hash over {inputs} inputs: {:#018x}",
        fnv.0
    );
    assert_eq!(fnv.0, EXPECTED, "token stream hash over {inputs} inputs");
}
