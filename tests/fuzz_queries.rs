//! Randomized differential fuzzer: seeded query generation driven by
//! each store's *actual* path summary, checked against the DOM oracle
//! over two targets — the in-memory documents, and the same documents
//! saved as stores with `Compaction::Auto` and reopened as handles with
//! value indexes on and off — × structural-index mode. The store target
//! is what exercises the persistent sorted-run join path: in-memory
//! documents have no runs, so their joins always sort at query time.
//!
//! Every generated query is valid XQ[*,//] by construction — steps are
//! derived from real root-to-text tag paths reported by the path
//! summary, then mutated into wildcards (`*`), descendant steps (`//`),
//! literal and `exists()` filters (literals sampled from the store's
//! own vectors), and two-variable equality joins. Each case is checked
//! twice: as a value projection, and with constructor output — either
//! `<r>{$a/suffix}</r>` or `<r>{$a}</r>`, which deep-copies the bound
//! element (overlapping copies under nested `//` bindings). The oracle
//! ([`xmlvec::engine::naive_eval`]) defines ground truth, so mutations
//! that widen or empty a match set are still exact checks.
//!
//! Knobs (both read once, at test start):
//!
//! * `VX_FUZZ_SEED`  — u64 generator seed (default `0xF022`). CI runs a
//!   fixed seed plus the run number, like the crash-recovery fuzzer.
//! * `VX_FUZZ_CASES` — cases per corpus (default 200).
//!
//! On failure the panic message carries `seed=… corpus=… case=…` and the
//! full query text — replaying is `VX_FUZZ_SEED=<seed> cargo test -q
//! --test fuzz_queries`.

use xmlvec::core::{reconstruct, vectorize, Compaction, Store, StoreHandle, VecDoc};
use xmlvec::data::Rng;
use xmlvec::engine::{naive_eval, NaiveOutput};
use xmlvec::skeleton::PathIndex;
use xmlvec::xml::{write_document, Document, WriteOptions};
use xmlvec::{Query, QueryOutput, RunOptions};

struct FuzzDoc {
    name: &'static str,
    dom: Document,
    vec: VecDoc,
    /// Root-to-text tag paths (length ≥ 2: root plus at least one step),
    /// in first-occurrence document order — the generator's step pool.
    paths: Vec<Vec<String>>,
}

impl FuzzDoc {
    fn new(name: &'static str, dom: Document) -> FuzzDoc {
        let vec = vectorize(&dom).expect(name);
        let root = vec.root.expect(name);
        let index = PathIndex::new(&vec.skeleton, root);
        let paths: Vec<Vec<String>> = index
            .text_paths(&vec.skeleton)
            .into_iter()
            .map(|(rel, _)| {
                rel.into_iter()
                    .map(|n| vec.skeleton.name(n).to_string())
                    .collect::<Vec<String>>()
            })
            .filter(|p| p.len() >= 2)
            .collect();
        assert!(!paths.is_empty(), "{name} has no usable text paths");
        FuzzDoc {
            name,
            dom,
            vec,
            paths,
        }
    }

    /// A literal sampled from the vector behind `path`, restricted to
    /// values that round-trip through the query surface syntax.
    fn literal(&self, rng: &mut Rng, path: &[String]) -> Option<String> {
        let vector = self.vec.vector(&path.join("/"))?;
        if vector.values.is_empty() {
            return None;
        }
        // A handful of draws; most generated values are plain ASCII.
        for _ in 0..4 {
            let raw = &vector.values[rng.below(vector.values.len() as u64) as usize];
            if let Ok(text) = std::str::from_utf8(raw) {
                if !text.is_empty()
                    && text
                        .chars()
                        .all(|c| c != '"' && c != '\\' && c != '<' && c != '&' && !c.is_control())
                {
                    return Some(text.to_string());
                }
            }
        }
        None
    }
}

/// Renders `segs` as a step string, mutating toward the wider fragment:
/// interior segments may be dropped (forcing `//` on the next kept
/// step), kept steps may become descendant steps, and non-attribute
/// names may become `*`. The last segment is always kept so the path
/// stays anchored at a real text parent or leaf.
fn render_steps(rng: &mut Rng, segs: &[String]) -> String {
    let mut out = String::new();
    let mut gap = false;
    for (i, seg) in segs.iter().enumerate() {
        let last = i + 1 == segs.len();
        if !last && rng.below(100) < 18 {
            gap = true;
            continue;
        }
        let descend = gap || rng.below(100) < 12;
        gap = false;
        let wild = !seg.starts_with('@') && rng.below(100) < 10;
        out.push_str(if descend { "//" } else { "/" });
        out.push_str(if wild { "*" } else { seg });
    }
    out
}

/// Picks a path from `doc` whose first `prefix_len` segments equal
/// `prefix` and which extends past it — the pool for filters that must
/// be evaluable relative to an already-bound variable.
fn extension_of<'a>(rng: &mut Rng, doc: &'a FuzzDoc, prefix: &[String]) -> Option<&'a Vec<String>> {
    let candidates: Vec<&Vec<String>> = doc
        .paths
        .iter()
        .filter(|p| p.len() > prefix.len() && p[..prefix.len()] == *prefix)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    Some(candidates[rng.below(candidates.len() as u64) as usize])
}

/// One generated query, split at its `return`: the clauses before it,
/// the returned variable and the step suffix returned from it.
struct GenQuery {
    head: String,
    var: char,
    ret: String,
}

impl GenQuery {
    /// The value projection `… return $a/suffix`.
    fn values(&self) -> String {
        format!("{} return ${}{}", self.head, self.var, self.ret)
    }

    /// The same bindings with constructor output: `<r>{$a/suffix}</r>`
    /// copies what the projection reaches, `<r>{$a}</r>` (`whole`)
    /// copies the bound element itself — under a `//` binding, nested
    /// occurrences copy overlapping subtrees.
    fn constructed(&self, whole: bool) -> String {
        let ret = if whole { "" } else { self.ret.as_str() };
        format!("{} return <r>{{${}{ret}}}</r>", self.head, self.var)
    }
}

/// One generated query over `docs`, drawing from `docs[primary]`.
fn gen_query(rng: &mut Rng, docs: &[FuzzDoc], primary: usize) -> GenQuery {
    let a = &docs[primary];
    let path = &a.paths[rng.below(a.paths.len() as u64) as usize];
    // Split into a variable binding prefix and a return suffix; the
    // prefix keeps at least the root, the suffix at least the leaf.
    let j = rng.range(1, path.len() as u64 - 1) as usize;
    let var = format!("doc(\"{}\"){}", a.name, render_steps(rng, &path[..j]));
    let ret = render_steps(rng, &path[j..]);

    let (head, var) = match rng.below(100) {
        // Plain projection chain.
        0..=39 => (format!("for $a in {var}"), 'a'),
        // Literal equality filter; literal sampled from the store's own
        // vector (or a guaranteed miss, to pin empty results).
        40..=64 => {
            let filter = extension_of(rng, a, &path[..j]).unwrap_or(path);
            let suffix = filter[j..].join("/");
            let value = if rng.below(100) < 20 {
                "zz-no-such-value".to_string()
            } else {
                match a.literal(rng, filter) {
                    Some(v) => v,
                    None => "zz-no-such-value".to_string(),
                }
            };
            (
                format!("for $a in {var} where $a/{suffix} = \"{value}\""),
                'a',
            )
        }
        // Existential filter.
        65..=77 => {
            let filter = extension_of(rng, a, &path[..j]).unwrap_or(path);
            let suffix = filter[j..].join("/");
            (format!("for $a in {var} where exists($a/{suffix})"), 'a')
        }
        // Two-variable equality join. Half the time a self-join on the
        // same suffix (guaranteed matches); otherwise arbitrary pairs,
        // which are usually sparse or empty — both are ground-truthed.
        _ => {
            let suffix_a = path[j..].join("/");
            if rng.below(2) == 0 {
                let head = format!(
                    "for $a in {var}, $b in doc(\"{}\"){} \
                     where $a/{suffix_a} = $b/{suffix_a}",
                    a.name,
                    render_steps(rng, &path[..j]),
                );
                (head, 'b')
            } else {
                let b = &docs[rng.below(docs.len() as u64) as usize];
                let path_b = &b.paths[rng.below(b.paths.len() as u64) as usize];
                let k = rng.range(1, path_b.len() as u64 - 1) as usize;
                let head = format!(
                    "for $a in {var}, $b in doc(\"{}\"){} \
                     where $a/{suffix_a} = $b/{}",
                    b.name,
                    render_steps(rng, &path_b[..k]),
                    path_b[k..].join("/"),
                );
                return GenQuery {
                    head,
                    var: 'b',
                    ret: render_steps(rng, &path_b[k..]),
                };
            }
        }
    };
    GenQuery { head, var, ret }
}

fn engine_xml(doc: &VecDoc, label: &str) -> String {
    write_document(&reconstruct(doc).expect(label), &WriteOptions::compact())
}

/// Oracle-vs-engine equality, byte-for-byte (documents compare by
/// compact serialization after reconstructing the engine's output).
fn assert_matches_oracle(got: &QueryOutput, expected: &NaiveOutput, label: &str) {
    match (got, expected) {
        (QueryOutput::Values(g), NaiveOutput::Values(e)) => {
            assert_eq!(g, e, "value mismatch [{label}]");
        }
        (QueryOutput::Document(g), NaiveOutput::Document(e)) => {
            let opts = WriteOptions::compact();
            assert_eq!(
                engine_xml(g, label),
                write_document(e, &opts),
                "document mismatch [{label}]"
            );
        }
        _ => panic!("output shape mismatch [{label}]"),
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{name} must be a u64, got {v:?}")),
        Err(_) => default,
    }
}

#[test]
fn generated_queries_agree_with_the_oracle_under_every_mode() {
    let seed = env_u64("VX_FUZZ_SEED", 0xF022);
    let cases = env_u64("VX_FUZZ_CASES", 200);
    let docs = vec![
        FuzzDoc::new("ml", xmlvec::data::medline(11, 24)),
        // 160 rows: more distinct `objID`/`ra` values than a dictionary
        // vector holds, so the store target saves them with version-3
        // sorted runs and their joins take the persistent-index path.
        FuzzDoc::new("sky", xmlvec::data::skyserver(23, 160)),
        FuzzDoc::new("xk", xmlvec::data::xmark(7, 16)),
        FuzzDoc::new("tb", xmlvec::data::treebank(5, 24)),
    ];
    let doms: Vec<(&str, &Document)> = docs.iter().map(|d| (d.name, &d.dom)).collect();
    let vecs: Vec<(&str, &VecDoc)> = docs.iter().map(|d| (d.name, &d.vec)).collect();
    let store_dir = std::env::temp_dir().join(format!("vx-fuzz-stores-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let handles: Vec<StoreHandle> = docs
        .iter()
        .map(|d| {
            let dir = store_dir.join(d.name);
            Store::save(&dir, &d.vec, Compaction::Auto).expect(d.name);
            StoreHandle::open(&dir).expect(d.name)
        })
        .collect();
    // Joins whose indexed store plan reads persistent runs on both sides.
    let mut persistent_joins = 0;

    let mut rng = Rng::new(seed);
    // Constructor shapes draw from their own stream, so the value
    // queries stay exactly those the generator has always produced.
    let mut shape_rng = Rng::new(seed ^ 0xC0B7);
    for primary in 0..docs.len() {
        for case in 0..cases {
            let generated = gen_query(&mut rng, &docs, primary);
            let constructed = generated.constructed(shape_rng.below(2) == 0);
            for src in [generated.values(), constructed] {
                let tag = format!(
                    "seed={seed} corpus={} case={case} query={src}",
                    docs[primary].name
                );
                let parsed = xmlvec::xquery::parse_query(&src)
                    .unwrap_or_else(|e| panic!("generator emitted unparseable query: {e} [{tag}]"));
                let expected = naive_eval(&parsed, &doms)
                    .unwrap_or_else(|e| panic!("oracle failed: {e} [{tag}]"));
                let query =
                    Query::new(&src).unwrap_or_else(|e| panic!("compile failed: {e} [{tag}]"));
                for struct_index in [true, false] {
                    for (target, use_indexes) in
                        [("memory", true), ("store", true), ("store", false)]
                    {
                        let options = RunOptions {
                            use_indexes,
                            struct_index,
                            ..RunOptions::default()
                        };
                        let label = format!(
                            "{tag} target={target} use_indexes={use_indexes} struct_index={struct_index}"
                        );
                        let outcome = if target == "memory" {
                            query.run_with(&vecs, &options)
                        } else {
                            query.run_with(&handles, &options)
                        };
                        let got = outcome
                            .unwrap_or_else(|e| panic!("engine failed: {e} [{label}]"))
                            .output;
                        assert_matches_oracle(&got, &expected, &label);
                    }
                }
                let plan = query
                    .explain(&handles)
                    .unwrap_or_else(|e| panic!("explain failed: {e} [{tag}]"));
                if plan.render().contains("access=persistent-index") {
                    persistent_joins += 1;
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    assert!(
        persistent_joins > 0,
        "seed={seed}: no generated join read persistent sorted runs"
    );
}
