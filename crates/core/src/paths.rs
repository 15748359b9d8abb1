//! The integrity gate ([`check_text_counts`]) that store open and the
//! engine's bare-document path run before trusting a document's vectors,
//! and the path numbering the walks over a document share: dense
//! [`PathIds`] from `vx-skeleton`, whose vectors [`VecDoc::text_vector`]
//! resolves.

use crate::vecdoc::VecDoc;
use vx_skeleton::PathIndex;

pub use vx_skeleton::{IdHasher, IdMap, PathId, PathIds, SUPER_ROOT};

/// The integrity gate: every root-to-text path `index` counts must be
/// backed by a vector of `doc` with exactly that many values, or
/// evaluation over `doc` could silently return partial answers. Checks
/// the root's [`PathIndex::texts_below`] entries, spelling each path once
/// into one reused buffer; the error is the message for a `Corrupt`
/// variant.
pub fn check_text_counts(doc: &VecDoc, index: &PathIndex) -> Result<(), String> {
    let skeleton = &doc.skeleton;
    let root_name = skeleton.node(index.root()).name;
    let mut path = String::new();
    for &(rel, count) in index.texts_below(index.root()) {
        path.clear();
        for name in root_name.into_iter().chain(index.rel_names(rel)) {
            if !path.is_empty() {
                path.push('/');
            }
            path.push_str(skeleton.name(name));
        }
        match doc.vector(&path) {
            None => {
                return Err(format!(
                    "no vector for path {path} (skeleton counts {count})"
                ))
            }
            Some(vector) if vector.values.len() as u64 != count => {
                return Err(format!(
                    "vector {path} has {} values, skeleton counts {count}",
                    vector.values.len()
                ));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecdoc::PathVector;
    use vx_skeleton::{Edge, Skeleton};

    #[test]
    fn gate_names_the_first_bad_path() {
        let doc = crate::vectorize(&vx_xml::parse("<a><b>1</b><b>2</b><c>x</c></a>").unwrap());
        let mut doc = doc.unwrap();
        let index = PathIndex::new(&doc.skeleton, doc.root.unwrap());
        assert_eq!(check_text_counts(&doc, &index), Ok(()));
        doc.insert_vector(PathVector {
            path: "a/b".into(),
            values: [b"1"].into_iter().collect(),
        });
        assert_eq!(
            check_text_counts(&doc, &index),
            Err("vector a/b has 1 values, skeleton counts 2".into())
        );
    }

    /// Neither the summary build nor the gate recurses: a 40 000-deep
    /// chain passes both on a 256 KiB stack.
    #[test]
    fn summary_and_gate_survive_a_deep_chain_on_a_small_stack() {
        const DEPTH: usize = 40_000;
        let outcome = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let mut skeleton = Skeleton::new();
                let a = skeleton.intern("a");
                let mut node = skeleton.text_node();
                for _ in 0..DEPTH {
                    let edge = Edge {
                        child: node,
                        run: 1,
                    };
                    node = skeleton.cons(a, &[edge]);
                }
                let index = PathIndex::new(&skeleton, node);
                let root_entries = index.texts_below(node).to_vec();
                let names = index.rel_names(root_entries[0].0).count();
                let mut doc = VecDoc::new(skeleton, Some(node));
                doc.insert_vector(PathVector {
                    path: vec!["a"; DEPTH].join("/"),
                    values: [b"x"].into_iter().collect(),
                });
                let gate = check_text_counts(&doc, &index);
                (root_entries.len(), root_entries[0].1, names, gate)
            })
            .unwrap()
            .join()
            .expect("no stack overflow");
        assert_eq!(outcome, (1, 1, DEPTH - 1, Ok(())));
    }
}
