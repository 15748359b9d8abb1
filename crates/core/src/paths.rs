//! Dense ids for a document's element tag paths, so a skeleton walk can
//! find each text's vector without building or hashing a path string
//! per value. The query engine's walk and the output walk
//! ([`crate::write_xml`]) share it. Also home to the integrity gate
//! ([`check_text_counts`]) that store open and the engine's bare-document
//! path run before trusting a document's vectors.

use crate::vecdoc::VecDoc;
use vx_skeleton::{NameId, PathIndex, Skeleton};

pub use vx_skeleton::{IdHasher, IdMap};

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

/// A dense id for one absolute element tag path of a document. Id
/// [`SUPER_ROOT`] is the virtual super-root above the root element.
pub type PathId = u32;

/// The [`PathId`] of the virtual super-root.
pub const SUPER_ROOT: PathId = 0;

/// Numbers every absolute element path a walk meets as
/// `(parent PathId, NameId) → PathId`, lazily. A new id resolves the
/// vector of the text directly under its path once, through
/// [`VecDoc::vector_position`]; after that no string is built or hashed.
/// Attributes are `@name` elements here, as in the skeleton.
#[derive(Debug)]
pub struct PathIds {
    ids: IdMap<(PathId, NameId), PathId>,
    /// `[PathId]` → `(parent, tag)`; the super-root's entry is unused.
    parent: Vec<(PathId, NameId)>,
    /// `[PathId]` → the position in [`VecDoc::vectors`] of the text
    /// values directly under the path, if it has any.
    vector: Vec<Option<usize>>,
    /// Scratch for spelling out a newly numbered path.
    spelled: String,
}

impl Default for PathIds {
    fn default() -> Self {
        PathIds {
            ids: IdMap::default(),
            parent: vec![(SUPER_ROOT, NameId(0))],
            vector: vec![None],
            spelled: String::new(),
        }
    }
}

impl PathIds {
    /// The id of `parent`'s child path `name`, numbered (and its vector
    /// resolved in `doc`) on first sight.
    #[inline]
    pub fn child(&mut self, parent: PathId, name: NameId, doc: &VecDoc) -> PathId {
        match self.ids.get(&(parent, name)) {
            Some(&id) => id,
            None => self.number(parent, name, doc),
        }
    }

    fn number(&mut self, parent: PathId, name: NameId, doc: &VecDoc) -> PathId {
        let id = self.parent.len() as PathId;
        self.parent.push((parent, name));
        let mut spelled = std::mem::take(&mut self.spelled);
        spelled.clear();
        self.spell(id, &doc.skeleton, &mut spelled);
        self.vector.push(doc.vector_position(&spelled));
        self.spelled = spelled;
        self.ids.insert((parent, name), id);
        id
    }

    /// The id of `parent`'s child path `name`, if it was numbered.
    #[inline]
    pub fn get(&self, parent: PathId, name: NameId) -> Option<PathId> {
        self.ids.get(&(parent, name)).copied()
    }

    /// The position in [`VecDoc::vectors`] of the text values directly
    /// under `id`, if the document has any.
    #[inline]
    pub fn vector(&self, id: PathId) -> Option<usize> {
        self.vector[id as usize]
    }

    /// Appends `id` spelled out as `a/b/c` (the vector key) to `out`.
    pub fn spell(&self, id: PathId, skeleton: &Skeleton, out: &mut String) {
        if id == SUPER_ROOT {
            return;
        }
        let (parent, name) = self.parent[id as usize];
        self.spell(parent, skeleton, out);
        if parent != SUPER_ROOT {
            out.push('/');
        }
        out.push_str(skeleton.name(name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecdoc::PathVector;
    use vx_skeleton::Edge;

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
                    node = skeleton.cons(a, vec![edge]);
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
