//! The in-memory vectorized document `VEC(T) = (S, V)`.

use std::collections::HashMap;
use vx_skeleton::{NodeId, PathId, PathIds, Skeleton};
use vx_vector::Vector;

/// One data vector: every text value of one root-to-text tag path, in
/// document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathVector {
    /// Tag path joined with `/`, e.g. `MedlineCitationSet/MedlineCitation/PMID`.
    /// Attributes appear as a final `@name` component.
    pub path: String,
    /// The values as one column; a store-loaded version-3 vector also
    /// carries its persistent value index here until it gains a value.
    pub values: Vector,
}

/// A vectorized document: compressed skeleton + data vectors.
///
/// Vectors are kept in *first-occurrence document order* — the order the
/// catalog lists them in and the order `v{NNNNNN}.vec` files are numbered.
#[derive(Debug, Clone, Default)]
pub struct VecDoc {
    pub skeleton: Skeleton,
    pub root: Option<NodeId>,
    vectors: Vec<PathVector>,
    lookup: HashMap<String, usize>,
}

impl VecDoc {
    pub fn new(skeleton: Skeleton, root: Option<NodeId>) -> Self {
        VecDoc {
            skeleton,
            root,
            vectors: Vec::new(),
            lookup: HashMap::new(),
        }
    }

    /// The vectors in catalog order.
    pub fn vectors(&self) -> &[PathVector] {
        &self.vectors
    }

    /// Vector index for a path, creating an empty vector on first use.
    pub fn vector_index(&mut self, path: &str) -> usize {
        if let Some(&i) = self.lookup.get(path) {
            return i;
        }
        let i = self.vectors.len();
        self.vectors.push(PathVector {
            path: path.to_string(),
            values: Vector::default(),
        });
        self.lookup.insert(path.to_string(), i);
        i
    }

    /// Appends a value to the vector at position `vector` (see
    /// [`VecDoc::vector_index`]). The column drops its persistent value
    /// index if it had one (see [`Vector::push`]); vectors that gain
    /// nothing keep theirs (a WAL overlay extends only some).
    pub fn push_value(&mut self, vector: usize, value: &[u8]) -> vx_vector::Result<()> {
        self.vectors[vector].values.push(value)
    }

    /// Inserts a whole vector (store loading); replaces an existing path.
    pub fn insert_vector(&mut self, vector: PathVector) {
        match self.lookup.get(&vector.path) {
            Some(&i) => self.vectors[i] = vector,
            None => {
                self.lookup.insert(vector.path.clone(), self.vectors.len());
                self.vectors.push(vector);
            }
        }
    }

    /// Vector lookup by path.
    pub fn vector(&self, path: &str) -> Option<&PathVector> {
        self.lookup.get(path).map(|&i| &self.vectors[i])
    }

    /// Index of the vector for `path` in [`VecDoc::vectors`], if present.
    pub fn vector_position(&self, path: &str) -> Option<usize> {
        self.lookup.get(path).copied()
    }

    /// The vector of the texts directly under the path `id` of `ids`,
    /// resolved from the path's spelling the first time it is asked for:
    /// the walks over the document (output, query) find each text's
    /// vector this way, spelling only text paths, each once.
    #[inline]
    pub fn text_vector(&self, ids: &mut PathIds, id: PathId) -> Option<usize> {
        ids.text_vector(id, &self.skeleton, |path| self.vector_position(path))
    }

    /// Total text bytes across all vectors.
    pub fn text_bytes(&self) -> u64 {
        self.vectors.iter().map(|v| v.values.value_bytes()).sum()
    }

    /// Total number of text occurrences across all vectors.
    pub fn text_count(&self) -> u64 {
        self.vectors.iter().map(|v| v.values.len() as u64).sum()
    }

    /// Expanded (uncompressed) node count of the document: elements plus
    /// text nodes, runs multiplied out. The catalog's `node_count`.
    pub fn node_count(&self) -> u64 {
        self.root.map_or(0, |r| self.skeleton.expanded_size(r))
    }
}
