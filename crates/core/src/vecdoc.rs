//! The in-memory vectorized document `VEC(T) = (S, V)`.

use std::collections::HashMap;
use vx_skeleton::{NodeId, Skeleton};

/// One data vector: every text value of one root-to-text tag path, in
/// document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathVector {
    /// Tag path joined with `/`, e.g. `MedlineCitationSet/MedlineCitation/PMID`.
    /// Attributes appear as a final `@name` component.
    pub path: String,
    pub values: Vec<Vec<u8>>,
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
    /// Persistent value indexes, keyed by vector index: record positions
    /// sorted by `(value bytes, position)`. Populated from version-3
    /// `.vec` files at store-open time; in-memory documents have none.
    sorted: HashMap<usize, Vec<u32>>,
}

impl VecDoc {
    pub fn new(skeleton: Skeleton, root: Option<NodeId>) -> Self {
        VecDoc {
            skeleton,
            root,
            vectors: Vec::new(),
            lookup: HashMap::new(),
            sorted: HashMap::new(),
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
            values: Vec::new(),
        });
        self.lookup.insert(path.to_string(), i);
        i
    }

    /// Appends a value to the vector of `path`. A vector that gains a
    /// value drops its persistent value index: the run no longer covers
    /// every position, so serving it would lose the new value. Vectors
    /// that gain nothing keep theirs (a WAL overlay extends only some).
    pub fn push_value(&mut self, path: &str, value: Vec<u8>) {
        let i = self.vector_index(path);
        if !self.sorted.is_empty() {
            self.sorted.remove(&i);
        }
        self.vectors[i].values.push(value);
    }

    /// Inserts a whole vector (store loading); replaces an existing path.
    /// Replacement drops any persistent value index recorded for the
    /// slot — the new values make it stale.
    pub fn insert_vector(&mut self, vector: PathVector) {
        match self.lookup.get(&vector.path) {
            Some(&i) => {
                self.sorted.remove(&i);
                self.vectors[i] = vector;
            }
            None => {
                self.lookup.insert(vector.path.clone(), self.vectors.len());
                self.vectors.push(vector);
            }
        }
    }

    /// Records the persistent value index for the vector at `vec_index`
    /// (store loading, version-3 files).
    pub fn set_sorted_run(&mut self, vec_index: usize, order: Vec<u32>) {
        debug_assert_eq!(order.len(), self.vectors[vec_index].values.len());
        self.sorted.insert(vec_index, order);
    }

    /// The persistent value index for the vector at `vec_index`, if one
    /// was loaded: record positions ordered by value bytes ascending,
    /// ties in document order.
    pub fn sorted_run(&self, vec_index: usize) -> Option<&[u32]> {
        self.sorted.get(&vec_index).map(|v| v.as_slice())
    }

    /// Vector lookup by path.
    pub fn vector(&self, path: &str) -> Option<&PathVector> {
        self.lookup.get(path).map(|&i| &self.vectors[i])
    }

    /// Index of the vector for `path` in [`VecDoc::vectors`], if present.
    pub fn vector_position(&self, path: &str) -> Option<usize> {
        self.lookup.get(path).copied()
    }

    /// Total text bytes across all vectors.
    pub fn text_bytes(&self) -> u64 {
        self.vectors
            .iter()
            .flat_map(|v| v.values.iter())
            .map(|v| v.len() as u64)
            .sum()
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
