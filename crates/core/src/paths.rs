//! Dense ids for a document's element tag paths, so a skeleton walk can
//! find each text's vector without building or hashing a path string
//! per value. The query engine's walk and the output walk
//! ([`crate::write_xml`]) share it.

use crate::vecdoc::VecDoc;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use vx_skeleton::{NameId, Skeleton};

/// A multiply-rotate hasher for small integer keys a walk numbers
/// itself: SipHash's flooding resistance buys nothing there.
#[derive(Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash map keyed by walk-numbered ids.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

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
