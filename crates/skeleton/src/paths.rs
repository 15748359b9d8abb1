//! The path summary over the skeleton DAG.
//!
//! Vectors are keyed by *root-to-text tag paths*. To evaluate without
//! decompressing the skeleton, the engine needs, for every DAG node, how
//! many texts of each path lie below it: a subtree's positions in each
//! vector then come out as prefix sums, and a subtree no query machine
//! is alive in is passed over by bulk-advancing cursors.
//!
//! Hash-consing shares a node across *different* ancestor contexts, so
//! the summary keeps paths relative: [`PathIndex::texts_below`] lists
//! each downward tag path from a node to a text with its count,
//! independent of ancestry. The relative paths are hash-consed as well —
//! a [`RelId`] is a cons cell of a first name and a shorter `RelId` — so
//! a parent's entry `child/rel` is one table lookup away from the
//! child's entry `rel`. The whole summary is two flat arrays (per-node
//! offsets into one entry array), built in a single bottom-up pass over
//! the arena with no recursion and no allocation per entry.

use crate::arena::{NameId, NodeId, Skeleton};
use crate::structural::StructIndex;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-rotate hasher for small integer keys a pass numbers
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

/// A hash map keyed by pass-numbered ids.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A dense id for one absolute element tag path of a document. Id
/// [`SUPER_ROOT`] is the virtual super-root above the root element.
pub type PathId = u32;

/// The [`PathId`] of the virtual super-root.
pub const SUPER_ROOT: PathId = 0;

/// Numbers every absolute element path a pass meets as
/// `(parent PathId, NameId) → PathId`, lazily, and remembers the index
/// of the vector holding the texts directly under each, so after a
/// path's first sight no string is built or hashed for it. Attributes
/// are `@name` elements here, as in the skeleton.
///
/// Vectors are the caller's: the walks over a finished document resolve
/// a path's vector at its first text ([`PathIds::text_vector`]); the
/// vectorizer, which creates vectors as their first values arrive, sets
/// one ([`PathIds::set_vector`]).
#[derive(Debug)]
pub struct PathIds {
    ids: IdMap<(PathId, NameId), PathId>,
    /// `[PathId]` → `(parent, tag)`; the super-root's entry is unused.
    parent: Vec<(PathId, NameId)>,
    /// `[PathId]` → the vector of the text values directly under the
    /// path, if it has one.
    vector: Vec<Option<usize>>,
    /// Scratch for spelling out a path to resolve.
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
    /// The id of `parent`'s child path `name`, numbered on first sight
    /// with no vector.
    #[inline]
    pub fn child(&mut self, parent: PathId, name: NameId) -> PathId {
        match self.ids.get(&(parent, name)) {
            Some(&id) => id,
            None => self.number(parent, name),
        }
    }

    fn number(&mut self, parent: PathId, name: NameId) -> PathId {
        let id = self.parent.len() as PathId;
        self.parent.push((parent, name));
        self.vector.push(None);
        self.ids.insert((parent, name), id);
        id
    }

    /// The id of `parent`'s child path `name`, if it was numbered.
    #[inline]
    pub fn get(&self, parent: PathId, name: NameId) -> Option<PathId> {
        self.ids.get(&(parent, name)).copied()
    }

    /// The vector of the text values directly under `id`, if it has one.
    #[inline]
    pub fn vector(&self, id: PathId) -> Option<usize> {
        self.vector[id as usize]
    }

    /// As [`PathIds::vector`], but a path with none yet gets `resolve` of
    /// its spelling (see [`PathIds::spell`]). The walks over a finished
    /// document ask at a path's texts, so only text paths are spelled,
    /// each once.
    pub fn text_vector(
        &mut self,
        id: PathId,
        skeleton: &Skeleton,
        resolve: impl FnOnce(&str) -> Option<usize>,
    ) -> Option<usize> {
        if self.vector[id as usize].is_none() {
            let mut spelled = std::mem::take(&mut self.spelled);
            spelled.clear();
            self.spell(id, skeleton, &mut spelled);
            self.vector[id as usize] = resolve(&spelled);
            self.spelled = spelled;
        }
        self.vector[id as usize]
    }

    /// Records `vector` as the one holding the texts directly under `id`.
    pub fn set_vector(&mut self, id: PathId, vector: usize) {
        self.vector[id as usize] = Some(vector);
    }

    /// Appends `id` spelled out as `a/b/c` (the vector key) to `out`.
    /// Iterative, so any depth fits on any stack; the names are gathered
    /// leaf to root on the stack, or on the heap past 32 of them.
    pub fn spell(&self, id: PathId, skeleton: &Skeleton, out: &mut String) {
        const INLINE: usize = 32;
        let mut inline = [NameId(0); INLINE];
        let mut deep = Vec::new();
        let mut len = 0;
        let mut at = id;
        while at != SUPER_ROOT {
            let (parent, name) = self.parent[at as usize];
            if len < INLINE {
                inline[len] = name;
            } else {
                if len == INLINE {
                    deep.extend_from_slice(&inline);
                }
                deep.push(name);
            }
            len += 1;
            at = parent;
        }
        let names = if len <= INLINE { &inline[..len] } else { &deep };
        for (i, &name) in names.iter().rev().enumerate() {
            if i > 0 {
                out.push('/');
            }
            out.push_str(skeleton.name(name));
        }
    }
}

/// A downward tag path relative to some node, hash-consed by the
/// [`PathIndex`] that numbered it: [`RelId::EMPTY`], or a first name
/// followed by a shorter path. [`PathIndex::rel_names`] spells it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId(pub u32);

impl RelId {
    /// The empty path: the text lies directly under the node.
    pub const EMPTY: RelId = RelId(0);
}

/// The path summary of one skeleton rooted at `root`.
///
/// The index owns only *derived* data (arrays indexed by [`NodeId`] and
/// [`RelId`]); it holds no reference to the skeleton it was computed
/// from. That makes it storable next to the skeleton inside one shared
/// immutable value (`vx-core`'s `StoreHandle`) and freely shareable
/// across threads — methods that need to resolve names take the
/// skeleton as an explicit argument instead.
pub struct PathIndex {
    root: NodeId,
    /// `[RelId]` → the path's first name (slot 0, the empty path, is
    /// unused).
    head: Vec<NameId>,
    /// `[RelId]` → the path after its first name.
    tail: Vec<RelId>,
    /// `[NodeId]` → where the node's entries start; `offsets[v + 1]`
    /// ends them. Nodes unreachable from the root have empty ranges.
    offsets: Vec<u32>,
    /// Every node's `(relative path, text count)` entries, node after
    /// node in arena order.
    entries: Vec<(RelId, u64)>,
    /// The structural self-index over the same arena (containment
    /// bitsets, depth bounds, expansion counts). Built here unless a
    /// persisted `.vxpi` copy was supplied via
    /// [`PathIndex::with_structural`].
    structural: StructIndex,
}

impl PathIndex {
    pub fn new(skeleton: &Skeleton, root: NodeId) -> Self {
        Self::assemble(skeleton, root, StructIndex::build(skeleton, root))
    }

    /// As [`PathIndex::new`], but adopting a structural index loaded
    /// from disk instead of rebuilding it. The caller must have passed
    /// [`StructIndex::matches`]; a stale index is rebuilt here as a
    /// last line of defense.
    pub fn with_structural(skeleton: &Skeleton, root: NodeId, structural: StructIndex) -> Self {
        let structural = if structural.matches(skeleton, root) {
            structural
        } else {
            StructIndex::build(skeleton, root)
        };
        Self::assemble(skeleton, root, structural)
    }

    /// Builds the summary in one forward pass over the arena: `cons`
    /// numbers every child before its parents, so each child's entries
    /// are final when a parent reads them. A node's entries are its
    /// children's, edge by edge, each prefixed with the child's name and
    /// multiplied by the edge's run; a path met again adds to the entry
    /// it first made, so entries stay in first-occurrence document order.
    fn assemble(skeleton: &Skeleton, root: NodeId, structural: StructIndex) -> Self {
        // WAL replay leaves superseded roots in the arena; they are not
        // part of the document and get no entries.
        let reachable = skeleton.reachable(root);

        let mut interned: IdMap<(NameId, RelId), RelId> = IdMap::default();
        let mut head = vec![NameId(0)];
        let mut tail = vec![RelId::EMPTY];
        // `[RelId]` → the index in `entries` of the path's entry if the
        // node being built has one; anything below the node's first
        // entry is left over from an earlier node.
        let mut slot = vec![usize::MAX];
        let mut offsets = Vec::with_capacity(skeleton.len() + 1);
        let mut entries: Vec<(RelId, u64)> = Vec::new();
        offsets.push(0u32);
        for (id, data) in skeleton.iter() {
            let start = entries.len();
            // Nodes the root does not reach keep an empty range.
            if reachable[id.0 as usize] {
                if data.name.is_none() {
                    entries.push((RelId::EMPTY, 1));
                }
                for edge in &data.edges {
                    let child = edge.child.0 as usize;
                    let name = skeleton.node(edge.child).name;
                    for i in offsets[child] as usize..offsets[child + 1] as usize {
                        let (rel, count) = entries[i];
                        let rel = match name {
                            None => rel,
                            Some(name) => *interned.entry((name, rel)).or_insert_with(|| {
                                head.push(name);
                                tail.push(rel);
                                slot.push(usize::MAX);
                                RelId(u32::try_from(head.len() - 1).expect("over 2^32 paths"))
                            }),
                        };
                        let add = count * edge.run;
                        let at = slot[rel.0 as usize];
                        if (start..entries.len()).contains(&at) {
                            entries[at].1 += add;
                        } else {
                            slot[rel.0 as usize] = entries.len();
                            entries.push((rel, add));
                        }
                    }
                }
            }
            offsets.push(u32::try_from(entries.len()).expect("path summary over 2^32 entries"));
        }

        PathIndex {
            root,
            head,
            tail,
            offsets,
            entries,
            structural,
        }
    }

    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The structural self-index built (or loaded) alongside this path
    /// analysis.
    pub fn structural(&self) -> &StructIndex {
        &self.structural
    }

    /// The per-node text layout: for each downward text path from `node`
    /// (excluding `node`'s own name), its text occurrence count with runs
    /// multiplied out, in first-occurrence document order. The empty
    /// path means `node` itself is `#` or has `#` children. Lets the
    /// engine bulk-advance vector cursors over subtrees no machine is
    /// alive in, without visiting them. Empty for nodes the root does
    /// not reach.
    pub fn texts_below(&self, node: NodeId) -> &[(RelId, u64)] {
        let v = node.0 as usize;
        &self.entries[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// The names of `rel`, nearest the node first.
    pub fn rel_names(&self, rel: RelId) -> impl Iterator<Item = NameId> + '_ {
        let mut at = rel;
        std::iter::from_fn(move || {
            (at != RelId::EMPTY).then(|| {
                let name = self.head[at.0 as usize];
                at = self.tail[at.0 as usize];
                name
            })
        })
    }

    /// All root-to-text tag paths, each starting with the root's own
    /// tag, with their occurrence counts, in first-occurrence document
    /// order (the catalog order): [`PathIndex::texts_below`] of the root,
    /// spelled out. Allocates a path per entry; for tests and tools.
    pub fn text_paths(&self, skeleton: &Skeleton) -> Vec<(Vec<NameId>, u64)> {
        let root_name = skeleton.node(self.root).name;
        self.texts_below(self.root)
            .iter()
            .map(|&(rel, count)| {
                (
                    root_name.into_iter().chain(self.rel_names(rel)).collect(),
                    count,
                )
            })
            .collect()
    }
}

/// A step test in a [`PathPattern`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternTest {
    /// A concrete tag. `None` means the tag does not occur in this
    /// skeleton's name table at all, so the step can never match.
    Name(Option<NameId>),
    /// `*` — any element tag except the synthetic `@attr` names.
    Any,
}

/// One step of a path pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternStep {
    /// `true` for `//` (the step may match at any depth below the
    /// previous match), `false` for `/` (direct children only).
    pub descend: bool,
    pub test: PatternTest,
}

/// A downward path pattern over element tags — the XQ[*,//] step
/// language. Matching is a tiny NFA whose state set is a bitmask of
/// "first `i` steps matched" positions (so patterns are limited to 63
/// steps, far beyond any real query).
///
/// A pattern is compiled against one skeleton's name table: its named
/// steps hold that table's [`NameId`]s, and it records which names are
/// the synthetic `@attr` encoding, so [`PathPattern::advance`] compares
/// ids only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathPattern {
    steps: Vec<PatternStep>,
    /// Bitset over the name table of the `@attr` names, which `*` never
    /// matches. Empty when no step is `*`.
    attrs: Vec<u64>,
}

impl PathPattern {
    /// The state mask before any element has been consumed.
    pub const START: u64 = 1;

    /// Maximum number of steps (bitmask representation).
    pub const MAX_STEPS: usize = 63;

    /// Compiles `steps` against `skeleton`'s name table; `None` past
    /// [`PathPattern::MAX_STEPS`] steps.
    pub fn new(steps: Vec<PatternStep>, skeleton: &Skeleton) -> Option<Self> {
        if steps.len() > Self::MAX_STEPS {
            return None;
        }
        let mut attrs = Vec::new();
        if steps.iter().any(|s| s.test == PatternTest::Any) {
            let names = skeleton.names();
            attrs = vec![0u64; names.len().div_ceil(64)];
            for (i, name) in names.iter().enumerate() {
                if name.starts_with('@') {
                    attrs[i / 64] |= 1u64 << (i % 64);
                }
            }
        }
        Some(PathPattern { steps, attrs })
    }

    pub fn steps(&self) -> &[PatternStep] {
        &self.steps
    }

    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// True when `states` contains the final (fully-matched) position.
    pub fn accepts(&self, states: u64) -> bool {
        states & (1u64 << self.steps.len()) != 0
    }

    /// Whether `name` is one of the synthetic `@attr` names.
    fn is_attr(&self, name: NameId) -> bool {
        let i = name.0 as usize;
        self.attrs
            .get(i / 64)
            .is_some_and(|word| word & (1u64 << (i % 64)) != 0)
    }

    /// Transition: the state set after descending into a child element
    /// named `name` (`*` never matches the synthetic `@attr` encoding).
    /// Zero means the subtree below can no longer contribute a match.
    pub fn advance(&self, states: u64, name: NameId) -> u64 {
        let mut next = 0u64;
        for i in 0..=self.steps.len() {
            if states & (1u64 << i) == 0 {
                continue;
            }
            if let Some(step) = self.steps.get(i) {
                if step.descend {
                    // `//`: the search may keep descending past this
                    // element without consuming the step.
                    next |= 1u64 << i;
                }
                let hit = match step.test {
                    PatternTest::Name(Some(id)) => id == name,
                    PatternTest::Name(None) => false,
                    PatternTest::Any => !self.is_attr(name),
                };
                if hit {
                    next |= 1u64 << (i + 1);
                }
            }
        }
        next
    }

    /// Whether a concrete downward tag path matches the whole pattern.
    pub fn matches(&self, path: &[NameId]) -> bool {
        let mut states = Self::START;
        for &name in path {
            states = self.advance(states, name);
            if states == 0 {
                return false;
            }
        }
        self.accepts(states)
    }

    /// Whether a concrete path could be extended to match: some state is
    /// still alive after consuming `path`. Used for prefix pruning.
    pub fn matches_prefix(&self, path: &[NameId]) -> bool {
        let mut states = Self::START;
        for &name in path {
            states = self.advance(states, name);
            if states == 0 {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{push_child, Edge};

    /// Builds: root(lib) -> 2×book(title#, author#, author#), 1×note(#)
    fn sample() -> (Skeleton, NodeId, Vec<NameId>) {
        let mut s = Skeleton::new();
        let t = s.text_node();
        let lib = s.intern("lib");
        let book = s.intern("book");
        let title = s.intern("title");
        let author = s.intern("author");
        let note = s.intern("note");
        let title_n = s.cons(title, &[Edge { child: t, run: 1 }]);
        let author_n = s.cons(author, &[Edge { child: t, run: 1 }]);
        let mut book_edges = Vec::new();
        push_child(&mut book_edges, title_n);
        push_child(&mut book_edges, author_n);
        push_child(&mut book_edges, author_n);
        let book_n = s.cons(book, &book_edges);
        let note_n = s.cons(note, &[Edge { child: t, run: 1 }]);
        let mut root_edges = Vec::new();
        push_child(&mut root_edges, book_n);
        push_child(&mut root_edges, book_n);
        push_child(&mut root_edges, note_n);
        let root = s.cons(lib, &root_edges);
        (s, root, vec![lib, book, title, author, note])
    }

    #[test]
    fn text_paths_counts_and_order() {
        let (s, root, names) = sample();
        let index = PathIndex::new(&s, root);
        let (lib, book, title, author, note) = (names[0], names[1], names[2], names[3], names[4]);
        let paths = index.text_paths(&s);
        assert_eq!(
            paths,
            vec![
                (vec![lib, book, title], 2),
                (vec![lib, book, author], 4),
                (vec![lib, note], 1),
            ]
        );
    }

    #[test]
    fn texts_below_is_relative_and_multiplies_runs() {
        let (s, root, names) = sample();
        let index = PathIndex::new(&s, root);
        let (book, title, author, note) = (names[1], names[2], names[3], names[4]);
        let spelled = |node: NodeId| -> Vec<(Vec<NameId>, u64)> {
            index
                .texts_below(node)
                .iter()
                .map(|&(rel, count)| (index.rel_names(rel).collect(), count))
                .collect()
        };
        let book_n = s.node(root).edges[0].child;
        assert_eq!(spelled(book_n), vec![(vec![title], 1), (vec![author], 2)]);
        assert_eq!(
            spelled(root),
            vec![
                (vec![book, title], 2),
                (vec![book, author], 4),
                (vec![note], 1)
            ]
        );
        assert_eq!(spelled(s.text_node()), vec![(vec![], 1)]);
        // `title` under `book` is one cons cell whichever node reaches it.
        let title_rel = index.texts_below(book_n)[0].0;
        let (book_title_rel, _) = index.texts_below(root)[0];
        assert_eq!(index.rel_names(book_title_rel).nth(1), Some(title));
        assert_eq!(index.tail[book_title_rel.0 as usize], title_rel);
    }

    #[test]
    fn unreachable_nodes_have_empty_ranges() {
        let (mut s, root, names) = sample();
        // A superseded root: a second `lib` the document root does not reach.
        let t = s.text_node();
        let stray = s.cons(names[4], &[Edge { child: t, run: 3 }]);
        let old_root = s.cons(
            names[0],
            &[Edge {
                child: stray,
                run: 1,
            }],
        );
        let index = PathIndex::new(&s, root);
        assert!(index.texts_below(old_root).is_empty());
        assert!(index.texts_below(stray).is_empty());
        assert_eq!(index.texts_below(root).len(), 3);
    }
    fn pat(skeleton: &Skeleton, spec: &[(bool, Option<&str>)]) -> PathPattern {
        PathPattern::new(
            spec.iter()
                .map(|&(descend, name)| PatternStep {
                    descend,
                    test: match name {
                        Some(n) => PatternTest::Name(skeleton.name_id(n)),
                        None => PatternTest::Any,
                    },
                })
                .collect(),
            skeleton,
        )
        .unwrap()
    }

    #[test]
    fn pattern_matches_concrete_paths() {
        let (s, root, names) = sample();
        let _ = root;
        let (lib, book, author) = (names[0], names[1], names[3]);
        let p = pat(&s, &[(false, Some("lib")), (true, Some("author"))]);
        assert!(p.matches(&[lib, book, author]));
        assert!(!p.matches(&[lib, book]));
        assert!(p.matches_prefix(&[lib, book]));
        assert!(!p.matches_prefix(&[book]));
    }

    #[test]
    fn wildcard_never_matches_attribute_names() {
        let mut s = Skeleton::new();
        let t = s.text_node();
        let item = s.intern("item");
        let id = s.intern("@id");
        let name = s.intern("name");
        let id_n = s.cons(id, &[Edge { child: t, run: 1 }]);
        let name_n = s.cons(name, &[Edge { child: t, run: 1 }]);
        let mut edges = Vec::new();
        push_child(&mut edges, id_n);
        push_child(&mut edges, name_n);
        s.cons(item, &edges);

        let star = pat(&s, &[(false, Some("item")), (false, None)]);
        assert!(star.matches(&[item, name]));
        assert!(!star.matches(&[item, id]));
        // A named step still reaches the attribute.
        let named = pat(&s, &[(false, Some("item")), (false, Some("@id"))]);
        assert!(named.matches(&[item, id]));
    }

    #[test]
    fn path_ids_number_spell_and_resolve() {
        let (s, _, names) = sample();
        let (lib, book, title) = (names[0], names[1], names[2]);
        let mut ids = PathIds::default();
        let lib_p = ids.child(SUPER_ROOT, lib);
        let book_p = ids.child(lib_p, book);
        let title_p = ids.child(book_p, title);
        assert_eq!(ids.child(book_p, title), title_p, "numbered once");
        let mut resolved = Vec::new();
        let mut resolve = |ids: &mut PathIds, id| {
            ids.text_vector(id, &s, |path| {
                resolved.push(path.to_string());
                (path == "lib/book/title").then_some(7)
            })
        };
        assert_eq!(resolve(&mut ids, title_p), Some(7));
        assert_eq!(resolve(&mut ids, title_p), Some(7));
        assert_eq!(resolve(&mut ids, book_p), None);
        assert_eq!(
            resolved,
            ["lib/book/title", "lib/book"],
            "spelled once when found"
        );
        assert_eq!((ids.vector(book_p), ids.vector(title_p)), (None, Some(7)));
        assert_eq!(ids.get(lib_p, book), Some(book_p));
        assert_eq!(ids.get(lib_p, title), None);
        ids.set_vector(book_p, 3);
        assert_eq!(ids.vector(book_p), Some(3));
    }

    /// Neither `expanded_size` nor spelling a path recurses: a
    /// 40 000-deep chain is measured and spelled on a 256 KiB stack.
    #[test]
    fn expanded_size_and_spelling_survive_a_deep_chain_on_a_small_stack() {
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
                let mut ids = PathIds::default();
                let mut path = SUPER_ROOT;
                for _ in 0..DEPTH {
                    path = ids.child(path, a);
                }
                let mut spelled = String::new();
                ids.spell(path, &skeleton, &mut spelled);
                (skeleton.expanded_size(node), spelled)
            })
            .unwrap()
            .join()
            .expect("no stack overflow");
        assert_eq!(outcome.0, DEPTH as u64 + 1, "DEPTH elements and the text");
        assert_eq!(outcome.1, vec!["a"; DEPTH].join("/"));
    }
}
