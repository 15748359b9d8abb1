//! Memoized path analysis over the skeleton DAG.
//!
//! Vectors are keyed by *root-to-text tag paths*; evaluation needs to know,
//! without decompressing the skeleton, (a) how many text occurrences each
//! path has, (b) in what order paths first occur in the document, and
//! (c) for a binding path `p` and a relative path `r`, the contiguous range
//! of `p/r`-vector positions that belongs to each occurrence of `p`
//! (positions are in document order, so occurrence ranges are prefix sums).
//!
//! Because hash-consing shares a node across *different* ancestor
//! contexts, per-path quantities are memoized on the node alone by keeping
//! paths relative: `texts_below(node)` maps each downward tag path from
//! `node` to its text count, independent of ancestry.

use crate::arena::{NameId, NodeId, Skeleton};
use crate::structural::StructIndex;
use std::collections::{HashMap, HashSet};

/// A downward tag path (possibly empty), e.g. `[Article, Abstract]`.
pub type RelPath = Vec<NameId>;

/// Path analysis over one skeleton rooted at `root`.
///
/// The index owns only *derived* data (per-node text layouts keyed by
/// [`NodeId`]); it holds no reference to the skeleton it was computed
/// from. That makes it storable next to the skeleton inside one shared
/// immutable value (`vx-core`'s `StoreHandle`) and freely shareable
/// across threads — methods that need to resolve names or edges take the
/// skeleton as an explicit argument instead.
pub struct PathIndex {
    root: NodeId,
    /// node -> (relative path from node's *children* downward, text count).
    /// The node's own name is *not* part of the key paths.
    below: HashMap<NodeId, Vec<(RelPath, u64)>>,
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

    fn assemble(skeleton: &Skeleton, root: NodeId, structural: StructIndex) -> Self {
        let mut index = PathIndex {
            root,
            below: HashMap::new(),
            structural,
        };
        index.compute_below(skeleton, root);
        index
    }

    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The structural self-index built (or loaded) alongside this path
    /// analysis.
    pub fn structural(&self) -> &StructIndex {
        &self.structural
    }

    /// Memoized: for each downward path from `node` (excluding `node`'s own
    /// name) that ends in text, the number of text occurrences, runs
    /// multiplied out. The empty path means `node` itself is `#`.
    fn compute_below(&mut self, skeleton: &Skeleton, node: NodeId) -> &Vec<(RelPath, u64)> {
        if !self.below.contains_key(&node) {
            let data = skeleton.node(node);
            let mut acc: Vec<(RelPath, u64)> = Vec::new();
            let mut seen: HashMap<RelPath, usize> = HashMap::new();
            if data.name.is_none() {
                acc.push((Vec::new(), 1));
            } else {
                let edges = data.edges.clone();
                for edge in edges {
                    let child_name = skeleton.node(edge.child).name;
                    let child_paths = self.compute_below(skeleton, edge.child).clone();
                    for (rel, count) in child_paths {
                        let mut path = Vec::with_capacity(rel.len() + 1);
                        if let Some(n) = child_name {
                            path.push(n);
                        }
                        path.extend_from_slice(&rel);
                        let add = count * edge.run;
                        match seen.get(&path) {
                            Some(&i) => acc[i].1 += add,
                            None => {
                                seen.insert(path.clone(), acc.len());
                                acc.push((path, add));
                            }
                        }
                    }
                }
            }
            self.below.insert(node, acc);
        }
        &self.below[&node]
    }

    /// All root-to-text tag paths with their occurrence counts, ordered by
    /// first occurrence in document order (the catalog order). Each path
    /// includes the root's own tag.
    pub fn text_paths(&self, skeleton: &Skeleton) -> Vec<(RelPath, u64)> {
        let root_name = skeleton.node(self.root).name;
        let mut counts: HashMap<RelPath, u64> = HashMap::new();
        for (rel, count) in &self.below[&self.root] {
            let mut path = Vec::with_capacity(rel.len() + 1);
            if let Some(n) = root_name {
                path.push(n);
            }
            path.extend_from_slice(rel);
            *counts.entry(path).or_insert(0) += *count;
        }
        let order = self.first_occurrence_order(skeleton);
        let mut out = Vec::new();
        for path in order {
            if let Some(count) = counts.remove(&path) {
                out.push((path, count));
            }
        }
        debug_assert!(counts.is_empty());
        out
    }

    /// Document-order first occurrence of each complete text path.
    fn first_occurrence_order(&self, skeleton: &Skeleton) -> Vec<RelPath> {
        // DFS over (node, prefix) pairs, memoized per pair, children in
        // edge order. Runs never change first-occurrence order.
        let mut order: Vec<RelPath> = Vec::new();
        let mut seen_paths: HashSet<RelPath> = HashSet::new();
        let mut visited: HashSet<(NodeId, RelPath)> = HashSet::new();
        let mut stack: Vec<(NodeId, RelPath)> = vec![(self.root, Vec::new())];
        // Explicit stack in reverse order to get document order.
        while let Some((node, prefix)) = stack.pop() {
            let data = skeleton.node(node);
            let mut path = prefix.clone();
            if let Some(n) = data.name {
                path.push(n);
            }
            if data.name.is_none() {
                if seen_paths.insert(prefix.clone()) {
                    order.push(prefix);
                }
                continue;
            }
            for edge in data.edges.iter().rev() {
                let key = (edge.child, path.clone());
                if visited.insert(key) {
                    stack.push((edge.child, path.clone()));
                }
            }
        }
        order
    }

    /// The memoized per-node layout: for each downward text path from
    /// `node` (excluding `node`'s own name), its text occurrence count.
    /// Lets the engine bulk-advance vector cursors over subtrees no
    /// machine is alive in, without visiting them.
    pub fn texts_below(&self, node: NodeId) -> &[(RelPath, u64)] {
        &self.below[&node]
    }

    /// Total text occurrences below `node` (any path).
    pub fn text_count(&self, node: NodeId) -> u64 {
        self.below[&node].iter().map(|(_, c)| c).sum()
    }

    /// Text occurrences below `node` along exactly `rel` (a downward path
    /// excluding `node`'s name).
    pub fn text_count_along(&self, node: NodeId, rel: &[NameId]) -> u64 {
        self.below[&node]
            .iter()
            .filter(|(p, _)| p == rel)
            .map(|(_, c)| c)
            .sum()
    }

    /// Number of occurrences of the element path `path` (starting with the
    /// root's tag). The root path itself has one occurrence.
    pub fn occurrences(&self, skeleton: &Skeleton, path: &[NameId]) -> u64 {
        let root_name = skeleton.node(self.root).name;
        match path.split_first() {
            None => 0,
            Some((&first, rest)) => {
                if root_name != Some(first) {
                    return 0;
                }
                self.count_occurrences(skeleton, self.root, rest)
            }
        }
    }

    fn count_occurrences(&self, skeleton: &Skeleton, node: NodeId, rest: &[NameId]) -> u64 {
        match rest.split_first() {
            None => 1,
            Some((&next, tail)) => {
                let mut total = 0;
                for edge in &skeleton.node(node).edges {
                    if skeleton.node(edge.child).name == Some(next) {
                        total += edge.run * self.count_occurrences(skeleton, edge.child, tail);
                    }
                }
                total
            }
        }
    }

    /// For each occurrence of `binding_path` (in document order), the
    /// number of `rel`-path texts below it. Prefix-summing the result gives
    /// each occurrence's contiguous range in the `binding_path + rel`
    /// vector. `binding_path` starts with the root tag.
    pub fn binding_text_counts(
        &self,
        skeleton: &Skeleton,
        binding_path: &[NameId],
        rel: &[NameId],
    ) -> Vec<u64> {
        let mut out = Vec::new();
        let root_name = skeleton.node(self.root).name;
        if let Some((&first, rest)) = binding_path.split_first() {
            if root_name == Some(first) {
                self.collect_binding_counts(skeleton, self.root, rest, rel, 1, &mut out);
            }
        }
        out
    }

    fn collect_binding_counts(
        &self,
        skeleton: &Skeleton,
        node: NodeId,
        rest: &[NameId],
        rel: &[NameId],
        repeat: u64,
        out: &mut Vec<u64>,
    ) {
        match rest.split_first() {
            None => {
                let count = self.text_count_along(node, rel);
                for _ in 0..repeat {
                    out.push(count);
                }
            }
            Some((&next, tail)) => {
                for edge in &skeleton.node(node).edges {
                    if skeleton.node(edge.child).name == Some(next) {
                        self.collect_binding_counts(skeleton, edge.child, tail, rel, edge.run, out);
                    }
                }
            }
        }
    }

    /// Per-occurrence *element* counts: for each occurrence of
    /// `binding_path` (document order), the number of `rel`-path element
    /// occurrences below it (`rel` empty counts the occurrence itself).
    pub fn binding_element_counts(
        &self,
        skeleton: &Skeleton,
        binding_path: &[NameId],
        rel: &[NameId],
    ) -> Vec<u64> {
        let mut out = Vec::new();
        let root_name = skeleton.node(self.root).name;
        let mut memo = HashMap::new();
        if let Some((&first, rest)) = binding_path.split_first() {
            if root_name == Some(first) {
                self.walk_element_counts(skeleton, self.root, rest, rel, 1, &mut memo, &mut out);
            }
        }
        out
    }

    fn count_elements(
        &self,
        skeleton: &Skeleton,
        node: NodeId,
        rel: &[NameId],
        memo: &mut HashMap<(NodeId, Vec<NameId>), u64>,
    ) -> u64 {
        match rel.split_first() {
            None => 1,
            Some((&next, tail)) => {
                let key = (node, rel.to_vec());
                if let Some(&v) = memo.get(&key) {
                    return v;
                }
                let mut total = 0;
                for edge in &skeleton.node(node).edges {
                    if skeleton.node(edge.child).name == Some(next) {
                        total += edge.run * self.count_elements(skeleton, edge.child, tail, memo);
                    }
                }
                memo.insert(key, total);
                total
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn walk_element_counts(
        &self,
        skeleton: &Skeleton,
        node: NodeId,
        rest: &[NameId],
        rel: &[NameId],
        repeat: u64,
        memo: &mut HashMap<(NodeId, Vec<NameId>), u64>,
        out: &mut Vec<u64>,
    ) {
        match rest.split_first() {
            None => {
                let c = self.count_elements(skeleton, node, rel, memo);
                for _ in 0..repeat {
                    out.push(c);
                }
            }
            Some((&next, tail)) => {
                for edge in &skeleton.node(node).edges {
                    if skeleton.node(edge.child).name == Some(next) {
                        self.walk_element_counts(
                            skeleton, edge.child, tail, rel, edge.run, memo, out,
                        );
                    }
                }
            }
        }
    }

    /// Expands a [`PathPattern`] (wildcards, descendant steps) into the
    /// set of concrete element tag paths — starting with the root's tag —
    /// that occur in this document, in first-occurrence document order.
    /// The paper resolves `*` and `//` against the structure summary, not
    /// the data; this is that resolution over the hash-consed skeleton.
    pub fn expand_pattern(&self, skeleton: &Skeleton, pattern: &PathPattern) -> Vec<RelPath> {
        let mut out = Vec::new();
        let mut seen: HashSet<RelPath> = HashSet::new();
        let root_name = match skeleton.node(self.root).name {
            Some(n) => n,
            None => return out,
        };
        // The pattern's first step must match the root element.
        let states = pattern.advance(PathPattern::START, root_name);
        if states == 0 {
            return out;
        }
        let mut prefix = vec![root_name];
        let mut visited: HashSet<(NodeId, u64, RelPath)> = HashSet::new();
        self.expand_walk(
            skeleton,
            self.root,
            pattern,
            states,
            &mut prefix,
            &mut seen,
            &mut visited,
            &mut out,
        );
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn expand_walk(
        &self,
        skeleton: &Skeleton,
        node: NodeId,
        pattern: &PathPattern,
        states: u64,
        prefix: &mut RelPath,
        seen: &mut HashSet<RelPath>,
        visited: &mut HashSet<(NodeId, u64, RelPath)>,
        out: &mut Vec<RelPath>,
    ) {
        if pattern.accepts(states) && seen.insert(prefix.clone()) {
            out.push(prefix.clone());
        }
        for edge in &skeleton.node(node).edges {
            let child = skeleton.node(edge.child);
            let name = match child.name {
                Some(n) => n,
                None => continue,
            };
            let next = pattern.advance(states, name);
            if next == 0 {
                continue;
            }
            prefix.push(name);
            if visited.insert((edge.child, next, prefix.clone())) {
                self.expand_walk(
                    skeleton, edge.child, pattern, next, prefix, seen, visited, out,
                );
            }
            prefix.pop();
        }
    }

    /// Memoized containment sets: for every DAG node reachable from the
    /// root, the set of tag names occurring strictly below it. One shared
    /// computation for the whole DAG (unlike [`PathIndex::containment`],
    /// which answers for a single node).
    pub fn reachable_names(&self, skeleton: &Skeleton) -> HashMap<NodeId, HashSet<NameId>> {
        let mut memo: HashMap<NodeId, HashSet<NameId>> = HashMap::new();
        fn go(
            s: &Skeleton,
            node: NodeId,
            memo: &mut HashMap<NodeId, HashSet<NameId>>,
        ) -> HashSet<NameId> {
            if let Some(v) = memo.get(&node) {
                return v.clone();
            }
            let mut tags: HashSet<NameId> = HashSet::new();
            for edge in &s.node(node).edges {
                if let Some(n) = s.node(edge.child).name {
                    tags.insert(n);
                }
                tags.extend(go(s, edge.child, memo));
            }
            memo.insert(node, tags.clone());
            tags
        }
        go(skeleton, self.root, &mut memo);
        memo
    }

    /// Containment map: the set of tag names reachable strictly below
    /// `node`. Used by the engine to prune impossible paths early.
    pub fn containment(&self, skeleton: &Skeleton, node: NodeId) -> Vec<NameId> {
        let mut memo: HashMap<NodeId, Vec<NameId>> = HashMap::new();
        fn go(s: &Skeleton, node: NodeId, memo: &mut HashMap<NodeId, Vec<NameId>>) -> Vec<NameId> {
            if let Some(v) = memo.get(&node) {
                return v.clone();
            }
            let mut tags: Vec<NameId> = Vec::new();
            for edge in &s.node(node).edges {
                if let Some(n) = s.node(edge.child).name {
                    tags.push(n);
                }
                tags.extend(go(s, edge.child, memo));
            }
            tags.sort();
            tags.dedup();
            memo.insert(node, tags.clone());
            tags
        }
        go(skeleton, node, &mut memo)
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
        let title_n = s.cons(title, vec![Edge { child: t, run: 1 }]);
        let author_n = s.cons(author, vec![Edge { child: t, run: 1 }]);
        let mut book_edges = Vec::new();
        push_child(&mut book_edges, title_n);
        push_child(&mut book_edges, author_n);
        push_child(&mut book_edges, author_n);
        let book_n = s.cons(book, book_edges);
        let note_n = s.cons(note, vec![Edge { child: t, run: 1 }]);
        let mut root_edges = Vec::new();
        push_child(&mut root_edges, book_n);
        push_child(&mut root_edges, book_n);
        push_child(&mut root_edges, note_n);
        let root = s.cons(lib, root_edges);
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
    fn occurrences_and_binding_counts() {
        let (s, root, names) = sample();
        let index = PathIndex::new(&s, root);
        let (lib, book, author) = (names[0], names[1], names[3]);
        assert_eq!(index.occurrences(&s, &[lib]), 1);
        assert_eq!(index.occurrences(&s, &[lib, book]), 2);
        assert_eq!(
            index.binding_text_counts(&s, &[lib, book], &[author]),
            vec![2, 2]
        );
        assert_eq!(
            index.binding_text_counts(&s, &[lib], &[book, author]),
            vec![4]
        );
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
    fn expand_pattern_resolves_wildcard_and_descendant() {
        let (s, root, names) = sample();
        let index = PathIndex::new(&s, root);
        let (lib, book, title, author, note) = (names[0], names[1], names[2], names[3], names[4]);

        // lib/* — every child tag of the root.
        let p = pat(&s, &[(false, Some("lib")), (false, None)]);
        assert_eq!(
            index.expand_pattern(&s, &p),
            vec![vec![lib, book], vec![lib, note]]
        );

        // //author — authors anywhere.
        let p = pat(&s, &[(true, Some("author"))]);
        assert_eq!(index.expand_pattern(&s, &p), vec![vec![lib, book, author]]);

        // lib//* — all strict descendants of the root.
        let p = pat(&s, &[(false, Some("lib")), (true, None)]);
        assert_eq!(
            index.expand_pattern(&s, &p),
            vec![
                vec![lib, book],
                vec![lib, book, title],
                vec![lib, book, author],
                vec![lib, note],
            ]
        );

        // A tag absent from the document expands to nothing.
        let p = pat(&s, &[(true, Some("absent-tag"))]);
        assert_eq!(index.expand_pattern(&s, &p), Vec::<RelPath>::new());
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
        let id_n = s.cons(id, vec![Edge { child: t, run: 1 }]);
        let name_n = s.cons(name, vec![Edge { child: t, run: 1 }]);
        let mut edges = Vec::new();
        push_child(&mut edges, id_n);
        push_child(&mut edges, name_n);
        s.cons(item, edges);

        let star = pat(&s, &[(false, Some("item")), (false, None)]);
        assert!(star.matches(&[item, name]));
        assert!(!star.matches(&[item, id]));
        // A named step still reaches the attribute.
        let named = pat(&s, &[(false, Some("item")), (false, Some("@id"))]);
        assert!(named.matches(&[item, id]));
    }

    #[test]
    fn binding_element_counts_expand_runs() {
        let (s, root, names) = sample();
        let index = PathIndex::new(&s, root);
        let (lib, book, author) = (names[0], names[1], names[3]);
        assert_eq!(
            index.binding_element_counts(&s, &[lib, book], &[author]),
            vec![2, 2]
        );
        assert_eq!(
            index.binding_element_counts(&s, &[lib, book], &[]),
            vec![1, 1]
        );
    }

    #[test]
    fn reachable_names_cover_the_dag() {
        let (s, root, names) = sample();
        let index = PathIndex::new(&s, root);
        let map = index.reachable_names(&s);
        let below_root = &map[&root];
        assert!(below_root.contains(&names[1]));
        assert!(below_root.contains(&names[3]));
        assert!(!below_root.contains(&names[0]));
    }

    #[test]
    fn containment_lists_reachable_tags() {
        let (s, root, names) = sample();
        let index = PathIndex::new(&s, root);
        let tags = index.containment(&s, root);
        assert!(tags.contains(&names[1]));
        assert!(tags.contains(&names[3]));
        assert!(!tags.contains(&names[0])); // root tag not strictly below
    }
}
