//! The hash-consing arena.

use crate::paths::IdHasher;
use std::collections::HashMap;
use std::hash::Hasher;

/// Interned tag name (index into [`Skeleton::names`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub u32);

/// A DAG node id. Node 0 is always the `#` text marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// The reserved `#` text-marker node.
pub const TEXT_NODE: NodeId = NodeId(0);

/// One run-length-encoded edge: `run` consecutive occurrences of `child`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    pub child: NodeId,
    pub run: u64,
}

/// Per-node data. `name == None` marks the `#` text node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeData {
    pub name: Option<NameId>,
    pub edges: Vec<Edge>,
}

/// A hash-consed skeleton DAG.
///
/// Nodes are created bottom-up through [`Skeleton::cons`], which returns an
/// existing id whenever an identical `(name, edges)` node already exists —
/// identical subtrees therefore share one node by construction, and a
/// node's children always have lower ids than the node.
#[derive(Debug, Clone)]
pub struct Skeleton {
    names: Vec<String>,
    name_lookup: HashMap<String, NameId>,
    nodes: Vec<NodeData>,
    cons_table: ConsTable,
}

/// The element nodes of an arena as an open-addressing hash set of ids,
/// hashed and compared by their `(name, edges)`: a lookup hashes the
/// borrowed edges and compares them in place, so finding an existing
/// node builds no key, and the table holds no second copy of the edges.
#[derive(Debug, Clone, Default)]
struct ConsTable {
    /// `node id + 1`, or 0 for an empty slot; the length is a power of
    /// two, kept at least twice the number of ids.
    slots: Vec<u32>,
    len: usize,
}

impl ConsTable {
    fn hash(name: NameId, edges: &[Edge]) -> u64 {
        let mut h = IdHasher::default();
        h.write_u32(name.0);
        for e in edges {
            h.write_u32(e.child.0);
            h.write_u64(e.run);
        }
        h.finish()
    }

    /// The first slot to probe: the hash's top bits, which the
    /// multiply-rotate hash mixes best.
    fn home(&self, hash: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (hash >> (64 - bits)) as usize
    }

    /// The node `(name, edges)` if it exists, else the empty slot where
    /// it belongs.
    fn find(&self, nodes: &[NodeData], name: NameId, edges: &[Edge]) -> Result<NodeId, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(Self::hash(name, edges));
        loop {
            match self.slots[i] {
                0 => return Err(i),
                slot => {
                    let node = &nodes[slot as usize - 1];
                    if node.name == Some(name) && node.edges == edges {
                        return Ok(NodeId(slot - 1));
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Makes room for one more id, rehashing every element node of
    /// `nodes` into a table twice the size when the load would pass one
    /// half.
    fn reserve(&mut self, nodes: &[NodeData]) {
        if 2 * (self.len + 1) <= self.slots.len() {
            return;
        }
        self.slots = vec![0; (2 * self.slots.len()).max(16)];
        let mask = self.slots.len() - 1;
        for (id, node) in nodes.iter().enumerate() {
            let Some(name) = node.name else { continue };
            let mut i = self.home(Self::hash(name, &node.edges));
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = id as u32 + 1;
        }
    }
}

impl Default for Skeleton {
    fn default() -> Self {
        Skeleton::new()
    }
}

impl Skeleton {
    /// An empty skeleton containing only the `#` node (id 0).
    pub fn new() -> Self {
        Skeleton {
            names: Vec::new(),
            name_lookup: HashMap::new(),
            nodes: vec![NodeData {
                name: None,
                edges: Vec::new(),
            }],
            cons_table: ConsTable::default(),
        }
    }

    /// The `#` text-marker node.
    pub fn text_node(&self) -> NodeId {
        TEXT_NODE
    }

    /// Interns a tag name.
    pub fn intern(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.name_lookup.get(name) {
            return id;
        }
        let id = NameId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.name_lookup.insert(name.to_string(), id);
        id
    }

    /// Looks up an already-interned name.
    pub fn name_id(&self, name: &str) -> Option<NameId> {
        self.name_lookup.get(name).copied()
    }

    /// The string for an interned name.
    pub fn name(&self, id: NameId) -> &str {
        &self.names[id.0 as usize]
    }

    /// All interned names in id order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of arena nodes (including `#`). An arena extended by
    /// [`crate::SkeletonBuilder::resume`] also holds superseded roots;
    /// [`Skeleton::dag_size`] counts only the document's nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if only the `#` node exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Node data by id.
    pub fn node(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.0 as usize]
    }

    /// Iterates `(id, data)` in creation (bottom-up) order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeData)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, d)| (NodeId(i as u32), d))
    }

    /// Hash-conses an element node. Children must already exist (bottom-up
    /// construction); consecutive equal children in `edges` are expected to
    /// be run-length merged (see [`push_child`]). An existing node is
    /// found without copying `edges`; only a new node clones them.
    pub fn cons(&mut self, name: NameId, edges: &[Edge]) -> NodeId {
        debug_assert!(edges
            .iter()
            .all(|e| (e.child.0 as usize) < self.nodes.len()));
        debug_assert!(edges.iter().all(|e| e.run > 0));
        self.cons_table.reserve(&self.nodes);
        match self.cons_table.find(&self.nodes, name, edges) {
            Ok(id) => id,
            Err(slot) => {
                let id = NodeId(self.nodes.len() as u32);
                self.nodes.push(NodeData {
                    name: Some(name),
                    edges: edges.to_vec(),
                });
                self.cons_table.slots[slot] = id.0 + 1;
                self.cons_table.len += 1;
                id
            }
        }
    }

    /// Verifies the hash-consing invariant: no two nodes share the same
    /// `(name, edges)`. Returns the number of duplicate pairs (0 when the
    /// invariant holds).
    pub fn duplicate_nodes(&self) -> usize {
        let mut seen: HashMap<(Option<NameId>, &[Edge]), NodeId> = HashMap::new();
        let mut dups = 0;
        for (id, data) in self.iter() {
            if seen
                .insert((data.name, data.edges.as_slice()), id)
                .is_some()
            {
                dups += 1;
            }
        }
        dups
    }

    /// Number of distinct DAG nodes reachable from `root` (including `#`
    /// when the document has text): the document's compressed size.
    pub fn dag_size(&self, root: NodeId) -> usize {
        self.reachable(root).iter().filter(|&&seen| seen).count()
    }

    /// `[NodeId]` → whether `root` reaches the node. An arena extended by
    /// [`crate::SkeletonBuilder::resume`] also holds superseded roots,
    /// which the document does not reach.
    pub fn reachable(&self, root: NodeId) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if !std::mem::replace(&mut seen[id.0 as usize], true) {
                stack.extend(self.node(id).edges.iter().map(|e| e.child));
            }
        }
        seen
    }

    /// The document-order traversal of the tree the element `root`
    /// expands to, with `label` on the root; see [`Traversal`].
    pub fn traverse<L: Copy>(&self, root: NodeId, label: L) -> Traversal<'_, L> {
        Traversal {
            skeleton: self,
            stack: Vec::new(),
            root: Some((root, label)),
        }
    }

    /// Expanded (uncompressed) size in tree nodes of the subtree rooted at
    /// `id`: the element/text node itself plus all descendants, with runs
    /// multiplied out. This is the `|T|`-side count of the paper's
    /// compression ratio.
    ///
    /// One forward pass over the nodes `id` reaches, children before
    /// parents as [`Skeleton::cons`] numbers them: no recursion, so any
    /// depth fits on any stack.
    pub fn expanded_size(&self, id: NodeId) -> u64 {
        let reached = self.reachable(id);
        let mut size = vec![0u64; id.0 as usize + 1];
        for v in 0..=id.0 as usize {
            if reached[v] {
                size[v] = 1 + self.nodes[v]
                    .edges
                    .iter()
                    .map(|e| e.run * size[e.child.0 as usize])
                    .sum::<u64>();
            }
        }
        size[id.0 as usize]
    }
}

/// One step of a [`Traversal`]. Labels are the caller's: the root's is
/// given, and each element run edge's copies get `child(parent's label,
/// name)`, computed once per edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visit<L> {
    /// An element is entered. `first` marks the first copy of a run edge,
    /// where a decision about the whole run belongs; the root, reached by
    /// no edge, is not one.
    Enter {
        node: NodeId,
        name: NameId,
        label: L,
        first: bool,
    },
    /// `run` consecutive texts (one edge) in the element labelled `label`.
    Text { label: L, run: u64 },
    /// The element entered last and not yet left is left.
    Leave { name: NameId },
}

/// A document-order walk of the tree a DAG node expands to, on an
/// explicit stack of `(node, label, edge index, copies left in the run)`
/// frames: any depth fits on any stack, and a step allocates nothing once
/// the stack has grown. The caller may skip the rest of the current
/// element or the copies of its run edge still to come.
pub struct Traversal<'s, L> {
    skeleton: &'s Skeleton,
    stack: Vec<Frame<'s, L>>,
    /// The root and its label, until the first step enters it.
    root: Option<(NodeId, L)>,
}

/// An entered element: its node's name and edges, and its label.
struct Frame<'s, L> {
    name: NameId,
    edges: &'s [Edge],
    label: L,
    /// The next edge to start.
    edge: usize,
    /// Copies of edge `edge - 1` still to enter, and their label.
    left: u64,
    child: L,
}

impl<'s, L: Copy> Traversal<'s, L> {
    /// The next step; `child` labels element run edges (see [`Visit`]).
    #[inline]
    pub fn next(&mut self, mut child: impl FnMut(L, NameId) -> L) -> Option<Visit<L>> {
        let skeleton = self.skeleton;
        let Some(top) = self.stack.last_mut() else {
            let (node, label) = self.root.take()?;
            return Some(self.enter(node, skeleton.node(node), label, false));
        };
        if top.left > 0 {
            top.left -= 1;
            let node = top.edges[top.edge - 1].child;
            let label = top.child;
            return Some(self.enter(node, skeleton.node(node), label, false));
        }
        let Some(&edge) = top.edges.get(top.edge) else {
            let name = top.name;
            self.stack.pop();
            return Some(Visit::Leave { name });
        };
        top.edge += 1;
        let data = skeleton.node(edge.child);
        let Some(name) = data.name else {
            let (label, run) = (top.label, edge.run);
            return Some(Visit::Text { label, run });
        };
        top.left = edge.run - 1;
        top.child = child(top.label, name);
        let label = top.child;
        Some(self.enter(edge.child, data, label, true))
    }

    #[inline]
    fn enter(&mut self, node: NodeId, data: &'s NodeData, label: L, first: bool) -> Visit<L> {
        let name = data.name.expect("a traversal starts at an element");
        self.stack.push(Frame {
            name,
            edges: &data.edges,
            label,
            edge: 0,
            left: 0,
            child: label,
        });
        Visit::Enter {
            node,
            name,
            label,
            first,
        }
    }

    /// Skips what is left of the current element, its `Leave` included.
    pub fn skip_subtree(&mut self) {
        self.stack.pop();
    }

    /// Skips the copies of the current element's run edge not entered
    /// yet, returning how many; call it before [`Traversal::skip_subtree`].
    pub fn skip_run(&mut self) -> u64 {
        let parent = self.stack.len().checked_sub(2);
        parent.map_or(0, |p| std::mem::take(&mut self.stack[p].left))
    }
}

/// Appends `child` to an edge list, merging into the previous edge when it
/// repeats the same child (run-length encoding of consecutive edges).
pub fn push_child(edges: &mut Vec<Edge>, child: NodeId) {
    if let Some(last) = edges.last_mut() {
        if last.child == child {
            last.run += 1;
            return;
        }
    }
    edges.push(Edge { child, run: 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_children_run_length_encode() {
        let mut s = Skeleton::new();
        let a = s.intern("a");
        let leaf = s.cons(
            a,
            &[Edge {
                child: TEXT_NODE,
                run: 1,
            }],
        );
        let mut edges = Vec::new();
        for _ in 0..5 {
            push_child(&mut edges, leaf);
        }
        assert_eq!(
            edges,
            vec![Edge {
                child: leaf,
                run: 5
            }]
        );
    }

    #[test]
    fn identical_subtrees_share_one_node() {
        let mut s = Skeleton::new();
        let a = s.intern("a");
        let n1 = s.cons(
            a,
            &[Edge {
                child: TEXT_NODE,
                run: 1,
            }],
        );
        let n2 = s.cons(
            a,
            &[Edge {
                child: TEXT_NODE,
                run: 1,
            }],
        );
        assert_eq!(n1, n2);
        assert_eq!(s.len(), 2); // '#' + one shared leaf
        assert_eq!(s.duplicate_nodes(), 0);
    }

    /// `r(#×2, a×3, c(a, #))` with `a = a(#, b×2)` and `b = b(#)`, its
    /// root and its `a` node.
    fn runs_dag() -> (Skeleton, NodeId, NodeId) {
        let mut s = Skeleton::new();
        let (r, a, b, c) = (s.intern("r"), s.intern("a"), s.intern("b"), s.intern("c"));
        let text = |run| Edge {
            child: TEXT_NODE,
            run,
        };
        let b_n = s.cons(b, &[text(1)]);
        let a_n = s.cons(a, &[text(1), Edge { child: b_n, run: 2 }]);
        let c_n = s.cons(c, &[Edge { child: a_n, run: 1 }, text(1)]);
        let edges = [
            text(2),
            Edge { child: a_n, run: 3 },
            Edge { child: c_n, run: 1 },
        ];
        let root = s.cons(r, &edges);
        (s, root, a_n)
    }

    /// A label that tells the paths apart: the parent's, then the name.
    fn label(parent: u64, name: NameId) -> u64 {
        parent * 8 + u64::from(name.0) + 1
    }

    /// The events a [`Traversal`] must produce, by plain recursion.
    fn expand(s: &Skeleton, node: NodeId, at: u64, first: bool, out: &mut Vec<Visit<u64>>) {
        let name = s.node(node).name.unwrap();
        out.push(Visit::Enter {
            node,
            name,
            label: at,
            first,
        });
        for edge in &s.node(node).edges {
            match s.node(edge.child).name {
                None => out.push(Visit::Text {
                    label: at,
                    run: edge.run,
                }),
                Some(child) => {
                    for copy in 0..edge.run {
                        expand(s, edge.child, label(at, child), copy == 0, out);
                    }
                }
            }
        }
        out.push(Visit::Leave { name });
    }

    #[test]
    fn traversal_expands_runs_in_document_order() {
        let (s, root, a_n) = runs_dag();
        for start in [root, a_n] {
            let mut expected = Vec::new();
            expand(&s, start, 5, false, &mut expected);
            let mut traversal = s.traverse(start, 5);
            let got: Vec<_> = std::iter::from_fn(|| traversal.next(label)).collect();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn skips_drop_a_run_or_the_rest_of_an_element() {
        let (s, root, a_n) = runs_dag();
        /// The texts a traversal from `root` yields, `on_enter` acting at
        /// each element it enters.
        fn texts(
            s: &Skeleton,
            root: NodeId,
            mut on_enter: impl FnMut(&mut Traversal<'_, u64>, NodeId, bool),
        ) -> u64 {
            let mut traversal = s.traverse(root, 0);
            let mut texts = 0;
            while let Some(visit) = traversal.next(label) {
                match visit {
                    Visit::Text { run, .. } => texts += run,
                    Visit::Enter { node, first, .. } => on_enter(&mut traversal, node, first),
                    Visit::Leave { .. } => {}
                }
            }
            texts
        }
        // r holds 2 + 3·3 + (3 + 1) = 15 texts, each `a` copy 3 of them.
        assert_eq!(texts(&s, root, |_, _, _| {}), 15);
        // Skipping each `a` run at its first copy: the root's three
        // copies (2 left after the first) and `c`'s one (none left).
        let mut left = Vec::new();
        let kept = texts(&s, root, |traversal, node, first| {
            if node == a_n && first {
                left.push(traversal.skip_run());
                traversal.skip_subtree();
            }
        });
        assert_eq!((kept, left), (15 - 4 * 3, vec![2, 0]));
        // Leaving each `a` after its first copy of `b`: the second `b`
        // copy is never entered, and neither is anything after it.
        let mut traversal = s.traverse(root, 0u64);
        let (mut entered_b, mut leaves) = (0, 0);
        while let Some(visit) = traversal.next(label) {
            match visit {
                Visit::Enter { name, .. } if s.name(name) == "b" => {
                    entered_b += 1;
                    traversal.skip_run();
                    traversal.skip_subtree();
                    traversal.skip_subtree();
                }
                Visit::Leave { .. } => leaves += 1,
                _ => {}
            }
        }
        assert_eq!(entered_b, 4, "one per `a` copy");
        assert_eq!(leaves, 2, "only `c` and `r` are left normally");
    }

    /// The traversal keeps its frames on the heap: a 10^6-deep chain is
    /// walked on a 256 KiB stack.
    #[test]
    fn traversal_survives_a_deep_chain_on_a_small_stack() {
        const DEPTH: u64 = 1_000_000;
        let outcome = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let mut skeleton = Skeleton::new();
                let a = skeleton.intern("a");
                let mut node = TEXT_NODE;
                for _ in 0..DEPTH {
                    node = skeleton.cons(
                        a,
                        &[Edge {
                            child: node,
                            run: 1,
                        }],
                    );
                }
                let mut traversal = skeleton.traverse(node, 1u64);
                let (mut enters, mut leaves, mut text_at) = (0, 0, 0);
                while let Some(visit) = traversal.next(|depth, _| depth + 1) {
                    match visit {
                        Visit::Enter { .. } => enters += 1,
                        Visit::Text { label, .. } => text_at = label,
                        Visit::Leave { .. } => leaves += 1,
                    }
                }
                (enters, leaves, text_at)
            })
            .unwrap()
            .join()
            .expect("no stack overflow");
        assert_eq!(outcome, (DEPTH, DEPTH, DEPTH));
    }

    #[test]
    fn expanded_size_multiplies_runs() {
        let mut s = Skeleton::new();
        let row = s.intern("row");
        let table = s.intern("table");
        let leaf = s.cons(
            row,
            &[Edge {
                child: TEXT_NODE,
                run: 1,
            }],
        );
        let root = s.cons(
            table,
            &[Edge {
                child: leaf,
                run: 1000,
            }],
        );
        // root + 1000 * (row + '#')
        assert_eq!(s.expanded_size(root), 1 + 1000 * 2);
        // DAG itself stays tiny.
        assert_eq!(s.len(), 3);
    }
}
