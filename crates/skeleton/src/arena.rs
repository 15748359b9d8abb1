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
