//! The hash-consing arena.

use std::collections::HashMap;

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
/// identical subtrees therefore share one node by construction.
#[derive(Debug, Clone)]
pub struct Skeleton {
    names: Vec<String>,
    name_lookup: HashMap<String, NameId>,
    nodes: Vec<NodeData>,
    cons_table: HashMap<(Option<NameId>, Vec<Edge>), NodeId>,
}

impl Default for Skeleton {
    fn default() -> Self {
        Skeleton::new()
    }
}

impl Skeleton {
    /// An empty skeleton containing only the `#` node (id 0).
    pub fn new() -> Self {
        let mut s = Skeleton {
            names: Vec::new(),
            name_lookup: HashMap::new(),
            nodes: Vec::new(),
            cons_table: HashMap::new(),
        };
        s.nodes.push(NodeData {
            name: None,
            edges: Vec::new(),
        });
        s.cons_table.insert((None, Vec::new()), TEXT_NODE);
        s
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
    /// be run-length merged (see [`push_child`]).
    pub fn cons(&mut self, name: NameId, edges: Vec<Edge>) -> NodeId {
        debug_assert!(edges
            .iter()
            .all(|e| (e.child.0 as usize) < self.nodes.len()));
        debug_assert!(edges.iter().all(|e| e.run > 0));
        let key = (Some(name), edges);
        if let Some(&id) = self.cons_table.get(&key) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData {
            name: Some(name),
            edges: key.1.clone(),
        });
        self.cons_table.insert(key, id);
        id
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
    pub fn expanded_size(&self, id: NodeId) -> u64 {
        fn go(s: &Skeleton, id: NodeId, memo: &mut HashMap<NodeId, u64>) -> u64 {
            if let Some(&v) = memo.get(&id) {
                return v;
            }
            let mut total = 1u64;
            for e in &s.node(id).edges {
                total += e.run * go(s, e.child, memo);
            }
            memo.insert(id, total);
            total
        }
        go(self, id, &mut HashMap::new())
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
            vec![Edge {
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
            vec![Edge {
                child: TEXT_NODE,
                run: 1,
            }],
        );
        let n2 = s.cons(
            a,
            vec![Edge {
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
            vec![Edge {
                child: TEXT_NODE,
                run: 1,
            }],
        );
        let root = s.cons(
            table,
            vec![Edge {
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
