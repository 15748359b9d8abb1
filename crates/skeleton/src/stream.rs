//! Incremental, bottom-up skeleton construction for streaming ingest.
//!
//! [`SkeletonBuilder`] consumes start-element / attribute / text /
//! end-element notifications (one per parse event) and hash-conses each
//! subtree the moment its end tag arrives, run-length-coalescing
//! consecutive repeated edges as they are appended. Memory is therefore
//! the compressed DAG plus the pending edges of the *open* elements, on
//! one stack — never the document tree.
//!
//! Construction order: element name interned on entry, then `@attr`
//! pseudo-children in attribute order, then children in document order.
//! [`SkeletonBuilder::resume`] reopens the root of an existing arena, so
//! children appended later are consed into the same DAG: the canonical
//! `.vxsk` serialization of the result is byte-identical to that of a
//! builder fed the combined document from scratch.

use crate::arena::{push_child, Edge, NameId, NodeId, Skeleton, TEXT_NODE};
use crate::{Result, SkeletonError};

/// Builds a hash-consed [`Skeleton`] incrementally from parse events.
///
/// The open elements' pending edges share one stack, each element's a
/// slice of it from its frame's start offset: closing an element conses
/// that slice in place and truncates it away, so building allocates
/// nothing per element once the stack has grown to the document's
/// widest open path.
#[derive(Debug, Default)]
pub struct SkeletonBuilder {
    skeleton: Skeleton,
    /// The pending edges of every open element, outermost first.
    edges: Vec<Edge>,
    /// Per open element: its name, and where its edges start in `edges`.
    frames: Vec<(NameId, usize)>,
    root: Option<NodeId>,
    /// Scratch for spelling an attribute's `@name`.
    attr_name: String,
}

impl SkeletonBuilder {
    /// An empty builder around a fresh arena.
    pub fn new() -> Self {
        SkeletonBuilder::default()
    }

    /// Reopens `root` of an existing arena as the one open element, its
    /// edges so far restored, so further children are appended after the
    /// last one (run-length merged with it, exactly as in one pass over
    /// the combined document). Names and nodes already in the arena are
    /// reused through its `cons` table, so the DAG stays minimal.
    ///
    /// Closing the root conses a new root node; the superseded one stays
    /// in the arena, unreachable from the new root (serialization drops
    /// it, so nothing may count arena nodes as document nodes).
    pub fn resume(skeleton: Skeleton, root: NodeId) -> Result<Self> {
        let data = skeleton.node(root);
        let name = data
            .name
            .ok_or_else(|| SkeletonError::Builder("cannot resume at a text node".to_string()))?;
        let edges = data.edges.clone();
        Ok(SkeletonBuilder {
            skeleton,
            edges,
            frames: vec![(name, 0)],
            root: None,
            attr_name: String::new(),
        })
    }

    /// Number of currently open elements.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Read access to the arena being built (names interned so far, etc.).
    pub fn skeleton(&self) -> &Skeleton {
        &self.skeleton
    }

    /// Opens an element and returns its interned name. Errors on a
    /// second root (the first element after the root element closed).
    pub fn start_element(&mut self, name: &str) -> Result<NameId> {
        if self.frames.is_empty() && self.root.is_some() {
            return Err(SkeletonError::Builder(
                "second root element in stream".to_string(),
            ));
        }
        let id = self.skeleton.intern(name);
        self.frames.push((id, self.edges.len()));
        Ok(id)
    }

    /// Records an attribute of the innermost open element as an `@name`
    /// pseudo-child with a single `#` child (the value itself goes to the
    /// vector layer, not the skeleton), and returns the interned `@name`.
    pub fn attribute(&mut self, name: &str) -> Result<NameId> {
        let start = self.innermost("attribute outside element")?;
        self.attr_name.clear();
        self.attr_name.push('@');
        self.attr_name.push_str(name);
        let attr_id = self.skeleton.intern(&self.attr_name);
        let text = Edge {
            child: TEXT_NODE,
            run: 1,
        };
        let node = self.skeleton.cons(attr_id, &[text]);
        push_edge(&mut self.edges, start, node);
        Ok(attr_id)
    }

    /// Records a text (or CDATA) child of the innermost open element as a
    /// `#` marker.
    pub fn text(&mut self) -> Result<()> {
        let start = self.innermost("text outside element")?;
        push_edge(&mut self.edges, start, TEXT_NODE);
        Ok(())
    }

    /// Closes the innermost open element: its subtree is hash-consed now
    /// and appended (run-length merged) to its parent's edge list.
    pub fn end_element(&mut self) -> Result<()> {
        let (name, start) = self
            .frames
            .pop()
            .ok_or_else(|| SkeletonError::Builder("end tag without open element".to_string()))?;
        let node = self.skeleton.cons(name, &self.edges[start..]);
        self.edges.truncate(start);
        match self.frames.last() {
            Some(&(_, parent_start)) => push_edge(&mut self.edges, parent_start, node),
            None => self.root = Some(node),
        }
        Ok(())
    }

    /// Where the innermost open element's edges start.
    fn innermost(&self, misuse: &str) -> Result<usize> {
        self.frames
            .last()
            .map(|&(_, start)| start)
            .ok_or_else(|| SkeletonError::Builder(misuse.to_string()))
    }

    /// Finishes the build, returning the arena and the root node.
    pub fn finish(self) -> Result<(Skeleton, NodeId)> {
        if let Some(&(open, _)) = self.frames.last() {
            let name = self.skeleton.name(open).to_string();
            return Err(SkeletonError::Builder(format!(
                "unclosed element `{name}` at end of stream"
            )));
        }
        let root = self
            .root
            .ok_or_else(|| SkeletonError::Builder("empty stream: no root element".to_string()))?;
        Ok((self.skeleton, root))
    }
}

/// Appends `child` to the open element whose edges are `edges[start..]`,
/// run-length merged with its last edge, never with its parent's.
fn push_edge(edges: &mut Vec<Edge>, start: usize, child: NodeId) {
    if edges.len() > start {
        push_child(edges, child);
    } else {
        edges.push(Edge { child, run: 1 });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_the_same_arena_as_manual_bottom_up_cons() {
        // <table><row>#</row><row>#</row></table>, built both ways.
        let mut b = SkeletonBuilder::new();
        b.start_element("table").unwrap();
        for _ in 0..2 {
            b.start_element("row").unwrap();
            b.text().unwrap();
            b.end_element().unwrap();
        }
        b.end_element().unwrap();
        let (built, built_root) = b.finish().unwrap();

        let mut s = Skeleton::new();
        let table = s.intern("table");
        let row = s.intern("row");
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
                run: 2,
            }],
        );

        assert_eq!(built.len(), s.len());
        assert_eq!(built.names(), s.names());
        assert_eq!(built.node(built_root), s.node(root));
        assert_eq!(built.duplicate_nodes(), 0);
    }

    #[test]
    fn attributes_become_pseudo_children_in_order() {
        let mut b = SkeletonBuilder::new();
        b.start_element("e").unwrap();
        b.attribute("x").unwrap();
        b.attribute("y").unwrap();
        b.text().unwrap();
        b.end_element().unwrap();
        let (s, root) = b.finish().unwrap();
        assert_eq!(s.names(), ["e", "@x", "@y"]);
        let edges = &s.node(root).edges;
        assert_eq!(edges.len(), 3); // @x node, @y node, '#'
        assert_eq!(edges[2].child, TEXT_NODE);
    }

    #[test]
    fn runs_coalesce_incrementally() {
        let mut b = SkeletonBuilder::new();
        b.start_element("t").unwrap();
        for _ in 0..1000 {
            b.start_element("r").unwrap();
            b.text().unwrap();
            b.end_element().unwrap();
        }
        b.end_element().unwrap();
        let (s, root) = b.finish().unwrap();
        assert_eq!(s.node(root).edges.len(), 1);
        assert_eq!(s.node(root).edges[0].run, 1000);
        assert_eq!(s.expanded_size(root), 1 + 1000 * 2);
        assert_eq!(s.len(), 3); // '#', r-leaf, root
    }

    /// The edge stack is shared, but a child's first edge never merges
    /// into its parent's last one.
    #[test]
    fn frames_on_the_shared_stack_stay_apart() {
        let mut b = SkeletonBuilder::new();
        b.start_element("t").unwrap();
        b.text().unwrap();
        b.start_element("s").unwrap();
        b.text().unwrap();
        b.text().unwrap();
        b.end_element().unwrap();
        b.text().unwrap();
        b.end_element().unwrap();
        let (s, root) = b.finish().unwrap();
        let edges = &s.node(root).edges;
        assert_eq!(edges.len(), 3, "#, s, #");
        assert_eq!((edges[0].child, edges[0].run), (TEXT_NODE, 1));
        assert_eq!((edges[2].child, edges[2].run), (TEXT_NODE, 1));
        let inner = &s.node(edges[1].child).edges;
        assert_eq!(
            (inner.len(), inner[0].child, inner[0].run),
            (1, TEXT_NODE, 2)
        );
    }

    #[test]
    fn resume_extends_the_root_like_one_pass() {
        let build = |rows: usize, tail: bool| {
            let mut b = SkeletonBuilder::new();
            b.start_element("t").unwrap();
            for _ in 0..rows {
                b.start_element("r").unwrap();
                b.text().unwrap();
                b.end_element().unwrap();
            }
            if tail {
                b.start_element("s").unwrap();
                b.end_element().unwrap();
            }
            b.end_element().unwrap();
            b.finish().unwrap()
        };
        let (base, base_root) = build(2, false);
        let mut b = SkeletonBuilder::resume(base, base_root).unwrap();
        assert_eq!(b.depth(), 1);
        b.start_element("r").unwrap();
        b.text().unwrap();
        b.end_element().unwrap();
        b.start_element("s").unwrap();
        b.end_element().unwrap();
        b.end_element().unwrap();
        let (resumed, root) = b.finish().unwrap();
        let (fresh, fresh_root) = build(3, true);
        // The third row merged into the base run; the old root is left
        // behind unreachable, so only the reachable DAG compares equal.
        assert_eq!(resumed.node(root).edges[0].run, 3);
        assert_eq!(resumed.duplicate_nodes(), 0);
        assert_eq!(resumed.len(), fresh.len() + 1);
        assert_eq!(resumed.dag_size(root), fresh.dag_size(fresh_root));
        assert_eq!(
            crate::format::write(&resumed, root),
            crate::format::write(&fresh, fresh_root)
        );
        assert!(SkeletonBuilder::resume(Skeleton::new(), crate::arena::TEXT_NODE).is_err());
    }

    #[test]
    fn misuse_is_reported_not_panicked() {
        assert!(SkeletonBuilder::new().end_element().is_err());
        assert!(SkeletonBuilder::new().text().is_err());
        assert!(SkeletonBuilder::new().attribute("a").is_err());
        assert!(SkeletonBuilder::new().finish().is_err());

        let mut unclosed = SkeletonBuilder::new();
        unclosed.start_element("a").unwrap();
        assert!(unclosed.finish().is_err());

        let mut two_roots = SkeletonBuilder::new();
        two_roots.start_element("a").unwrap();
        two_roots.end_element().unwrap();
        assert!(two_roots.start_element("b").is_err());
    }
}
