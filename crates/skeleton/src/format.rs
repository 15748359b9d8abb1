//! The binary `.vxsk` skeleton format.
//!
//! Layout (all integers LEB128 varints unless noted):
//!
//! ```text
//! "VXSK"  u8 version(=1)
//! varint name_count
//! name_count × ( varint byte_len, UTF-8 bytes )      -- tag name table
//! varint node_count
//! node_count × node                                   -- bottom-up order
//! node := varint name_code   -- 0 = '#' text marker, else names[code-1]
//!         varint k           -- number of run-length edges
//!         k × ( varint child_node_id, varint run )
//! ```
//!
//! Nodes are emitted in a post-order traversal from the root, so every
//! child id is strictly smaller than its parent's id and the **root is the
//! last node**. Node ids are 0-based positions in the node list; when the
//! document contains text, node 0 is the `#` marker (`name_code` 0, `k` 0).
//!
//! This layout was reconstructed byte-for-byte from the surviving stores in
//! `bench_results/stores/` (the generating source was lost to the seed
//! truncation, and the binary artifacts themselves were damaged by a lossy
//! UTF-8 sanitizer that dropped most bytes ≥ 0x80). [`read_lenient`]
//! tolerates exactly that damage class and reports what it salvaged.

use crate::arena::{Edge, NameId, NodeId, Skeleton};
use crate::{Result, SkeletonError};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use vx_storage::varint;

const MAGIC: &[u8; 4] = b"VXSK";
const VERSION: u8 = 1;

/// Serializes the subtree reachable from `root` (post-order, root last).
///
/// Unreachable arena nodes are garbage-collected; node ids in the file are
/// renumbered densely. Returns the encoded bytes.
pub fn write(skeleton: &Skeleton, root: NodeId) -> Vec<u8> {
    // Post-order over the DAG, each node once.
    let mut order: Vec<NodeId> = Vec::new();
    let mut emitted: HashMap<NodeId, u32> = HashMap::new();
    // Iterative post-order: stack of (node, next_edge_index).
    let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
    while let Some(&(node, next)) = stack.last() {
        let edges = &skeleton.node(node).edges;
        if next < edges.len() {
            stack.last_mut().expect("non-empty").1 += 1;
            let child = edges[next].child;
            if !emitted.contains_key(&child) {
                stack.push((child, 0));
            }
        } else {
            stack.pop();
            if let Entry::Vacant(slot) = emitted.entry(node) {
                slot.insert(order.len() as u32);
                order.push(node);
            }
        }
    }

    // Collect the names actually used, preserving arena id order so the
    // file's name table is stable across rewrites.
    let mut used_names: Vec<NameId> = Vec::new();
    let mut name_code: HashMap<NameId, u64> = HashMap::new();
    for &node in &order {
        if let Some(name) = skeleton.node(node).name {
            if let Entry::Vacant(slot) = name_code.entry(name) {
                slot.insert(0);
                used_names.push(name);
            }
        }
    }
    used_names.sort();
    for (i, &name) in used_names.iter().enumerate() {
        name_code.insert(name, i as u64 + 1);
    }

    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    varint::write(&mut out, used_names.len() as u64);
    for &name in &used_names {
        let s = skeleton.name(name);
        varint::write(&mut out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
    }
    varint::write(&mut out, order.len() as u64);
    for &node in &order {
        let data = skeleton.node(node);
        let code = data.name.map_or(0, |n| name_code[&n]);
        varint::write(&mut out, code);
        varint::write(&mut out, data.edges.len() as u64);
        for e in &data.edges {
            varint::write(&mut out, u64::from(emitted[&e.child]));
            varint::write(&mut out, e.run);
        }
    }
    out
}

/// Strict reader: validates magic, version, name codes, bottom-up child
/// references, and that the buffer is fully consumed. Returns the skeleton
/// and its root (the last node).
pub fn read(bytes: &[u8]) -> Result<(Skeleton, NodeId)> {
    let raw = parse(bytes, true)?.0;
    rebuild(&raw)
}

/// Lenient salvage reader for sanitization-damaged files: parses as many
/// well-formed node records as possible, clamps out-of-range references,
/// and never fails on truncation. See [`SalvageReport`].
pub fn read_lenient(bytes: &[u8]) -> Result<(RawSkeleton, SalvageReport)> {
    parse(bytes, false)
}

/// A structurally unvalidated skeleton as read from disk.
#[derive(Debug, Clone)]
pub struct RawSkeleton {
    pub names: Vec<String>,
    /// `name_code` 0 = `#`; `name_code - 1` indexes `names`.
    pub nodes: Vec<RawNode>,
}

/// One parsed node record.
#[derive(Debug, Clone)]
pub struct RawNode {
    pub name_code: u64,
    pub edges: Vec<(u64, u64)>,
}

/// What the lenient reader managed to recover.
#[derive(Debug, Clone, Default)]
pub struct SalvageReport {
    /// Node records parsed completely.
    pub nodes_parsed: usize,
    /// Declared node count from the header varint (possibly damaged).
    pub declared_nodes: u64,
    /// Edges whose child id referenced the current node or a later one
    /// (impossible in an intact bottom-up file; clamped to node 0).
    pub forward_refs_clamped: usize,
    /// Records whose name code exceeded the name table.
    pub bad_name_codes: usize,
    /// Bytes left unparsed at the tail after the last complete record.
    pub trailing_bytes: usize,
}

impl SalvageReport {
    /// True when the file parsed with no anomalies.
    pub fn is_clean(&self) -> bool {
        self.forward_refs_clamped == 0
            && self.bad_name_codes == 0
            && self.trailing_bytes == 0
            && self.nodes_parsed as u64 == self.declared_nodes
    }
}

fn parse(bytes: &[u8], strict: bool) -> Result<(RawSkeleton, SalvageReport)> {
    if bytes.len() < 5 || &bytes[0..4] != MAGIC {
        return Err(SkeletonError::BadHeader("missing VXSK magic".into()));
    }
    if bytes[4] != VERSION {
        return Err(SkeletonError::BadHeader(format!(
            "unsupported version {}",
            bytes[4]
        )));
    }
    let corrupt = |offset: usize, message: &str| SkeletonError::Corrupt {
        offset,
        message: message.to_string(),
    };

    let mut pos = 5usize;
    let (name_count, next) = varint::read(bytes, pos)?;
    pos = next;
    let mut names = Vec::new();
    for _ in 0..name_count {
        let (len, next) = varint::read(bytes, pos)?;
        pos = next;
        let end = pos
            .checked_add(len as usize)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| corrupt(pos, "name runs past end of file"))?;
        let name =
            std::str::from_utf8(&bytes[pos..end]).map_err(|_| corrupt(pos, "name is not UTF-8"))?;
        names.push(name.to_string());
        pos = end;
    }

    let (declared_nodes, next) = varint::read(bytes, pos)?;
    pos = next;

    let mut report = SalvageReport {
        declared_nodes,
        ..SalvageReport::default()
    };
    let mut nodes: Vec<RawNode> = Vec::new();
    while pos < bytes.len() {
        let record_start = pos;
        let parsed: std::result::Result<(RawNode, usize), ()> = (|| {
            let (name_code, next) = varint::read(bytes, pos).map_err(|_| ())?;
            let (k, mut p) = varint::read(bytes, next).map_err(|_| ())?;
            let mut edges = Vec::new();
            for _ in 0..k {
                let (child, n1) = varint::read(bytes, p).map_err(|_| ())?;
                let (run, n2) = varint::read(bytes, n1).map_err(|_| ())?;
                edges.push((child, run));
                p = n2;
            }
            Ok((RawNode { name_code, edges }, p))
        })();
        let (mut node, next) = match parsed {
            Ok(v) => v,
            Err(()) => {
                if strict {
                    return Err(corrupt(record_start, "truncated node record"));
                }
                report.trailing_bytes = bytes.len() - record_start;
                break;
            }
        };
        let id = nodes.len() as u64;
        if node.name_code > name_count {
            if strict {
                return Err(corrupt(record_start, "name code out of range"));
            }
            report.bad_name_codes += 1;
            node.name_code = 0;
        }
        for edge in &mut node.edges {
            if edge.0 >= id {
                if strict {
                    return Err(corrupt(record_start, "child reference not bottom-up"));
                }
                report.forward_refs_clamped += 1;
                edge.0 = 0;
            }
            if edge.1 == 0 {
                if strict {
                    return Err(corrupt(record_start, "zero-length run"));
                }
                edge.1 = 1;
            }
        }
        nodes.push(node);
        pos = next;
        if strict && nodes.len() as u64 == declared_nodes {
            break;
        }
    }
    report.nodes_parsed = nodes.len();
    if strict {
        if nodes.len() as u64 != declared_nodes {
            return Err(corrupt(pos, "fewer node records than declared"));
        }
        if pos != bytes.len() {
            return Err(corrupt(pos, "trailing bytes after last node record"));
        }
        if nodes.is_empty() {
            return Err(corrupt(pos, "skeleton has no nodes"));
        }
    }
    Ok((RawSkeleton { names, nodes }, report))
}

/// Turns a validated [`RawSkeleton`] into an arena. The raw node ids map to
/// arena ids via the returned table implicitly: raw text nodes collapse
/// into arena node 0 and element records are hash-consed (an intact file
/// contains no duplicates, so this is a bijection on element nodes).
fn rebuild(raw: &RawSkeleton) -> Result<(Skeleton, NodeId)> {
    let mut skeleton = Skeleton::new();
    let name_ids: Vec<NameId> = raw.names.iter().map(|n| skeleton.intern(n)).collect();
    let mut map: Vec<NodeId> = Vec::with_capacity(raw.nodes.len());
    let mut edges = Vec::new();
    for (i, node) in raw.nodes.iter().enumerate() {
        if node.name_code == 0 {
            if !node.edges.is_empty() {
                return Err(SkeletonError::Corrupt {
                    offset: 0,
                    message: format!("text node record {i} has edges"),
                });
            }
            map.push(skeleton.text_node());
            continue;
        }
        let name = name_ids[(node.name_code - 1) as usize];
        edges.clear();
        edges.extend(node.edges.iter().map(|&(child, run)| Edge {
            child: map[child as usize],
            run,
        }));
        map.push(skeleton.cons(name, &edges));
    }
    let root = *map.last().ok_or(SkeletonError::Corrupt {
        offset: 0,
        message: "empty skeleton".into(),
    })?;
    Ok((skeleton, root))
}

/// Rebuilds an arena from a salvaged raw skeleton without strict checks;
/// used by golden-store loading. Damaged duplicate records may collapse via
/// hash-consing; the root is chosen by the caller from `raw.nodes`.
pub fn rebuild_lenient(raw: &RawSkeleton, root_record: usize) -> Result<(Skeleton, NodeId)> {
    let mut skeleton = Skeleton::new();
    let name_ids: Vec<NameId> = raw.names.iter().map(|n| skeleton.intern(n)).collect();
    let mut map: Vec<NodeId> = Vec::with_capacity(raw.nodes.len());
    let mut edges = Vec::new();
    for node in &raw.nodes {
        if node.name_code == 0 {
            map.push(skeleton.text_node());
            continue;
        }
        let name = name_ids[(node.name_code - 1) as usize];
        edges.clear();
        edges.extend(node.edges.iter().map(|&(child, run)| Edge {
            child: map[child as usize],
            run,
        }));
        map.push(skeleton.cons(name, &edges));
    }
    let root = *map.get(root_record).ok_or(SkeletonError::Corrupt {
        offset: 0,
        message: "root record out of range".into(),
    })?;
    Ok((skeleton, root))
}

/// Convenience: pretty header summary for diagnostics.
pub fn describe(raw: &RawSkeleton) -> String {
    format!(
        "{} names, {} node records",
        raw.names.len(),
        raw.nodes.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::push_child;

    fn sample() -> (Skeleton, NodeId) {
        let mut s = Skeleton::new();
        let t = s.text_node();
        let name_row = s.intern("row");
        let name_cell = s.intern("cell");
        let name_table = s.intern("table");
        let cell = s.cons(name_cell, &[Edge { child: t, run: 1 }]);
        let mut row_edges = Vec::new();
        for _ in 0..3 {
            push_child(&mut row_edges, cell);
        }
        let row = s.cons(name_row, &row_edges);
        let root = s.cons(
            name_table,
            &[Edge {
                child: row,
                run: 500,
            }],
        );
        (s, root)
    }

    #[test]
    fn round_trip_is_identity() {
        let (s, root) = sample();
        let bytes = write(&s, root);
        let (s2, root2) = read(&bytes).unwrap();
        assert_eq!(s.expanded_size(root), s2.expanded_size(root2));
        let bytes2 = write(&s2, root2);
        assert_eq!(bytes, bytes2, "serialization must be canonical");
    }

    #[test]
    fn root_is_last_and_children_precede_parents() {
        let (s, root) = sample();
        let bytes = write(&s, root);
        let (raw, report) = read_lenient(&bytes).unwrap();
        assert!(report.is_clean());
        let last = raw.nodes.last().unwrap();
        // Root record carries the 'table' name (code = index+1).
        assert_eq!(raw.names[(last.name_code - 1) as usize], "table");
        for (i, n) in raw.nodes.iter().enumerate() {
            for &(child, _) in &n.edges {
                assert!(child < i as u64);
            }
        }
    }

    #[test]
    fn strict_reader_rejects_damage() {
        let (s, root) = sample();
        let mut bytes = write(&s, root);
        bytes.push(0x00); // trailing garbage
        assert!(read(&bytes).is_err());

        let bytes = write(&s, root);
        assert!(read(&bytes[..bytes.len() - 1]).is_err()); // truncation
    }

    #[test]
    fn lenient_reader_survives_truncation() {
        let (s, root) = sample();
        let bytes = write(&s, root);
        let (raw, report) = read_lenient(&bytes[..bytes.len() - 1]).unwrap();
        assert!(!report.is_clean());
        assert!(raw.nodes.len() >= 2);
    }

    #[test]
    fn garbage_collection_drops_unreachable_nodes() {
        let (mut s, root) = sample();
        let junk_name = s.intern("junk");
        let _unreachable = s.cons(junk_name, &[]);
        let bytes = write(&s, root);
        let (s2, _) = read(&bytes).unwrap();
        assert!(s2.name_id("junk").is_none());
    }
}
