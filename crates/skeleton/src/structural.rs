//! The structural self-index (`.vxpi`): per-node containment summaries
//! that let the engine decide — without walking a subtree — whether a
//! `*`/`//` step pattern can still complete inside it.
//!
//! The paper's §4 observation is that skeleton matching need not be a
//! linear pass: a path-summary → skeleton-node containment map tells a
//! `//author` step which DAG nodes can materialize an `author` at all,
//! so evaluation seeds cursors only at candidate nodes and bulk-skips
//! every shared subtree that provably contains no match. Three arrays,
//! all indexed by arena [`NodeId`], carry that information:
//!
//! * `below` — a bitset over [`NameId`] per node: the element names that
//!   occur *strictly below* the node (the containment map proper),
//! * `depth_below` — the longest element chain below the node, which
//!   bounds how many further pattern steps can still match,
//! * `expanded` — the expanded (run-multiplied) node count of the
//!   subtree, so a skip can be credited with exactly the work it saved.
//!
//! The index is derived data: it is rebuilt from the skeleton whenever
//! it is absent, stale, or damaged, and persisting it (`write_index` /
//! `read_index`) is purely an open-time optimization. On disk the
//! containment map is stored name-major as run-coalesced node-id ranges
//! — regular documents cons whole families of row nodes consecutively,
//! so the ranges collapse — and the reader degrades to rebuild-on-open
//! on any parse or staleness failure, mirroring `.vec` salvage.

use crate::arena::{NameId, NodeId, Skeleton};
use crate::{Result, SkeletonError};
use vx_storage::varint;

/// `.vxpi` magic bytes.
pub const INDEX_MAGIC: &[u8; 4] = b"VXPI";
/// Current `.vxpi` format version.
pub const INDEX_VERSION: u8 = 1;

/// The structural self-index over one skeleton arena. Node ids refer to
/// the arena it was built from (or validated against via
/// [`StructIndex::matches`]); it holds no skeleton reference and is
/// `Send + Sync` shareable like the rest of the derived read path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructIndex {
    name_count: usize,
    /// `u64` words per node-level name bitset.
    blocks: usize,
    root: NodeId,
    /// Node-major name bitsets, `node_count * blocks` words: bit `n` of
    /// node `v`'s slice is set iff an element named `n` occurs strictly
    /// below `v`.
    below: Vec<u64>,
    /// Longest element chain strictly below each node (0 = leaf).
    depth_below: Vec<u32>,
    /// Expanded element+text node count of each subtree (runs
    /// multiplied), matching `Skeleton::expanded_size`.
    expanded: Vec<u64>,
}

impl StructIndex {
    /// Builds the index in one bottom-up pass. `cons` guarantees
    /// `child.id < parent.id` for every node in the arena (file-order
    /// rebuilds preserve this too), so a single forward scan sees every
    /// child before its parents.
    pub fn build(skeleton: &Skeleton, root: NodeId) -> StructIndex {
        let name_count = skeleton.names().len();
        let blocks = name_count.div_ceil(64).max(1);
        let node_count = skeleton.len();
        let mut below = vec![0u64; node_count * blocks];
        let mut depth_below = vec![0u32; node_count];
        let mut expanded = vec![0u64; node_count];
        for (id, data) in skeleton.iter() {
            let v = id.0 as usize;
            expanded[v] = 1;
            let mut depth = 0u32;
            for edge in &data.edges {
                let c = edge.child.0 as usize;
                expanded[v] += edge.run * expanded[c];
                if let Some(child_name) = skeleton.node(edge.child).name {
                    depth = depth.max(1 + depth_below[c]);
                    // below(v) ∪= {child} ∪ below(child); split borrows by
                    // index since child and parent share one flat vector.
                    let (lo, hi) = below.split_at_mut(v * blocks);
                    let child_bits = &lo[c * blocks..c * blocks + blocks];
                    let node_bits = &mut hi[..blocks];
                    for (word, child_word) in node_bits.iter_mut().zip(child_bits) {
                        *word |= child_word;
                    }
                    node_bits[child_name.0 as usize / 64] |= 1u64 << (child_name.0 % 64);
                }
            }
            depth_below[v] = depth;
        }
        StructIndex {
            name_count,
            blocks,
            root,
            below,
            depth_below,
            expanded,
        }
    }

    /// Whether this index describes exactly `skeleton` rooted at `root`
    /// — the staleness gate a loader must pass before trusting a
    /// persisted index.
    pub fn matches(&self, skeleton: &Skeleton, root: NodeId) -> bool {
        self.root == root
            && self.name_count == skeleton.names().len()
            && self.depth_below.len() == skeleton.len()
    }

    /// Number of nodes the index covers.
    pub fn node_count(&self) -> usize {
        self.depth_below.len()
    }

    /// Number of interned names the bitsets cover.
    pub fn name_count(&self) -> usize {
        self.name_count
    }

    /// `u64` words per per-node name bitset.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// The root the index was built for.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The name bitset of `node`: names occurring strictly below it.
    pub fn below_bits(&self, node: NodeId) -> &[u64] {
        let v = node.0 as usize * self.blocks;
        &self.below[v..v + self.blocks]
    }

    /// Whether an element named `name` occurs strictly below `node`.
    pub fn contains_below(&self, node: NodeId, name: NameId) -> bool {
        let bit = name.0 as usize;
        bit < self.name_count && self.below_bits(node)[bit / 64] & (1u64 << (bit % 64)) != 0
    }

    /// Longest element chain strictly below `node`.
    pub fn depth_below(&self, node: NodeId) -> u32 {
        self.depth_below[node.0 as usize]
    }

    /// Expanded node count of the subtree rooted at `node` (runs
    /// multiplied, text markers included) — what a bulk skip of the
    /// subtree saves.
    pub fn expanded(&self, node: NodeId) -> u64 {
        self.expanded[node.0 as usize]
    }

    /// The containment map viewed name-major: every node that has
    /// `name` strictly below it, ascending.
    pub fn nodes_with(&self, name: NameId) -> Vec<NodeId> {
        (0..self.node_count() as u32)
            .map(NodeId)
            .filter(|&v| self.contains_below(v, name))
            .collect()
    }
}

/// Serializes the index as a `.vxpi` byte stream.
///
/// Layout (all integers LEB128 varints):
///
/// ```text
/// "VXPI" version  node_count name_count root_id
/// node_count × depth_below
/// node_count × expanded
/// name_count × ( range_count, range_count × (start_delta, len) )
/// ```
///
/// The per-name section is the containment map run-coalesced: ascending
/// node-id ranges where the name's bit is set, each start encoded as a
/// delta from the previous range's end (first from 0).
pub fn write_index(index: &StructIndex) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(INDEX_MAGIC);
    out.push(INDEX_VERSION);
    varint::write(&mut out, index.node_count() as u64);
    varint::write(&mut out, index.name_count as u64);
    varint::write(&mut out, index.root.0 as u64);
    for &d in &index.depth_below {
        varint::write(&mut out, d as u64);
    }
    for &e in &index.expanded {
        varint::write(&mut out, e);
    }
    for name in 0..index.name_count as u32 {
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for v in 0..index.node_count() as u32 {
            if index.contains_below(NodeId(v), NameId(name)) {
                match ranges.last_mut() {
                    Some((start, len)) if *start + *len == v as u64 => *len += 1,
                    _ => ranges.push((v as u64, 1)),
                }
            }
        }
        varint::write(&mut out, ranges.len() as u64);
        let mut prev_end = 0u64;
        for (start, len) in ranges {
            varint::write(&mut out, start - prev_end);
            varint::write(&mut out, len);
            prev_end = start + len;
        }
    }
    out
}

/// Strict `.vxpi` reader. Any failure means the caller should rebuild
/// from the skeleton — a damaged index is never an open failure.
pub fn read_index(bytes: &[u8]) -> Result<StructIndex> {
    if bytes.len() < 5 || &bytes[0..4] != INDEX_MAGIC {
        return Err(SkeletonError::BadHeader("missing VXPI magic".to_string()));
    }
    if bytes[4] != INDEX_VERSION {
        return Err(SkeletonError::BadHeader(format!(
            "unsupported .vxpi version {}",
            bytes[4]
        )));
    }
    let corrupt = |offset: usize, message: &str| SkeletonError::Corrupt {
        offset,
        message: message.to_string(),
    };
    let mut pos = 5;
    let next = |buf: &[u8], pos: &mut usize| -> Result<u64> {
        let (value, p) = varint::read(buf, *pos)?;
        *pos = p;
        Ok(value)
    };
    let node_count = next(bytes, &mut pos)? as usize;
    let name_count = next(bytes, &mut pos)? as usize;
    let root = next(bytes, &mut pos)?;
    // Cap counts by what the buffer could possibly hold (each entry is
    // at least one byte) so a corrupt header cannot drive a huge
    // allocation before the first per-node read fails.
    if node_count > bytes.len() || name_count > bytes.len() {
        return Err(corrupt(5, "declared counts exceed file size"));
    }
    if root >= node_count.max(1) as u64 {
        return Err(corrupt(5, "root id out of range"));
    }
    let mut depth_below = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        let d = next(bytes, &mut pos)?;
        if d > u32::MAX as u64 {
            return Err(corrupt(pos, "depth exceeds u32"));
        }
        depth_below.push(d as u32);
    }
    let mut expanded = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        expanded.push(next(bytes, &mut pos)?);
    }
    let blocks = name_count.div_ceil(64).max(1);
    let mut below = vec![0u64; node_count * blocks];
    for name in 0..name_count {
        let range_count = next(bytes, &mut pos)? as usize;
        let mut cursor = 0u64;
        for _ in 0..range_count {
            let start = cursor + next(bytes, &mut pos)?;
            let len = next(bytes, &mut pos)?;
            if len == 0 {
                return Err(corrupt(pos, "empty containment range"));
            }
            let end = start
                .checked_add(len)
                .ok_or_else(|| corrupt(pos, "containment range overflows"))?;
            if end > node_count as u64 {
                return Err(corrupt(pos, "containment range past node count"));
            }
            for v in start..end {
                below[v as usize * blocks + name / 64] |= 1u64 << (name % 64);
            }
            cursor = end;
        }
    }
    if pos != bytes.len() {
        return Err(corrupt(pos, "trailing bytes after containment map"));
    }
    Ok(StructIndex {
        name_count,
        blocks,
        root: NodeId(root as u32),
        below,
        depth_below,
        expanded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{Edge, TEXT_NODE};

    /// `<lib> <book><title>#</title><author>#</author></book> ×2
    ///        <note>#</note> </lib>`
    fn sample() -> (Skeleton, NodeId) {
        let mut s = Skeleton::new();
        let lib = s.intern("lib");
        let book = s.intern("book");
        let title = s.intern("title");
        let author = s.intern("author");
        let note = s.intern("note");
        let text = |child| Edge { child, run: 1 };
        let t = s.cons(title, &[text(TEXT_NODE)]);
        let a = s.cons(author, &[text(TEXT_NODE)]);
        let b = s.cons(book, &[text(t), text(a)]);
        let n = s.cons(note, &[text(TEXT_NODE)]);
        let root = s.cons(lib, &[Edge { child: b, run: 2 }, text(n)]);
        (s, root)
    }

    #[test]
    fn containment_depth_and_expansion_agree_with_the_arena() {
        let (s, root) = sample();
        let idx = StructIndex::build(&s, root);
        assert!(idx.matches(&s, root));
        let name = |n: &str| s.name_id(n).unwrap();
        // Root contains every element name below it, but not itself.
        for n in ["book", "title", "author", "note"] {
            assert!(idx.contains_below(root, name(n)), "root lacks {n}");
        }
        assert!(!idx.contains_below(root, name("lib")));
        // A book contains title/author only; leaves contain nothing.
        let book = idx.nodes_with(name("title"))[0];
        assert!(idx.contains_below(book, name("author")));
        assert!(!idx.contains_below(book, name("note")));
        assert_eq!(idx.depth_below(root), 2);
        assert_eq!(idx.depth_below(book), 1);
        // Expansion matches the arena's memoized count everywhere.
        for (id, _) in s.iter() {
            assert_eq!(idx.expanded(id), s.expanded_size(id), "node {id:?}");
        }
        // lib + 2×(book+title+#+author+#) + note + # = 13.
        assert_eq!(idx.expanded(root), 13);
    }

    #[test]
    fn round_trips_through_vxpi_bytes() {
        let (s, root) = sample();
        let idx = StructIndex::build(&s, root);
        let bytes = write_index(&idx);
        let back = read_index(&bytes).unwrap();
        assert_eq!(back, idx);
        // Serialization is canonical: a second trip is byte-identical.
        assert_eq!(write_index(&back), bytes);
    }

    #[test]
    fn reader_rejects_damage_at_every_truncation_point() {
        let (s, root) = sample();
        let bytes = write_index(&StructIndex::build(&s, root));
        for cut in 0..bytes.len() {
            assert!(
                read_index(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(read_index(&extended).is_err(), "trailing byte accepted");
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(read_index(&wrong_magic).is_err());
        let mut wrong_version = bytes;
        wrong_version[4] = 9;
        assert!(read_index(&wrong_version).is_err());
    }

    #[test]
    fn stale_index_fails_the_matches_gate() {
        let (s, root) = sample();
        let idx = StructIndex::build(&s, root);
        let mut grown = s.clone();
        grown.intern("extra");
        assert!(!idx.matches(&grown, root), "name count changed");
        let (other, other_root) = {
            let mut s2 = Skeleton::new();
            let a = s2.intern("a");
            let root = s2.cons(
                a,
                &[Edge {
                    child: TEXT_NODE,
                    run: 1,
                }],
            );
            (s2, root)
        };
        assert!(!idx.matches(&other, other_root));
    }

    #[test]
    fn build_is_deterministic() {
        let (s, root) = sample();
        let a = write_index(&StructIndex::build(&s, root));
        let b = write_index(&StructIndex::build(&s, root));
        assert_eq!(a, b);
    }
}
