//! Differential test for the path summary. For every node the root
//! reaches, `PathIndex::texts_below`, spelled as name lists, must equal a
//! naive count over the node's expanded subtree: the same entries in the
//! same (first-occurrence document) order. Runs over the four corpus
//! generators at tiny scale, and over a store reopened with a pending
//! WAL record, whose replay leaves the superseded base root in the arena:
//! nodes the root does not reach must have empty ranges.

use std::collections::HashMap;
use std::path::PathBuf;
use xmlvec::core::{vectorize, AppendOptions, Compaction, Store, StoreHandle};
use xmlvec::skeleton::{NameId, NodeId, PathIndex, Skeleton};
use xmlvec::xml::{write_document, Document, WriteOptions};

type Counts = Vec<(Vec<NameId>, u64)>;

/// Texts below `node` by downward tag path (excluding `node`'s own
/// name), in first-occurrence document order, counted by expanding the
/// subtree: every run repeated, every shared node entered again.
fn naive(skeleton: &Skeleton, node: NodeId) -> Counts {
    let mut out: Counts = Vec::new();
    let mut at: HashMap<Vec<NameId>, usize> = HashMap::new();
    // `(node, its path below the start node)`, popped in document order.
    let mut stack = vec![(node, Vec::new())];
    while let Some((v, path)) = stack.pop() {
        let data = skeleton.node(v);
        if data.name.is_none() {
            match at.get(&path) {
                Some(&i) => out[i].1 += 1,
                None => {
                    at.insert(path.clone(), out.len());
                    out.push((path, 1));
                }
            }
            continue;
        }
        for edge in data.edges.iter().rev() {
            let mut below = path.clone();
            below.extend(skeleton.node(edge.child).name);
            for _ in 0..edge.run {
                stack.push((edge.child, below.clone()));
            }
        }
    }
    out
}

fn spelled(index: &PathIndex, node: NodeId) -> Counts {
    index
        .texts_below(node)
        .iter()
        .map(|&(rel, count)| (index.rel_names(rel).collect(), count))
        .collect()
}

/// Checks every node of the arena; returns how many the root does not
/// reach.
fn check(label: &str, skeleton: &Skeleton, root: NodeId, index: &PathIndex) -> usize {
    let seen = skeleton.reachable(root);
    for (i, &reached) in seen.iter().enumerate() {
        let node = NodeId(i as u32);
        if reached {
            assert_eq!(
                spelled(index, node),
                naive(skeleton, node),
                "{label}: node {i}"
            );
        } else {
            assert!(index.texts_below(node).is_empty(), "{label}: node {i}");
        }
    }
    seen.iter().filter(|&&r| !r).count()
}

#[test]
fn summary_matches_expanded_counts_on_the_four_corpora() {
    let corpora: [(&str, Document); 4] = [
        ("xmark", xmlvec::data::xmark(1, 4)),
        ("treebank", xmlvec::data::treebank(1, 12)),
        ("medline", xmlvec::data::medline(1, 8)),
        ("skyserver", xmlvec::data::skyserver(1, 8)),
    ];
    for (label, xml) in corpora {
        let doc = vectorize(&xml).unwrap();
        let root = doc.root.unwrap();
        let index = PathIndex::new(&doc.skeleton, root);
        check(label, &doc.skeleton, root, &index);
        assert_eq!(
            index.text_paths(&doc.skeleton).len(),
            doc.vectors().len(),
            "{label}: one root entry per vector"
        );
    }
}

#[test]
fn superseded_root_after_replay_has_empty_ranges() {
    let dir: PathBuf = std::env::temp_dir().join(format!("vx-path-summary-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let base = vectorize(&xmlvec::data::medline(5, 6)).unwrap();
    Store::save(&dir, &base, Compaction::None).unwrap();
    let extra = write_document(&xmlvec::data::medline(6, 3), &WriteOptions::compact());
    Store::append_batch(&dir, &[extra.into_bytes()], &AppendOptions::default()).unwrap();

    let handle = StoreHandle::open(&dir).unwrap();
    assert_eq!(handle.wal().pending_docs, 1);
    let unreached = check(
        "medline+wal",
        handle.skeleton(),
        handle.root(),
        handle.index(),
    );
    assert!(unreached > 0, "replay must leave the base root behind");
    let _ = std::fs::remove_dir_all(&dir);
}
