//! Output checks shared by the workloads.

use cts::{ClockTree, CtsResult, NodeKind, TreeNodeId};

/// Checks that walking down from `source` reaches every node at most once
/// and every sink index `0..sinks` exactly once. Returns a description of
/// the first violation.
pub fn tree_reaches_each_sink_once(
    tree: &ClockTree,
    source: TreeNodeId,
    sinks: usize,
) -> Result<(), String> {
    if source.index() >= tree.len() {
        return Err(format!(
            "source {source} outside a {}-node arena",
            tree.len()
        ));
    }
    if !matches!(tree.node(source).kind, NodeKind::Source { .. }) {
        return Err(format!("root {source} is not a source node"));
    }
    let mut seen_node = vec![false; tree.len()];
    let mut seen_sink = vec![0u32; sinks];
    let mut stack = vec![source];
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut seen_node[id.index()], true) {
            return Err(format!("node {id} is reachable twice"));
        }
        let node = tree.node(id);
        if let NodeKind::Sink { index, .. } = node.kind {
            match seen_sink.get_mut(index) {
                Some(n) => *n += 1,
                None => return Err(format!("sink index {index} out of range 0..{sinks}")),
            }
        }
        for &child in &node.children {
            if child.index() >= tree.len() || tree.node(child).parent != Some(id) {
                return Err(format!("child {child} of {id} does not point back"));
            }
            stack.push(child);
        }
    }
    match seen_sink.iter().position(|&n| n != 1) {
        Some(i) => Err(format!("sink {i} reached {} times", seen_sink[i])),
        None => Ok(()),
    }
}

/// Every result field that synthesis determines, rendered exactly (`{:?}`
/// prints each f64 with all the digits needed to round-trip it). The two
/// wall-clock telemetry fields are left out; everything else must match
/// byte for byte between runs of the same instance and options.
pub fn result_bytes(r: &CtsResult) -> String {
    format!(
        "{:?}|{:?}|{:?}|{}|{}|{:?}|{}|{:?}|{:?}",
        r.tree,
        r.source,
        r.report,
        r.levels,
        r.buffers,
        r.wirelength_um,
        r.flippings,
        r.buffer_cap_f,
        r.level_stats
    )
}

/// The tree part of [`result_bytes`], for results that arrive over the
/// wire as geometry only.
pub fn tree_bytes(tree: &ClockTree, source: TreeNodeId) -> String {
    format!("{tree:?}|{source:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts::geom::Point;
    use cts::{BufferId, Sink};

    fn two_sink_tree() -> (ClockTree, TreeNodeId) {
        let mut t = ClockTree::new();
        let a = t.add_sink(0, &Sink::new("a", Point::new(0.0, 0.0), 1e-15));
        let b = t.add_sink(1, &Sink::new("b", Point::new(10.0, 0.0), 1e-15));
        let j = t.add_joint(Point::new(5.0, 0.0));
        t.attach(j, a, 5.0);
        t.attach(j, b, 5.0);
        let s = t.add_source(j, BufferId(0));
        (t, s)
    }

    #[test]
    fn accepts_a_tree_reaching_each_sink_once() {
        let (t, s) = two_sink_tree();
        assert_eq!(tree_reaches_each_sink_once(&t, s, 2), Ok(()));
    }

    #[test]
    fn rejects_a_missing_sink_and_a_non_source_root() {
        let (t, s) = two_sink_tree();
        let err = tree_reaches_each_sink_once(&t, s, 3).unwrap_err();
        assert!(err.contains("sink 2 reached 0 times"), "{err}");
        let err = tree_reaches_each_sink_once(&t, TreeNodeId::from_index(2), 2).unwrap_err();
        assert!(err.contains("not a source"), "{err}");
    }
}
