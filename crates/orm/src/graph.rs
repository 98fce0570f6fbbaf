//! The ORM schema graph (Figures 3 and 9).
//!
//! Each node bundles an object/relationship/mixed relation with its
//! component relations; nodes are connected when a foreign-key reference
//! exists between relations in the two nodes. Parallel edges are kept
//! (a recursive relationship contributes two edges between the same
//! pair), and every edge records the exact join attributes so pattern
//! translation can emit the WHERE clause.

use std::collections::{HashMap, VecDeque};

use aqks_relational::{DatabaseSchema, Error, Result};

use crate::classify::{classify_relation, RelationKind};

/// Index of a node in the graph.
pub type NodeId = usize;

/// Node type shown in the legend of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Objects only.
    Object,
    /// An m:n (possibly n-ary) relationship.
    Relationship,
    /// Objects plus embedded many-to-one relationships.
    Mixed,
}

/// One node: a primary relation plus its folded component relations.
#[derive(Debug, Clone)]
pub struct OrmNode {
    /// This node's index.
    pub id: NodeId,
    /// Object / Relationship / Mixed.
    pub kind: NodeKind,
    /// The primary relation (canonical name).
    pub relation: String,
    /// Primary key of the primary relation — the node's object/relationship
    /// identifier, which aggregates and GROUPBY bind to.
    pub primary_key: Vec<String>,
    /// Component relations folded into this node.
    pub components: Vec<String>,
}

/// An undirected edge derived from a foreign key `a_rel.a_attrs ->
/// b_rel.b_attrs`.
#[derive(Debug, Clone)]
pub struct OrmEdge {
    /// Node owning the referencing relation.
    pub a: NodeId,
    /// Node owning the referenced relation.
    pub b: NodeId,
    /// Referencing relation (may be a component of node `a`).
    pub a_rel: String,
    /// Referencing attributes.
    pub a_attrs: Vec<String>,
    /// Referenced relation.
    pub b_rel: String,
    /// Referenced attributes.
    pub b_attrs: Vec<String>,
}

impl OrmEdge {
    /// The node on the other side of this edge from `n` (self-loops
    /// return `n`).
    pub fn other(&self, n: NodeId) -> NodeId {
        if self.a == n {
            self.b
        } else {
            self.a
        }
    }
}

/// The ORM schema graph.
#[derive(Debug, Clone)]
pub struct OrmGraph {
    nodes: Vec<OrmNode>,
    edges: Vec<OrmEdge>,
    adjacency: Vec<Vec<usize>>,
    by_relation: HashMap<String, NodeId>,
}

impl OrmGraph {
    /// Builds the graph from a database schema. Fails only if a component
    /// relation's parent cannot be resolved.
    pub fn build(schema: &DatabaseSchema) -> Result<OrmGraph> {
        let mut kinds: Vec<RelationKind> = Vec::with_capacity(schema.relations.len());
        for rel in &schema.relations {
            kinds.push(classify_relation(rel));
        }

        // Resolve each relation to the primary relation of its node,
        // following component chains (a component of a component folds
        // into the grandparent's node).
        let mut primary_of: HashMap<String, String> = HashMap::new();
        for (rel, kind) in schema.relations.iter().zip(&kinds) {
            let mut current = rel.name.clone();
            let mut kind = kind.clone();
            let mut hops = 0;
            while let RelationKind::Component { parent } = kind {
                hops += 1;
                if hops > schema.relations.len() {
                    return Err(Error::InvalidSchema(format!(
                        "component cycle involving `{}`",
                        rel.name
                    )));
                }
                let parent_rel = schema.relation(&parent).ok_or_else(|| {
                    Error::InvalidSchema(format!(
                        "component `{current}` references unknown parent `{parent}`"
                    ))
                })?;
                current = parent_rel.name.clone();
                kind = classify_relation(parent_rel);
            }
            primary_of.insert(rel.name.to_lowercase(), current);
        }

        // Create one node per primary relation, in schema order.
        let mut nodes: Vec<OrmNode> = Vec::new();
        let mut by_relation: HashMap<String, NodeId> = HashMap::new();
        for (rel, kind) in schema.relations.iter().zip(&kinds) {
            let node_kind = match kind {
                RelationKind::Object => NodeKind::Object,
                RelationKind::Relationship => NodeKind::Relationship,
                RelationKind::Mixed => NodeKind::Mixed,
                RelationKind::Component { .. } => continue,
            };
            let id = nodes.len();
            by_relation.insert(rel.name.to_lowercase(), id);
            nodes.push(OrmNode {
                id,
                kind: node_kind,
                relation: rel.name.clone(),
                primary_key: rel.primary_key.clone(),
                components: Vec::new(),
            });
        }
        // Attach components and index them.
        for rel in &schema.relations {
            let primary = &primary_of[&rel.name.to_lowercase()];
            if primary.eq_ignore_ascii_case(&rel.name) {
                continue;
            }
            let id = *by_relation.get(&primary.to_lowercase()).ok_or_else(|| {
                Error::InvalidSchema(format!("component parent `{primary}` has no node"))
            })?;
            nodes[id].components.push(rel.name.clone());
            by_relation.insert(rel.name.to_lowercase(), id);
        }

        // Edges: every FK whose endpoints live in different nodes (or a
        // self-loop on the same node when it is not the internal
        // component->parent link).
        let mut edges: Vec<OrmEdge> = Vec::new();
        for rel in &schema.relations {
            let a = by_relation[&rel.name.to_lowercase()];
            for fk in &rel.foreign_keys {
                let b = *by_relation.get(&fk.ref_relation.to_lowercase()).ok_or_else(|| {
                    Error::InvalidSchema(format!(
                        "`{}` references unknown relation `{}`",
                        rel.name, fk.ref_relation
                    ))
                })?;
                if a == b {
                    // Internal link (component -> parent or self-reference
                    // within the node): not a graph edge.
                    continue;
                }
                edges.push(OrmEdge {
                    a,
                    b,
                    a_rel: rel.name.clone(),
                    a_attrs: fk.attrs.clone(),
                    b_rel: fk.ref_relation.clone(),
                    b_attrs: fk.ref_attrs.clone(),
                });
            }
        }

        let mut adjacency = vec![Vec::new(); nodes.len()];
        for (ei, e) in edges.iter().enumerate() {
            adjacency[e.a].push(ei);
            adjacency[e.b].push(ei);
        }

        Ok(OrmGraph { nodes, edges, adjacency, by_relation })
    }

    /// All nodes.
    pub fn nodes(&self) -> &[OrmNode] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[OrmEdge] {
        &self.edges
    }

    /// One node.
    pub fn node(&self, id: NodeId) -> &OrmNode {
        &self.nodes[id]
    }

    /// One edge.
    pub fn edge(&self, idx: usize) -> &OrmEdge {
        &self.edges[idx]
    }

    /// The node owning `relation` (primary or component), if any.
    pub fn node_of_relation(&self, relation: &str) -> Option<NodeId> {
        self.by_relation.get(&relation.to_lowercase()).copied()
    }

    /// Distinct object/mixed nodes directly connected to `id` — the
    /// "participating objects" of a relationship node used by the
    /// duplicate-elimination rule of Section 3.1.3.
    pub fn adjacent_object_mixed(&self, id: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.adjacency[id]
            .iter()
            .map(|&ei| self.edges[ei].other(id))
            .filter(|&n| {
                n != id && matches!(self.nodes[n].kind, NodeKind::Object | NodeKind::Mixed)
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// BFS distance between two nodes (None if disconnected).
    pub fn distance(&self, from: NodeId, to: NodeId) -> Option<usize> {
        self.shortest_path_edges(from, to).map(|p| p.len())
    }

    /// A shortest path as edge indices from `from` to `to`; ties broken
    /// deterministically by edge index. `Some(vec![])` when `from == to`.
    pub fn shortest_path_edges(&self, from: NodeId, to: NodeId) -> Option<Vec<usize>> {
        if from == to {
            return Some(Vec::new());
        }
        let mut prev: Vec<Option<(NodeId, usize)>> = vec![None; self.nodes.len()];
        let mut visited = vec![false; self.nodes.len()];
        visited[from] = true;
        let mut q = VecDeque::new();
        q.push_back(from);
        while let Some(n) = q.pop_front() {
            for &ei in &self.adjacency[n] {
                let m = self.edges[ei].other(n);
                if m == n || visited[m] {
                    continue;
                }
                visited[m] = true;
                prev[m] = Some((n, ei));
                if m == to {
                    let mut path = Vec::new();
                    let mut cur = to;
                    while let Some((p, e)) = prev[cur] {
                        path.push(e);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                q.push_back(m);
            }
        }
        None
    }

    /// All node-simple paths from `from` to `to` whose length is at most
    /// `shortest + slack`, capped at `cap` paths. Used to enumerate
    /// alternative query-pattern connections.
    pub fn paths_within(
        &self,
        from: NodeId,
        to: NodeId,
        slack: usize,
        cap: usize,
    ) -> Vec<Vec<usize>> {
        let Some(shortest) = self.distance(from, to) else { return Vec::new() };
        let max_len = shortest + slack;
        let mut out = Vec::new();
        let mut stack_nodes = vec![from];
        let mut stack_edges: Vec<usize> = Vec::new();
        self.dfs_paths(from, to, max_len, cap, &mut stack_nodes, &mut stack_edges, &mut out);
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs_paths(
        &self,
        cur: NodeId,
        to: NodeId,
        max_len: usize,
        cap: usize,
        nodes: &mut Vec<NodeId>,
        edges: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if out.len() >= cap {
            return;
        }
        if cur == to && !edges.is_empty() {
            out.push(edges.clone());
            return;
        }
        if edges.len() >= max_len {
            return;
        }
        for &ei in &self.adjacency[cur] {
            let next = self.edges[ei].other(cur);
            if next == cur || nodes.contains(&next) {
                continue;
            }
            nodes.push(next);
            edges.push(ei);
            self.dfs_paths(next, to, max_len, cap, nodes, edges, out);
            nodes.pop();
            edges.pop();
        }
    }

    /// Text dump of the graph (used by examples and docs).
    pub fn describe(&self) -> String {
        let mut s = String::new();
        for n in &self.nodes {
            let kind = match n.kind {
                NodeKind::Object => "object",
                NodeKind::Relationship => "relationship",
                NodeKind::Mixed => "mixed",
            };
            s.push_str(&format!("[{kind}] {}", n.relation));
            if !n.components.is_empty() {
                s.push_str(&format!(" (components: {})", n.components.join(", ")));
            }
            s.push('\n');
        }
        for e in &self.edges {
            s.push_str(&format!(
                "{} -- {}  ({}.{} = {}.{})\n",
                self.nodes[e.a].relation,
                self.nodes[e.b].relation,
                e.a_rel,
                e.a_attrs.join(","),
                e.b_rel,
                e.b_attrs.join(","),
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqks_relational::{AttrType, RelationSchema};

    /// Builds the full Figure 1 schema.
    fn university_schema() -> DatabaseSchema {
        let mut rels = Vec::new();

        let mut r = RelationSchema::new("Student");
        r.add_attr("Sid", AttrType::Text)
            .add_attr("Sname", AttrType::Text)
            .add_attr("Age", AttrType::Int);
        r.set_primary_key(["Sid"]);
        rels.push(r);

        let mut r = RelationSchema::new("Course");
        r.add_attr("Code", AttrType::Text)
            .add_attr("Title", AttrType::Text)
            .add_attr("Credit", AttrType::Float);
        r.set_primary_key(["Code"]);
        rels.push(r);

        let mut r = RelationSchema::new("Enrol");
        r.add_attr("Sid", AttrType::Text)
            .add_attr("Code", AttrType::Text)
            .add_attr("Grade", AttrType::Text);
        r.set_primary_key(["Sid", "Code"]);
        r.add_foreign_key(["Sid"], "Student", ["Sid"]);
        r.add_foreign_key(["Code"], "Course", ["Code"]);
        rels.push(r);

        let mut r = RelationSchema::new("Lecturer");
        r.add_attr("Lid", AttrType::Text)
            .add_attr("Lname", AttrType::Text)
            .add_attr("Did", AttrType::Text);
        r.set_primary_key(["Lid"]);
        r.add_foreign_key(["Did"], "Department", ["Did"]);
        rels.push(r);

        let mut r = RelationSchema::new("Teach");
        r.add_attr("Code", AttrType::Text)
            .add_attr("Lid", AttrType::Text)
            .add_attr("Bid", AttrType::Text);
        r.set_primary_key(["Code", "Lid", "Bid"]);
        r.add_foreign_key(["Code"], "Course", ["Code"]);
        r.add_foreign_key(["Lid"], "Lecturer", ["Lid"]);
        r.add_foreign_key(["Bid"], "Textbook", ["Bid"]);
        rels.push(r);

        let mut r = RelationSchema::new("Textbook");
        r.add_attr("Bid", AttrType::Text)
            .add_attr("Tname", AttrType::Text)
            .add_attr("Price", AttrType::Int);
        r.set_primary_key(["Bid"]);
        rels.push(r);

        let mut r = RelationSchema::new("Department");
        r.add_attr("Did", AttrType::Text)
            .add_attr("Dname", AttrType::Text)
            .add_attr("Fid", AttrType::Text);
        r.set_primary_key(["Did"]);
        r.add_foreign_key(["Fid"], "Faculty", ["Fid"]);
        rels.push(r);

        let mut r = RelationSchema::new("Faculty");
        r.add_attr("Fid", AttrType::Text).add_attr("Fname", AttrType::Text);
        r.set_primary_key(["Fid"]);
        rels.push(r);

        DatabaseSchema { relations: rels }
    }

    /// The graph matches Figure 3: 8 nodes, 7 edges, kinds as drawn.
    #[test]
    fn figure3_graph() {
        let g = OrmGraph::build(&university_schema()).unwrap();
        assert_eq!(g.nodes().len(), 8);
        assert_eq!(g.edges().len(), 7);

        let kind = |name: &str| g.node(g.node_of_relation(name).unwrap()).kind;
        assert_eq!(kind("Student"), NodeKind::Object);
        assert_eq!(kind("Course"), NodeKind::Object);
        assert_eq!(kind("Textbook"), NodeKind::Object);
        assert_eq!(kind("Faculty"), NodeKind::Object);
        assert_eq!(kind("Enrol"), NodeKind::Relationship);
        assert_eq!(kind("Teach"), NodeKind::Relationship);
        assert_eq!(kind("Lecturer"), NodeKind::Mixed);
        assert_eq!(kind("Department"), NodeKind::Mixed);
    }

    #[test]
    fn teach_has_three_participants() {
        let g = OrmGraph::build(&university_schema()).unwrap();
        let teach = g.node_of_relation("Teach").unwrap();
        assert_eq!(g.adjacent_object_mixed(teach).len(), 3);
        let enrol = g.node_of_relation("Enrol").unwrap();
        assert_eq!(g.adjacent_object_mixed(enrol).len(), 2);
    }

    #[test]
    fn shortest_path_student_to_course_goes_through_enrol() {
        let g = OrmGraph::build(&university_schema()).unwrap();
        let s = g.node_of_relation("Student").unwrap();
        let c = g.node_of_relation("Course").unwrap();
        let path = g.shortest_path_edges(s, c).unwrap();
        assert_eq!(path.len(), 2);
        let mid = g.edge(path[0]).other(s);
        assert_eq!(g.node(mid).relation, "Enrol");
    }

    #[test]
    fn paths_within_enumerates_alternatives() {
        let g = OrmGraph::build(&university_schema()).unwrap();
        let s = g.node_of_relation("Student").unwrap();
        let t = g.node_of_relation("Textbook").unwrap();
        // Student-Enrol-Course-Teach-Textbook is the only simple route.
        let paths = g.paths_within(s, t, 2, 10);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 4);
    }

    #[test]
    fn components_fold_into_parent_node() {
        let mut schema = university_schema();
        let mut hobby = RelationSchema::new("StudentHobby");
        hobby.add_attr("Sid", AttrType::Text).add_attr("Hobby", AttrType::Text);
        hobby.set_primary_key(["Sid", "Hobby"]);
        hobby.add_foreign_key(["Sid"], "Student", ["Sid"]);
        schema.relations.push(hobby);

        let g = OrmGraph::build(&schema).unwrap();
        assert_eq!(g.nodes().len(), 8, "component adds no node");
        let student = g.node_of_relation("Student").unwrap();
        assert_eq!(g.node_of_relation("StudentHobby"), Some(student));
        assert_eq!(g.node(student).components, vec!["StudentHobby".to_string()]);
        // The component's FK to its parent adds no edge.
        assert_eq!(g.edges().len(), 7);
    }

    #[test]
    fn disconnected_nodes_have_no_path() {
        let mut schema = DatabaseSchema::new();
        let mut a = RelationSchema::new("A");
        a.add_attr("id", AttrType::Int);
        a.set_primary_key(["id"]);
        schema.relations.push(a);
        let mut b = RelationSchema::new("B");
        b.add_attr("id", AttrType::Int);
        b.set_primary_key(["id"]);
        schema.relations.push(b);
        let g = OrmGraph::build(&schema).unwrap();
        assert_eq!(g.distance(0, 1), None);
        assert_eq!(g.distance(0, 0), Some(0));
    }

    #[test]
    fn describe_mentions_kinds() {
        let g = OrmGraph::build(&university_schema()).unwrap();
        let d = g.describe();
        assert!(d.contains("[relationship] Teach"), "{d}");
        assert!(d.contains("[mixed] Lecturer"), "{d}");
    }
}
