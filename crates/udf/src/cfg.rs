//! Control-flow graph over a UDF body.
//!
//! One node per statement plus synthetic `Entry`/`Exit` nodes. Statement `id`
//! of [`crate::ast::preorder`]'s numbering is node `id + 2`, so nodes line up
//! with the parser's [`crate::SpanMap`] and the collecting checker's
//! diagnostics.
//!
//! Edge shape (paper §4.2 control flow, one neighbour loop, no nesting):
//!
//! * `If` → entry of the `then` branch and entry of the `else` branch; both
//!   branches fall through to the statement after the `If`.
//! * `ForNeighbors` is the loop head: an edge into the body (iterate) and an
//!   edge to the statement after the loop (zero iterations / exhausted). The
//!   last body statement has a *back edge* to the head.
//! * `Break` → the statement after the enclosing loop (the interpreter runs
//!   the suffix even on the breaking machine). Break nodes are flagged so the
//!   analyses can reason about break-free paths.
//! * `Return` → `Exit`. `ReceiveDepGuard` → fall-through *and* `Exit` (the
//!   guard returns early when the incoming dependency says skip).

use std::collections::HashMap;
use std::ptr;

use crate::ast::{preorder, Stmt, UdfFn};
use crate::diag::StmtId;

/// Index of a CFG node. `0` is [`ENTRY`], `1` is [`EXIT`], and statement `s`
/// lives at node `s + 2`.
pub type NodeId = usize;

/// The synthetic entry node.
pub const ENTRY: NodeId = 0;
/// The synthetic exit node. Reached by falling off the end of the body, by
/// `return`, and by the skip arm of `ReceiveDepGuard`.
pub const EXIT: NodeId = 1;

/// Control-flow graph borrowing the statements of a [`UdfFn`].
#[derive(Debug, Clone)]
pub struct Cfg<'a> {
    stmts: Vec<&'a Stmt>,
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
    /// For `If` nodes: `(then_entry, else_entry)`; used for branch pruning
    /// under constant propagation.
    branch_targets: Vec<Option<(NodeId, NodeId)>>,
    breaks: Vec<NodeId>,
}

impl<'a> Cfg<'a> {
    /// Builds the CFG for `udf`'s body.
    pub fn build(udf: &'a UdfFn) -> Self {
        let stmts: Vec<&Stmt> = preorder(&udf.body).map(|(_, s, _)| s).collect();
        let n = stmts.len() + 2;
        let mut cfg = Cfg {
            stmts,
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
            branch_targets: vec![None; n],
            breaks: Vec::new(),
        };
        // Each statement's node, found by address: the walk numbered them.
        let nodes: HashMap<*const Stmt, NodeId> = cfg
            .stmts
            .iter()
            .enumerate()
            .map(|(id, &s)| (ptr::from_ref(s), cfg.node_of(id)))
            .collect();
        let entry = cfg.wire_block(&udf.body, &nodes, EXIT, None);
        cfg.add_edge(ENTRY, entry);
        cfg
    }

    /// Wires edges for `block`. `follow` is the node control reaches after
    /// the block; `brk` is the break target of the enclosing loop, if any.
    /// Returns the entry node of the block (`follow` when the block is
    /// empty).
    fn wire_block(
        &mut self,
        block: &'a [Stmt],
        nodes: &HashMap<*const Stmt, NodeId>,
        follow: NodeId,
        brk: Option<NodeId>,
    ) -> NodeId {
        let node_at = |i: usize| block.get(i).map_or(follow, |s| nodes[&ptr::from_ref(s)]);
        for (i, s) in block.iter().enumerate() {
            let (node, next) = (node_at(i), node_at(i + 1));
            match s {
                Stmt::Let { .. } | Stmt::Assign { .. } | Stmt::Emit(_) | Stmt::EmitDep => {
                    self.add_edge(node, next);
                }
                Stmt::Return => self.add_edge(node, EXIT),
                Stmt::ReceiveDepGuard => {
                    self.add_edge(node, next);
                    self.add_edge(node, EXIT);
                }
                Stmt::Break => {
                    // Outside a loop (ill-formed, rejected by the checker)
                    // treat it as a return so lint still gets a graph.
                    self.add_edge(node, brk.unwrap_or(EXIT));
                    self.breaks.push(node);
                }
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    let then_entry = self.wire_block(then_branch, nodes, next, brk);
                    let else_entry = self.wire_block(else_branch, nodes, next, brk);
                    self.add_edge(node, then_entry);
                    self.add_edge(node, else_entry);
                    self.branch_targets[node] = Some((then_entry, else_entry));
                }
                Stmt::ForNeighbors { body } => {
                    // Body falls through to the head (back edge); `break`
                    // jumps past the loop to `next`.
                    let body_entry = self.wire_block(body, nodes, node, Some(next));
                    self.add_edge(node, body_entry);
                    self.add_edge(node, next);
                }
            }
        }
        node_at(0)
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId) {
        if !self.succs[from].contains(&to) {
            self.succs[from].push(to);
            self.preds[to].push(from);
        }
    }

    /// Total node count, including `Entry` and `Exit`.
    pub fn node_count(&self) -> usize {
        self.succs.len()
    }

    /// Number of statements (pre-order ids run `0..num_stmts()`).
    pub fn num_stmts(&self) -> usize {
        self.stmts.len()
    }

    /// The statement with pre-order id `id`.
    pub fn stmt(&self, id: StmtId) -> &'a Stmt {
        self.stmts[id]
    }

    /// CFG node of statement `id`.
    pub fn node_of(&self, id: StmtId) -> NodeId {
        id + 2
    }

    /// Statement id of `node`, unless it is `Entry`/`Exit`.
    pub fn stmt_of(&self, node: NodeId) -> Option<StmtId> {
        node.checked_sub(2)
    }

    /// Successor nodes of `node`.
    pub fn succs(&self, node: NodeId) -> &[NodeId] {
        &self.succs[node]
    }

    /// Predecessor nodes of `node`.
    pub fn preds(&self, node: NodeId) -> &[NodeId] {
        &self.preds[node]
    }

    /// `(then_entry, else_entry)` for an `If` node.
    pub fn branch_targets(&self, node: NodeId) -> Option<(NodeId, NodeId)> {
        self.branch_targets[node]
    }

    /// Nodes of all `Break` statements.
    pub fn breaks(&self) -> &[NodeId] {
        &self.breaks
    }

    /// A copy of the graph with every edge *out of* `Break` nodes removed.
    ///
    /// Paths in the pruned graph are exactly the break-free paths of the
    /// original: a definition that reaches `Exit` here does so on an
    /// execution where no break fired — the only executions whose carried
    /// snapshot downstream machines ever observe.
    pub fn prune_breaks(&self) -> Cfg<'a> {
        let mut pruned = self.clone();
        for &b in &self.breaks {
            pruned.succs[b].clear();
        }
        pruned.preds = vec![Vec::new(); pruned.succs.len()];
        for from in 0..pruned.succs.len() {
            for i in 0..pruned.succs[from].len() {
                let to = pruned.succs[from][i];
                pruned.preds[to].push(from);
            }
        }
        pruned
    }

    /// Forward reachability from `Entry`, pruning constant branches.
    ///
    /// `const_cond(node)` reports whether the `If` at `node` has a condition
    /// proven constant (by [`crate::dataflow::ConstProp`]); `Some(true)`
    /// takes only the `then` edge, `Some(false)` only the `else` edge,
    /// `None` both. Returns a per-node reachability mask.
    pub fn reachable(&self, const_cond: impl Fn(NodeId) -> Option<bool>) -> Vec<bool> {
        let mut seen = vec![false; self.node_count()];
        let mut stack = vec![ENTRY];
        seen[ENTRY] = true;
        while let Some(n) = stack.pop() {
            let targets: Vec<NodeId> = match (self.branch_targets[n], const_cond(n)) {
                (Some((t, _)), Some(true)) => vec![t],
                (Some((_, e)), Some(false)) => vec![e],
                _ => self.succs[n].to_vec(),
            };
            for t in targets {
                if !seen[t] {
                    seen[t] = true;
                    stack.push(t);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, Stmt};
    use crate::types::Ty;

    fn sample() -> UdfFn {
        // 0: let x = 0
        // 1: for nbrs {
        // 2:   if (p[u]) {
        // 3:     x = x + 1
        // 4:     break
        //      }
        //    }
        // 5: emit(x)
        UdfFn::new(
            "t",
            Ty::Int,
            vec![
                Stmt::let_("x", Ty::Int, Expr::i(0)),
                Stmt::for_neighbors(vec![Stmt::if_(
                    Expr::prop_u("p"),
                    vec![
                        Stmt::assign("x", Expr::local("x").add(Expr::i(1))),
                        Stmt::Break,
                    ],
                )]),
                Stmt::Emit(Expr::local("x")),
            ],
        )
    }

    #[test]
    fn preorder_numbering_matches_structure() {
        let udf = sample();
        let cfg = Cfg::build(&udf);
        assert_eq!(cfg.num_stmts(), 6);
        assert!(matches!(cfg.stmt(0), Stmt::Let { .. }));
        assert!(matches!(cfg.stmt(1), Stmt::ForNeighbors { .. }));
        assert!(matches!(cfg.stmt(2), Stmt::If { .. }));
        assert!(matches!(cfg.stmt(3), Stmt::Assign { .. }));
        assert!(matches!(cfg.stmt(4), Stmt::Break));
        assert!(matches!(cfg.stmt(5), Stmt::Emit(_)));
    }

    #[test]
    fn loop_edges_and_break_target() {
        let udf = sample();
        let cfg = Cfg::build(&udf);
        let head = cfg.node_of(1);
        // Head branches into the body and past the loop.
        assert!(cfg.succs(head).contains(&cfg.node_of(2)));
        assert!(cfg.succs(head).contains(&cfg.node_of(5)));
        // If's else-arm is the back edge to the head.
        assert!(cfg.succs(cfg.node_of(2)).contains(&head));
        // Break jumps to the suffix, not to Exit.
        assert_eq!(cfg.succs(cfg.node_of(4)), &[cfg.node_of(5)]);
        assert!(cfg.breaks().contains(&cfg.node_of(4)));
    }

    #[test]
    fn prune_breaks_cuts_break_paths() {
        let udf = sample();
        let cfg = Cfg::build(&udf);
        let pruned = cfg.prune_breaks();
        assert!(pruned.succs(cfg.node_of(4)).is_empty());
        // The suffix is still reachable through the loop-exhausted edge.
        let seen = pruned.reachable(|_| None);
        assert!(seen[cfg.node_of(5)]);
        assert!(seen[EXIT]);
    }

    #[test]
    fn constant_branch_pruning_hides_arm() {
        // if (false) { break } — the break is unreachable when the
        // condition is known.
        let udf = UdfFn::new(
            "t",
            Ty::Int,
            vec![
                Stmt::for_neighbors(vec![Stmt::if_(Expr::b(false), vec![Stmt::Break])]),
                Stmt::Emit(Expr::i(1)),
            ],
        );
        let cfg = Cfg::build(&udf);
        let if_node = cfg.node_of(1);
        let seen = cfg.reachable(|n| if n == if_node { Some(false) } else { None });
        assert!(!seen[cfg.node_of(2)], "break behind if(false) is pruned");
        let all = cfg.reachable(|_| None);
        assert!(all[cfg.node_of(2)]);
    }
}
