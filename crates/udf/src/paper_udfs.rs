//! The five evaluation kernels (paper Figures 1b and 3) and the scenario
//! matrix's SSSP, connected-components and PageRank kernels as UDF ASTs,
//! in Gemini's dense-signal form — exactly what the analyzer consumes.

use crate::ast::{BinOp, Expr, Stmt, UdfFn};
use crate::types::Ty;

/// Bottom-up BFS signal (Figure 1b): emit the first frontier
/// in-neighbour as the parent, then break.
///
/// Properties: `frontier: bool`. Update: the parent vertex.
pub fn bfs_udf() -> UdfFn {
    UdfFn::new(
        "bfs",
        Ty::Vertex,
        vec![Stmt::for_neighbors(vec![Stmt::if_(
            Expr::prop_u("frontier"),
            vec![Stmt::Emit(Expr::CurrentNeighbor), Stmt::Break],
        )])],
    )
}

/// MIS signal (Figure 3a, signal form): notify the master as soon as an
/// active in-neighbour with a smaller color is seen.
///
/// Properties: `active: bool`, `color: int`. Update: a "loser" flag.
pub fn mis_udf() -> UdfFn {
    UdfFn::new(
        "mis",
        Ty::Bool,
        vec![Stmt::for_neighbors(vec![Stmt::if_(
            Expr::prop_u("active").and(Expr::prop_u("color").lt(Expr::prop_v("color"))),
            vec![Stmt::Emit(Expr::b(true)), Stmt::Break],
        )])],
    )
}

/// K-core signal (Figure 3b): count active in-neighbours into the carried
/// counter `cnt`; break at `k`; emit the machine-local delta
/// (`cnt − start`, where `start` snapshots the restored carried value).
///
/// Properties: `active: bool`. Update: the local count delta.
pub fn kcore_udf(k: i64) -> UdfFn {
    UdfFn::new(
        "kcore",
        Ty::Int,
        vec![
            Stmt::let_("cnt", Ty::Int, Expr::i(0)),
            Stmt::let_("start", Ty::Int, Expr::local("cnt")),
            Stmt::let_("done", Ty::Bool, Expr::b(false)),
            Stmt::for_neighbors(vec![Stmt::if_(
                Expr::prop_u("active"),
                vec![
                    Stmt::assign("cnt", Expr::local("cnt").add(Expr::i(1))),
                    Stmt::if_(
                        Expr::local("cnt").ge(Expr::i(k)),
                        vec![
                            Stmt::Emit(Expr::local("cnt").bin(BinOp::Sub, Expr::local("start"))),
                            Stmt::assign("done", Expr::b(true)),
                            Stmt::Break,
                        ],
                    ),
                ],
            )]),
            Stmt::if_(
                Expr::local("done")
                    .not()
                    .and(Expr::local("cnt").bin(BinOp::Gt, Expr::local("start"))),
                vec![Stmt::Emit(
                    Expr::local("cnt").bin(BinOp::Sub, Expr::local("start")),
                )],
            ),
        ],
    )
}

/// Graph K-means signal (Figure 3c): adopt the cluster of the first
/// assigned in-neighbour.
///
/// Properties: `assigned: bool`, `cluster: int`. Update: the cluster id.
pub fn kmeans_udf() -> UdfFn {
    UdfFn::new(
        "kmeans",
        Ty::Int,
        vec![Stmt::for_neighbors(vec![Stmt::if_(
            Expr::prop_u("assigned"),
            vec![Stmt::Emit(Expr::prop_u("cluster")), Stmt::Break],
        )])],
    )
}

/// Weighted sampling signal (Figure 3d): accumulate in-neighbour weights
/// into the carried prefix sum `acc`; select the first neighbour whose
/// prefix reaches the per-vertex threshold `r[v]`.
///
/// Properties: `weight: float`, `r: float`. Update: the selected vertex.
///
/// As discussed in `symple-algos::sampling`, the prefix formulation is
/// only exact when the dependency is fully propagated; run it with
/// differentiated propagation disabled.
pub fn sampling_udf() -> UdfFn {
    UdfFn::new(
        "sample",
        Ty::Vertex,
        vec![
            Stmt::let_("acc", Ty::Float, Expr::f(0.0)),
            Stmt::for_neighbors(vec![
                Stmt::assign("acc", Expr::local("acc").add(Expr::prop_u("weight"))),
                Stmt::if_(
                    Expr::local("acc").ge(Expr::prop_v("r")),
                    vec![Stmt::Emit(Expr::CurrentNeighbor), Stmt::Break],
                ),
            ]),
        ],
    )
}

/// Big-but-representable "infinity" for the integer relaxation UDFs
/// (fits `i64` with headroom for one weighted addition).
const BIG: i64 = 1 << 60;

/// SSSP relaxation signal (scenario-matrix kernel): fold the minimum
/// relaxed distance `dist[u] + w[u]` over reached in-neighbours into the
/// carried accumulator `best`, emitting it once at segment end. Min-folds
/// commute, so there is no early exit — this is the *no-break* carried
/// shape (pure data dependency, no control dependency).
///
/// Properties: `reached: bool`, `dist: int`, `w: int` (the vertex-weight
/// stand-in for the engine's hash-derived edge weights). Update: the
/// candidate distance.
pub fn sssp_udf() -> UdfFn {
    UdfFn::new(
        "sssp",
        Ty::Int,
        vec![
            Stmt::let_("best", Ty::Int, Expr::i(BIG)),
            Stmt::for_neighbors(vec![Stmt::if_(
                Expr::prop_u("reached").and(
                    Expr::prop_u("dist")
                        .add(Expr::prop_u("w"))
                        .lt(Expr::local("best")),
                ),
                vec![Stmt::assign(
                    "best",
                    Expr::prop_u("dist").add(Expr::prop_u("w")),
                )],
            )]),
            Stmt::if_(
                Expr::local("best").lt(Expr::i(BIG)),
                vec![Stmt::Emit(Expr::local("best"))],
            ),
        ],
    )
}

/// Connected-components signal (scenario-matrix kernel): track the
/// minimum label among changed in-neighbours; **break** the moment label
/// `0` — the global minimum — is seen, since nothing smaller can follow.
/// The break is the same loop-carried control dependency as BFS's
/// (Figure 1b), driven by a data value instead of frontier membership.
///
/// Properties: `changed: bool`, `label: int`. Update: the minimum label.
pub fn cc_udf() -> UdfFn {
    UdfFn::new(
        "cc",
        Ty::Int,
        vec![
            Stmt::let_("best", Ty::Int, Expr::i(BIG)),
            Stmt::for_neighbors(vec![Stmt::if_(
                Expr::prop_u("changed").and(Expr::prop_u("label").lt(Expr::local("best"))),
                vec![
                    Stmt::assign("best", Expr::prop_u("label")),
                    // nothing can undercut label 0: stop scanning; the
                    // single emit below ships the final minimum
                    Stmt::if_(Expr::local("best").lt(Expr::i(1)), vec![Stmt::Break]),
                ],
            )]),
            Stmt::if_(
                Expr::local("best").lt(Expr::i(BIG)),
                vec![Stmt::Emit(Expr::local("best"))],
            ),
        ],
    )
}

/// PageRank signal (scenario-matrix kernel): accumulate the fixed-point
/// out-degree-normalised contributions of the in-neighbours and emit the
/// partial sum. Integer accumulation keeps the fold order-invariant —
/// the float version of this exact shape is what lint W005 flags.
///
/// Properties: `contrib: int`. Update: the partial contribution sum.
pub fn pagerank_udf() -> UdfFn {
    UdfFn::new(
        "pagerank",
        Ty::Int,
        vec![
            Stmt::let_("acc", Ty::Int, Expr::i(0)),
            Stmt::for_neighbors(vec![Stmt::assign(
                "acc",
                Expr::local("acc").add(Expr::prop_u("contrib")),
            )]),
            Stmt::if_(
                Expr::i(0).lt(Expr::local("acc")),
                vec![Stmt::Emit(Expr::local("acc"))],
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretty;

    #[test]
    fn matrix_udfs_render() {
        let ss = pretty(&sssp_udf());
        assert!(ss.contains("reached[u]"));
        assert!(ss.contains("dist[u]"));
        let cc = pretty(&cc_udf());
        assert!(cc.contains("label[u]"));
        assert!(cc.contains("break"));
        let pr = pretty(&pagerank_udf());
        assert!(pr.contains("contrib[u]"));
    }

    #[test]
    fn udfs_render_their_figures() {
        let bfs = pretty(&bfs_udf());
        assert!(bfs.contains("if (frontier[u])"));
        let mis = pretty(&mis_udf());
        assert!(mis.contains("color[u]"));
        assert!(mis.contains("color[v]"));
        let kc = pretty(&kcore_udf(4));
        assert!(kc.contains("int cnt = 0;"));
        let km = pretty(&kmeans_udf());
        assert!(km.contains("cluster[u]"));
        let sa = pretty(&sampling_udf());
        assert!(sa.contains("weight[u]"));
        assert!(sa.contains("r[v]"));
    }
}
