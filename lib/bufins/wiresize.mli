(** Simultaneous wire sizing and buffer insertion (Lillis, Cheng, Lin
    [18] — the generalization the paper's Algorithm 3 builds on).

    Every wire may be drawn at any width from a discrete menu; widening
    divides resistance by the width while growing the area component of
    capacitance ({!Rctree.Tree.resize_wire}). The DP engine ({!Dp.run}
    [~widths]) explores the width menu per wire alongside buffer
    choices, keeping the usual (load, slack) pruning, so the combination
    stays optimal for a single buffer type and exact-delay objectives.
    This module applies and evaluates the sizes it chooses. *)

val apply_sizes : Rctree.Tree.t -> (int * float) list -> Rctree.Tree.t
(** Rebuild the tree with the chosen widths (before applying buffer
    placements — node ids are preserved). *)

val evaluate : Rctree.Tree.t -> Dp.result -> Eval.report
(** [apply_sizes] on the result's [sizes], then [Eval.apply] on its
    placements. *)
