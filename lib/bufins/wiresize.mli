(** Simultaneous wire sizing and buffer insertion (Lillis, Cheng, Lin
    [18] — the generalization the paper's Algorithm 3 builds on).

    Every wire may be drawn at any width from a discrete menu; widening
    divides resistance by the width while growing the area component of
    capacitance ({!Rctree.Tree.resize_wire}). The DP engine explores the
    width menu per wire alongside buffer choices, keeping the usual
    (load, slack) pruning, so the combination stays optimal for a single
    buffer type and exact-delay objectives. *)

val default_widths : float list
(** [1x, 2x, 4x] minimum width. *)

val run :
  ?widths:float list ->
  noise:bool ->
  lib:Tech.Buffer.t list ->
  Rctree.Tree.t ->
  Dp.result option
(** Maximize source slack choosing both buffer locations and wire widths
    ([widths], default {!default_widths}); with [noise] the Devgan
    constraints apply as in Algorithm 3. The result's [sizes] lists each
    resized parent wire as (node, width). [None] only in noise mode when
    no combination satisfies the margins. *)

val apply_sizes : Rctree.Tree.t -> (int * float) list -> Rctree.Tree.t
(** Rebuild the tree with the chosen widths (before applying buffer
    placements — node ids are preserved). *)

val evaluate : Rctree.Tree.t -> Dp.result -> Eval.report
(** [apply_sizes] on the result's [sizes], then [Eval.apply] on its
    placements. *)
