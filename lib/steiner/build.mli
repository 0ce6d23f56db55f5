(** Incremental rectilinear Steiner tree construction.

    Pins are inserted in Prim-MST order; each pin connects to the nearest
    point of the tree built so far (possibly the interior of an existing
    segment, which is then split) through an L-shaped route whose corner
    becomes a Steiner point. Because the nearest tree point is never
    farther than the pin's Prim parent, the total length never exceeds
    the MST length — the classical cheap Steinerization the paper's
    "given Steiner estimation" presumes. *)

type t
(** A rectilinear tree over grid points: axis-aligned segments, the
    source, and the pin locations. *)

val of_net : Net.t -> t

val wirelength : t -> int
(** Total segment length, nm. *)

val segments : t -> (Geometry.Point.t * Geometry.Point.t) list
(** The axis-aligned segments of the tree, each once. *)

val to_rctree : Tech.Process.t -> Net.t -> t -> Rctree.Tree.t
(** Root the tree at the net's source and convert: segments become
    estimation-mode wires of their length, pins become sinks with their
    electrical specs, corners and Steiner points become feasible internal
    nodes (the builder binarizes high-degree points with infeasible
    dummies). *)

val to_rctree_traced :
  Tech.Process.t -> Net.t -> t -> Rctree.Tree.t * (Geometry.Point.t * Geometry.Point.t) option array
(** Like {!to_rctree}, also reporting each node's parent-wire geometry as
    [(parent point, node point)] — [None] for the root and the
    zero-length pin stubs. The coupling-extraction engine maps
    parallel-run overlaps through this into wire-relative spans. *)

val tree_of_net : Tech.Process.t -> Net.t -> Rctree.Tree.t
(** [of_net] followed by [to_rctree]. *)
