(** Leaf-first [LDL^T] for the conductance matrix [G] of an RC forest.

    With no inductor rows, the only off-diagonal entries of [G] are the
    resistors between free nodes. When those form a forest (no loop, no
    parallel pair), eliminating leaves first creates no fill: each
    unknown's row below the diagonal holds only its parent, so factoring
    and each solve are O(n). The transient solver factors [G] and
    [G + (2/h) C] this way (when [C] is diagonal too); the AC moments
    factor [G]. {!forward} and {!backward} serve the DC point and the
    moments; the transient step runs its own sweeps over the same plan
    and factor, forming its RHS inside the forward one. *)

type t = {
  slot : int array;  (** MNA unknown -> elimination slot *)
  order : int array;  (** elimination slot -> MNA unknown *)
  par : int array;  (** a slot's parent slot, [-1] for a component root *)
  off : float array;  (** the entry coupling a slot to its parent *)
}
(** The elimination plan: a slot's parent is always a later slot. *)

val plan : Mna.t -> t option
(** [Some] iff the deck has no inductor rows and its free-node resistor
    graph is a forest. *)

val gather : t -> float array -> float array
(** A per-unknown vector (e.g. {!Mna.t.g_diag}) in slot order. *)

type factor = { dinv : float array; l : float array }
(** [LDL^T] of the matrix with diagonal [diag] (slot order) and {!t.off}
    to the parent: the pivots' reciprocals and the multipliers. *)

val factor : t -> float array -> factor
(** Raises [Linalg.Mat.Singular] on a pivot below 1e-300 in magnitude. *)

val forward : t -> factor -> float array -> unit
(** [b <- L^-1 b] in place, slot order. *)

val backward : t -> factor -> float array -> float array -> unit
(** [backward t f y x]: [x <- (D L^T)^-1 y], slot order; [x] may be [y]. *)
