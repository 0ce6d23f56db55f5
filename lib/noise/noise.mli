(** The Devgan coupled-noise metric on routing trees (paper Section II-B)
    and the maximum noise-safe wire length of Theorem 1.

    Eq. (6): each wire [w] carries a coupled current
    [cur_w = sum_j lambda_j * C_w * slope_j] (stored in the wire record).
    Eq. (7): [I(v)] is the total current of the wires downstream of [v]
    within [v]'s stage (buffers are restoring gates, so coupled current
    does not propagate through them).
    Eq. (8): a wire [w = (u,v)] adds [Noise(w) = R_w * (I(v) + cur_w/2)]
    — the pi-model places half of the wire's own current at its far end.
    Eq. (9): the noise at a stage leaf [s] whose stage is driven by gate
    [g] is [R_g * I(g) + sum of Noise(w) over the path g -> s].
    Eq. (11)/(12): the circuit is electrically safe iff every sink and
    buffer input sees noise below its margin; the noise slack at [v] is
    the worst downstream margin minus the path noise from [v].

    Like the Elmore metric, the quantities are additive along paths and
    incremental bottom-up; the metric upper-bounds the true coupled noise
    of the corresponding RC circuit (verified against [Noisesim]). *)

val cur_at : Rctree.Tree.t -> float array
(** Downstream current each node presents to its stage (eq. 7): sinks and
    buffer inputs present [0.]; internal nodes sum child wire currents and
    child values. The source entry is its stage's total current. *)

val drive_current : Rctree.Tree.t -> float array -> int -> float
(** [drive_current t curs g]: total coupled current returned through gate
    [g]'s output resistance — the sum over children of wire current plus
    the child's [cur_at]. [curs] must come from {!cur_at}. *)

val wire_noise : Rctree.Tree.wire -> downstream:float -> float
(** Eq. (8): [res *. (downstream +. cur /. 2.)]. *)

val leaf_noise : Rctree.Tree.t -> (int * float * float) list
(** For every stage leaf (sink or buffer input): the node, its total
    coupled noise per eq. (9), and its margin (sink [nm] or buffer [nm]).
    Order follows the tree. *)

val margin_eps : float
(** 1e-9 V: the tolerance of every noise-margin check, in the metric,
    the simulator's verdicts and the invariant checker alike. *)

val exceeds : noise:float -> margin:float -> bool
(** [noise > margin +. margin_eps]: a leaf's noise violates its margin. *)

val violations : Rctree.Tree.t -> (int * float * float) list
(** The subset of {!leaf_noise} whose noise {!exceeds} its margin.
    Empty iff the tree is noise-safe. *)

val noise_slack : Rctree.Tree.t -> float array
(** Eq. (12) evaluated within stages: for internal nodes and the source,
    [ns.(v)] is the minimum over stage leaves [s] downstream of [v]
    (within [v]'s stage) of [margin s -. path_noise (v -> s)] — at the
    source it bounds the allowed [R_so * I(so)]. At a stage leaf (sink or
    buffer input) it is the leaf's own margin, i.e. its slack as seen by
    the {e upstream} stage. *)

val margin : Rctree.Tree.t -> int -> float
(** Noise margin of a stage leaf ([nm] of the sink or buffer). *)

type contribution = {
  element : [ `Driver of int | `Wire of int ];  (** gate node or wire's child node *)
  amount : float;  (** volts added to the leaf's total (eqs. 8-9 terms) *)
}

val attribute : Rctree.Tree.t -> leaf:int -> contribution list
(** Decompose the eq. (9) noise at a stage leaf into its additive terms —
    the driving gate's [R_g * I(g)] and each path wire's eq. (8) noise —
    sorted largest first. The amounts sum to the leaf's {!leaf_noise}
    value (additivity is what makes the metric, like Elmore, suitable for
    optimization); the report tells a designer {e which} span to move,
    shield or buffer. *)

val max_safe_length :
  r_b:float -> i_down:float -> ns:float -> r_per_m:float -> i_per_m:float -> float option
(** Theorem 1: the largest wire length [l] a buffer of output resistance
    [r_b] may drive, above a point with downstream current [i_down] and
    noise slack [ns], over a wire with per-metre resistance [r_per_m] and
    per-metre coupled current [i_per_m], such that
    [r_b*(i_down + i_per_m*l) + (r_per_m*l)*(i_down + i_per_m*l/2) <= ns].
    [None] when [r_b *. i_down > ns] (no non-negative length works — a
    buffer should have been inserted earlier); [Some infinity] when the
    constraint never binds (e.g. no coupling and no downstream current). *)

val lambda_bound :
  r_b:float ->
  i_down:float ->
  ns:float ->
  r_per_m:float ->
  c_per_m:float ->
  slope:float ->
  length:float ->
  float
(** Eq. (16)/(17) companion: the largest coupling ratio [lambda] under
    which a wire of the given length passes. With the paper's
    [lambda = kappa /. spacing] model, the minimum aggressor spacing is
    [kappa /. lambda_bound ...]. The result may exceed 1 (any neighbour is
    safe) or be non-positive (no spacing is safe). *)
