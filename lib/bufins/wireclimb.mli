(** Shared wire-climbing step of Algorithms 1 and 2.

    Propagates a noise state (downstream current, noise slack) from the
    bottom of a wire to its top, inserting buffers at the maximal
    distances given by Theorem 1 whenever the remaining span cannot be
    driven noise-safely from its top by buffer [b]. Maintains the
    rescuability invariant [r_b *. i <= ns] at every stop, including the
    returned top state. *)

type state = {
  i : float;  (** downstream coupled current, A *)
  ns : float;  (** noise slack, V *)
}

val rescuable : Tech.Buffer.t -> state -> bool
(** [r_b *. i <= ns] (up to {!Candidate.noise_tol}): a buffer placed
    right here would satisfy every downstream noise margin. *)

val climb :
  b:Tech.Buffer.t ->
  node:int ->
  Rctree.Tree.wire ->
  state ->
  state * Rctree.Surgery.placement list
(** [climb ~b ~node w st] walks the parent wire [w] of [node] upward from
    state [st] (which must be rescuable). Returned placements are in
    bottom-up order with distances measured from [node]. Raises
    [Invalid_argument] if [st] is not rescuable. *)
