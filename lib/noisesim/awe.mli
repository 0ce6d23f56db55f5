(** Moment-matching (RICE/AWE-class) coupled-noise estimation — the
    production-speed analysis the paper attributes to 3dnoise, next to
    the transient engine that serves as the gold reference here.

    For each stage deck, the transfer moments from every aggressor ramp
    to every victim leaf give:

    - the {e plateau}: the steady noise under a never-ending aggressor
      ramp, [sum_j slope_j * h1_j] — the distributed-circuit analogue of
      the Devgan metric (which upper-bounds it by lumping each wire's
      current at its far end);
    - a dominant time constant [tau = h2 / h1] per aggressor;
    - a one-pole peak estimate for the finite ramp of duration [T_j]:
      [peak ~= sum_j slope_j * h1_j * (1 - exp (-T_j / tau_j))]. *)

type leaf_estimate = {
  leaf : int;  (** stage-leaf node id *)
  plateau : float;  (** infinite-ramp steady noise, V *)
  peak : float;  (** one-pole finite-ramp peak estimate, V *)
  tau : float;  (** dominant time constant (largest across aggressors), s *)
}

val net :
  ?config:Deck.config ->
  ?density:(int -> (float * float) list) ->
  Tech.Process.t ->
  Rctree.Tree.t ->
  (int * leaf_estimate) list
(** Estimate every stage of a tree; pairs are (leaf node, estimate) —
    the fast screening counterpart of [Verify.net]. *)
