(** Static timing analysis over a design.

    Forward pass in topological order: a gate's output switches at the
    maximum of its input arrivals plus its load-dependent delay; the
    interconnect contribution per sink comes from the Elmore analysis of
    the net's routing tree (unbuffered Steiner by default, or buffered
    trees supplied by the flow). Backward pass derives required times —
    and hence the per-sink RATs the paper's Problem 2/3 formulations
    consume — from the primary outputs.

    Noise is reported net by net with the Devgan metric on the same
    trees. *)

type net_timing = {
  tree : Rctree.Tree.t;  (** the routing tree used for this net *)
  sink_arrival : (Design.sink * float) array;  (** absolute arrival per sink pin *)
  sink_required : (Design.sink * float) array;  (** absolute required time per sink pin *)
  source_arrival : float;  (** arrival at the driving pin's input (PI: pad time) *)
  noise_violations : int;
}

type t = {
  nets : net_timing array;  (** indexed like [Design.nets] *)
  wns : float;  (** worst slack over all PO endpoints *)
  tns : float;  (** total negative endpoint slack *)
  noisy_nets : int;  (** nets with at least one margin violation *)
  total_buffers : int;
}

val net_to_steiner : ?rats:float array -> Design.t -> int -> Steiner.Net.t
(** The placed-net view of design net [nid]: driver electricals from the
    source (pad or cell), sink caps/margins from the receiving pins.
    [rats], indexed like the net's sinks, installs required arrival
    times measured {e from the net's driving pin} (defaults to 0 — STA
    computes real slacks itself). *)

val analyze :
  ?trees:(int -> Rctree.Tree.t option) ->
  ?miller:float ->
  Tech.Process.t ->
  Design.t ->
  t
(** Run STA. [trees nid] may supply an optimized routing tree for net
    [nid] (sink names must match [net_to_steiner]'s, i.e. come from it);
    [None] falls back to the fresh Steiner tree. [miller] enables
    crosstalk-aware (delta-delay) timing: every net's coupling
    capacitance counts [miller] times for delay (see [Noise.miller];
    classical worst case 2.0); noise reporting is unaffected. *)

val driver_rats : net_timing -> float array
(** The net's sink RATs, indexed like its sinks, measured from its
    driving pin: each sink's required time less the source arrival.
    This is what the optimizer is given for the net (the [rats] of
    {!net_to_steiner}). *)

val install_rats : Rctree.Tree.t -> float array -> Rctree.Tree.t
(** [install_rats tree rats]: [tree] with sink [k]'s RAT set to
    [rats.(k)], in one pass over its nodes. [tree] must name its sinks
    as {!net_to_steiner} does. On the unbuffered tree {!analyze} built
    for a net this equals the Steiner tree of
    [net_to_steiner ~rats design nid]: the topology does not depend on
    RATs. *)

val batch_jobs : Tech.Process.t -> Design.t -> (Steiner.Net.t * Rctree.Tree.t) list
(** One optimization job per net of the design: a single STA pass
    supplies every net's RATs measured from its driving pin
    ({!driver_rats}), and each net's job pairs its placed view with the
    Steiner tree that pass built, RATs installed ({!install_rats}) — one
    Steiner construction per net. The derivation [buffopt batch] and the
    serve daemon share. *)

val endpoint_slacks : Design.t -> t -> (string * float) list
(** Slack per primary output. *)
