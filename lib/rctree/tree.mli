(** Routing trees (Section II of the paper).

    A routing tree [T = (V, E)] has a unique source (the driving gate), a
    set of sinks (gate inputs with load capacitance, required arrival time
    and noise margin), and internal nodes. Every non-root node [v] carries
    its unique parent wire [(parent v, v)]; signal flows parent-to-child.
    Trees are binary: a Steiner node of degree three is represented with a
    zero-length wire to an infeasible dummy node (the paper's footnote 1).

    Wires carry total resistance (ohm), total capacitance (farad), length
    (metre) and the total coupled current (ampere) induced by aggressor
    nets per eq. (6); in estimation mode [cur = lambda * cap * slope].

    A node whose kind is [Buffered] holds an inserted buffer: its input is
    a noise/timing sink of the upstream stage and its output drives the
    downstream stage (footnote 2: a buffer at a degree-d node has one
    input, one output and d-1 fanouts). *)

type driver = { r_drv : float;  (** source gate output resistance, ohm *) d_drv : float  (** source gate intrinsic delay, s *) }

type sink = {
  sname : string;
  c_sink : float;  (** sink pin capacitance, F *)
  rat : float;  (** required arrival time, s *)
  nm : float;  (** tolerable noise margin, V *)
}

type kind = Source of driver | Sink of sink | Internal | Buffered of Tech.Buffer.t

type wire = {
  length : float;  (** m *)
  res : float;  (** ohm *)
  cap : float;  (** F *)
  cur : float;  (** coupled current, A (eq. 6) *)
}

type node = {
  kind : kind;
  parent : int;  (** [-1] for the root *)
  wire : wire option;  (** parent wire; [None] iff root *)
  feasible : bool;  (** may the DP algorithms place a buffer here? *)
}

type t

val zero_wire : wire

val make_wire : length:float -> res:float -> cap:float -> cur:float -> wire

val wire_of_length : Tech.Process.t -> float -> wire
(** Estimation-mode wire of the given length: per-unit parasitics and
    coupled current from the process parameters. *)

val scale_wire : wire -> float -> wire
(** [scale_wire w f] is the fraction [f] (in [\[0,1\]]) of [w]; all four
    fields scale linearly. *)

val area_frac : float
(** 0.4: the share of a minimum-width wire's capacitance that is area
    capacitance, the part that grows with the wire's width. *)

val resize_wire : wire -> width:float -> wire
(** The wire redrawn at [width] times the minimum width (Lillis et al.'s
    simultaneous wire sizing): resistance scales as [1/width]; the
    {!area_frac} share of the capacitance scales with [width] while the
    fringe/lateral remainder — and with it the coupled current — is
    unchanged. Requires [width >= 1.]. The DP's sizing ([Bufins.Dp.run]
    [~widths]) and [Bufins.Wiresize.apply_sizes] both draw wires through
    it, so a sized solution re-evaluates to the DP's own slack. *)

val node_count : t -> int

val root : t -> int

val node : t -> int -> node

val kind : t -> int -> kind

val parent : t -> int -> int

val wire_to : t -> int -> wire
(** Parent wire of a non-root node. *)

val feasible : t -> int -> bool

val children : t -> int -> int list
(** In tree order; at most two. *)

val is_gate : t -> int -> bool
(** Source or Buffered. *)

val is_stage_leaf : t -> int -> bool
(** Sink or Buffered: a point where a driving stage terminates. *)

val sinks : t -> int list

val gates : t -> int list
(** Source and Buffered nodes, i.e. the roots of all stages. *)

val internals : t -> int list

val buffer_count : t -> int

val postorder : t -> int list
(** Every node after all of its descendants. *)

val path_up : t -> int -> int list
(** [path_up t v] is [v; parent v; ...; root]. *)

val stage_members : t -> int -> int list
(** [stage_members t g] for a gate (or any) node [g]: the nodes of the
    maximal subtree hanging from [g] with no internal buffers — children
    are explored, but exploration stops below Sink and Buffered nodes.
    [g] itself is excluded; every member has its parent wire inside the
    stage. *)

val stage_leaves : t -> int -> int list
(** Sinks and buffer inputs at the boundary of [stage_members]. *)

val map_wires : t -> (int -> wire -> wire) -> t
(** A copy of the tree with every parent wire transformed by the given
    function (applied to the owning node's id); structure and node ids
    are preserved. *)

val with_sink_rat : t -> int -> rat:float -> t
(** A copy of the tree with sink [v]'s required arrival time replaced;
    structure and node ids are preserved (the serve daemon's
    [update-rat] edit). Raises [Invalid_argument] when [v] is not a
    sink. *)

val with_sink_rats : t -> (sink -> float) -> t
(** [with_sink_rats t f]: a copy of the tree with every sink [s]'s
    required arrival time replaced by [f s], in one pass over the nodes;
    structure, node ids and every non-sink record are preserved (STA
    installs a net's RATs in its Steiner tree this way). *)

val with_wire : t -> int -> (wire -> wire) -> t
(** [with_wire t v f]: a copy of the tree with node [v]'s parent wire
    [w] replaced by [f w]; structure, node ids and every other node
    record are preserved (the serve daemon's [update-wire] edit: one
    record, where {!map_wires} rebuilds every node's). Raises
    [Invalid_argument] when [v] is the root. *)

val validate : t -> (unit, string) result
(** Structural invariants: unique source at the root, binary fanout, sinks
    are leaves, wires present exactly on non-roots, non-negative wire
    fields, acyclicity by construction. *)

val total_wirelength : t -> float

val total_wire_cap : t -> float

val pp_summary : Format.formatter -> t -> unit

(**/**)

val unsafe_make : node array -> t
(** For {!Builder} only. *)
