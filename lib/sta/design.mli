(** Gate-level combinational designs.

    A design is a DAG of placed cell instances between primary inputs and
    primary outputs. Every instance output and every primary input drives
    exactly one net; every instance input pin and every primary output is
    the sink of exactly one net. This is the substrate the paper's tool
    operates inside: timing constraints come from paths through gates,
    not from per-net annotations. *)

type source = From_pi of int | From_inst of int  (** net driver: PI id or instance id *)

type sink = To_po of int | To_inst of int * int  (** PO id, or (instance id, input index) *)

type instance = { iname : string; cell : Cell.t; at : Geometry.Point.t }

type net = { nname : string; source : source; sinks : sink array }

type pi = {
  pname : string;
  pat : Geometry.Point.t;
  arrival : float;  (** signal availability at the pad, s *)
  r_pad : float;  (** pad driver resistance, ohm *)
  d_pad : float;  (** pad driver intrinsic delay, s *)
}

type po = {
  oname : string;
  oat : Geometry.Point.t;
  required : float;  (** required arrival time, s *)
  c_pad : float;  (** pad load, F *)
  po_nm : float;  (** pad noise margin, V *)
}

type t = {
  instances : instance array;
  nets : net array;
  pis : pi array;
  pos : po array;
}

val source_location : t -> source -> Geometry.Point.t

val sink_location : t -> sink -> Geometry.Point.t

val validate : t -> (unit, string) result
(** Electrical and structural checks: finite PI/PO electricals with
    non-negative pad resistance and load, every instance input driven
    exactly once, every instance output driving exactly one net, every
    PI driving exactly one net, every PO driven exactly once,
    combinational acyclicity, and pairwise-distinct placements per
    net. *)

val topo_order : t -> int list
(** Instance ids, every instance after all instances feeding it. Raises
    [Invalid_argument] on a cyclic design. *)

val source_nets : t -> source -> int
(** [source_nets d] indexes [d]'s nets by driver in one pass over
    [d.nets]; the function it returns maps a source to the net it
    drives in O(1). When several nets share a source (an invalid
    design) the last one wins. Raises [Invalid_argument] for a source
    that drives no net. *)

val stats : t -> string
(** One-line summary (instances / nets / PIs / POs). *)
