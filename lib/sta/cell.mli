(** Combinational cell models for the design-level flow.

    The same linear gate model as the optimizer (eq. 3): every cell has
    one output with intrinsic delay and resistance, uniform input pin
    capacitance, and an input noise margin. Dynamic-logic cells carry the
    reduced margins that motivate the paper. *)

type t = {
  cname : string;
  n_inputs : int;
  c_in : float;  (** per input pin, F *)
  r_out : float;  (** ohm *)
  d_intr : float;  (** s *)
  nm : float;  (** input noise margin, V *)
}

val library : t list
(** Static CMOS inverters/NAND/NOR/AND-OR in two strengths plus two
    dynamic (domino) cells with 0.5 V margins. *)

val find : string -> t
(** Raises [Not_found] for unknown names. *)

val upsize : t -> t option
(** The next drive strength in the same family ([inv_x1 -> inv_x4],
    [nand2_x1 -> nand2_x4]); [None] at the top of a family or for cells
    with a single strength. *)
