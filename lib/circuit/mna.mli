(** Modified nodal analysis assembly, shared by the transient engine and
    the AC-moment (AWE/RICE-style) analyses.

    Driven nodes are eliminated from the unknown vector: their couplings
    become right-hand-side entries tied to the index of their source, so
    both time-domain (waveform-weighted) and frequency-domain (per-source
    unit excitation) analyses can build their RHS.

    The system is kept sparse: the diagonals of [G] and [C] plus their
    off-diagonal entries as edge lists. {!g} and {!c} materialize the
    dense matrices for the analyses that want them (the AC moments and
    the dense transient path); the forest transient path never does. *)

type edge = { i : int; j : int; v : float }
(** A symmetric off-diagonal entry: [v] at [(i, j)] and at [(j, i)],
    [i <> j]. *)

type rhs = { row : int; coeff : float; src : int }
(** The stamp entry [coeff] coupling unknown [row] to the driven node
    [sources.(src)]; its known voltage enters the RHS as [-coeff * v]. *)

type t = {
  nf : int;  (** number of free nodes *)
  nl : int;  (** number of inductor branch currents *)
  index : int array;  (** node id -> free index, or -1 for driven nodes *)
  g_diag : float array;  (** diagonal of [G] over the [nf + nl] unknowns *)
  c_diag : float array;  (** diagonal of [C]; [-L] on inductor rows *)
  g_off : edge list;
      (** off-diagonal [G]: [-1/R] per resistor between free nodes, [+/-1]
          inductor incidence entries *)
  c_off : edge list;  (** [-C] per capacitor between two free nodes *)
  g_drv : rhs array;
      (** conductive couplings to driven nodes: one entry per
          [(row, src)] pair, parallel elements summed, in row order *)
  c_drv : rhs array;  (** capacitive couplings to driven nodes, likewise *)
  sources : int array;  (** driven node ids the RHS refers to, ascending *)
  waves : Waveform.t array;  (** the waveform of each source *)
}
(** The unknown vector is [[node voltages; inductor currents]]. Inductor
    branch rows hold [v_a - v_b] in [G] and [-L di/dt] in [C]; their
    currents enter the node KCL rows through the incidence entries. *)

val build : Netlist.t -> t

val dim : t -> int
(** [nf + nl]. *)

val g : t -> Linalg.Mat.t
(** The dense [G] (a fresh matrix). *)

val c : t -> Linalg.Mat.t
(** The dense [C] (a fresh matrix). *)

val free_index : t -> Netlist.node -> int
(** Index of a free node in the unknown vector; [-1] for driven/ground. *)
