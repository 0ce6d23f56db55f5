(** Trapezoidal transient analysis.

    Solves [G v + C dv/dt = b(t)] over the free nodes of a netlist, where
    [b(t)] collects the contributions of driven nodes through the
    conductances and capacitances tied to them. The step matrix
    [G + (2/h) C] is factored once per run and back-substituted per step.

    Two solvers share the stepping loop. An RC forest deck — no inductor
    rows, no capacitor between two free nodes, and an acyclic free-node
    resistor graph — is factored leaf-first as [LDL^T], which has no
    fill: a run costs O(n) to factor plus O(n) per step. Every other
    deck, and {!simulate_dense} always, uses dense LU with partial
    pivoting: O(n^3) to factor plus O(n^2) per step. *)

type solver =
  | Forest  (** leaf-first [LDL^T] on an RC forest *)
  | Dense  (** dense LU *)

type result = {
  times : float array;  (** sample instants, including t = 0 *)
  peaks : float array;  (** per-probe maximum |v| over the run *)
  peak_times : float array;  (** instant at which each peak occurred *)
  finals : float array;  (** per-probe voltage at the last instant *)
  traces : float array array option;  (** per-probe sampled waveforms if requested *)
  solver : solver;  (** which solver ran *)
}

val simulate :
  ?record:bool ->
  Netlist.t ->
  dt:float ->
  t_end:float ->
  probes:Netlist.node list ->
  result
(** Run from the DC operating point at [t = 0] (sources at their initial
    values) to [t_end] with a fixed step [dt]. Probing a driven node or
    ground is allowed (its known voltage is reported). Set [record] to keep
    full waveforms. Raises [Invalid_argument] on a non-positive step and
    [Linalg.Mat.Singular] if some free node has no resistive path to a
    driven node or ground, on either solver. *)

val simulate_dense :
  ?record:bool ->
  Netlist.t ->
  dt:float ->
  t_end:float ->
  probes:Netlist.node list ->
  result
(** {!simulate} on the dense LU solver whatever the deck: the reference
    the forest solver is checked against. *)
