(** Trapezoidal transient analysis.

    Solves [G v + C dv/dt = b(t)] over the free nodes of a netlist, where
    [b(t)] collects the contributions of driven nodes through the
    conductances and capacitances tied to them. The step matrix
    [G + (2/h) C] is factored once per run and back-substituted per step.

    Two solvers share the stepping loop. An RC forest deck — no inductor
    rows, no capacitor between two free nodes, and an acyclic free-node
    resistor graph — is factored leaf-first as [LDL^T], which has no
    fill: a run costs O(n) to factor plus O(n) per step. Its step is one
    leaf-first sweep and one back sweep; the sweep forms each unknown's
    RHS entry from the step's source values where it first reads it, so
    no step fills or scatters a RHS vector. Every sum keeps its operands
    and their order, so the results are those of forming the RHS first,
    bit for bit (DESIGN.md §4.1). Every other
    deck, and {!simulate_dense} always, uses dense LU with partial
    pivoting: O(n^3) to factor plus O(n^2) per step.

    {!simulate_peaks} may stop before [t_end] on a forest deck, once an
    energy bound, widened by a bound on the rounding of the steps left,
    shows that no probe's peak can grow any more (DESIGN.md §4.1); its
    peaks equal {!simulate}'s bit for bit. *)

type solver =
  | Forest  (** leaf-first [LDL^T] on an RC forest *)
  | Dense  (** dense LU *)

type result = {
  times : float array;
      (** the instants stepped to, including t = 0: a run took
          [Array.length times - 1] steps *)
  peaks : float array;  (** per-probe maximum |v| over the run *)
  peak_times : float array;  (** instant at which each peak occurred *)
  finals : float array;  (** per-probe voltage at the last instant stepped to *)
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

val simulate_peaks :
  Netlist.t -> dt:float -> t_end:float -> probes:Netlist.node list -> result
(** {!simulate} without traces, which may stop before [t_end]. It stops
    only on a forest deck whose sources all couple through capacitors
    (no resistor ties a free node to a driven one), at a step [k] that is
    a multiple of 8 with [t_k] at or after every source waveform's
    {!Waveform.settle}, once [sqrt (x^T C x / C_ii) * (1 + margin)] is at
    or below the recorded peak of every free probe [i]. From [t_k] on the
    RHS is zero and each exact trapezoidal step cannot raise the C-energy
    [x^T C x]. The [margin] bounds how far the computed steps can stray
    from the exact ones over the window: about [2 * steps * 2 (d + 2) *
    eps * (1 + 2 rho)], with [d] the largest resistor degree and [rho =
    max_k G_kk dt / (2 C_kk)] the deck's stiffness. A deck whose margin
    would exceed 2e-3 (or that has a node without capacitance) runs the
    whole window. So no later step could raise a peak: [peaks] and
    [peak_times] equal {!simulate}'s bit for bit. [times] and [finals]
    describe the run as it was cut. Dense decks (inductors, capacitors
    between free nodes, resistor loops) run the whole window. Raises as
    {!simulate}. *)

val simulate_dense :
  ?record:bool ->
  Netlist.t ->
  dt:float ->
  t_end:float ->
  probes:Netlist.node list ->
  result
(** {!simulate} on the dense LU solver whatever the deck: the reference
    the forest solver is checked against. *)
