(** Coupled-RC decks for one buffered stage of a routing tree.

    This is the detailed model behind the project's 3dnoise substitute
    (DESIGN.md, substitution 2): the stage's driving gate holds the victim
    quiet through its output resistance, every wire is discretized into
    as many RC sections as its own time constant needs (see {!of_stage})
    with its ground and coupling capacitance split per the pi model, and
    all coupling capacitors hang off one common aggressor node driven by
    a ramp — the worst-case simultaneous-switching assumption of
    the paper's estimation mode. Each wire's total coupling capacitance is
    recovered from its stored coupled current as [cur /. slope] (inverting
    eq. 6), so decks work for any aggressor assignment, not just uniform
    estimation mode. *)

type config = {
  n_seg : int;  (** at most this many RC sections per wire (>= 1); 8 is plenty *)
  vdd : float;  (** aggressor swing, V *)
  t_rise : float;  (** aggressor ramp time, s *)
  l_per_m : float;  (** series wire inductance, H/m; 0 gives pure RC *)
}

val default_config : Tech.Process.t -> config
(** [n_seg = 8] (the cap; millimetre wires reach it) with the process's
    [vdd] and [t_rise]; no inductance.
    On-chip lines are heavily overdamped at realistic [l_per_m]
    (~0.2-0.5 uH/m), the regime where the Devgan bound still holds
    (Section II-B); the RLC tests exercise this. *)

type t = {
  netlist : Circuit.Netlist.t;
  probes : (int * Circuit.Netlist.node) list;  (** stage leaf -> circuit node *)
  sources : (Circuit.Netlist.node * float) list;  (** aggressor ramp node, slope V/s *)
  tau : float;  (** crude stage time constant, for time-window sizing *)
}

val of_stage : ?density:(int -> (float * float) list) -> config -> Rctree.Tree.t -> gate:int -> t
(** Build the deck for the stage rooted at gate [gate] (the source or a
    buffered node). Raises [Invalid_argument] if [gate] is not a gate.

    Each wire gets its own section count from its time constant
    [RC_w = res *. cap] and the deck's step [dt] (the [dt] of {!window},
    taken from the same totals as [tau]):
    [min n_seg (ceil (1.5 *. sqrt (RC_w /. dt)))], so every section's
    own time constant is at most [dt /. 2.25]. A wire with
    [RC_w < 1e-4 *. dt] (a zero-resistance wire among them) is lumped:
    its capacitances sit at its upper node (DESIGN.md §4.1).

    [density], keyed by node id, gives explicit per-wire aggressor
    couplings as [(lambda_j, slope_j)] pairs (see [Coupling.density]):
    each distinct slope gets its own ramp source with rise time
    [vdd /. slope], and the wire's coupling capacitance splits as
    [lambda_j *. cap] per aggressor. Wires with an empty density (and
    all wires when [density] is absent) fall back to the single
    worst-case aggressor implied by their stored current. *)

val window : config -> t -> float * float
(** [(dt, t_end)] of the deck's simulation: the window is
    [t_rise + 6 tau] with at most 6000 steps. It is the upper limit of
    a run: {!peak_noise} may stop before [t_end]. *)

val peak_noise : config -> t -> (int * float) list
(** Simulate the deck and return the peak |voltage| observed at every
    stage leaf over {!window}. An RC deck may stop early, once an energy
    bound shows that no later step can raise any leaf's peak
    ({!Circuit.Transient.simulate_peaks}); the peaks are bit-identical
    to the full window's. *)
