(** Shared example trees for tests, examples and benchmarks. *)

val fig3 : unit -> Rctree.Tree.t
(** The paper's Fig. 3 worked noise-computation example, with this
    project's concrete numbers (the journal scan loses the originals):
    source [so] (driver resistance 10 ohm) - wire [w1] (2 ohm, coupled
    current 4 A) - node [v1] branching to sink [s1] over [w2] (3 ohm,
    2 A, margin 200 V) and sink [s2] over [w3] (2 ohm, 6 A, margin
    150 V). Hand-computed noise: 143 V at [s1], 146 V at [s2] (see
    examples/fig3_noise.ml). Values are dimensionally consistent but
    deliberately abstract, as in the paper. *)

val two_pin : ?r_drv:float -> ?c_sink:float -> ?rat:float -> ?nm:float -> Tech.Process.t -> len:float -> Rctree.Tree.t
(** A source driving a single sink over one estimation-mode wire of
    [len] metres. Defaults: 100 ohm driver, 20 fF sink, 2 ns RAT, 0.8 V
    margin. *)

val balanced : ?fanout_len:float -> Tech.Process.t -> levels:int -> trunk_len:float -> Rctree.Tree.t
(** A balanced binary tree: a trunk wire then [levels] of symmetric
    branching (2^levels sinks). *)

val random_net :
  Util.Rng.t ->
  Tech.Process.t ->
  max_sinks:int ->
  max_len:float ->
  Rctree.Tree.t
(** A random topology with 1..[max_sinks] sinks, random wire lengths up
    to [max_len], random driver/sink electricals; used by property
    tests. Trees are built via random attachment so all shapes occur. *)

val caterpillar : Tech.Process.t -> int -> Rctree.Tree.t
(** The scale-test net: [sinks] internal nodes, each hung off a random
    earlier one (source included) and carrying one sink (15 fF, 4 ns
    RAT, 0.8 V margin). Wires are 0.2-1.5 mm to internal nodes and
    0.2-1 mm to sinks, drawn from a fixed [Util.Rng.create 99] stream,
    so a given size always yields the same tree. *)
