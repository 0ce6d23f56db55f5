(** Exhaustive reference optimizer for the test suite.

    Enumerates every assignment of library buffers (or none) to the
    feasible internal nodes of a tree, evaluates each with the
    from-scratch [Eval] analyzers, and reports exact optima. Exponential
    — intended for trees with at most a dozen feasible nodes; the
    optimality theorems (3, 4, 5) are checked against these results on
    randomized small instances. *)

val assignments :
  lib:Tech.Buffer.t list -> Rctree.Tree.t -> Rctree.Surgery.placement list Seq.t
(** All [(|lib| + 1) ^ feasible] node-buffer assignments. The optimizers
    below additionally reject polarity-illegal assignments (a
    source-to-sink path through an odd number of inverting buffers
    delivers the wrong logic value). *)

val min_buffers_noise : lib:Tech.Buffer.t list -> Rctree.Tree.t -> (int * Eval.report) option
(** Fewest buffers with zero noise violations (Problem 1 restricted to
    feasible nodes); ties broken by slack. [None] if no assignment is
    noise-clean. *)

val best_slack :
  noise:bool -> lib:Tech.Buffer.t list -> Rctree.Tree.t -> (float * Eval.report) option
(** Maximum achievable slack; with [noise = true], only noise-clean
    assignments qualify (Problem 2). *)

val best_slack_power :
  budget:float ->
  lib:Tech.Buffer.t list ->
  Rctree.Tree.t ->
  (float * float * Eval.report) option
(** Maximum slack over the assignments whose total buffer energy
    ({!Buffopt.placements_energy}) stays within [budget] (J); no noise
    constraint — the reference the power-vs-brute oracle holds
    {!Dp.Power_bounded} to. Returns (slack, energy, report); [None]
    only for a negative budget (the empty assignment costs nothing). *)
