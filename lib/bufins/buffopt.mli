(** The BuffOpt tool (paper Sections IV-C and V).

    Problem 3: insert the minimum number of buffers such that both the
    noise margins and the timing constraints are satisfied, maximizing
    slack as a secondary objective. Implemented, as in the paper, by
    running Algorithm 3 with Lillis count-indexed candidate lists and
    picking the smallest count whose best solution meets timing; when no
    count meets timing, the maximum-slack noise-clean solution is
    returned (fewest buffers among ties). Both picks lie on the
    count-slack front, so the lists run under count dominance
    ({!Dp.Up_to}, DESIGN.md §17): a candidate that one with fewer
    buffers dominates is dropped, and the pick is byte-identical to the
    one over exact per-count buckets.

    [optimize] is the end-to-end entry point used by the experiments: it
    segments the tree, runs the requested optimizer, and retries with
    finer segmenting in the rare case noise cannot be satisfied at the
    initial granularity. *)

val problem3 : kmax:int -> lib:Tech.Buffer.t list -> Rctree.Tree.t -> Dp.result option
(** The Problem 3 selection rule over the count-slack front of the
    noise-mode DP ([Dp.Up_to kmax]); the same choice as over the exact
    buckets of [Dp.Per_count kmax]. Timing is met exactly when the
    result's [slack >= 0.]: the rule picks among the counts that meet
    timing first, and falls back to the maximum-slack solution only
    when none does. [None] when no noise-feasible solution exists at
    this segmenting. *)

type algorithm =
  | Buffopt  (** noise + delay, fewest buffers meeting timing (Problem 3) *)
  | Delayopt of int
      (** DelayOpt(k): delay only, at most k buffers ({!Dp.Up_to}) *)
  | Alg3_max_slack
      (** noise + delay, unconstrained count (Problem 2, Algorithm 3) *)
  | Vangin_max_slack  (** delay only, unconstrained count (Van Ginneken) *)
  | Power_bounded of float
      (** max slack within the given buffer-energy budget (J), at most
          [kmax] buffers; delay only, {!Dp.Power_bounded} under the hood
          (DESIGN.md §16) *)
(** The one way production code chooses an optimizer: each constructor
    is one {!Dp.run} question (see {!Dp} for the paper's mapping). *)

type run = {
  report : Eval.report;  (** evaluation of the applied solution *)
  placements : Rctree.Surgery.placement list;
  count : int;
  predicted_slack : float;  (** the DP's own slack *)
  energy : float;  (** total buffer switching energy of the solution, J *)
  segmented : Rctree.Tree.t;  (** the tree the optimizer actually ran on *)
  stats : Dp.stats;  (** candidate-engine statistics of the winning run *)
}

val optimize :
  ?seg_len:float ->
  ?kmax:int ->
  algorithm ->
  lib:Tech.Buffer.t list ->
  Rctree.Tree.t ->
  run option
(** Segment to [seg_len] (default 500 um), run, and evaluate. Noise-aware
    algorithms retry up to twice, halving [seg_len] each time, when
    infeasible. [kmax] (default 16) bounds the Problem 3
    search; a net that needs more buffers than [kmax] falls back to the
    unbounded Problem 2 search (Algorithm 3) rather than failing.
    [None] only for noise-aware algorithms
    that stay infeasible after all retries. *)

val optimize_prepared :
  ?kmax:int ->
  ?pruning:[ `Predictive | `Sweep_only | `Off ] ->
  ?memo:Dp.Memo.t ->
  algorithm ->
  lib:Tech.Buffer.t list ->
  Rctree.Tree.t ->
  run option
(** The serve daemon's entry point: run on an {e already segmented} tree
    — no segmenting pass, no retry loop — optionally through a resident
    incremental {!Dp.Memo}. [segmented] in the returned run is the input
    tree itself. The caller owns segmenting (once, at load time) and the
    memo's dirty-marking contract; see {!Dp.Memo}. [None] when the
    noise-aware algorithms are infeasible at this segmenting. Equal
    inputs produce results byte-identical to {!optimize} at the same
    granularity with the retry loop disabled. [pruning] is {!Dp.run}'s
    (default [`Predictive]). *)

val placements_energy : Rctree.Surgery.placement list -> float
(** Sum of the placements' buffer energies, J — the quantity the
    energy-conservation oracle compares against {!Trace.energy}. *)

val optimize_coupled :
  ?seg_len:float ->
  ?kmax:int ->
  algorithm ->
  lib:Tech.Buffer.t list ->
  Coupling.t ->
  (run * Coupling.t) option
(** The same drivers over an explicit-coupling annotation
    ([Coupling.annotate] / [Extract.annotate]): the annotation is
    segmented density-preservingly, optimized, and returned re-keyed onto
    the buffered tree — ready for multi-aggressor verification with
    [Noisesim.Verify.net ~density]. *)
