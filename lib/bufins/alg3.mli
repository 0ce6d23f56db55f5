(** Algorithm 3: simultaneous noise and delay optimization
    (paper Section IV, Figs. 10-11).

    Van Ginneken's DP in which a buffer — or the source driver — is never
    attached to a candidate whose noise constraint it would violate, and
    candidates whose accumulated wire noise already exceeds a downstream
    margin are discarded as unrecoverable. Generates a subset of Van
    Ginneken's candidates, so it can run faster than DelayOpt (Table III).
    Optimal for a single-buffer library when the buffer's input
    capacitance is at most every sink's and its margin at most every
    sink's (Theorem 5); near-optimal for realistic libraries
    (Section IV-C, verified within 2% in Table IV).

    [?pruning] (default [`Predictive]) selects {!Dp.run}'s predictive
    engine, whose noise-mode rule is the 4D {!Candidate.kills_full};
    outcomes are byte-identical to [`Sweep_only], only the candidate
    counters move. *)

val run :
  ?pruning:[ `Predictive | `Sweep_only ] ->
  ?memo:Dp.Memo.t ->
  lib:Tech.Buffer.t list ->
  Rctree.Tree.t ->
  Dp.result option
(** Maximize source slack subject to every noise margin; [None] when no
    buffering at this segmenting satisfies noise (Section IV-C's remedy:
    finer segmenting / richer library — see [Buffopt.optimize]). The
    returned result carries the engine's {!Dp.stats} (candidates
    generated / pruned, peak frontier width). *)

val by_count :
  ?pruning:[ `Predictive | `Sweep_only ] ->
  ?memo:Dp.Memo.t ->
  kmax:int ->
  lib:Tech.Buffer.t list ->
  Rctree.Tree.t ->
  Dp.outcome
(** Noise-constrained best slack per exact buffer count
    ([Dp.Per_count], every bucket exact). Problem 3 ({!Buffopt.problem3})
    reads only the count-slack front of these buckets and runs
    [Dp.Up_to] instead. *)
