(** Differential testing of the optimizers.

    Each {!Instance.oracle} names a cross-check between independent
    implementations — DP against exhaustive {!Bufins.Brute}, Algorithm 1
    against Algorithm 2, Algorithm 3 against Van Ginneken — plus the
    from-scratch {!Invariant} evaluation of every returned solution.
    [run] never raises: any exception inside an optimizer is itself a
    counterexample and comes back as [Fail].

    [mutation] swaps in a deliberately broken DP engine for the
    engine-under-test side only — the
    reference sides (brute force, Algorithms 1/2, the production
    [Buffopt] driver) stay healthy — to verify that campaigns catch
    known bug classes (DESIGN.md §10). The one exception is
    [Pred_vs_sweep], which mutates {e both} of its sides: it exists to
    catch divergence between the predictive and sweep-only engines
    (e.g. [Loose_pred_bound]), not engine bugs that break both runs the
    same way. *)

type verdict =
  | Pass
  | Skip of string  (** oracle not applicable (e.g. brute intractable) *)
  | Fail of string

type mutation =
  | Cq_noise_prune  (** {!Bufins.Dp.Cq_noise_prune} *)
  | No_attach_guard  (** {!Bufins.Dp.No_attach_guard} *)
  | Loose_pred_bound  (** {!Bufins.Dp.Loose_pred_bound} *)
  | Stale_memo
      (** the incremental-vs-scratch oracle never reports its RAT and
          wire edits to the memo ({!Bufins.Dp.Memo.dirty}), so stale
          tables survive into the next run *)
  | Bad_power_bound
      (** the power oracles hand the engine a budget inflated by 25% and
          judge the answer against the real one, so solutions whose
          total buffer energy exceeds the budget leak through *)
(** The mutation smoke's defects (DESIGN.md §10). The first three live
    inside the engine ({!Bufins.Dp.mutation}); the last two are staged
    here, by the oracle that must catch them. *)

val run : ?mutation:mutation -> Instance.t -> verdict

val transient_disagreement :
  ?density:(int -> (float * float) list) ->
  Noisesim.Deck.config ->
  Rctree.Tree.t ->
  string option
(** The {!Instance.Transient_tree_vs_dense} check on one tree: [None]
    when every stage deck takes the forest solver, its traces and finals
    agree with the dense reference within 1e-9 V, {!Noisesim.Deck.peak_noise}
    (which may stop early) gives the full-window forest peaks bit for bit,
    and both solvers give the same {!Noisesim.Verify} verdicts; otherwise
    what differed. [config] must
    have [l_per_m = 0] (an RLC deck never takes the forest solver). *)

val fails : ?mutation:mutation -> Instance.t -> string option
(** [Some message] iff {!run} fails — the shape {!Shrink.shrink} wants. *)
