(** Van Ginneken's delay-optimal buffer insertion [31] (paper Figs. 4-5),
    with the Lillis library/polarity generalization: the delay-only
    baseline the paper calls DelayOpt.

    [?pruning] on every entry point selects the candidate engine (see
    {!Dp.run}): [`Predictive] (default) pre-kills candidates against the
    Li & Shi slope bound, [`Sweep_only] is the plain dominance-sweep
    engine. Outcomes are byte-identical either way. *)

val run :
  ?pruning:[ `Predictive | `Sweep_only ] ->
  ?memo:Dp.Memo.t ->
  lib:Tech.Buffer.t list ->
  Rctree.Tree.t ->
  Dp.result
(** Maximize the source timing slack; no noise constraints. Always
    succeeds (the zero-buffer candidate survives). *)

val run_max :
  ?pruning:[ `Predictive | `Sweep_only ] ->
  ?memo:Dp.Memo.t ->
  max_buffers:int ->
  lib:Tech.Buffer.t list ->
  Rctree.Tree.t ->
  Dp.result
(** DelayOpt(k): best slack using at most [max_buffers] buffers
    (Table III). Runs under count dominance ({!Dp.Up_to}, DESIGN.md
    §17): the winner is byte-identical to the best of {!by_count}'s
    exact buckets. *)

val by_count :
  ?pruning:[ `Predictive | `Sweep_only ] ->
  ?memo:Dp.Memo.t ->
  kmax:int ->
  lib:Tech.Buffer.t list ->
  Rctree.Tree.t ->
  Dp.result option array
(** Best slack for each exact buffer count [0..kmax] (Table IV pairs
    DelayOpt and BuffOpt at equal counts): [Dp.Per_count], every bucket
    exact. *)

val run_power :
  ?pruning:[ `Predictive | `Sweep_only ] ->
  ?memo:Dp.Memo.t ->
  budget:float ->
  kmax:int ->
  lib:Tech.Buffer.t list ->
  Rctree.Tree.t ->
  Dp.result
(** Power-bounded DelayOpt (DESIGN.md §16): best slack whose total
    buffer energy stays within [budget] (J), using at most [kmax]
    buffers. Always succeeds — the zero-buffer candidate carries zero
    energy, so it survives any non-negative budget. Raises
    [Invalid_argument] on a negative budget (from {!Dp.run}). *)
