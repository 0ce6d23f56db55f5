(** Whole-net simulation-based noise verification (the 3dnoise role).

    Runs a detailed transient deck for every buffered stage of a tree and
    reports true peak noise at each sink and buffer input, next to its
    margin. The paper runs 3dnoise before and after BuffOpt (Table II);
    because the Devgan metric is an upper bound, the simulated violation
    set must be a subset of the metric's. *)

type leaf_report = {
  leaf : int;  (** node id of the sink or buffer input *)
  peak : float;  (** simulated peak noise, V *)
  metric : float;  (** Devgan-metric noise at the same leaf, V *)
  margin : float;  (** tolerable noise margin, V *)
}

type report = {
  leaves : leaf_report list;
  sim_violations : int;  (** leaves with [peak > margin] *)
  metric_violations : int;  (** leaves with [metric > margin] *)
  bound_ok : bool;  (** metric >= simulated peak at every leaf *)
}

val net :
  ?config:Deck.config ->
  ?density:(int -> (float * float) list) ->
  Tech.Process.t ->
  Rctree.Tree.t ->
  report
(** Simulate every stage of the tree. The default config is
    [Deck.default_config]; [density] is forwarded to {!Deck.of_stage}
    for explicit multi-aggressor decks. *)

val of_peaks : Rctree.Tree.t -> (int * float) list -> report
(** The report for simulated [(leaf, peak)] pairs of the tree, in order:
    the metric and margin of each leaf, and the verdict counts. {!net}
    is [of_peaks] over every stage's {!Deck.peak_noise}. *)

val is_clean : report -> bool
(** No simulated violations. *)
