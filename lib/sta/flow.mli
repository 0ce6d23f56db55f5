(** The physical-synthesis loop the paper's tool runs inside:
    STA -> per-net RAT derivation -> BuffOpt on every net that misses
    timing or margins -> STA on the buffered design.

    This is "full-design mode": timing constraints are not synthetic
    per-net annotations but real path requirements propagated through
    gates, exactly the setting of the paper's Section V experiments. *)

type report = {
  before : Engine.t;
  after : Engine.t;
  optimized_nets : int;  (** nets BuffOpt actually ran on *)
  inserted_buffers : int;
  infeasible_nets : int;  (** nets where no noise-feasible solution existed *)
}

val optimize :
  ?seg_len:float ->
  ?kmax:int ->
  ?iterations:int ->
  Tech.Process.t ->
  lib:Tech.Buffer.t list ->
  Design.t ->
  report
(** Nets that already meet both their noise margins and their required
    times are left untouched; every other net gets the Problem 3
    treatment with RATs taken from the STA's backward pass. Buffering
    shifts every downstream requirement, so the loop re-analyzes and
    re-optimizes [iterations] times (default 2). *)

val summary : report -> string
