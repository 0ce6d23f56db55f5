(** Differential fuzz campaigns over {!Engine.Pool}.

    A campaign draws [count] instances from {!Gen} — each from its own
    generator seeded by a per-index value derived from the master [seed],
    so the instance stream is identical whatever the job count — runs
    every oracle on the pool, then sequentially shrinks each failure and
    (optionally) saves the minimized repro to a corpus directory.
    Everything is deterministic in [(seed, count)] except wall-clock
    figures and the [minutes] cutoff. *)

type failure = {
  index : int;  (** campaign index of the failing instance *)
  seed : int;  (** per-instance generator seed (replays the instance) *)
  message : string;  (** original failure *)
  shrunk : Instance.t;  (** minimized instance *)
  shrunk_message : string;
  corpus_path : string option;  (** where the repro was saved, if anywhere *)
}

type report = {
  requested : int;
  tested : int;  (** < requested only when the [minutes] budget expires *)
  passed : int;
  skipped : int;
  failures : failure list;  (** in campaign order *)
  wall_s : float;
  per_s : float;  (** tested / wall_s *)
  jobs : int;
  sched : Engine.Pool.stats;
      (** per-worker scheduling counters (jobs, steals, busy seconds)
          from the campaign's pool run — wall-clock flavored, never part
          of the verdict counts, which stay job-count-independent *)
}

val campaign :
  ?mutation:Diff.mutation ->
  ?oracle:Instance.oracle ->
  ?jobs:int ->
  ?minutes:float ->
  ?corpus_dir:string ->
  ?max_shrink_evals:int ->
  seed:int ->
  count:int ->
  unit ->
  report
(** [jobs <= 0] (the default) uses {!Engine.Pool.default_domains};
    [minutes <= 0.] (the default) means no time budget. [oracle] pins
    every instance to one oracle (CLI [fuzz --oracle]) instead of the
    default uniform draw over {!Instance.all_oracles}. *)

val replay :
  ?mutation:Diff.mutation -> string -> (string * Diff.verdict) list
(** Run every instance at the path — one [*.corpus] file, or a directory
    of them — through its oracle; unparseable files come back as [Fail].
    The committed corpus documents fixed bugs, so a healthy replay is
    all-[Pass] and a replay under the right [mutation] must [Fail]. *)

val summary : report -> string
(** One-paragraph human summary (counts, rate, failure messages). *)
