(** Design-scale batch optimization: domain-parallel BuffOpt over whole
    netlists.

    The paper's evaluation (Section V, Tables II-IV) is a batch
    workload — BuffOpt over the 500 largest nets of a design. Per-net
    buffer insertion is embarrassingly parallel, and this module is the
    layer that exploits it: a fixed pool of domains ({!Pool}) pulls
    (net, tree) jobs off a chunked work queue and runs the requested
    {!Bufins.Buffopt.algorithm} on each.

    Guarantees, independent of the domain count and of scheduling:

    - {b Deterministic results.} Job [i]'s outcome depends only on job
      [i]; results are reported in job order, and the aggregate report
      is merged in job order, so the same job list produces the same
      {!signature} at 1 domain and at 64.
    - {b Fault isolation.} An exception or an infeasible net becomes
      that job's {!outcome}; it never kills the batch. A job is run
      once: every job is deterministic, so one that raised would raise
      again.
    - {b Timing is labeled.} All times are wall-clock seconds from
      {!Util.Clock}, never [Sys.time] CPU seconds, which double-count
      under parallelism. Timing lives in its own {!timing} record and
      is excluded from {!signature}. *)

module Pool = Pool

type 'a outcome =
  | Done of 'a
  | Failed of { error : string }
      (** the job raised [error], or was {!Infeasible} with that message *)

type timing = {
  domains : int;  (** worker domains actually used *)
  wall_s : float;  (** whole-batch wall-clock seconds *)
  jobs_per_s : float;
  lat_min_s : float;  (** fastest single job, wall seconds *)
  lat_mean_s : float;
  lat_max_s : float;
  sched : Pool.stats;
      (** per-worker scheduling counters — jobs, chunk steals, busy
          seconds — for utilization reporting; like the rest of
          [timing], never part of {!signature} *)
}

val map :
  ?domains:int ->
  ?pool:Pool.t ->
  ?chunk:int ->
  ?costs:int array ->
  ('a -> 'b) ->
  'a list ->
  'b outcome array * timing
(** The generic engine: apply [f] to every element on a domain pool and
    return per-element outcomes in input order. [domains] defaults to
    [Pool.size pool] when a resident [pool] is given (the serve daemon's
    warm domains), else {!Pool.default_domains}; with [pool] the workers
    are the pool's resident domains instead of freshly spawned ones, and
    results are byte-identical either way. [chunk] / [costs] control
    chunk sizing and
    shard balance (see {!Pool.run} — [costs.(i)] is job [i]'s estimated
    cost). A job that raises is recorded as [Failed]. [f] must be safe to run
    concurrently with itself on distinct elements (pure functions and
    functions over immutable inputs qualify; everything in [Bufins] /
    [Noisesim] does). Workers accumulate outcomes and latencies in
    per-worker buffers that are merged by index after the join, so the
    result is independent of scheduling and no two domains ever write
    adjacent cells of a shared array while running. *)

exception Infeasible of string
(** Raised by a job to record a deterministic per-job failure — e.g. no
    noise-feasible solution for a net; {!map} records its message as
    the [Failed] error. *)

(** {1 Batch BuffOpt} *)

type job = Steiner.Net.t * Rctree.Tree.t

type net_result = {
  net : string;  (** net name, from [Steiner.Net.nname] *)
  outcome : Bufins.Buffopt.run outcome;
}

type report = {
  results : net_result array;  (** in job order *)
  ok : int;
  failed : int;
  buffers : int;  (** total inserted over successful nets *)
  energy : float;  (** total buffer switching energy over successful nets, J *)
  worst_slack : float;  (** min predicted slack over successful nets; [infinity] when none *)
  dp : Bufins.Dp.stats;  (** candidate-engine rollup over successful nets *)
  timing : timing;
}

val optimize :
  ?domains:int ->
  ?pool:Pool.t ->
  ?chunk:int ->
  ?seg_len:float ->
  ?kmax:int ->
  algorithm:Bufins.Buffopt.algorithm ->
  lib:Tech.Buffer.t list ->
  job list ->
  report
(** Run {!Bufins.Buffopt.optimize} on every job. A net with no
    noise-feasible solution is a [Failed] outcome whose error names the
    verdict; see {!failed_nets}. [seg_len] / [kmax] are passed through
    to the per-net optimizer. Chunks are sized and sharded by each
    net's sink count (the DP's dominant cost driver) so domains finish
    together; see {!Pool.run}. *)

val failed_nets : report -> string list
(** Names of the nets whose outcome is [Failed], in job order. *)

val signature : report -> string
(** A rendering of everything deterministic in the report — per-net
    outcomes (count, predicted slack, DP stats, error strings) plus the
    job-order aggregate — with timing excluded. Byte-identical across
    domain counts for the same job list; the scaling bench and the
    determinism tests compare these. *)

val summary : report -> string
(** One human-readable paragraph: net/buffer totals, total buffer
    energy, failures, wall time, throughput, per-net latency spread,
    and worker utilization / steal counts. When every net failed the
    worst slack prints as [n/a], never [nan]. *)
