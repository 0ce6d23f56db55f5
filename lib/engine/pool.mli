(** A fixed worker pool over [Domain] with per-worker chunk queues and
    coarse work-stealing.

    [run] executes a loop body over [0 .. n-1] on [domains] domains (the
    calling domain plus [domains - 1] spawned helpers — no domain is ever
    left running between calls). The index range is cut into contiguous
    chunks up front; chunks are sharded across per-worker queues balanced
    by estimated cost (heaviest chunk onto the least-loaded worker — the
    Fiduccia–Mattheyses balance idea degenerated to construction order),
    and each worker claims from its own queue through its own [Atomic]
    cursor. Only when a worker's shard is drained does it touch other
    workers' cursors to steal whole chunks, so in the steady state every
    queue-pop lands on a worker-private cache line instead of ping-ponging
    one shared counter. No external dependencies: stdlib [Domain] and
    [Atomic] only. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()] — the runtime's estimate of
    how many domains this machine runs without oversubscription. *)

(** {1 Persistent pool}

    By default every [run] spawns its helper domains and joins them
    before returning — correct for a one-shot batch, wasteful for a
    long-running service answering thousands of requests. A {!t} handle
    keeps the helpers resident: they sleep on a condition variable
    between parallel regions, and a [run ~pool] reuses them instead of
    spawning. Results are byte-identical with and without a pool — the
    handle changes only where the worker bodies execute. *)

type t
(** A resident worker pool: [create ~domains] spawns [domains - 1]
    helper domains once; the calling domain is always worker 0 of every
    region. *)

val create : ?domains:int -> unit -> t
(** Spawn the helpers ([domains] defaults to {!default_domains},
    clamped to [>= 1]). The handle must eventually be {!shutdown} or
    the helper domains outlive the caller. *)

val size : t -> int
(** Total workers including the calling domain. *)

val exec : t -> (int -> unit) -> unit
(** [exec p task] runs [task w] on every worker [w] in
    [0 .. size p - 1] ([task 0] on the calling domain) and returns when
    all have finished. One region at a time: [exec] is a full barrier
    and must not be called concurrently from two domains. [task] must
    not raise (see {!run}, which wraps bodies accordingly). Raises
    [Invalid_argument] after {!shutdown}. *)

val shutdown : t -> unit
(** Wake and join the helper domains. Idempotent; subsequent {!exec} /
    [run ~pool] calls on the handle raise [Invalid_argument]. *)

type stats = {
  workers : int;  (** worker domains actually used, [min domains n] *)
  chunks : int;  (** chunks planned over the index range *)
  jobs : int array;  (** per worker: indices executed *)
  steals : int array;  (** per worker: chunks claimed from another shard *)
  busy_s : float array;  (** per worker: wall seconds inside the body *)
  wall_s : float;  (** whole-pool wall seconds, spawn to last join *)
}
(** Per-worker scheduling counters for one [run]. [jobs] sums to [n]
    when no worker raised; [steals.(w)] counts chunks worker [w] took
    from a queue it does not own (0 everywhere means the cost shards
    were balanced enough that nobody went idle early). *)

val utilization : stats -> float array
(** Per worker, [busy_s /. wall_s] — the fraction of the pool's wall
    time that worker spent executing the body (0 when [wall_s = 0]). *)

val run :
  domains:int ->
  ?pool:t ->
  ?chunk:int ->
  ?costs:int array ->
  n:int ->
  init:(int -> 'w) ->
  ('w -> int -> unit) ->
  'w array * stats
(** [run ~domains ~n ~init ~body] calls [body st i] exactly once for
    every [i] in [0 .. n-1] and returns when all calls have finished.
    [init w] runs once at the start of worker [w], {e on that worker's
    domain}, and its result [st] is threaded to every [body] call the
    worker executes — per-worker accumulation state therefore lives in
    the worker's own minor heap and is never written concurrently. The
    returned array holds worker [w]'s final state at index [w] (worker
    0 is the calling domain), for a deterministic post-join merge.

    Chunking. With [chunk = Some c] the range is cut into fixed runs of
    [c] indices. With [costs] (length [n], clamped to [>= 1] per index)
    runs are cut so each carries about [total_cost / (4 * workers)]
    estimated work, subject to a minimum run length of
    [max 1 (n / (16 * workers))] so cost skew cannot degenerate into
    1-index chunks. With neither, the chunk size is

    {[ max 1 (min (ceil (n / workers)) (max 8 (n / (4 * workers)))) ]}

    — about 4 chunks per worker for steal slack, floored at 8 indices
    per chunk (the previous formula's floor of 1 maximized queue
    traffic exactly when jobs were cheapest), capped at
    [ceil (n / workers)] so every worker still gets a chunk.

    [body] must not raise: an escaping exception kills that worker's
    remaining chunks; one such exception (lowest worker index first) is
    re-raised here after every domain has finished. Raises
    [Invalid_argument] when [chunk < 1], [domains < 1], or
    [Array.length costs <> n].

    With [pool], the region executes on the resident pool's domains
    instead of freshly spawned ones and the worker count is additionally
    capped at [size pool]; everything else — chunk plan, shard
    assignment, stealing, determinism of results — is identical. *)
