(** One client's resident optimization state (DESIGN.md §14).

    A session owns a loaded design — per net: the current version of
    the once-segmented RC tree, an incremental {!Bufins.Dp.Memo} and
    the sink-index map — plus a result cache keyed by a content
    fingerprint of (tree, algorithm, library, kmax). A version is an
    immutable (tree, key) pair: its key is computed at most once, when
    the first [optimize] (or [load]'s warm pass) needs it, and every
    edit verb installs a whole new version, so a tree is never paired
    with another tree's key (DESIGN.md §14.3). Three ways an [optimize]
    is served, cheapest first:

    - [hit] — the version's fingerprint is in the result cache: no DP
      and, after the version's first optimize, no hashing either.
      Edits change the fingerprint, so stale entries are never looked
      up; they age out via a size cap. The fingerprint is of the
      content alone, so reverting an edit byte for byte, or an edit
      that changes nothing, keeps or restores the old fingerprint and
      is a hit again.
    - [incr] — the net's memo holds tables from an earlier run: only the
      dirty path re-runs (see {!Bufins.Dp.Memo}).
    - [full] — cold memo (first optimize, or after [update-noise] /
      a config-stamp drop).

    Every session is isolated: the server gives each connection its own
    [t], so one client's loads and edits never touch another's nets.
    Sessions are not thread-safe; the server serializes requests. *)

type options = {
  algorithm : Bufins.Buffopt.algorithm;
  lib : Tech.Buffer.t list;
  process : Tech.Process.t;
  seg_len : float;  (** segmenting length applied once, at load *)
  kmax : int;
}

val default_options : options
(** BuffOpt (Problem 3), the default library and process, 500 um
    segmenting, kmax 16. *)

(** The latency window behind [stats]' [p50_ms] and [p99_ms]: a float
    ring that keeps the last [cap] samples, so a long-lived daemon holds
    and sorts at most [cap] latencies (the session's [cap] is its result
    cache's size cap, 4,096). *)
module Window : sig
  type t

  val create : int -> t
  (** An empty window of capacity [cap]; raises [Invalid_argument]
      unless [cap > 0]. *)

  val add : t -> float -> unit
  (** Record a sample, overwriting the oldest once the window is full. *)

  val sorted : t -> float array
  (** A fresh copy of the samples held, in ascending order: one sort
      serves every percentile of a [stats] reply. *)

  val rank : float array -> float -> float
  (** [rank s p], [s] sorted ascending and [p] in [\[0, 1\]]: the
      nearest-rank percentile of [s] (0 when [s] is empty). *)

  val percentile : t -> float -> float
  (** [percentile w p] is [rank (sorted w) p]. *)
end

type t

val create : ?pool:Engine.Pool.t -> ?options:options -> unit -> t
(** [pool] is the server's resident domain pool; [load]'s warm pass
    optimizes every net on it (per-net memos are disjoint, so workers
    share no mutable state). Without a pool the warm pass spawns
    domains per call, exactly like the batch engine. *)

val loaded : t -> int
(** Nets in the currently loaded design (0 before the first [load]). *)

type reply = {
  line : string;  (** complete response line, no LF *)
  ok : bool;  (** [line] starts with [ok] *)
  shutdown : bool;  (** the request was [shutdown]: stop serving *)
}

val handle : t -> Protocol.request -> reply
(** Execute one request. Every reply line ends with [t=<ms>], the
    server-side handling latency ({!Util.Clock} wall time). *)

val handle_line : t -> string -> reply
(** {!Protocol.parse} then {!handle}; a parse error becomes an [err]
    reply and is counted in the session's error statistics. *)
