(** Flat working buffers of the DP's coordinates-first kernels
    ({!Candidate.merge_noise}, {!Candidate.merge_delay_power},
    {!Candidate.sweep_delay_power}): pairing coordinates and their sort
    permutation, and the power-mode 2D staircase, in plain arrays that
    one run reuses and grows by doubling. Not shareable between
    domains. *)

type t = {
  mutable xs : float array;  (** pairing coordinates, stride 5: c, q, i, ns, p *)
  mutable js : int array;  (** pairing origins, stride 3: walk, left index, right index *)
  mutable perm : int array;  (** sort permutation of pairing ids *)
  mutable aux : int array;  (** merge-sort buffer, then the kept stack *)
  mutable sk : float array;  (** staircase keys, strictly ascending *)
  mutable sv : float array;  (** staircase values, strictly descending *)
  mutable si : int array;  (** staircase member ids *)
  mutable sn : int;  (** staircase size *)
}

val create : unit -> t

val reserve : t -> used:int -> origins:bool -> int -> unit
(** [reserve s ~used ~origins n]: room for [n] pairings in [xs],
    [perm] and [aux] (and in [js] with [origins]), keeping the first
    [used] pairings' coordinates, permutation entries and origins. *)

val stair_add : t -> float -> float -> int -> bool
(** [stair_add s k v id] inserts the point [(k, v)], tagged [id], into
    the staircase unless a member with key [<= k] and value [<= v]
    dominates it; the members it dominates (key [>= k], value [>= v])
    are evicted. Returns whether the point went in. Reset the staircase
    with [s.sn <- 0]. O(log n) plus the eviction blit. *)

val sort_perm : t -> int -> int -> unit
(** [sort_perm s lo hi] stable-sorts [perm.(lo .. hi-1)] by
    {!Candidate.cmp_frontier_power} on the pairings' [xs] coordinates
    (load ascending, slack descending, current ascending, noise slack
    descending, energy ascending). *)
