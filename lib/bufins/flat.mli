(** Flat working buffers of the DP's coordinates-first kernels
    ({!Candidate.merge_delay}, {!Candidate.merge_noise},
    {!Candidate.merge_delay_power}, {!Candidate.sweep_delay_power}):
    pairing coordinates, origins and their sort permutation, and the
    power-mode 2D staircase, in plain arrays that one run reuses and
    grows by doubling. Not shareable between domains. *)

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

val reserve : t -> used:int -> int -> unit
(** [reserve s ~used n]: room for [n] pairings in [xs], [js], [perm]
    and [aux], keeping the first [used] pairings' coordinates, origins
    and permutation entries. *)

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

val merge_runs : t -> int array -> int -> int -> unit
(** [merge_runs s starts lo hi] merges the runs [lo .. hi-1] of
    [perm], run [k] being [perm.(starts.(k) .. starts.(k+1)-1)], by the
    same order as {!sort_perm}: the smallest head goes first, the
    earliest run's on ties, and every run keeps its own order, sorted or
    not — [Frontier.merge_sorted] on the runs. *)
