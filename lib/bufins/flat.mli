(** Flat working buffers of the DP's coordinates-first kernels
    ({!Candidate.merge_delay}, {!Candidate.merge_noise},
    {!Candidate.merge_delay_power}, {!Candidate.sweep_delay_power},
    {!Candidate.by_energy}, {!Candidate.sources}): pairing coordinates,
    origins, tie ranks and their sort permutation, buffer insertion's
    sources, and the power-mode 2D staircases and walk cursors, in plain
    arrays that one run reuses and grows by doubling. Not shareable
    between domains. *)

type stair = {
  mutable sk : float array;  (** keys, strictly ascending *)
  mutable sv : float array;  (** values, strictly descending *)
  mutable si : int array;  (** member ids *)
  mutable sn : int;  (** size *)
  pt : float array;  (** the point {!stair_add} inserts: key, value *)
}
(** A 2D staircase: mutually non-dominated (key, value) points. *)

type t = {
  mutable xs : float array;  (** pairing coordinates, stride 5: c, q, i, ns, p *)
  mutable js : int array;
      (** pairing origins, stride 2: walk, then left index [lsl 32 lor] right index
          (so indices below 2{^30}) *)
  mutable rank : int array;  (** pairing tie ranks, the last key of {!Load} and {!Slack} *)
  mutable perm : int array;  (** sort permutation of pairing ids *)
  mutable aux : int array;  (** merge-sort buffer, then the kept stack or marks *)
  st : stair;  (** the sweeps' staircase *)
  mutable walk_st : stair array;
      (** two per walk of a delay-power merge: the left side's, the right side's *)
  mutable cur : int array;
      (** five per walk of a delay-power merge: the left and right cursors, the left
          and right passes' pairing counts, and the side of the next member (0: none,
          1: left, 2: right) *)
  mutable next_q : float array;  (** per walk of a delay-power merge: its next member's slack *)
}

val create : unit -> t
(** Raises [Invalid_argument] where [int] is narrower than 63 bits (a
    32-bit or JavaScript target): origins pack two indices into one
    int, and ranks a walk's pass above a 40-bit pairing count. *)

val reserve : t -> used:int -> int -> unit
(** [reserve s ~used n]: room for [n] pairings in [xs], [js], [rank],
    [perm] and [aux], keeping the first [used] pairings'
    coordinates, origins, ranks and permutation entries. *)

val reserve_walks : t -> int -> unit
(** [reserve_walks s nw]: room for [nw] walks in [walk_st], [cur] and
    [next_q], the first [2 * nw] staircases emptied and the first
    [5 * nw] cursors zeroed. *)

val stair_add : stair -> int -> bool
(** [stair_add st id] inserts the point [(k, v)] held in [st.pt],
    tagged [id], into the staircase unless a member with key [<= k] and
    value [<= v] dominates it; the members it dominates (key [>= k],
    value [>= v]) are evicted. Returns whether the point went in. Reset the staircase
    with [st.sn <- 0]. O(log n) plus the eviction blit. The point comes
    in [st.pt] rather than as arguments, so that no float is boxed for
    the call. *)

val stair_covers : stair -> bool
(** [stair_covers st]: does a member with key [<=] and value [<=] those
    of the point in [st.pt] dominate it? [stair_add]'s refusal test,
    without the insertion. O(log n). *)

(** The orders on pairing ids:
    - [Plain]: {!Candidate.cmp_frontier_power} on the [xs] coordinates
      (load ascending, slack descending, current ascending, noise slack
      descending, energy ascending);
    - [Load]: [Plain], then [rank] ascending;
    - [Slack]: slack descending, then load ascending, then as [Plain],
      then [rank] ascending;
    - [Energy]: energy ascending, then id ascending. *)
type order = Plain | Load | Slack | Energy

val sort_perm : t -> order -> int -> int -> unit
(** [sort_perm s o lo hi] stable-sorts [perm.(lo .. hi-1)] by [o]: a
    top-down merge sort that leaves two halves already in order alone,
    so an input made of a few ordered runs costs little more than one
    pass. Every order but [Plain] is total, so with those the result
    does not depend on the input's order. *)

val merge_runs : t -> int array -> int -> int -> unit
(** [merge_runs s starts lo hi] merges the runs [lo .. hi-1] of
    [perm], run [k] being [perm.(starts.(k) .. starts.(k+1)-1)], by
    [Plain]: the smallest head goes first, the earliest run's on ties,
    and every run keeps its own order, sorted or not —
    [Frontier.merge_sorted] on the runs. *)

val sweep_block : t -> int -> int -> int
(** [sweep_block s lo hi]: pairings [lo .. hi-1], all of one slack,
    sorted by [Slack] and swept through [st] on (load, energy): each
    goes in unless a member has load [<=] and energy [<=] its own. The
    survivors' coordinates, origins and ranks move down to [lo ..], in
    id order; returns their end. Reads and clobbers [perm] and [aux] on
    [lo .. hi-1]. *)
