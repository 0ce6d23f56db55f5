(** The DP's one candidate representation, the row store its tables
    live in, and the flat working buffers every kernel of {!Candidate}
    stages rows in.

    A {!group} holds one (parity, bucket) slot's candidates, sorted by
    load, as rows of six floats: load [c] (F), slack [q] (s), coupled
    current [i] (A), noise slack [ns] (V), accumulated buffer energy [p]
    (J) and the solution's {!Trace.handle}, an exact small int. The rows
    lie in a float array that the group only views: a {!store}, a
    memo's copy or an array of its own. A node's {!table} holds one
    group per slot, from sink to root; no row is changed once written.

    {!Dp.run} keeps every table on a row stack ({!store}): a node's
    table is written above its children's and then slid down over them
    ({!slide}), the children being dead once their parent is built.

    A scratch {!t} holds staged rows in the same layout, each with an
    origin that says where its trace handle comes from, a tie rank and
    a sort permutation; the power-mode 2D staircases and walk cursors;
    all in plain arrays that a domain reuses from run to run and grows
    by doubling. Every array that grows grows past 256 words, so growth
    is a major-heap allocation that no [Gc.minor_words] delta sees. Not
    shareable between domains. *)

type group = private { mutable a : float array; mutable o : int; mutable n : int }
(** [n] rows of [a] from float index [o], at stride 6: [c], [q], [i],
    [ns], [p], trace handle. A group is a view: {!Dp} keeps one record
    per slot of each table it holds and points it at new rows in
    place. *)

type table = group array
(** One group per slot [2 * bucket + parity]. *)

val empty : group

val group : unit -> group
(** A new empty view. *)

val view : group -> group -> unit
(** [view g src]: [g] now views [src]'s rows. *)

val clear : table -> unit
(** Every group of the table emptied. *)

val of_array : float array -> group
(** The rows of a whole array, stride 6. *)

val trace : group -> int -> Trace.handle
(** [trace g k]: row [k]'s trace handle. *)

val least : int
(** 257: the fewest rows (or entries) any growing scratch array grows
    to, so that every growth allocates more than 256 words — in the
    major heap. *)

type store = { mutable buf : float array; mutable len : int }
(** A row stack: [len] rows at the bottom of [buf], stride 6. Groups
    written onto it view [buf]; when it grows, groups written before
    keep viewing the old array, whose rows are the same. *)

val store : unit -> store
(** An empty store. *)

val copy_group : store -> group -> group -> unit
(** [copy_group st g d]: [g]'s rows copied onto the top of the store,
    and [d] (which may be [g]) set to view the copy. *)

val slide : store -> base:int -> table -> unit
(** [slide st ~base tbl]: the table's groups moved down, in slot order,
    to consecutive rows from [base], and the store cut back to their
    end; each group then views its new rows. The groups must lie above
    [base] in slot order, or in another array: a table written above
    its children's is slid over them. *)

val copy_out : table -> table
(** The table's rows copied into one fresh array, in slot order, and
    viewed by new groups: a table that outlives its store. *)

type stair = {
  mutable sk : float array;  (** keys, strictly ascending *)
  mutable sv : float array;  (** values, strictly descending *)
  mutable si : int array;  (** member ids *)
  mutable sn : int;  (** size *)
  pt : float array;  (** the point {!stair_add} inserts: key, value *)
}
(** A 2D staircase: mutually non-dominated (key, value) points. *)

val stair : unit -> stair
(** An empty staircase. *)

type t = {
  mutable xs : float array;  (** staged rows, in the {!group} layout *)
  mutable js : int array;
      (** row origins, stride 2: kind, then payload. Kind 0: the row's
          trace handle is its sixth float. Kind 1: a branch pairing, the
          payload the left child's handle [lsl 32 lor] the right one's
          (so handles below 2{^32}). Kind [2 + k]: an insertion of buffer
          type [k], the payload its source's handle. *)
  mutable rank : int array;  (** tie ranks, the last key of {!Load} and {!Slack} *)
  mutable perm : int array;  (** sort permutation of row ids, then the sweeps' kept stack *)
  mutable aux : int array;  (** merge-sort buffer, then marks *)
  st : stair;  (** the sweeps' staircase *)
  mutable walk_st : stair array;
      (** two per walk of a delay-power merge: the left side's, the right side's *)
  mutable cur : int array;
      (** five per walk of a delay-power merge: the left and right cursors, the left
          and right passes' pairing counts, and the side of the next member (0: none,
          1: left, 2: right) *)
  mutable next_q : float array;
      (** per walk of a delay-power merge: its next member's slack *)
  mutable runs : int array;  (** a delay-mode branch merge's walks' run starts *)
}

val create : unit -> t
(** Raises [Invalid_argument] where [int] is narrower than 63 bits (a
    32-bit or JavaScript target): origins pack two handles into one
    int, and ranks a walk's pass above a 40-bit pairing count. *)

val reserve : t -> used:int -> int -> unit
(** [reserve s ~used n]: room for [n] rows in [xs], [js], [rank],
    [perm] and [aux], keeping the first [used] rows' coordinates,
    origins, ranks and permutation entries. *)

val stage : t -> group -> int
(** [stage s g]: [g]'s rows staged from row 0, in order, as kind 0,
    [perm] the identity on them. Returns their count. *)

val top : t -> int -> int
(** [top s n]: one past the highest row among [perm.(0 .. n-1)], 0 for
    none: the first row free for more staging. *)

val write :
  t -> arena:Trace.arena -> at:int -> bufs:int array -> store -> int -> group -> unit
(** [write s ~arena ~at ~bufs st nk d]: the rows [perm.(0 .. nk-1)], in
    that order, written on top of [st] and viewed by [d] — a sweep's
    survivors.
    A row of kind 0 keeps its handle; a staged pairing gets its [Join]
    node and a staged insertion of type [k] its [Buf] node at node [at],
    of the buffer {!Trace.intern}ed as [bufs.(k)] in [arena]. So only
    survivors get a node. Each written row then holds its handle as
    kind 0, so writing it again makes no second node. [nk = 0] leaves
    [d] empty. *)

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

val stair_fold : stair -> group -> int -> t -> int -> int
(** [stair_fold st g y s x]: rows [y], [y+1], ... of [g], while no
    heavier than the staged row [x] of [s], {!stair_add}ed at (-slack,
    energy); returns the first row not added. Count dominance's
    power-mode fold (DESIGN.md §17). *)

(** The orders on row ids:
    - [Plain]: the frontier order on the [xs] coordinates (load
      ascending, slack descending, current ascending, noise slack
      descending);
    - [Power]: [Plain], then energy ascending — the order of power-mode
      groups (DESIGN.md §16);
    - [Load]: [Power], then [rank] ascending;
    - [Slack]: slack descending, then as [Load];
    - [Energy]: energy ascending, then id ascending. *)
type order = Plain | Power | Load | Slack | Energy

val sort_perm : t -> order -> int -> int -> unit
(** [sort_perm s o lo hi] stable-sorts [perm.(lo .. hi-1)] by [o]: a
    top-down merge sort that leaves two halves already in order alone,
    so an input made of a few ordered runs costs little more than one
    pass. [Load], [Slack] and [Energy] are total, so with those the
    result does not depend on the input's order. *)

val splice : t -> order -> int -> int -> int
(** [splice s o nb ne]: buffer insertion's splice of its stand-ins
    [perm.(nb .. nb+ne-1)] into the rows [perm.(0 .. nb-1)], sorted by
    [o]: the stand-ins are stable-sorted by [o] and [perm.(0 .. n-1)]
    becomes the merge of the two, the first [nb] first on ties —
    [List.merge]. Returns [n = nb + ne]. *)

val merge_runs : t -> order -> int array -> int -> int -> unit
(** [merge_runs s o starts lo hi] merges the runs [lo .. hi-1] of
    [perm], run [k] being [perm.(starts.(k) .. starts.(k+1)-1)], by
    [o]: the smallest head goes first, the earliest run's on ties,
    and every run keeps its own order, sorted or not —
    [Frontier.merge_sorted] on the runs (a stable merge is associative,
    sorted runs or not). *)

val sweep_block : t -> int -> int -> int
(** [sweep_block s lo hi]: rows [lo .. hi-1], all of one slack,
    sorted by [Slack] and swept through [st] on (load, energy): each
    goes in unless a member has load [<=] and energy [<=] its own. The
    survivors' coordinates, origins and ranks move down to [lo ..], in
    id order; returns their end. Reads and clobbers [perm] and [aux] on
    [lo .. hi-1]. *)
