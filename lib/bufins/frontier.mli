(** Sorted Pareto frontiers — the candidate-engine substrate shared by the
    DP optimizers ({!Dp}, hence Van Ginneken / Algorithm 3 / BuffOpt) and
    Algorithm 2.

    A frontier is a plain list sorted by increasing {e cost} (the load [c]
    for the timing DP, the coupled current [i] for Algorithm 2) on which
    dominated candidates have been removed. Keeping every candidate group
    sorted end-to-end is what makes pruning a linear sweep and merging the
    Li–Shi / Van Ginneken linear walk, instead of the all-pairs scans and
    per-visit re-sorting the operations would otherwise need.

    All sweep functions return the survivors {e in increasing-cost order}
    together with the number of candidates dropped, so callers can report
    pruning statistics ({!Dp.stats}). *)

val sweep2 : cost:('a -> float) -> value:('a -> float) -> 'a list -> 'a list * int
(** Linear Pareto sweep for two-dimensional dominance
    ([cost a <= cost b && value a >= value b] ⇒ drop [b], keeping one of
    equals). Input must be sorted by non-decreasing cost; equal-cost ties
    may appear in any value order. Survivors form a staircase: strictly
    increasing cost and strictly increasing value. O(n). *)

val sweep_dom : cost:('a -> float) -> dominates:('a -> 'a -> bool) -> 'a list -> 'a list * int
(** Sweep for higher-dimensional dominance relations. Input must be sorted
    by non-decreasing cost, and [dominates a b] must imply
    [cost a <= cost b] (so any dominator of [x] appears no later than [x],
    except among equal-cost ties, which are handled bidirectionally).
    O(n·w) where [w] is the surviving frontier width. *)

val pareto_dom :
  cmp:('a -> 'a -> int) ->
  cost:('a -> float) ->
  dominates:('a -> 'a -> bool) ->
  'a list ->
  'a list * int
(** [sweep_dom] after [List.sort cmp]; [cmp]'s primary key must be the
    cost, ascending. *)

val merge2 : value:('a -> float) -> join:('a -> 'a -> 'b) -> 'a list -> 'a list -> 'b list
(** Van Ginneken's linear merge of two frontiers at a branch point:
    join the heads, then advance the side with the smaller (binding)
    value — both sides on a tie. When both inputs are [sweep2]-pruned
    (cost and value increasing together), the walk enumerates a superset
    of the 2D-Pareto-optimal pairings and the output is itself sorted by
    increasing joined cost (costs add, and each step advances to a
    costlier element). O(|l| + |r|). *)

val merge_sorted : ('a -> 'a -> int) -> 'a list list -> 'a list
(** Merge several runs by balanced pairwise [List.merge]s: the smallest
    head under [cmp] goes first, the earliest run's on ties, and every
    run keeps its own order, so [cmp]-sorted runs give one sorted
    list. *)
