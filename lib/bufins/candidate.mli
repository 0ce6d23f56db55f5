(** Candidate solutions for the dynamic-programming algorithms.

    Algorithm 3 candidates are the paper's five-tuples
    [(load, slack, current, noise slack, solution)] extended with the
    polarity parity needed for inverting buffers (Lillis et al. [18]) and
    the count of inserted buffers (the Lillis indexed extension used by
    BuffOpt for Problem 3). The solution itself is not carried: the
    candidate holds a {!Trace.handle} into the run's arena, and merge /
    add_buffer record one arena node instead of copying lists.

    Besides the per-candidate operations this module holds the DP's
    specialized kernels: one wire climb, one (load, slack) staircase
    shared by the delay sweep, the insertion splice and the delay-mode
    merge, the power-mode staircases on flat sorted arrays, and one
    branch-merge shape in three modes — delay, noise and power — which
    decides every pairing on its coordinates and materializes survivors
    only, and buffer insertion's one source choice for every mode
    ({!sources}) with its survivors-only materialization ({!stand_in},
    {!materialize}). *)

type t = {
  c : float;  (** downstream load seen here, F (eq. 1) *)
  q : float;  (** timing slack: min downstream [rat - delay-to-sink], s *)
  i : float;  (** downstream coupled current, A (eq. 7) *)
  ns : float;  (** noise slack, V (eq. 12) *)
  p : float;  (** accumulated buffer energy of the solution, J *)
  meta : float;  (** [2*count + parity], an exact small int; see {!count} *)
  mutable tr : float;
      (** solution {!Trace.handle}, an exact small int; see {!trace}.
          Negative only on an insertion {!stand_in}, which
          {!materialize} alone writes. *)
}
(** Deliberately all-float: an OCaml record whose fields are all floats
    is stored flat (header + unboxed doubles, 8 words here), while one
    immediate field would force a boxed double per float field.
    [meta] and [tr] stay exact because counts and handles are far below
    2{^52}. [p] sums the {!Tech.Buffer.t.energy} of every buffer in the
    solution; outside power mode it is a passenger field that no pruning
    relation reads. *)

val parity : t -> int
(** Signal inversions accumulated below: 0 or 1. *)

val count : t -> int
(** Buffers inserted in the candidate's solution. *)

val trace : t -> Trace.handle
(** The solution's node in the run's {!Trace} arena. *)

val of_sink : Rctree.Tree.sink -> t
(** Leaf candidate; its trace handle is {!Trace.leaf}. *)

val add_wire : Rctree.Tree.wire -> t -> t
(** Propagate a candidate from a wire's target to its driving end:
    [c += cap], [q -= res*(cap/2 + c)], [i += cur],
    [ns -= res*(i + cur/2)] (eqs. 2 and 8). *)

val add_buffer : arena:Trace.arena -> at:int -> Tech.Buffer.t -> t -> t
(** Insert a buffer at node [at] on top of the candidate: the new stage
    sees [c_in], slack drops by the gate delay into the old load, current
    resets to zero, noise slack resets to the buffer's margin, parity
    flips for inverting buffers; one [Buf] node is appended to [arena].
    Performs no noise check — callers decide (that check is exactly what
    distinguishes Algorithm 3 from Van Ginneken). *)

val stand_in : ntypes:int -> int -> Tech.Buffer.t -> t -> float -> t
(** [stand_in ~ntypes k b a q] is [add_buffer]'s candidate for [b], type
    [k] of an [ntypes]-type library, inserted on [a] — every coordinate
    bit for bit, given [q], the insertion's slack as {!sources} computes
    it — but it appends no arena node: its [tr] is negative and encodes
    [k] and [trace a]. Buffer insertion decides on stand-ins (the splice
    or sweep reads coordinates only) and {!materialize}s the survivors;
    no stand-in may outlive its node. *)

val materialize :
  arena:Trace.arena -> at:int -> Tech.Buffer.t array -> c_max:float -> t list -> unit
(** [materialize ~arena ~at bufs ~c_max group] gives every stand-in in
    the load-sorted [group] its [Buf] node at [at], in place, as
    [add_buffer] would have; [bufs] is the library the stand-ins'
    type indices refer to and [c_max] its largest [c_in]. The walk
    stops at the first member heavier than [c_max]. *)

val add_driver : Rctree.Tree.driver -> t -> t
(** Account for the source gate: [q -= d_drv + r_drv*c]. Noise is the
    caller's check ([r_drv *. i <= ns]). *)

val noise_tol : float
(** The noise-attach tolerance, V: the one slack every noise-margin test
    of the buffer-insertion algorithms ({!noise_ok}, {!Dp}'s noise-slack
    drop, {!Wireclimb.rescuable}, {!Alg1}, {!Alg2}) grants to rounding in
    the accumulated noise slack. *)

val noise_ok : r_gate:float -> t -> bool
(** Would a gate with output resistance [r_gate] driving this candidate
    respect every downstream noise margin? ([r_gate *. i <= ns +. noise_tol]) *)

val merge : arena:Trace.arena -> t -> t -> t
(** Join the two branches at a node: loads and currents add, slacks take
    the minimum, counts add, and one [Join] node is appended to [arena].
    Parities must agree. *)

val dominates : t -> t -> bool
(** [dominates a b]: [a] is at least as good as [b] on load and slack
    ([a.c <= b.c] and [a.q >= b.q]); the delay-mode (Van Ginneken)
    pruning relation. Parity and (when bucketed) count must match —
    callers group before pruning. *)

val dominates_full : t -> t -> bool
(** [dominates] strengthened with the noise coordinates
    ([a.i <= b.i] and [a.ns >= b.ns]): the noise-mode (Algorithm 3)
    pruning relation. Every upstream operation — wire, buffer, merge,
    driver — is monotone in each of the four coordinates, so dropping
    only fully-dominated candidates is lossless; pruning on (c, q) alone
    (Theorem 5) is safe only under the theorem's single-buffer
    assumptions and can otherwise discard the lone candidate whose noise
    slack survives the remaining upstream wires. *)

val cmp_frontier : t -> t -> int
(** The frontier order: load ascending, then slack descending, current
    ascending, noise slack descending — the sort {!Frontier.sweep_dom}
    requires for {!dominates_full} (any dominator sorts no later than
    the candidate it dominates, up to equal-cost ties). *)

val cmp_frontier_power : t -> t -> int
(** {!cmp_frontier} with energy ascending as the final tie-break — the
    sort order of power-mode groups (DESIGN.md §16). The energy axis
    joins the dominance relations only in power mode, so power-off runs
    keep their outcomes byte-identical to the classic engine. *)

(** {2 Kernels}

    The DP's inner loops instantiated at [t] with direct field access —
    without flambda the generic {!Frontier} functions pay an indirect
    call per element. Delay mode has one (load, slack) staircase, shared
    by {!sweep_delay}, {!splice_delay}, every predictive kill site and
    the branch merge's flat pairing coordinates ({!merge_delay}); noise
    mode has one 4D sweep, on lists ({!sweep_noise}) and on pairing
    coordinates ({!merge_noise}); power mode keeps its 2D staircases in
    a {!scratch}'s sorted arrays ({!sweep_delay_power},
    {!merge_delay_power}). *)

type scratch = Flat.t
(** A run's {!Flat} working buffers, grown on demand and reused by
    every kernel call of that run: the pairing coordinates, origins,
    sort permutation and kept stack of the coordinates-first merges, and
    the power-mode staircase, and the insertion sources {!sources}
    chooses. Not shareable between domains. *)

val scratch : unit -> scratch

val sweep_delay : t list -> t list * int
(** [Frontier.sweep2 ~cost:c ~value:q] on a [cmp_frontier]-sorted list:
    the delay-mode (load, slack) staircase. Returns (kept, dropped). *)

val sweep_noise : bound:float -> t list -> t list * int
(** [Frontier.sweep_dom ~cost:c] under {!kills_full}[ ~bound] on a
    [cmp_frontier]-sorted list: the noise-mode sweep, quadratic per
    group. With [bound = 0] the relation is {!dominates_full}. *)

val splice_delay : t list -> t list -> t list * int
(** [splice_delay group cands] =
    [sweep_delay (List.merge cmp_frontier group cands)] for a [group]
    that is already a swept (load, slack) staircase. Splices the sorted
    [cands] in and re-shares the unaffected tail of [group] instead of
    re-consing the whole frontier — the buffer-insertion path's
    dominant allocation before this existed. Returns (kept, dropped)
    with drop counts identical to the unfused composition. *)

val sweep_delay_power : scratch:scratch -> t list -> t list * int
(** Dominance sweep under the power-mode delay relation — {!dominates}
    strengthened with [a.p <= b.p], sound because every upstream
    operation is monotone non-decreasing in [p] — on a
    [cmp_frontier_power]-sorted list, O(n log n): with load already
    sorted, survivors reduce to a (slack, energy) staircase kept in the
    scratch's sorted arrays, so each element costs one binary search
    plus an amortized eviction blit. Returns (kept, dropped). May retain
    a weakly dominated equal-(c, q) duplicate when the i / ns tie-breaks
    interleave the energy order — never anything that extends the
    frontier. *)

val count_sweep :
  scratch:scratch -> noise:bool -> power:bool -> t list -> t list -> t list * int
(** [count_sweep ~scratch ~noise ~power front group]: count dominance
    (DESIGN.md §17). Drops every member of the load-sorted [group] that
    a member of the load-sorted [front] — the survivors of the groups of
    the same parity and fewer buffers — dominates: under
    {!dominates_full} with [noise]; under {!dominates} strengthened with
    [a.p <= b.p], through the scratch's staircase, with [power]; and
    otherwise under {!dominates}, where [front] and [group] must be
    (load, slack) staircases, as every swept delay-mode group is.
    Returns (kept, dropped); [kept] keeps [group]'s order. *)

(** {2 Predictive pruning (Li & Shi)}

    [bound] is the {!Rctree.Upbound} value of the node the candidates
    sit at: a lower bound, in ohm, on the resistance any extra load must
    still be charged through before something decouples it. A candidate
    [x] whose slack lead over an already-emitted lighter candidate [k]
    of the same group satisfies [x.q -. k.q < bound *. (x.c -. k.c)]
    can never strictly beat [k] at the source, so it is discarded
    {e before} being materialized (no allocation, no arena node) and is
    counted as [pred_pruned] instead of [generated]. The frontiers get
    narrower, but every optimizer outcome — winning slack, placements,
    sizes, by_count buckets — is byte-identical to the sweep-only
    engine's (DESIGN.md §12 has the proof). The rule is the staircase's
    dominance test with [bound = 0] strengthened by the slope term; in
    noise mode ({!kills_full}) the witness must also carry no more
    current and at least the noise slack. *)

val kills_full : bound:float -> t -> float -> float -> float -> float -> bool
(** [kills_full ~bound k c q i ns]: the noise-mode (4D) predictive rule.
    Witness [k] kills a would-be candidate at [(c, q, i, ns)] when
    [k.c <= c], [k.i <= i], [k.ns >= ns] and the slope rule holds on
    [(c, q)]. Sound because upstream wire noise grows with [i], a merge
    adds [i] and takes the min of [ns], and the attach guard
    [ns - r*i >= 0] is monotone in both: every suffix that keeps the
    victim noise-feasible keeps the witness feasible, and the slope term
    bounds the slack as in delay mode (DESIGN.md §12). With [bound = 0]
    it is {!dominates_full}. *)

val covered : bound:float -> c:float -> q:float -> i:float -> ns:float -> t list -> bool
(** Does any member of the load-sorted group with load [<= c] kill a
    would-be candidate at [(c, q, i, ns)] under {!kills_full}? The
    buffer-insertion pre-check, run against the target group before
    anything is allocated for the insertion. Delay mode passes
    [i = infinity] and [ns = neg_infinity], which every candidate
    beats, leaving the (load, slack) rule. *)

val climb :
  ?bound:float ->
  ?resize:Trace.arena * int * float ->
  noise:bool ->
  Rctree.Tree.wire ->
  t list ->
  t list * int * int
(** [add_wire] over a sorted group, returning
    [(climbed, emitted, prekilled)]. With [bound], the kill test against
    the previously emitted candidate — {!kills_full} with [noise] — is
    fused in, so a killed candidate is never materialized; without it
    nothing is killed. With
    [resize = (arena, node, width)] (the wire must already be resized by
    the caller) the survivors record the wire-sizing decision (Lillis
    [18]) as a [Resize] arena node. *)

(** {2 Coordinates-first branch merges}

    Each merges the walks — a left and a right child group, as arrays,
    feeding one (parity, bucket) target group — of one branch node.
    Each pairing's coordinates and its (walk, left, right) origin go
    into the scratch, the sort and the sweep run on those, and
    {!merge} records a candidate and a [Join] node for the survivors
    only. Every kernel returns [(kept, generated, dropped, skipped)]:
    [generated] pairings count as materialized, the way the
    materializing merge counted them, [dropped] of those fell to plain
    dominance ([pruned]), and [skipped] were never counted as generated
    ([pred_pruned], or [power_pruned] in power mode). Survivors, their
    order and every tie are those of the materializing merge. *)

val merge_delay :
  scratch:scratch ->
  arena:Trace.arena ->
  bound:float ->
  (t array * t array) list ->
  t list * int * int * int
(** The delay-mode branch merge under predictive pruning: each walk's
    Van Ginneken pairings ({!Frontier.merge2}), the walks merged as
    runs ({!Frontier.merge_sorted} [cmp_frontier]: each walk in its own
    order, ties to the earlier walk) and pushed onto the (load, slack)
    staircase with the slope rule at [bound]. With [bound = 0] the
    survivors are exactly [sweep_delay] of that merge. [skipped]
    pairings the newest survivor killed; [dropped] survivors a later
    pairing of equal load retro-dominated. *)

val merge_noise :
  scratch:scratch ->
  arena:Trace.arena ->
  bound:float ->
  (t array * t array) list ->
  t list * int * int * int
(** The noise-mode branch merge: every pairing of every walk, swept under
    {!kills_full}[ ~bound] — with [bound = 0], exactly
    [sweep_noise (List.stable_sort cmp_frontier pairings)], where
    [pairings] lists the walks in order, left outer, right inner.
    [skipped] pairings only the slope term killed. *)

val by_slack : t list -> t array
(** A group stable-sorted by slack, descending: the order in which
    {!merge_delay_power} walks and folds it. A branch node sorts each
    child group once and hands the array to every walk that reads it. *)

val by_energy : scratch:scratch -> t array -> int array
(** [by_energy ~scratch group]: the group's indices, ascending by
    energy, ties by index, in the first [Array.length group] entries of
    the returned array — a scratch array, valid until the scratch's next
    use. Buffer insertion's energy order in power mode. *)

val sources :
  scratch:scratch -> power:bool -> guard:bool -> Tech.Lib.prepared -> t array -> int
(** [sources ~scratch ~power ~guard lib group]: buffer insertion's
    source choice for every type of [lib] on one group, the paper's
    Step 5 (Figs. 5 and 11). A source is a member [a] of [group] that
    {!noise_ok}[ ~r_gate:r_b] admits for the type (every member without
    [guard]); its insertion slack is
    [a.q -. Tech.Buffer.gate_delay b ~load:a.c] and its energy
    [a.p +. b.energy]. Without [power], each type gets its best-slack
    source, the first in group order on equal slack, unless no source
    reaches a slack above [neg_infinity]. With [power], each type gets
    its (slack, energy) staircase: every source that no other source
    weakly dominates — none has slack [>=] and energy [<=] its own
    unless both are equal and it comes later in the group. Returns the
    number [n] of entries; entry [m < n] is type [js.(2m)], source
    index [js.(2m+1)] and insertion slack [xs.(5m+1)] of the scratch,
    the types ascending and, within a type, the slacks falling. Valid
    until the scratch's next use. *)

val merge_delay_power :
  scratch:scratch ->
  arena:Trace.arena ->
  budget:float ->
  prune:bool ->
  (t array * t array) list ->
  t list * int * int * int
(** The delay-power branch merge of the walks (left and right
    {!by_slack} groups) feeding one target group. It enumerates only
    the pairings that can reach the merged 3-axis frontier — each side
    walked in descending slack against a (load, energy) staircase of
    the other side's equal-or-better-slack members; a skipped pairing
    is weakly dominated by an enumerated one — and skips those whose
    energy exceeds [budget] before writing anything. The rest are
    decided on their coordinates, in the falling-slack order the walks
    emit them in, against a (load, energy) staircase; only the
    survivors are sorted by [cmp_frontier_power] (every pairing without
    [prune], which sweeps nothing). Survivors, their order and every
    tie are those of materializing the pairings, walk by walk, each
    walk newest pairing first, then
    [sweep_delay_power (List.stable_sort cmp_frontier_power pairings)].
    [generated] counts the in-budget pairings, [dropped] those the
    sweep removed, and [skipped] those over budget. *)
