(** The dynamic-programming kernels on the one candidate
    representation, {!Flat.group} rows.

    A row is one of the paper's five-tuples — load, slack, current,
    noise slack and solution — plus the solution's buffer energy. The
    solution is a {!Trace.handle} into the run's arena; the polarity
    parity (Lillis et al. [18]) and the buffer count of BuffOpt's
    Problem 3 are not carried, they are the (parity, bucket) slot of
    the group a row sits in.

    Each dominance relation has one sweep: the (load, slack) staircase
    ({!sweep_delay}), the 4D noise relation ({!sweep_full}) and the
    power-mode (slack, energy) staircase ({!sweep_power}). They sweep
    rows staged in a {!Flat.t}, in its [perm] order, and leave the
    survivors' ids, in order, in [perm.(0 .. nk-1)], for
    {!Flat.write}. The wire climb, the branch merges, buffer insertion
    and count dominance all stage their rows and call them. *)

val noise_tol : float
(** The noise-attach tolerance, V: the one slack every noise-margin test
    of the buffer-insertion algorithms ({!Dp}'s attach guard and
    noise-slack drop, {!Wireclimb.rescuable}, {!Alg1}, {!Alg2}) grants
    to rounding in the accumulated noise slack. A gate with output
    resistance [r] may drive a row iff [r *. i <= ns +. noise_tol]. *)

(** {2 The relations (Li & Shi)}

    [bound] is the {!Rctree.Upbound} value of the node the rows sit at:
    a lower bound, in ohm, on the resistance any extra load must still
    be charged through before something decouples it. A row [x] whose
    slack lead over a lighter row [k] of the same group satisfies
    [x.q -. k.q < bound *. (x.c -. k.c)] can never strictly beat [k] at
    the source, so it is discarded before anything is built for it. The
    groups get narrower, but every optimizer outcome is byte-identical
    to the sweep-only engine's (DESIGN.md §12 has the proof). With
    [bound = 0] each rule is plain dominance. *)

val kills : bound:float -> float -> float -> float -> float -> bool
(** [kills ~bound kc kq c q]: the (load, slack) rule. A witness at
    [(kc, kq)] kills a row at [(c, q)] when [kq >= q], or [c > kc] and
    [q -. kq < bound *. (c -. kc)]. *)

val kills_full :
  bound:float -> float -> float -> float -> float -> float -> float -> float -> float -> bool
(** [kills_full ~bound kc kq ki kns c q i ns]: the noise-mode (4D) rule.
    The witness must also be no heavier ([kc <= c]), carry no more
    current and keep at least the noise slack. Sound because upstream
    wire noise grows with [i], a merge adds [i] and takes the min of
    [ns], and the attach guard [ns - r*i >= 0] is monotone in both:
    every suffix that keeps the victim noise-feasible keeps the witness
    feasible. Pruning on (load, slack) alone (Theorem 5) is safe only
    under the theorem's single-buffer assumptions and can otherwise
    discard the lone candidate whose noise slack survives the remaining
    upstream wires. *)

val covered :
  Flat.t -> int -> bound:float -> noise:bool -> Tech.Lib.prepared -> int -> Flat.group -> bool
(** [covered s m ~bound ~noise lib k g]: does any row of the
    load-sorted group [g] with load [<= c] kill a would-be row at
    [(c, q, i, ns)] under {!kills_full}? The buffer-insertion
    pre-check, run against the target group before anything is staged
    for the insertion of type [k] of [lib] at the insertion slack [q]
    of {!sources}' entry [m] in [s]: [c] is the type's [c_in]. With
    [noise], [i = 0] and [ns] is the type's noise margin; without it,
    [i = infinity] and [ns = neg_infinity], which every row beats,
    leaving the (load, slack) rule. *)

(** {2 Sweeps} *)

val sweep_delay : Flat.t -> bound:float -> int -> int * int
(** [sweep_delay s ~bound n]: rows [perm.(0 .. n-1)] pushed onto the
    (load, slack) staircase — [Frontier.sweep2 ~cost:c ~value:q] for
    rows in frontier order, with the slope rule at [bound]. An arriving
    row first retro-dominates the newest survivor if that one has its
    load and no better slack, then either the survivor now newest kills
    it or it is kept. Returns [(nk, killed)]: the survivors and the
    arrivals killed; the other [n - nk - killed] drops were
    retro-dominated. *)

val sweep_full : Flat.t -> bound:float -> int -> int * int
(** [sweep_full s ~bound n]: rows [perm.(0 .. n-1)], in frontier order,
    swept under {!kills_full}[ ~bound] against every survivor —
    [Frontier.sweep_dom ~cost:c] under that relation, quadratic per
    group. Returns [(nk, slope)]: the survivors and the arrivals only
    the slope term killed; the other drops fell to plain dominance. *)

val sweep_power : Flat.t -> int -> int
(** [sweep_power s n]: rows [perm.(0 .. n-1)] in [Flat.Power] order
    swept under {!kills} at bound 0 strengthened with energy [<=],
    sound because every upstream operation is monotone non-decreasing
    in energy. With load sorted, the survivors reduce to a (slack,
    energy) staircase in [s.st], so each row costs one binary search
    plus an amortized eviction blit. Returns the survivors. May keep a
    weakly dominated equal-(c, q) duplicate when the current and noise
    tie-breaks interleave the energy order — never anything that
    extends the frontier. *)

(** {2 Count dominance} (DESIGN.md §17) *)

type front
(** One parity's witnesses at one node: the survivors of the counts
    already final. *)

val front : unit -> front

val front_clear : front -> unit
(** Empties the front, before a node's first count. *)

val front_add : front -> noise:bool -> power:bool -> Flat.group -> unit
(** [front_add f ~noise ~power g]: count [g]'s rows as witnesses, once
    [g] is final: in delay and noise modes they join the front's
    (load, -slack) staircase, merged in with one pass, and in noise and
    power modes [g] itself is kept for the full test. *)

val front_drop : Flat.t -> front -> noise:bool -> power:bool -> from:int -> int -> int
(** [front_drop s f ~noise ~power ~from n]: the staged rows [perm.(0 ..
    n-1)], in rising load, less each row numbered [from] or more that a
    witness of [f] dominates — under {!kills} at bound 0 in delay mode,
    {!kills_full} at bound 0 with [noise], and {!sweep_power}'s
    relation with [power]. The survivors stay in order in [perm.(0 ..
    nk-1)]; returns [nk]. A witness equal on every coordinate
    dominates. In delay and noise modes the staircase answers first, so
    a row it clears costs a step of a walk; power mode folds the kept
    groups into [s.st], keyed by [-q] and valued by [p], lazily as the
    rows grow heavier. *)

(** {2 The pipeline stages} *)

val climb :
  Flat.t ->
  arena:Trace.arena ->
  at:int ->
  width:float ->
  pred:bool ->
  bound:float ->
  noise:bool ->
  drop:bool ->
  Rctree.Tree.wire ->
  Flat.group ->
  int ->
  int * int * int * int
(** [climb s ~arena ~at ~width ~pred ~bound ~noise ~drop w g n0]: every
    row of [g] propagated from the wire's target to its driving end —
    [c += cap], [q -= res*(cap/2 + c)], [i += cur],
    [ns -= res*(i + cur/2)] (eqs. 2 and 8) — and staged from row [n0]
    on, in [g]'s order, as one run. With [pred], a row that the
    previously emitted one kills — under {!kills_full} with [noise],
    {!kills} otherwise — is never emitted. With [width <> 1.0] (the
    wire must already be resized by the caller) every emitted row
    records the wire-sizing decision (Lillis [18]) as a [Resize] node
    at [at]. With [drop], an emitted row whose noise slack is not
    [>= -. noise_tol] is not staged. Returns [(n, emitted, killed,
    noisy)]: the run's end and the three counts. *)

val sources : Flat.t -> power:bool -> guard:bool -> Tech.Lib.prepared -> Flat.group -> int
(** [sources s ~power ~guard lib g]: buffer insertion's source choice
    for every type of [lib] on one group, the paper's Step 5 (Figs. 5
    and 11). A source is a row [a] of [g] the type's gate may drive
    ([r_b *. a.i <= a.ns +. noise_tol]; every row without [guard]); its
    insertion slack is [a.q -. Tech.Buffer.gate_delay b ~load:a.c] and
    its energy [a.p +. b.energy]. Without [power], each type gets its
    best-slack source, the first in group order on equal slack, unless
    no source reaches a slack above [neg_infinity]. With [power], each
    type gets its (slack, energy) staircase: every source that no other
    source weakly dominates — none has slack [>=] and energy [<=] its
    own unless both are equal and it comes later in the group. Returns
    the number [n] of entries; entry [m < n] is type [js.(2m)], source
    row [js.(2m+1)] and insertion slack [xs.(6m+1)] of the scratch, the
    types ascending and, within a type, the slacks falling. Valid until
    the scratch's next use. *)

val by_energy : Flat.t -> Flat.group -> int array
(** [by_energy s g]: the group's row indices, ascending by energy, ties
    by index, in the first [Flat.width g] entries of the returned array —
    a scratch array, valid until the scratch's next use. Buffer
    insertion's energy order in power mode. *)

val stand_in : Flat.t -> int -> Tech.Lib.prepared -> int -> Flat.group -> int -> float -> unit
(** [stand_in s n lib k g j q] stages as row [n], which must be
    reserved, ([perm.(n) = n]) the insertion of type
    [k] on row [j] of [g] at insertion slack [q] (as {!sources} computes
    it): load [c_in], slack [q], no current, the buffer's noise margin,
    energy [p +. energy]. Its origin names the type and the source's
    trace handle, so {!Flat.write} gives it its [Buf] node only if it
    survives. *)

(** {2 Coordinates-first branch merges}

    Each merges the walks — a left and a right child group feeding one
    (parity, bucket) target group — of one branch node: walk [w < nw]
    pairs the left group in slot [walks.(2w)] of one side with the right
    group in slot [walks.(2w+1)] of the other. Each pairing's
    coordinates (loads, currents and energies add; slacks and noise
    slacks take the minimum) and its origin go into the scratch, the
    order and the sweep run on those, and only the survivors get a
    [Join] node when the caller writes them ({!Flat.write}). Every
    merge leaves the survivors in [perm.(0 .. nk-1)] and returns [(nk,
    considered, dropped, skipped)]: [considered] pairings were weighed whole, [dropped] of
    those fell to plain dominance or, in power mode, to the sweep, and
    [skipped] were killed before that — on arrival by the staircase
    ({!merge_delay}), by the slope term alone ({!merge_noise}), or for
    their energy ({!merge_delay_power}). *)

val merge_delay :
  Flat.t ->
  bound:float ->
  prune:bool ->
  Flat.table ->
  Flat.table ->
  int array ->
  int ->
  int * int * int * int
(** The Van Ginneken merge: each walk's linear pairings
    ({!Frontier.merge2}), the walks merged as runs
    ({!Frontier.merge_sorted} in frontier order: each walk in its own
    order, ties to the earlier walk) and, with [prune], swept by
    {!sweep_delay} at [bound]. With [bound = 0] the survivors are
    exactly [Frontier.sweep2] of that merge, which drops the skipped
    and dropped pairings. Without [prune] every pairing is kept. *)

val merge_noise :
  Flat.t ->
  bound:float ->
  Flat.table ->
  Flat.table ->
  int array ->
  int ->
  int * int * int * int
(** The noise-mode merge: every pairing of every walk, sorted stably in
    frontier order (the walks in order, left outer, right inner) and
    swept by {!sweep_full} at [bound]. *)

val by_slack : Flat.t -> Flat.group -> Flat.group * int array
(** [by_slack s g]: the group with its row indices stable-sorted by
    slack, descending, sorted in the scratch [s]: the order in which
    {!merge_delay_power} walks and folds it. A branch node sorts each
    child group once and hands it to every walk that reads it. *)

val merge_delay_power :
  Flat.t ->
  budget:float ->
  prune:bool ->
  (Flat.group * int array) array ->
  (Flat.group * int array) array ->
  int array ->
  int ->
  int * int * int * int
(** The delay-power merge of walks of {!by_slack} groups. It enumerates
    only the pairings that can reach the merged 3-axis frontier — each
    side walked in descending slack against a (load, energy) staircase
    of the other side's equal-or-better-slack members; a pairing left
    out is weakly dominated by an enumerated one — and skips those whose
    energy exceeds [budget] before writing anything. The rest are
    decided on their coordinates, in the falling-slack order the walks
    emit them in, against a (load, energy) staircase; only the
    survivors are sorted into [Flat.Load] order. Survivors, their order
    and every tie are those of listing the pairings walk by walk, each
    walk newest pairing first, then {!sweep_power} of their stable sort
    (no sweep without [prune]). *)
