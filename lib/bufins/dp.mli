(** The Van Ginneken dynamic-programming engine and its extensions.

    One engine implements every optimizer of the paper, each one call
    to {!run}:

    - Van Ginneken [31] (Figs. 4-5), the delay-only baseline the paper
      calls DelayOpt: maximize source slack under Elmore delay, buffers
      at feasible internal nodes — [~noise:false ~mode:Single].
      DelayOpt(k) (Table III) is [~mode:(Up_to k)].
    - Algorithm 3 (Figs. 10-11), Problem 2: the same DP where a buffer
      (or the driver) is {e never} attached to a candidate whose noise
      constraint it would violate, and candidates whose noise slack goes
      negative are dropped as unrecoverable — [~noise:true]. It
      generates a subset of Van Ginneken's candidates, so it can run
      faster than DelayOpt (Table III). Optimal for a single-buffer
      library when the buffer's input capacitance is at most every
      sink's and its noise margin at most every sink's (Theorem 5);
      near-optimal for realistic libraries (Section IV-C, within 2% in
      Table IV).
    - BuffOpt's Problem 3 reads the count-slack front of the noise-mode
      DP ([~noise:true ~mode:(Up_to kmax)]); see {!Buffopt.problem3}.
    - The Lillis indexed extension [18]: candidate groups bucketed by the
      number of inserted buffers. [mode = Per_count kmax] keeps every
      count's bucket exact (Table IV pairs DelayOpt and BuffOpt at equal
      counts this way); [mode = Up_to kmax] drops every
      candidate that a same-parity one with fewer buffers dominates
      and returns the count-slack front, which is all BuffOpt's
      Problem 3 and DelayOpt(k) (Table III) read.
    - Inverting-buffer polarity tracking [18]: candidates carry the
      parity of inversions below; merges require equal parity and the
      root accepts only parity-0 candidates.

    A node's table holds one {!Flat.group} per (parity, bucket) slot:
    the candidates as flat rows of coordinates and a {!Trace} handle,
    sorted by load end to end, so pruning is a linear sweep and branch
    merging the linear Van Ginneken walk. This is the DP's one
    candidate representation, from sink to root, and no row changes
    once written. The tables live on a row stack ({!Flat.store}): a
    node's table is written above its children's and slid down over
    them. The arena, the staging areas and the row stack belong to the
    calling domain and are reused, reset, by each of its runs (DESIGN.md
    §8), so a run allocates next to nothing per candidate; trace
    handles never leave a run, only the reconstructed winners do. Delay mode prunes on (load, slack) dominance; noise mode
    prunes on the full (load, slack, current, noise-slack) dominance and
    merges branch pairings exhaustively, because a candidate or pairing
    off the (load, slack) frontier can carry the only noise slack that
    survives the upstream wires (see {!Candidate.kills_full}).
    One kernel per dominance relation: {!Candidate.sweep_delay} (the
    (load, slack) staircase, with the predictive slope kill at the
    node's {!Rctree.Upbound} bound), {!Candidate.sweep_full} (the 4D
    noise relation) and {!Candidate.sweep_power} (the power-mode
    staircase). Every wire goes through {!Candidate.climb}, every
    branch node through one pairing enumerator and the coordinates-first
    merges ({!Candidate.merge_delay}, {!Candidate.merge_noise},
    {!Candidate.merge_delay_power}), every buffer insertion through
    {!Candidate.sources} and {!Flat.splice}, and every count-dominance
    test through {!Candidate.front_drop} on the staged rows; a pairing
    or insertion gets its trace node only if it survives
    ({!Flat.write}). Placement lists
    are reconstructed only for the winning root candidates, so [result]
    still exposes eager placement and sizing lists while the DP itself
    never copies a solution. *)

type mode =
  | Single  (** one candidate group per parity; unbounded buffer count *)
  | Per_count of int
      (** groups indexed by exact buffer count [0..kmax]; every bucket
          is exact *)
  | Up_to of int
      (** at most [kmax] buffers, bucketed like [Per_count kmax], with
          count dominance (DESIGN.md §17): each branch or insertion
          node builds its buckets in rising count, and every staged
          pairing, climbed row or insertion that a same-parity candidate
          with fewer buffers dominates — on the mode's own relation,
          (load, slack) or (load, slack, current, noise slack) — is
          dropped before it is written and counted in [count_pruned].
          [by_count]
          is the count-slack front: entry [j] is [Some] only where its
          slack is strictly above every lower count's, and there it is
          byte-identical to [Per_count kmax]'s entry [j]; [best] equals
          [Per_count kmax]'s. *)
  | Power_bounded of { budget : float; kmax : int }
      (** power mode (DESIGN.md §16), delay-only: maximize slack subject
          to a total buffer-energy [budget] (J). Bucketed by count and
          pruned by count dominance like [Up_to kmax], with energy in
          the relation, and [by_count] is likewise the count-slack front
          of the in-budget solutions. The energy coordinate joins the
          (load, slack) dominance relation, branch merges enumerate every
          pairing on a (load, energy) staircase (a pairing off the (c, q)
          frontier can be the only budget-feasible one), and insertions
          come from each source group's (slack, energy) Pareto staircase.
          Over-budget candidates are discarded before materialization and
          counted in [power_pruned]. *)

type mutation =
  | Cq_noise_prune
      (** noise-mode frontiers pruned on (load, slack) only, with the
          linear delay-mode branch walk — the exact defect PR 1 fixed
          (see DESIGN.md §8): the engine can report infeasibility, or a
          sub-optimal slack, on nets brute force solves *)
  | No_attach_guard
      (** buffers and the source driver attach to candidates without the
          noise check of Figs. 10-11, so returned "noise-clean" solutions
          can violate margins *)
  | Loose_pred_bound
      (** the predictive upstream-resistance bound ({!Rctree.Upbound})
          inflated by 25%: the slope rule over-prunes, killing candidates
          that could still win, so predictive outcomes drift from the
          [`Sweep_only] reference — the bug class the pred-vs-sweep
          oracle exists to catch *)
(** Deliberately broken engine variants for verifying the verifier:
    [Check.Diff] and [buffopt fuzz --mutate] run campaigns against a
    mutated engine and must catch it (the mutation smoke of DESIGN.md
    §10). Only the defects that need engine internals live here; the
    checker stages the others itself. Never used by the production
    drivers. *)

(** Cross-run memo for incremental re-optimization (the serve daemon's
    core; DESIGN.md §14). Holds the per-edge DP tables ([above c] — the
    complete candidate summary of [c]'s subtree), each copied out of the
    run's row stack and served in place on a hit, plus a resident
    solution-trace arena of its own. [run ?memo] reuses every cached table whose
    subtree is untouched and whose predictive climb bound is unchanged,
    so after a single-sink edit only the path from the edit to the root
    is recomputed, with cached sibling tables spliced into the merges.
    The DP is deterministic, so incremental outcomes are byte-identical
    to a scratch recompute — the invariant the incremental-vs-scratch
    oracle enforces.

    Contract: after every edit at node [v] (sink RAT, parent-wire
    values) call [dirty memo tree v] before the next [run ?memo]. Edits
    that change node ids or topology (resegmenting) need [clear] — the
    config stamp also catches them, as it does any change of mode /
    noise / pruning / widths / library. One memo serves one net. *)
module Memo : sig
  type t

  val create : unit -> t

  val dirty : t -> Rctree.Tree.t -> int -> unit
  (** Forget node [v]'s cached table and every ancestor's — the tables
      whose subtrees contain [v]. *)

  val clear : t -> unit
  (** Drop every entry and the resident arena. *)

  val stored : t -> int
  (** Entries currently cached. *)

  val arena_nodes : t -> int
  (** Nodes in the resident arena besides its leaf: every trace node
      the runs since the last [clear] appended, live or not. *)

  val hits : t -> int
  (** Lifetime count of cached tables reused by [run ?memo]. *)

  val misses : t -> int
  (** Lifetime count of tables computed and stored by [run ?memo]. *)
end

type stats = {
  generated : int;
      (** candidates materialized: sink seeds, wire climbs (one per
          width), branch-merge pairings and buffer insertions that were
          actually allocated. Predictive pruning kills candidates {e
          before} this point; they are counted in [pred_pruned] only.
          The coordinates-first branch merges of every mode join only
          their survivors, but count every pairing the slope rule did
          not kill (in power mode, every in-budget pairing) as the
          materializing merge did, so this figure is the same whichever
          merge runs. *)
  pruned : int;
      (** generated candidates discarded afterwards: dominance sweeps
          and noise-mode drops of candidates whose noise slack went
          negative *)
  pred_pruned : int;
      (** candidates the predictive engine discarded before
          materialization (DESIGN.md §12): no record, no arena node. In
          the noise-mode branch merge, the pairings only the slope term
          killed. Always 0 under [`Sweep_only] and [`Off] and in power
          mode. *)
  power_pruned : int;
      (** would-be candidates the power budget discarded before
          materialization (over-budget insertions and branch-merge
          pairings; DESIGN.md §16). Always 0 outside [Power_bounded]. *)
  count_pruned : int;
      (** generated candidates that a same-parity candidate with fewer
          buffers dominated (count dominance, DESIGN.md §17): dropped
          while still staged, so none has an arena node. Always 0 in
          [Single] and [Per_count] and under [`Off]. *)
  peak_width : int;
      (** widest single (parity, bucket) frontier observed at any node —
          the engine's working-set measure *)
  arena : int;
      (** solution-trace arena nodes recorded this run (DESIGN.md §11):
          one per buffer insertion its target group's splice, front or
          sweep kept, in every mode; one per branch-merge pairing the
          merge's sweep and the front kept; one per wire-sizing decision
          the climb emitted.
          Under [?memo] this is the run's delta into the resident
          arena. *)
  minor_words : float;
      (** words this domain allocated on the minor heap during the run
          ([Gc.minor_words] delta — domain-local, so concurrent domains
          in a batch never contaminate it; winner reconstruction
          included, the trace arena's chunk headers
          ({!Trace.header_words}) left out). Deterministic for a given
          instance (and, under [?memo], the memo's past runs),
          independent of the batch engine's domain count and of the
          runs the domain made before: the scratch a domain reuses only
          ever grows in the major heap. *)
}

type result = {
  slack : float;  (** optimized source slack, eq. (5) *)
  placements : Rctree.Surgery.placement list;
  sizes : (int * float) list;  (** wire-width choices when sizing is enabled *)
  count : int;
  energy : float;
      (** total switching energy of the solution's buffers, J
          ({!Trace.energy} of the winning candidate) — reported in every
          mode, an objective only in [Power_bounded] *)
  stats : stats;  (** whole-run engine statistics (shared by all results) *)
}

type outcome = {
  best : result option;  (** highest-slack solution over all counts *)
  by_count : result option array;
      (** [Per_count]: best per exact count; [Up_to] and [Power_bounded]:
          the count-slack front, [None] at every count whose best slack
          does not beat every lower count's; [Single]: singleton *)
  stats : stats;
}

val considered : stats -> int
(** [generated + pred_pruned + power_pruned]: every candidate the run
    looked at, materialized or not — the figure comparable across
    pruning modes. *)

val survivors : stats -> int
(** [generated - pruned - count_pruned]: materialized candidates still
    alive when the run ended. The conservation identity the
    dp-invariants oracle checks is
    [considered = survivors + pruned + count_pruned + pred_pruned +
    power_pruned]. *)

val run :
  ?pruning:[ `Predictive | `Sweep_only | `Off ] ->
  ?widths:float list ->
  ?mutation:mutation ->
  ?memo:Memo.t ->
  noise:bool ->
  mode:mode ->
  lib:Tech.Buffer.t list ->
  Rctree.Tree.t ->
  outcome
(** Raises [Invalid_argument] on an empty library, a tree that already
    contains buffers, a negative power budget, [Power_bounded] with
    [noise = true] (power mode is delay-only), or when entered again on
    a domain that is already running it (its scratch is the domain's). With [noise = true],
    [best = None] means no noise-feasible solution exists at the given
    segmenting (the paper's remedy: segment finer or extend the
    library; see [Buffopt.optimize]). With [noise = false], [best] is
    always [Some]: the zero-buffer candidate survives, and in
    [Power_bounded] it carries zero energy, so it fits any budget.

    [pruning] (default [`Predictive]) selects the candidate engine.
    [`Predictive] is the Li & Shi predictive engine: wire climbs,
    branch-merge pairings and buffer insertions are pre-checked against
    the node's {!Rctree.Upbound} slope bound and discarded before
    materialization (DESIGN.md §12); in noise mode the rule is the 4D
    {!Candidate.kills_full}. [`Sweep_only] is the plain dominance-sweep
    engine, the reference the pred-vs-sweep oracle holds [`Predictive]
    to: every outcome — slacks, placements, sizes, by_count — is
    byte-identical, only [generated]/[pred_pruned]/[pruned]/[arena] and
    allocation figures move. Predictive pruning is automatically off
    (and [pred_pruned = 0]) in [Power_bounded] mode, where the slope
    says nothing about the energy axis. [`Off] disables candidate
    pruning, count dominance included — exponential; only for Ablation
    B and the pruning-invariance checks on small trees (the branch
    merge then falls back to the linear walk in both modes, matching
    the pruned delay-mode exploration).

    [widths] (multiples of minimum width, default [[1.]]) enables
    simultaneous wire sizing per {!Rctree.Tree.resize_wire}; chosen
    widths are reported in [result.sizes] and applied with
    {!Wiresize.apply_sizes}. *)
