(** First-class verification instances.

    An instance bundles everything a differential or invariant check
    needs to run deterministically: an unbuffered routing tree, a buffer
    library, the wire-segmenting length the DP oracles apply, and which
    oracle to run ({!Diff}). Instances are what {!Gen} generates, what
    {!Corpus} serializes and replays, and what {!Shrink} minimizes —
    every structural edit here rebuilds a fresh, validated tree through
    {!Rctree.Builder}, so a shrunk instance is always a legal input to
    every optimizer. *)

type oracle =
  | Vangin_vs_brute  (** Van Ginneken slack = exhaustive delay optimum *)
  | Alg3_vs_brute
      (** Algorithm 3 agrees with the exhaustive noise-constrained
          optimum — feasibility {e and} slack (the PR-1 bug class) *)
  | Alg1_vs_alg2  (** single-sink chains: equal counts, both clean *)
  | Alg3_vs_vangin
      (** noise-constrained never beats unconstrained; an infeasible
          verdict is contradicted by a noise-clean Van Ginneken answer *)
  | Buffopt_problem3
      (** count-indexed buckets exact, clean, consistent with the
          Problem 3 selection rule *)
  | Dp_invariants
      (** every DP driver's solution passes {!Invariant.check}; pruning
          does not change the optimum on small trees; stats sane *)
  | Dp_trace
      (** the winner the DP reconstructs from its trace arena is the
          solution it claims: re-applied and re-evaluated from scratch,
          the placement list has exactly [count] entries and reproduces
          the claimed slack, and a noise-mode winner is noise-clean *)
  | Pred_vs_sweep
      (** the predictive engine ([`Predictive], DESIGN.md §12) returns
          byte-identical outcomes — slack, count, placements, sizes,
          every by_count bucket — to the plain [`Sweep_only] engine in
          delay, noise, Single and Per_count modes, while generating no
          more candidates than it and keeping the drop accounting
          conserved on both sides *)
  | Incremental_vs_scratch
      (** a deterministic sequence of edits — RAT nudges, wire
          rescalings, noise-environment flips — replayed incrementally
          through one resident {!Bufins.Dp.Memo} (dirtying the edited
          path, as the serve daemon does) must produce, at every step,
          in delay and noise modes and in the noise-mode [Dp.Up_to] run
          of the serve daemon's Problem 3 (each with its own memo),
          exactly the outcome of a fresh scratch run: same feasibility,
          bit-equal slack, identical placements and wire sizes, for
          [best] and every [by_count] entry *)
  | Parser_roundtrip
      (** the ingest front end survives adversarial text: random
          designs and libraries round-trip through {!Sta.Netfmt},
          {!Ingest.Liberty} and {!Ingest.Blif} bit-identically, and
          deterministic mutations of the rendered texts (truncations,
          junk insertions, duplicated lines, deleted spans) always
          parse to [Ok] or a located [Parse] / [Error] naming the file
          — never another exception. The
          random inputs are seeded from the instance's content, so a
          corpus entry replays the same battery. DP [mutation]
          campaigns skip this oracle: there is no engine under test. *)
  | Power_vs_brute
      (** [Dp.Power_bounded] agrees with the exhaustive budget-
          constrained optimum ({!Bufins.Brute.best_slack_power}) at a
          ladder of budgets spanning zero to unconstrained, and every
          winner's energy respects the requested budget — the check the
          {!Diff.Bad_power_bound} mutation must trip *)
  | Energy_conservation
      (** the energy the frontier accumulated on the winning candidate
          ([result.energy], reconstructed via {!Bufins.Trace.energy})
          equals the sum of the reconstructed placements' buffer
          energies ({!Bufins.Buffopt.placements_energy}), across delay /
          noise / power modes and every by_count bucket; power-mode
          stats keep the extended conservation identity *)
  | Power_monotonicity
      (** a larger energy budget never yields a worse slack: across an
          increasing budget ladder, [Dp.Power_bounded] slacks are
          non-decreasing, each winner fits its budget, and an
          unconstrained budget reproduces the [Per_count] optimum *)
  | Transient_tree_vs_dense
      (** Noisesim's stage decks agree on both transient solvers: every
          deck takes the forest [LDL^T] path, its recorded traces and
          finals match the dense LU reference within 1e-9 V, the
          early-exit {!Noisesim.Deck.peak_noise} peaks equal the
          full-window forest peaks bit for bit, and the
          {!Noisesim.Verify} verdicts ([sim_violations],
          [metric_violations], [bound_ok]) are identical. The tree is a
          workload net; the instance's content seeds the cap on each
          wire's sections ([n_seg] 1-16), an optional multi-aggressor
          annotation, and
          whether the net is verified unbuffered or after BuffOpt. DP
          [mutation] campaigns skip this oracle. *)
  | Count_front
      (** count dominance is exact on the count-slack front
          (DESIGN.md §17): [Dp.Up_to k]'s [by_count] equals the strict
          front of [Dp.Per_count k]'s buckets — every count whose best
          slack beats every lower count's — entry by entry and byte for
          byte (slack, count, energy, placements, sizes), with the same
          [best], in delay and noise modes, under both candidate
          engines, which also agree with each other *)

val all_oracles : oracle list

val oracle_name : oracle -> string
(** Stable kebab-case name used by the corpus format and the CLI. *)

val oracle_of_name : string -> oracle option

type t = {
  tree : Rctree.Tree.t;  (** unbuffered; checked by the constructors *)
  lib : Tech.Buffer.t list;  (** non-empty *)
  seg_len : float;  (** metres; the segmenting the DP oracles apply *)
  oracle : oracle;
}

val make :
  tree:Rctree.Tree.t -> lib:Tech.Buffer.t list -> seg_len:float -> oracle -> t
(** Raises [Invalid_argument] on an empty library, a non-positive
    [seg_len], or a tree that already contains buffers. *)

val sink_count : t -> int

val size : t -> int
(** Node count plus library size — the measure {!Shrink} drives down. *)

(** {1 Shrinking edits}

    Each edit returns [None] when it does not apply (nothing left to
    remove, wires already at the minimum length); otherwise a rebuilt,
    validated instance. Branches left without any sink are pruned. *)

val drop_sink : t -> int -> t option
(** Remove the [k]-th sink (in tree order). [None] when [k] is out of
    range or it is the last sink. *)

val drop_buffer : t -> int -> t option
(** Remove the [k]-th library buffer; [None] on the last one. *)

val halve_wires : t -> t option
(** Scale every wire (length, parasitics, coupled current) by 0.5;
    [None] once the longest wire is below 10 um. *)

val halve_wire : t -> int -> t option
(** Halve only node [v]'s parent wire; [None] for the root, out-of-range
    nodes, or wires below 10 um. *)
