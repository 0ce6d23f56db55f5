module T = Rctree.Tree
module C = Candidate
module F = Frontier

type mode =
  | Single
  | Per_count of int
  | Up_to of int
  | Power_bounded of { budget : float; kmax : int }

type mutation = Cq_noise_prune | No_attach_guard | Loose_pred_bound

type stats = {
  generated : int;
  pruned : int;
  pred_pruned : int;
  power_pruned : int;
  peak_width : int;
  arena : int;
  minor_words : float;
}

let considered s = s.generated + s.pred_pruned + s.power_pruned

let survivors s = s.generated - s.pruned

type result = {
  slack : float;
  placements : Rctree.Surgery.placement list;
  sizes : (int * float) list;
  count : int;
  energy : float;
  stats : stats;
}

type outcome = { best : result option; by_count : result option array; stats : stats }

(* Candidate sets are arrays of frontiers indexed by [2*bucket + parity];
   bucket is the buffer count in the counted modes and 0 in Single mode.
   Every frontier is kept sorted by Candidate.cmp_frontier (load
   ascending) end-to-end: wires shift whole groups monotonically, the
   linear merge emits its pairings in load order, and buffer insertions
   splice in sorted: at most one per (group, buffer type), or in power
   mode one per member of a type's (slack, energy) staircase.
   Pruning is therefore a single linear sweep per group — (c, q)
   staircase in delay mode, full (c, q, i, ns) dominance in noise mode
   (see Candidate.dominates_full for why delay-mode pruning loses
   noise-feasible solutions).

   Candidates are flat float records; their solutions live in a per-run
   Trace arena and only the winning root candidates are reconstructed
   into placement lists, at the very end. *)

(* {1 Incremental memo}

   Cross-run cache of the per-edge [above] tables for the serve daemon's
   incremental re-optimization (DESIGN.md §14). The entry at node [c] is
   the candidate table just above [c]'s parent wire — the complete DP
   summary of [c]'s subtree. The DP is deterministic, so as long as
   nothing in [c]'s subtree changed, the cached table is byte-for-byte
   what a scratch recompute would rebuild; [run ?memo] then recomputes
   only the edited path (the caller marks it with [dirty]) and splices
   cached sibling tables straight into the merges.

   Validity is a three-part contract:

   - {b Dirty marking.} After any edit at node [v] (sink RAT, parent
     wire values) the caller calls [dirty memo tree v], which forgets
     [v] and every ancestor — exactly the tables whose subtrees contain
     [v].
   - {b Bound stamps.} Predictive pruning folds each site's upstream
     resistance bound into the kept lists. A wire edit shifts the bounds
     of {e every} node below it — including clean sibling subtrees the
     dirty path doesn't touch — so each entry records the climb bound it
     was built under and is reused only when the current bound matches.
     (Interior bounds of the subtree equal the climb bound plus in-tree
     wire resistances, so with the subtree clean the one stamp covers
     them all.)
   - {b Config stamp.} Everything else an entry bakes in — mode, noise,
     pruning engine, widths, library, tree topology — is fingerprinted;
     a mismatched fingerprint drops the whole cache rather than risk
     mixing configurations.

   Candidates carry Trace handles, which are only meaningful against
   the arena that issued them, so the memo owns a resident arena that
   [run ?memo] appends to instead of creating its own; the arena is
   append-only, hence old handles survive later runs. [clear] swaps in a
   fresh arena (nothing references the old one once the entries are
   gone), which is the only way the arena ever shrinks. *)

module Memo = struct
  type entry = {
    kept : C.t list array;  (** the above-table, pre-insertion *)
    bound : float;  (** climb bound the entry was built under *)
  }

  type t = {
    mutable entries : entry option array;  (* indexed by node id *)
    mutable stamp : string;  (* config fingerprint; "" = never stamped *)
    mutable arena : Trace.arena;
    mutable hits : int;
    mutable misses : int;
  }

  let create () =
    { entries = [||]; stamp = ""; arena = Trace.create (); hits = 0; misses = 0 }

  let clear t =
    t.entries <- [||];
    t.stamp <- "";
    t.arena <- Trace.create ()

  let dirty t tree v =
    if Array.length t.entries > 0 then
      List.iter
        (fun u -> if u < Array.length t.entries then t.entries.(u) <- None)
        (T.path_up tree v)

  let stored t =
    Array.fold_left (fun a e -> if e = None then a else a + 1) 0 t.entries

  let arena_nodes t = Trace.size t.arena - 1

  let hits t = t.hits

  let misses t = t.misses

  (* RATs and wire values are deliberately absent: edits to them are the
     caller's dirty-marking duty (plus the per-entry bound stamp), and
     hashing them here would turn every edit into a full cache drop. *)
  let stamp ~prune ~pruning ~widths ~area_frac ~mutation ~noise ~mode ~lib tree
      =
    let topo = ref 0 in
    for v = 0 to T.node_count tree - 1 do
      let tag =
        match T.kind tree v with
        | T.Source _ -> 0
        | T.Sink _ -> 1
        | T.Internal -> 2
        | T.Buffered _ -> 3
      in
      topo := Hashtbl.hash (!topo, T.parent tree v, tag, T.feasible tree v)
    done;
    Marshal.to_string
      (prune, pruning, widths, area_frac, mutation, noise, mode, lib,
       T.node_count tree, !topo)
      []
end

(* the Loose_pred_bound mutation inflates the upstream-resistance bound
   by this factor: the slope rule then over-prunes and the predictive
   engine's outcomes drift from the sweep-only reference *)
let loose_bound_factor = 1.25

let run ?(prune = true) ?(pruning = `Predictive) ?(widths = [ 1.0 ]) ?(area_frac = 0.4)
    ?mutation ?memo ~noise ~mode ~lib tree =
  if widths = [] || List.exists (fun w -> w < 1.0) widths then
    invalid_arg "Dp.run: widths must be >= 1";
  if lib = [] then invalid_arg "Dp.run: empty buffer library";
  if T.buffer_count tree > 0 then invalid_arg "Dp.run: tree already contains buffers";
  (* Domain-local allocation accounting: Gc.minor_words reads the calling
     domain's own counter, so concurrent domains in a batch never
     contaminate a run's delta, and on this runtime its in-progress
     region term is exact, so deltas are word-precise across minor
     collections. *)
  let minor0 = Gc.minor_words () in
  (* with a memo, candidates go into its resident arena so cached trace
     handles from earlier runs stay reconstructible; a mismatched config
     stamp drops the cache before any entry could be misread *)
  let arena =
    match memo with
    | None -> Trace.create ()
    | Some (m : Memo.t) ->
        let stamp =
          Memo.stamp ~prune ~pruning ~widths ~area_frac ~mutation ~noise ~mode
            ~lib tree
        in
        if m.Memo.stamp <> stamp then begin
          Memo.clear m;
          m.Memo.stamp <- stamp
        end;
        if Array.length m.Memo.entries <> T.node_count tree then
          m.Memo.entries <- Array.make (T.node_count tree) None;
        m.Memo.arena
  in
  let arena0 = Trace.size arena in
  (* mutation smoke (DESIGN.md §10): deliberately broken variants used
     only to prove the Check subsystem catches them *)
  let cq_prune = mutation = Some Cq_noise_prune in
  let attach_guard = mutation <> Some No_attach_guard in
  let counted, kmax, budget =
    match mode with
    | Single -> (false, max_int, infinity)
    | Per_count k | Up_to k -> (true, k, infinity)
    | Power_bounded { budget; kmax } -> (true, kmax, budget)
  in
  (* Count dominance (DESIGN.md §17): every counted mode but Per_count
     wants only the count-slack front, so a candidate that a
     same-parity one with fewer buffers dominates is dropped; Per_count
     keeps every bucket exact. *)
  let front_only =
    match mode with Up_to _ | Power_bounded _ -> true | Single | Per_count _ -> false
  in
  let nbuckets = if counted then kmax + 1 else 1 in
  (* Power mode (DESIGN.md §16): the energy coordinate becomes a pruning
     axis and an insertion budget. *)
  let power =
    match mode with Power_bounded _ -> true | Single | Per_count _ | Up_to _ -> false
  in
  if power && not (budget >= 0.0) then invalid_arg "Dp.run: negative power budget";
  if power && noise then invalid_arg "Dp.run: power mode is delay-only";
  (* ulp-scale headroom: candidate energy accumulates in tree-merge order,
     so at an exact-boundary budget (the sum of k buffer energies) the
     optimum can land one rounding step above the nominal budget. The
     slack is far below any real energy difference, and the reported
     winner still satisfies the budget under the same relative
     tolerance. *)
  let eff_budget = budget +. (Float.abs budget *. 1e-12) in
  let nslots = 2 * nbuckets in
  let plib = Tech.Lib.prepare lib in
  let ntypes = Tech.Lib.size plib in
  (* Predictive pruning (Li & Shi; DESIGN.md §12). The slope rule bounds
     how a load difference erodes a slack difference; in noise mode the
     witness must also carry no more current and keep at least the noise
     slack (Candidate.kills_full), since upstream wire noise grows with
     [i], merges add [i] and take the min of [ns], and the attach guard
     is monotone in both. It stays off in power mode — the slope says
     nothing about the energy axis a budget must preserve (the witness
     may be the costlier candidate) — and under [prune = false]
     (Ablation B wants the full population). *)
  let pred = prune && (not power) && pruning = `Predictive in
  let cmp_order = if power then C.cmp_frontier_power else C.cmp_frontier in
  let bounds =
    if not pred then [||]
    else begin
      let max_width = List.fold_left Float.max 1.0 widths in
      let b = Rctree.Upbound.compute tree ~r_gate_min:plib.Tech.Lib.r_min ~max_width in
      if mutation = Some Loose_pred_bound then
        Array.iteri (fun i x -> b.(i) <- x *. loose_bound_factor) b;
      b
    end
  in
  let generated = ref 0 and pruned = ref 0 and pred_pruned = ref 0 in
  let power_pruned = ref 0 in
  let peak_width = ref 0 in
  (* (c, q) staircase in delay mode ((c, q, p) in power mode), full
     (c, q, i, ns) dominance in noise mode; the Cq_noise_prune mutation
     sweeps noise mode on (c, q). [bound] is the site's predictive bound
     (0 when predictive pruning is off), read by the noise sweep only:
     the delay staircases kill before materializing instead. *)
  let staircase = (not noise) || cq_prune in
  let scratch = C.scratch () in
  let sweep ~bound cands =
    if not prune then cands
    else begin
      let kept, dropped =
        if not staircase then C.sweep_noise ~bound cands
        else if power then C.sweep_delay_power ~scratch cands
        else C.sweep_delay cands
      in
      pruned := !pruned + dropped;
      kept
    end
  in
  (* sorted insertions into a group: the fused staircase splice in
     delay mode, a merge and a sweep otherwise *)
  let splice_in ~bound group cands =
    if prune && staircase && not power then begin
      let kept, dropped = C.splice_delay group cands in
      pruned := !pruned + dropped;
      kept
    end
    else sweep ~bound (List.merge cmp_order group cands)
  in
  let drop_noisy cands =
    if not noise then cands
    else
      List.filter
        (fun (a : C.t) ->
          a.C.ns >= -.C.noise_tol
          ||
          (incr pruned;
           false))
        cands
  in
  (* in noise mode a gate never drives a candidate it would make noisy *)
  let guard = noise && attach_guard in
  (* [c_max] bounds every insertion's load, hence where its stand-ins
     can sit in a load-sorted group *)
  let c_max = Array.fold_left Float.max neg_infinity plib.Tech.Lib.c_in in
  let note_width tbl =
    Array.iter
      (fun group ->
        let w = List.length group in
        if w > !peak_width then peak_width := w)
      tbl
  in
  (* Propagate a whole table through the wire below node [at], at every
     available width (simultaneous wire sizing, Lillis et al. [18]); group
     order is preserved because add_wire shifts each coordinate by an
     amount depending only on earlier sort keys. [bound] is the Upbound
     value of the wire's upper end — the site the climbed table lives at —
     and with predictive pruning on, candidates the previously emitted one
     already kills are dropped inside the climb, before allocation. *)
  let apply_wire ~at ~bound w tbl =
    let widths = if w.T.length <= 0.0 then [ 1.0 ] else widths in
    let kill = if pred then Some bound else None in
    Array.map
      (function
        | [] -> []
        | group ->
            let family width =
              let climbed, emitted, prekilled =
                if width = 1.0 then C.climb ?bound:kill ~noise:(not staircase) w group
                else
                  C.climb ?bound:kill ~noise:(not staircase) ~resize:(arena, at, width)
                    (T.resize_wire w ~width ~area_frac)
                    group
              in
              generated := !generated + emitted;
              pred_pruned := !pred_pruned + prekilled;
              climbed
            in
            let combined =
              match widths with
              | [ width ] -> family width
              | _ -> F.merge_sorted cmp_order (List.map family widths)
            in
            sweep ~bound (drop_noisy combined))
      tbl
  in
  (* Every (left slot, right slot) pairing of a branch node's two child
     tables that may merge — equal parity, bucket sum within kmax, both
     groups non-empty — with the slot the pairing lands in. *)
  let pairings lt rt f =
    for sl = 0 to nslots - 1 do
      if lt.(sl) <> [] then begin
        let p = sl land 1 and kl = sl asr 1 in
        for kr = 0 to nbuckets - 1 do
          let sr = (2 * kr) + p in
          if kl + kr <= kmax && rt.(sr) <> [] then
            f ((if counted then 2 * (kl + kr) else 0) + p) sl sr
        done
      end
    done
  in
  (* Join the two child tables of a branch node. Delay mode walks the two
     frontiers linearly (Van Ginneken); noise mode must consider every
     pairing — a pairing off the (c, q) frontier can be the only one whose
     noise slack survives the upstream wires — and power mode enumerates
     just the staircase pairings (exact by Candidate.merge_delay_power).
     The pruned engines decide pairings on their coordinates and join the
     survivors only (DESIGN.md §12): the walks feeding one slot are
     collected first and decided together, so every pairing is weighed
     against the whole slot before anything is materialized. The
     sweep-only delay engine and the power-off modes under
     [prune = false] materialize every walk's pairings and merge the
     runs. *)
  let coords = power || pred || (prune && not staircase) in
  let merge_groups ~bound lt rt =
    if coords then begin
      (* each child group becomes an array once, for all its walks; power
         mode walks it in slack order *)
      let arr = if power then C.by_slack else Array.of_list in
      let ls = Array.map arr lt and rs = Array.map arr rt in
      let pending = Array.make nslots [] in
      pairings lt rt (fun t sl sr -> pending.(t) <- (ls.(sl), rs.(sr)) :: pending.(t));
      Array.map
        (function
          | [] -> []
          | walks ->
              let kept, considered, dropped, skipped =
                if power then
                  C.merge_delay_power ~scratch ~arena ~budget:eff_budget ~prune walks
                else if staircase then C.merge_delay ~scratch ~arena ~bound walks
                else C.merge_noise ~scratch ~arena ~bound walks
              in
              generated := !generated + considered;
              pruned := !pruned + dropped;
              let skips = if power then power_pruned else pred_pruned in
              skips := !skips + skipped;
              kept)
        pending
    end
    else begin
      let runs = Array.make nslots [] in
      pairings lt rt (fun t sl sr ->
          let pairs =
            F.merge2 ~value:(fun (a : C.t) -> a.C.q) ~join:(C.merge ~arena) lt.(sl) rt.(sr)
          in
          generated := !generated + List.length pairs;
          if pairs <> [] then runs.(t) <- pairs :: runs.(t));
      Array.map
        (function [] -> [] | rs -> sweep ~bound (F.merge_sorted C.cmp_frontier rs))
        runs
    end
  in
  (* Step 5 (Figs. 5 and 11): buffer insertions at a feasible node.
     [C.sources] chooses every type's sources for a group: the one
     best-slack source, or in power mode the (slack, energy) staircase
     of sources. In noise mode a buffer is never attached to a candidate
     it would make noisy; the unbuffered noise frontier itself stays in
     the group, so a quieter-but-slower candidate survives for upstream
     wires to consume. Each source's destination group is known before
     anything is materialized: an over-budget insertion is counted as
     [power_pruned], one the target group already covers as
     [pred_pruned], and the rest enter the target's splice or sweep as
     [C.stand_in]s; only the survivors get their Trace node. *)
  let insert_buffers ~bound v tbl =
    let additions = Array.make nslots [] in
    Array.iteri
      (fun sl group ->
        (* the slot-level bucket check covers per-candidate count
           eligibility: a counted group holds one exact count *)
        if group <> [] && sl asr 1 < kmax then begin
          let cands = Array.of_list group in
          let n = C.sources ~scratch ~power ~guard plib cands in
          for m = 0 to n - 1 do
            let ti = scratch.Flat.js.(2 * m) in
            let a = cands.(scratch.Flat.js.((2 * m) + 1)) in
            let q = scratch.Flat.xs.((5 * m) + 1) in
            let p = sl land 1 in
            let p' = if plib.Tech.Lib.inverting.(ti) then 1 - p else p in
            let target = (if counted then 2 * ((sl asr 1) + 1) else 0) + p' in
            let b = plib.Tech.Lib.bufs.(ti) in
            if a.C.p +. plib.Tech.Lib.energy.(ti) > eff_budget then incr power_pruned
            else if
              pred
              && C.covered ~bound ~c:plib.Tech.Lib.c_in.(ti) ~q
                   ~i:(if staircase then infinity else 0.0)
                   ~ns:(if staircase then neg_infinity else b.Tech.Buffer.nm)
                   tbl.(target)
            then incr pred_pruned
            else begin
              incr generated;
              additions.(target) <- C.stand_in ~ntypes ti b a q :: additions.(target)
            end
          done
        end)
      tbl;
    (* a loop, not an iterator: no closure allocated per node *)
    for sl = 0 to nslots - 1 do
      match additions.(sl) with
      | [] -> ()
      | cands ->
          tbl.(sl) <- splice_in ~bound tbl.(sl) (List.sort cmp_order cands);
          C.materialize ~arena ~at:v plib.Tech.Lib.bufs ~c_max tbl.(sl)
    done;
    tbl
  in
  (* count dominance over a node's final table, parity by parity in
     rising count: [front] holds the survivors of the lower counts, as
     a (load, slack) staircase in delay mode and a load-sorted list
     otherwise *)
  let outcount = prune && front_only in
  let count_sweep tbl =
    for p = 0 to 1 do
      let front = ref [] in
      for k = 0 to nbuckets - 1 do
        match tbl.((2 * k) + p) with
        | [] -> ()
        | group ->
            let kept, dropped =
              C.count_sweep ~scratch ~noise:(not staircase) ~power !front group
            in
            pruned := !pruned + dropped;
            tbl.((2 * k) + p) <- kept;
            if k < kmax then
              front :=
                if staircase && not power then fst (C.splice_delay !front kept)
                else List.merge cmp_order !front kept
      done
    done
  in
  let site_bound v = if pred then bounds.(v) else 0.0 in
  (* Memo plumbing for [above]. A hit restores the cached table, copied
     because [insert_buffers] mutates its input table in place; a store
     copies the outer array for the same aliasing reason. The candidate
     lists themselves are immutable. *)
  let memo_get c ~bound =
    match memo with
    | None -> None
    | Some (m : Memo.t) -> (
        match m.Memo.entries.(c) with
        | Some e when e.Memo.bound = bound ->
            m.Memo.hits <- m.Memo.hits + 1;
            Some (Array.copy e.Memo.kept)
        | Some _ | None -> None)
  in
  let memo_set c ~bound tbl =
    match memo with
    | None -> ()
    | Some (m : Memo.t) ->
        m.Memo.misses <- m.Memo.misses + 1;
        m.Memo.entries.(c) <- Some { Memo.kept = Array.copy tbl; bound }
  in
  let rec at v =
    match T.kind tree v with
    | T.Sink s ->
        let tbl = Array.make nslots [] in
        incr generated;
        tbl.(0) <- [ C.of_sink s ];
        tbl
    | T.Buffered _ | T.Source _ -> assert false
    | T.Internal ->
        let bound = site_bound v in
        let base, branch =
          match T.children tree v with
          | [ c ] -> (above c, false)
          | [ cl; cr ] -> (merge_groups ~bound (above cl) (above cr), true)
          | _ -> assert false
        in
        let feasible = T.feasible tree v in
        let base = if feasible then insert_buffers ~bound v base else base in
        if outcount && (feasible || branch) then count_sweep base;
        note_width base;
        base
  and above c =
    let bound = site_bound (T.parent tree c) in
    match memo_get c ~bound with
    | Some tbl -> tbl
    | None ->
        let tbl = apply_wire ~at:c ~bound (T.wire_to tree c) (at c) in
        note_width tbl;
        memo_set c ~bound tbl;
        tbl
  in
  let root = T.root tree in
  let d =
    match T.kind tree root with
    | T.Source d -> d
    | T.Sink _ | T.Internal | T.Buffered _ -> assert false
  in
  let top =
    match T.children tree root with
    | [ c ] -> above c
    | [ cl; cr ] -> merge_groups ~bound:(site_bound root) (above cl) (above cr)
    | _ -> assert false
  in
  let finals = ref [] in
  Array.iteri
    (fun sl group ->
      if sl land 1 = 0 then
        List.iter
          (fun (a : C.t) ->
            if (not guard) || C.noise_ok ~r_gate:d.T.r_drv a then
              finals := C.add_driver d a :: !finals)
          group)
    top;
  (* Winners first, reconstruction after: only the per-bucket best
     candidate pays the arena walk. The tie-break (keep the earlier
     candidate on equal slack) matches the old eager-result selection.
     The driver adds no energy, and every insertion and merge enforced
     the budget, so every root candidate is within it. *)
  let winners = Array.make nbuckets None in
  List.iter
    (fun (a : C.t) ->
      let idx = if counted then C.count a else 0 in
      match winners.(idx) with
      | Some (prev : C.t) when prev.C.q >= a.C.q -> ()
      | Some _ | None -> winners.(idx) <- Some a)
    !finals;
  (* the count-slack front: a count's winner stays only where its slack
     beats every lower count's *)
  if front_only then begin
    let top = ref neg_infinity in
    Array.iteri
      (fun k -> function
        | Some (a : C.t) when a.C.q > !top -> top := a.C.q
        | Some _ -> winners.(k) <- None
        | None -> ())
      winners
  end;
  let reconstructed =
    Array.map
      (Option.map (fun (a : C.t) ->
           let h = C.trace a in
           ( a.C.q,
             Trace.placements arena h,
             Trace.sizes arena h,
             C.count a,
             Trace.energy arena h )))
      winners
  in
  let stats =
    {
      generated = !generated;
      pruned = !pruned;
      pred_pruned = !pred_pruned;
      power_pruned = !power_pruned;
      peak_width = !peak_width;
      (* per-run delta: under a memo the arena is resident and carries
         every previous run's traces *)
      arena = Trace.size arena - arena0;
      minor_words = Gc.minor_words () -. minor0;
    }
  in
  let by_count =
    Array.map
      (Option.map (fun (slack, placements, sizes, count, energy) ->
           { slack; placements; sizes; count; energy; stats }))
      reconstructed
  in
  let best =
    Array.fold_left
      (fun acc r ->
        match (acc, r) with
        | None, x -> x
        | Some _, None -> acc
        | Some a, Some b -> if b.slack > a.slack then r else acc)
      None by_count
  in
  { best; by_count; stats }
