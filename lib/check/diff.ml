module T = Rctree.Tree
module Dp = Bufins.Dp

type verdict = Pass | Skip of string | Fail of string

type mutation =
  | Cq_noise_prune
  | No_attach_guard
  | Loose_pred_bound
  | Stale_memo
  | Bad_power_bound

(* the defects that live inside the engine; the other two are staged by
   the oracles that must catch them *)
let engine_mutation = function
  | Some Cq_noise_prune -> Some Dp.Cq_noise_prune
  | Some No_attach_guard -> Some Dp.No_attach_guard
  | Some Loose_pred_bound -> Some Dp.Loose_pred_bound
  | Some (Stale_memo | Bad_power_bound) | None -> None

exception Failed of string

let failf fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

let approx = Util.Fx.approx ~rel:1e-9 ~abs:1e-15

(* Brute force enumerates (|lib| + 1) ^ feasible assignments; beyond this
   budget the instance is skipped, not ground through. *)
let brute_budget = 20_000.

let feasible_nodes tree = List.filter (T.feasible tree) (T.internals tree)

let brute_cost lib tree =
  float_of_int (List.length lib + 1) ** float_of_int (List.length (feasible_nodes tree))

let segmented (inst : Instance.t) =
  Rctree.Segment.refine inst.Instance.tree ~max_len:inst.Instance.seg_len

(* Run the invariant checker and turn violations into a failure. *)
let must_hold ~what ?expect tree placements =
  match Invariant.check ?expect tree placements with
  | Ok report -> report
  | Error vs ->
      failf "%s: %s" what (String.concat "; " (List.map Invariant.pp_violation vs))

let dp_expect (r : Dp.result) ~noise_clean =
  {
    Invariant.count = Some r.Dp.count;
    slack = Some r.Dp.slack;
    noise_clean;
    feasible_only = true;
  }

(* Two outcomes agree bit for bit: slack, count, energy, placements
   (node, offset bits, buffer name) and wire sizes, for [best] and every
   [by_count] entry. Every oracle that compares two engines or two runs
   uses this one comparator, so -0 and +0, or a stray energy ulp, show
   everywhere. *)
let bits = Int64.bits_of_float

let same what (a : Dp.result option) (b : Dp.result option) =
  match (a, b) with
  | None, None -> ()
  | Some a, None -> failf "%s: slack %.17g vs none" what a.Dp.slack
  | None, Some b -> failf "%s: none vs slack %.17g" what b.Dp.slack
  | Some a, Some b ->
      if bits a.Dp.slack <> bits b.Dp.slack then
        failf "%s: slack %h vs %h" what a.Dp.slack b.Dp.slack;
      if a.Dp.count <> b.Dp.count then failf "%s: count %d vs %d" what a.Dp.count b.Dp.count;
      if bits a.Dp.energy <> bits b.Dp.energy then
        failf "%s: energy %h vs %h" what a.Dp.energy b.Dp.energy;
      let placement (p : Rctree.Surgery.placement) =
        ( p.Rctree.Surgery.node,
          bits p.Rctree.Surgery.dist,
          p.Rctree.Surgery.buffer.Tech.Buffer.name )
      in
      if List.map placement a.Dp.placements <> List.map placement b.Dp.placements then
        failf "%s: placements differ" what;
      let size (v, w) = (v, bits w) in
      if List.map size a.Dp.sizes <> List.map size b.Dp.sizes then
        failf "%s: wire sizes differ" what

let same_outcome what (a : Dp.outcome) (b : Dp.outcome) =
  same (what ^ " best") a.Dp.best b.Dp.best;
  if Array.length a.Dp.by_count <> Array.length b.Dp.by_count then
    failf "%s: by_count length %d vs %d" what (Array.length a.Dp.by_count)
      (Array.length b.Dp.by_count);
  Array.iteri
    (fun k r -> same (Printf.sprintf "%s count %d" what k) r b.Dp.by_count.(k))
    a.Dp.by_count

(* The conservation identity over the DP's counters: every candidate
   considered either survives or is counted by exactly one drop. *)
let conserved what (s : Dp.stats) =
  if
    Dp.considered s
    <> Dp.survivors s + s.Dp.pruned + s.Dp.count_pruned + s.Dp.pred_pruned + s.Dp.power_pruned
  then
    failf
      "%s: accounting broken: considered %d <> survivors %d + pruned %d + count %d + pred %d \
       + power %d"
      what (Dp.considered s) (Dp.survivors s) s.Dp.pruned s.Dp.count_pruned s.Dp.pred_pruned
      s.Dp.power_pruned

(* {1 Oracles} *)

let vangin_vs_brute ?mutation (inst : Instance.t) =
  let lib = inst.Instance.lib in
  let seg = segmented inst in
  if brute_cost lib seg > brute_budget then Skip "brute force intractable"
  else begin
    let outcome = Dp.run ?mutation ~noise:false ~mode:Dp.Single ~lib seg in
    let r = match outcome.Dp.best with
      | Some r -> r
      | None -> failf "vangin: delay-mode DP returned no solution"
    in
    ignore
      (must_hold ~what:"vangin solution" ~expect:(dp_expect r ~noise_clean:false) seg
         r.Dp.placements);
    match Bufins.Brute.best_slack ~noise:false ~lib seg with
    | None -> failf "brute: no delay-mode assignment (unbuffered should qualify)"
    | Some (best, _) ->
        if not (approx best r.Dp.slack) then
          failf "vangin slack %.17g disagrees with brute optimum %.17g" r.Dp.slack best;
        Pass
  end

let alg3_vs_brute ?mutation (inst : Instance.t) =
  let lib = inst.Instance.lib in
  let seg = segmented inst in
  if brute_cost lib seg > brute_budget then Skip "brute force intractable"
  else begin
    let outcome = Dp.run ?mutation ~noise:true ~mode:Dp.Single ~lib seg in
    let brute = Bufins.Brute.best_slack ~noise:true ~lib seg in
    match (outcome.Dp.best, brute) with
    | None, None -> Pass
    | Some r, None ->
        failf "alg3 claims a noise-clean solution (slack %.17g) but brute finds none"
          r.Dp.slack
    | None, Some (best, _) ->
        (* the PR-1 bug signature: pruning lost the only feasible candidate *)
        failf "alg3 reports infeasible but brute finds a noise-clean slack %.17g" best
    | Some r, Some (best, _) ->
        ignore
          (must_hold ~what:"alg3 solution" ~expect:(dp_expect r ~noise_clean:true) seg
             r.Dp.placements);
        if not (approx best r.Dp.slack) then
          failf "alg3 slack %.17g disagrees with brute optimum %.17g" r.Dp.slack best;
        Pass
  end

let alg1_vs_alg2 (inst : Instance.t) =
  if Instance.sink_count inst <> 1 then Skip "Algorithm 1 needs a single-sink net"
  else begin
    let lib = inst.Instance.lib in
    let tree = inst.Instance.tree in
    (* both climb wires directly: no segmenting, arbitrary offsets *)
    let a1 = try Ok (Bufins.Alg1.run ~lib tree) with Failure m -> Error m in
    let a2 = try Ok (Bufins.Alg2.run ~lib tree) with Failure m -> Error m in
    match (a1, a2) with
    | Error _, Error _ -> Pass
    | Ok r, Error m ->
        failf "alg2 fails (%s) where alg1 places %d buffers" m r.Bufins.Alg1.count
    | Error m, Ok r ->
        failf "alg1 fails (%s) where alg2 places %d buffers" m r.Bufins.Alg2.count
    | Ok r1, Ok r2 ->
        if r1.Bufins.Alg1.count <> r2.Bufins.Alg2.count then
          failf "minimal buffer counts disagree: alg1 %d vs alg2 %d" r1.Bufins.Alg1.count
            r2.Bufins.Alg2.count;
        let expect count =
          {
            Invariant.count = Some count;
            slack = None;
            noise_clean = true;
            feasible_only = false;
          }
        in
        ignore
          (must_hold ~what:"alg1 solution"
             ~expect:(expect r1.Bufins.Alg1.count)
             tree r1.Bufins.Alg1.placements);
        ignore
          (must_hold ~what:"alg2 solution"
             ~expect:(expect r2.Bufins.Alg2.count)
             tree r2.Bufins.Alg2.placements);
        Pass
  end

let alg3_vs_vangin ?mutation (inst : Instance.t) =
  let lib = inst.Instance.lib in
  let seg = segmented inst in
  let v =
    match (Dp.run ?mutation ~noise:false ~mode:Dp.Single ~lib seg).Dp.best with
    | Some r -> r
    | None -> failf "vangin: delay-mode DP returned no solution"
  in
  ignore
    (must_hold ~what:"vangin solution" ~expect:(dp_expect v ~noise_clean:false) seg
       v.Dp.placements);
  match (Dp.run ?mutation ~noise:true ~mode:Dp.Single ~lib seg).Dp.best with
  | Some r ->
      ignore
        (must_hold ~what:"alg3 solution" ~expect:(dp_expect r ~noise_clean:true) seg
           r.Dp.placements);
      (* alg3 explores a subset of vangin's candidates *)
      if r.Dp.slack > v.Dp.slack +. 1e-12 then
        failf "alg3 slack %.17g exceeds vangin's unconstrained optimum %.17g" r.Dp.slack
          v.Dp.slack;
      Pass
  | None ->
      (* no noise-feasible solution claimed: then neither the delay-optimal
         solution nor the bare tree may evaluate noise-clean *)
      let applied = Bufins.Eval.apply seg v.Dp.placements in
      if Bufins.Eval.noise_clean applied then
        failf "alg3 reports infeasible but vangin's solution is noise-clean";
      if Bufins.Eval.noise_clean (Bufins.Eval.of_tree seg) then
        failf "alg3 reports infeasible but the unbuffered tree is noise-clean";
      Pass

let buffopt_problem3 ?mutation (inst : Instance.t) =
  let lib = inst.Instance.lib in
  let seg = segmented inst in
  let kmax = 8 in
  let outcome = Dp.run ?mutation ~noise:true ~mode:(Dp.Per_count kmax) ~lib seg in
  Array.iteri
    (fun k -> function
      | None -> ()
      | Some (r : Dp.result) ->
          if r.Dp.count <> k then
            failf "bucket %d holds a %d-buffer solution" k r.Dp.count;
          ignore
            (must_hold
               ~what:(Printf.sprintf "bucket-%d solution" k)
               ~expect:(dp_expect r ~noise_clean:true) seg r.Dp.placements))
    outcome.Dp.by_count;
  (* best = the bucket maximum *)
  let bucket_best =
    Array.fold_left
      (fun acc -> function
        | None -> acc
        | Some (r : Dp.result) -> Float.max acc r.Dp.slack)
      neg_infinity outcome.Dp.by_count
  in
  (match outcome.Dp.best with
  | Some r when not (approx r.Dp.slack bucket_best) ->
      failf "best slack %.17g is not the bucket maximum %.17g" r.Dp.slack bucket_best
  | None when bucket_best > neg_infinity -> failf "best = None despite non-empty buckets"
  | _ -> ());
  (* the production Problem 3 driver (never mutated) must agree with the
     engine-under-test's buckets *)
  (match (Bufins.Buffopt.problem3 ~kmax ~lib seg, outcome.Dp.best) with
  | None, None -> ()
  | Some _, None -> failf "engine reports infeasible but the Problem 3 driver succeeds"
  | None, Some _ -> failf "Problem 3 driver reports infeasible but the engine succeeds"
  | Some r, Some _ -> (
      match outcome.Dp.by_count.(r.Dp.count) with
      | Some b when approx b.Dp.slack r.Dp.slack -> ()
      | Some b ->
          failf "Problem 3 picks count %d slack %.17g, engine bucket holds %.17g"
            r.Dp.count r.Dp.slack b.Dp.slack
      | None -> failf "Problem 3 picks count %d, an empty engine bucket" r.Dp.count));
  Pass

let dp_invariants ?mutation (inst : Instance.t) =
  let lib = inst.Instance.lib in
  let seg = segmented inst in
  let v = Option.get (Dp.run ~noise:false ~mode:Dp.Single ~lib seg).Dp.best in
  ignore
    (must_hold ~what:"vangin solution" ~expect:(dp_expect v ~noise_clean:false) seg
       v.Dp.placements);
  (* DelayOpt(k): counts bounded, slack monotone in the budget *)
  let prev = ref neg_infinity in
  for k = 0 to 2 do
    let r = Option.get (Dp.run ~noise:false ~mode:(Dp.Up_to k) ~lib seg).Dp.best in
    if r.Dp.count > k then failf "DelayOpt(%d) used %d buffers" k r.Dp.count;
    ignore
      (must_hold
         ~what:(Printf.sprintf "DelayOpt(%d) solution" k)
         ~expect:(dp_expect r ~noise_clean:false) seg r.Dp.placements);
    if r.Dp.slack < !prev -. 1e-12 then
      failf "DelayOpt(%d) slack %.17g below DelayOpt(%d)'s %.17g" k r.Dp.slack (k - 1)
        !prev;
    prev := Float.max !prev r.Dp.slack
  done;
  if v.Dp.slack < !prev -. 1e-12 then
    failf "unbounded vangin slack %.17g below DelayOpt(2)'s %.17g" v.Dp.slack !prev;
  let outcome = Dp.run ?mutation ~noise:true ~mode:Dp.Single ~lib seg in
  (match outcome.Dp.best with
  | Some r ->
      ignore
        (must_hold ~what:"alg3 solution" ~expect:(dp_expect r ~noise_clean:true) seg
           r.Dp.placements)
  | None -> ());
  (* pruning must not change the optimum (Ablation B, small trees only) *)
  if
    List.length (feasible_nodes seg) <= 7
    && List.length lib <= 2
  then begin
    let un = Dp.run ?mutation ~pruning:`Off ~noise:true ~mode:Dp.Single ~lib seg in
    if un.Dp.stats.Dp.pred_pruned <> 0 then
      failf "stats: unpruned run reports pred_pruned = %d" un.Dp.stats.Dp.pred_pruned;
    match (outcome.Dp.best, un.Dp.best) with
    | Some a, Some b when not (approx a.Dp.slack b.Dp.slack) ->
        failf "pruned slack %.17g differs from unpruned %.17g" a.Dp.slack b.Dp.slack
    | Some _, None -> failf "pruned run feasible, unpruned infeasible"
    | None, Some b -> failf "pruning lost the only feasible solution (slack %.17g)" b.Dp.slack
    | _ -> ()
  end;
  let s = outcome.Dp.stats in
  if s.Dp.generated <= 0 then failf "stats: generated = %d" s.Dp.generated;
  if s.Dp.pruned < 0 || s.Dp.pruned > s.Dp.generated then
    failf "stats: pruned %d out of %d generated" s.Dp.pruned s.Dp.generated;
  if s.Dp.pred_pruned < 0 then failf "stats: pred_pruned = %d" s.Dp.pred_pruned;
  if s.Dp.power_pruned <> 0 then
    failf "stats: non-power run reports power_pruned = %d" s.Dp.power_pruned;
  if s.Dp.count_pruned <> 0 then
    failf "stats: Single run reports count_pruned = %d" s.Dp.count_pruned;
  conserved "stats" s;
  if s.Dp.peak_width <= 0 || s.Dp.peak_width > s.Dp.generated then
    failf "stats: peak width %d vs %d generated" s.Dp.peak_width s.Dp.generated;
  (* arena 0 is legitimate: every sink candidate shares the arena's
     preallocated Leaf, so a net with no feasible insertion site
     allocates nothing *)
  if s.Dp.arena < 0 then failf "stats: trace arena size %d" s.Dp.arena;
  if s.Dp.arena > s.Dp.generated + 1 then
    failf "stats: arena %d exceeds generated %d + leaf" s.Dp.arena s.Dp.generated;
  if s.Dp.minor_words < 0.0 then failf "stats: minor words %.0f" s.Dp.minor_words;
  (* the sweep-only engine must report no predictive activity at all and
     reproduce the (predictive-default) slack bit-for-bit, in delay mode
     and — since the 4D rule — in noise mode *)
  let sw = Dp.run ?mutation ~pruning:`Sweep_only ~noise:false ~mode:Dp.Single ~lib seg in
  if sw.Dp.stats.Dp.pred_pruned <> 0 then
    failf "stats: Sweep_only run reports pred_pruned = %d" sw.Dp.stats.Dp.pred_pruned;
  (match sw.Dp.best with
  | Some b when b.Dp.slack <> v.Dp.slack ->
      failf "Sweep_only delay slack %.17g differs from predictive %.17g" b.Dp.slack
        v.Dp.slack
  | None -> failf "Sweep_only delay-mode DP returned no solution"
  | Some _ -> ());
  let swn = Dp.run ?mutation ~pruning:`Sweep_only ~noise:true ~mode:Dp.Single ~lib seg in
  if swn.Dp.stats.Dp.pred_pruned <> 0 then
    failf "stats: noise-mode Sweep_only run reports pred_pruned = %d"
      swn.Dp.stats.Dp.pred_pruned;
  (match (swn.Dp.best, outcome.Dp.best) with
  | Some b, Some a when b.Dp.slack <> a.Dp.slack ->
      failf "Sweep_only noise slack %.17g differs from predictive %.17g" b.Dp.slack
        a.Dp.slack
  | Some _, None | None, Some _ -> failf "Sweep_only and predictive noise feasibility differ"
  | _ -> ());
  Pass

(* The trace-arena oracle: the DP no longer carries placement lists on
   its candidates, it reconstructs the winners from the solution-trace
   arena at the end of the run. Whatever that reconstruction returns is
   re-applied to the tree and re-evaluated from scratch with Eval (Elmore
   + Devgan); the claimed count, slack and — in noise mode — noise
   cleanliness must all be reproduced exactly. A bug anywhere on the
   trace path (wrong predecessor handle, missed Join branch, stale
   Resize) shows up here as a placement list that does not rebuild the
   claimed numbers. *)
let dp_trace ?mutation (inst : Instance.t) =
  let lib = inst.Instance.lib in
  let seg = segmented inst in
  let check ~what ~noise (r : Dp.result) =
    if List.length r.Dp.placements <> r.Dp.count then
      failf "%s: %d placements for a claimed count of %d" what
        (List.length r.Dp.placements) r.Dp.count;
    let rep = Bufins.Eval.apply seg r.Dp.placements in
    if rep.Bufins.Eval.buffers <> r.Dp.count then
      failf "%s: applied tree holds %d buffers, claimed %d" what
        rep.Bufins.Eval.buffers r.Dp.count;
    if not (approx rep.Bufins.Eval.slack r.Dp.slack) then
      failf "%s: re-evaluated slack %.17g does not reproduce the claimed %.17g" what
        rep.Bufins.Eval.slack r.Dp.slack;
    if noise && not (Bufins.Eval.noise_clean rep) then
      failf "%s: claimed noise-clean winner violates %d margins (worst ratio %.3f)" what
        (List.length rep.Bufins.Eval.noise_violations)
        rep.Bufins.Eval.worst_noise_ratio;
    (* a buffered winner must have paid arena nodes for its trace;
       an unbuffered one on an insertion-free net legitimately pays
       none (the shared Leaf is preallocated) *)
    if r.Dp.stats.Dp.arena < 0 || (r.Dp.count > 0 && r.Dp.stats.Dp.arena = 0) then
      failf "%s: trace arena size %d for a %d-buffer winner" what r.Dp.stats.Dp.arena
        r.Dp.count
  in
  (match (Dp.run ?mutation ~noise:false ~mode:Dp.Single ~lib seg).Dp.best with
  | Some r -> check ~what:"delay winner" ~noise:false r
  | None -> failf "delay-mode DP returned no solution");
  (match (Dp.run ?mutation ~noise:true ~mode:Dp.Single ~lib seg).Dp.best with
  | Some r -> check ~what:"noise winner" ~noise:true r
  | None -> ());
  let o = Dp.run ?mutation ~noise:true ~mode:(Dp.Per_count 8) ~lib seg in
  Array.iteri
    (fun k -> function
      | None -> ()
      | Some (r : Dp.result) ->
          if r.Dp.count <> k then failf "bucket %d holds a %d-buffer solution" k r.Dp.count;
          check ~what:(Printf.sprintf "bucket-%d winner" k) ~noise:true r)
    o.Dp.by_count;
  Pass

(* The predictive-pruning oracle (DESIGN.md §12): the [`Predictive]
   engine must be indistinguishable from [`Sweep_only] on everything an
   optimizer returns — bit-equal slacks, identical placements and wire
   sizes, bucket-for-bucket equal by_count arrays — across delay and
   noise modes, Single and Per_count. Only the statistics may differ,
   and those in one direction: the predictive side materializes no more
   candidates than the sweep side, looks at no more than the sweep side
   generates, and both sides' drop accounting is conserved. A mutation
   is passed to BOTH sides, so an engine bug that breaks predictive and
   sweep-only runs identically is the other oracles' business; what this
   one catches is exactly divergence — e.g. [Loose_pred_bound]
   over-pruning the predictive side. *)
let pred_vs_sweep ?mutation (inst : Instance.t) =
  let lib = inst.Instance.lib in
  let seg = segmented inst in
  let check what ~noise ~mode =
    let p = Dp.run ?mutation ~pruning:`Predictive ~noise ~mode ~lib seg in
    let s = Dp.run ?mutation ~pruning:`Sweep_only ~noise ~mode ~lib seg in
    same_outcome (what ^ " predictive vs sweep") p s;
    let ps = p.Dp.stats and ss = s.Dp.stats in
    conserved (what ^ " predictive") ps;
    conserved (what ^ " sweep") ss;
    if ss.Dp.pred_pruned <> 0 then
      failf "%s: sweep side reports pred_pruned = %d" what ss.Dp.pred_pruned;
    if ps.Dp.generated > ss.Dp.generated then
      failf "%s: predictive materialized %d > sweep's %d" what ps.Dp.generated
        ss.Dp.generated;
    if Dp.considered ps > ss.Dp.generated then
      failf "%s: predictive considered %d > sweep generated %d" what (Dp.considered ps)
        ss.Dp.generated
  in
  (* every check runs, so a divergence in noise mode shows even where
     the delay checks already failed *)
  let failed =
    List.filter_map
      (fun (what, noise, mode) ->
        match check what ~noise ~mode with () -> None | exception Failed m -> Some m)
      [
        ("delay/single", false, Dp.Single);
        ("delay/per-count", false, Dp.Per_count 8);
        ("noise/single", true, Dp.Single);
        ("noise/per-count", true, Dp.Per_count 8);
      ]
  in
  if failed <> [] then failf "%s" (String.concat "; " failed);
  Pass

(* The count-front oracle (DESIGN.md §17): [Up_to k] drops every
   candidate that a same-parity one with fewer buffers dominates, and
   must still return, entry by entry and byte for byte, the strict
   count-slack front of [Per_count k]'s exact buckets — the counts whose
   best slack beats every lower count's — with the same [best], in
   delay and noise modes and under both candidate engines, which must
   also agree with each other. A mutation goes to every run. *)
let count_front ?mutation (inst : Instance.t) =
  let lib = inst.Instance.lib in
  let seg = segmented inst in
  let kmax = 8 in
  let strict_front (o : Dp.outcome) =
    let top = ref neg_infinity in
    {
      o with
      Dp.by_count =
        Array.map
          (function
            | Some (r : Dp.result) when r.Dp.slack > !top ->
                top := r.Dp.slack;
                Some r
            | Some _ | None -> None)
          o.Dp.by_count;
    }
  in
  let check noise =
    let tag = if noise then "noise" else "delay" in
    let up name pruning =
      let run mode = Dp.run ?mutation ~pruning ~noise ~mode ~lib seg in
      let o = run (Dp.Up_to kmax) in
      let s = o.Dp.stats in
      conserved (Printf.sprintf "%s/%s up-to" tag name) s;
      same_outcome
        (Printf.sprintf "%s/%s up-to vs per-count front" tag name)
        o
        (strict_front (run (Dp.Per_count kmax)));
      o
    in
    same_outcome (tag ^ " up-to pred vs sweep") (up "pred" `Predictive)
      (up "sweep" `Sweep_only)
  in
  (* both modes run, so a noise-mode divergence shows even where the
     delay check already failed *)
  let failed =
    List.filter_map
      (fun noise -> match check noise with () -> None | exception Failed m -> Some m)
      [ false; true ]
  in
  if failed <> [] then failf "%s" (String.concat "; " failed);
  Pass

(* The incremental-DP oracle (DESIGN.md §14): a deterministic schedule
   of edits — RAT nudges, wire rescalings, noise-environment flips — is
   replayed twice. The incremental side threads one resident
   {!Dp.Memo} per mode through every step and invalidates exactly what
   the serve daemon would: the edited node's path to the root for RAT
   and wire edits, the whole memo for a noise-environment change. The
   scratch side runs a fresh memo-less DP per step. Every step, in
   delay and noise mode alike, and in the noise-mode [Up_to] mode that
   the serve daemon's Problem 3 runs through its memo
   ({!Bufins.Buffopt.problem3}), the two must agree exactly — same
   feasibility, bit-equal slack, identical placements and wire sizes,
   for [best] and every [by_count] entry.
   The [Stale_memo] mutation never reports RAT and wire edits to the
   memo, so the tables computed for the old subtrees survive into the
   next run — exactly what this oracle exists to catch. *)
let incremental_vs_scratch ?mutation ~stale (inst : Instance.t) =
  let lib = inst.Instance.lib in
  let seg = segmented inst in
  let memo_d = Dp.Memo.create () and memo_n = Dp.Memo.create () in
  let memo_u = Dp.Memo.create () in
  let memos = [ memo_d; memo_n; memo_u ] in
  let dirty tree v = if not stale then List.iter (fun m -> Dp.Memo.dirty m tree v) memos in
  let check step tree =
    List.iter
      (fun (tag, noise, mode, memo) ->
        let inc = Dp.run ?mutation ~memo ~noise ~mode ~lib tree in
        let scr = Dp.run ?mutation ~noise ~mode ~lib tree in
        let what = Printf.sprintf "step %d %s" step tag in
        same_outcome (what ^ " incremental vs scratch") inc scr)
      [
        ("delay", false, Dp.Single, memo_d);
        ("noise", true, Dp.Single, memo_n);
        ("noise/up-to", true, Dp.Up_to 16, memo_u);
      ]
  in
  (* the edit schedule is a pure function of the instance, so corpus
     replays are deterministic *)
  let rng =
    Util.Rng.create ((31 * T.node_count seg) + Instance.sink_count inst)
  in
  let sinks = Array.of_list (T.sinks seg) in
  let rec non_root () =
    let v = Util.Rng.int rng (T.node_count seg) in
    if v = T.root seg then non_root () else v
  in
  let tree = ref seg in
  check 0 !tree;
  for step = 1 to 6 do
    (match Util.Rng.int rng 3 with
    | 0 ->
        (* RAT nudge on one sink *)
        let s = sinks.(Util.Rng.int rng (Array.length sinks)) in
        let rat =
          match T.kind !tree s with
          | T.Sink sk -> sk.T.rat
          | T.Source _ | T.Internal | T.Buffered _ -> assert false
        in
        tree := T.with_sink_rat !tree s ~rat:(rat *. Util.Rng.range rng 0.6 1.4);
        dirty !tree s
    | 1 ->
        (* rescale one wire's parasitics (a re-segmenting-style edit
           that keeps node ids stable) *)
        let v = non_root () in
        let f = Util.Rng.range rng 0.8 1.25 in
        tree :=
          T.map_wires !tree (fun u w ->
              if u = v then { w with T.res = w.T.res *. f; T.cap = w.T.cap *. f }
              else w);
        dirty !tree v
    | _ ->
        (* noise-environment flip: every coupled current scales, so
           every cached table is suspect — full invalidation *)
        let f = if Util.Rng.bool rng then 0.5 else 1.8 in
        tree := T.map_wires !tree (fun _ w -> { w with T.cur = w.T.cur *. f });
        List.iter Dp.Memo.clear memos);
    check step !tree
  done;
  Pass

(* {2 Power oracles (DESIGN.md §16)}

   The budget ladder is a pure function of the instance — anchored at
   the energy of the (unmutated) unconstrained delay optimum — so a
   corpus entry replays the exact same budgets. *)

let power_kmax = 8

(* The Bad_power_bound mutation hands the engine a budget inflated by a
   quarter and judges its answer against the real one, so over-budget
   solutions leak through for the power oracles to catch. *)
let engine_budget ~leak budget = if leak then budget *. 1.25 else budget

let power_ladder ~lib seg =
  let un = Option.get (Dp.run ~noise:false ~mode:(Dp.Up_to power_kmax) ~lib seg).Dp.best in
  let e = un.Dp.energy in
  let cheapest =
    List.fold_left
      (fun acc (b : Tech.Buffer.t) -> Float.min acc b.Tech.Buffer.energy)
      infinity lib
  in
  let priciest =
    List.fold_left
      (fun acc (b : Tech.Buffer.t) -> Float.max acc b.Tech.Buffer.energy)
      0.0 lib
  in
  let generous = (float_of_int power_kmax *. priciest) +. e in
  (un, [ 0.0; cheapest *. 0.99; e *. 0.5; e; generous ])

(* accumulated frontier energy and the placement-list sum take different
   addition orders, so the budget check leaves one part in 2^52 of
   rounding headroom *)
let fits_budget energy budget = energy <= budget +. (Float.abs budget *. 1e-12) +. 1e-27

let check_energy ~what (r : Dp.result) =
  let sum = Bufins.Buffopt.placements_energy r.Dp.placements in
  if not (approx r.Dp.energy sum) then
    failf "%s: frontier energy %.17g differs from the placements' sum %.17g" what
      r.Dp.energy sum;
  if r.Dp.energy < 0.0 then failf "%s: negative solution energy %.17g" what r.Dp.energy;
  if r.Dp.count = 0 && r.Dp.energy <> 0.0 then
    failf "%s: zero-buffer solution carries energy %.17g" what r.Dp.energy

let power_vs_brute ?mutation ~leak (inst : Instance.t) =
  let lib = inst.Instance.lib in
  let seg = segmented inst in
  if brute_cost lib seg > brute_budget then Skip "brute force intractable"
  else begin
    let kmax = max power_kmax (List.length (feasible_nodes seg)) in
    let _, budgets = power_ladder ~lib seg in
    List.iter
      (fun budget ->
        let outcome =
          Dp.run ?mutation ~noise:false
            ~mode:(Dp.Power_bounded { budget = engine_budget ~leak budget; kmax })
            ~lib seg
        in
        let r =
          match outcome.Dp.best with
          | Some r -> r
          | None -> failf "power DP returned no solution at budget %.17g" budget
        in
        ignore
          (must_hold ~what:"power solution" ~expect:(dp_expect r ~noise_clean:false) seg
             r.Dp.placements);
        check_energy ~what:"power winner" r;
        if not (fits_budget r.Dp.energy budget) then
          failf "winner energy %.17g exceeds the budget %.17g" r.Dp.energy budget;
        match Bufins.Brute.best_slack_power ~budget ~lib seg with
        | None -> failf "brute: no budget-feasible assignment (unbuffered should qualify)"
        | Some (best, _, _) ->
            if not (approx best r.Dp.slack) then
              failf "power slack %.17g at budget %.17g disagrees with brute optimum %.17g"
                r.Dp.slack budget best)
      budgets;
    Pass
  end

let energy_conservation ?mutation (inst : Instance.t) =
  let lib = inst.Instance.lib in
  let seg = segmented inst in
  let stats_ok ~what ~power (s : Dp.stats) =
    conserved what s;
    if s.Dp.power_pruned < 0 then failf "%s: power_pruned = %d" what s.Dp.power_pruned;
    if (not power) && s.Dp.power_pruned <> 0 then
      failf "%s: non-power run reports power_pruned = %d" what s.Dp.power_pruned
  in
  let outcome_ok ~what ~power (o : Dp.outcome) =
    (match o.Dp.best with
    | Some r -> check_energy ~what:(what ^ " best") r
    | None -> ());
    Array.iteri
      (fun k -> function
        | None -> ()
        | Some (r : Dp.result) ->
            check_energy ~what:(Printf.sprintf "%s bucket %d" what k) r)
      o.Dp.by_count;
    stats_ok ~what ~power o.Dp.stats
  in
  outcome_ok ~what:"delay/single" ~power:false
    (Dp.run ?mutation ~noise:false ~mode:Dp.Single ~lib seg);
  outcome_ok ~what:"noise/single" ~power:false
    (Dp.run ?mutation ~noise:true ~mode:Dp.Single ~lib seg);
  outcome_ok ~what:"noise/per-count" ~power:false
    (Dp.run ?mutation ~noise:true ~mode:(Dp.Per_count 6) ~lib seg);
  let un, _ = power_ladder ~lib seg in
  let budget = un.Dp.energy *. 0.5 in
  outcome_ok ~what:"power" ~power:true
    (Dp.run ?mutation ~noise:false
       ~mode:(Dp.Power_bounded { budget; kmax = power_kmax })
       ~lib seg);
  Pass

let power_monotonicity ?mutation ~leak (inst : Instance.t) =
  let lib = inst.Instance.lib in
  let seg = segmented inst in
  let un, budgets = power_ladder ~lib seg in
  let prev = ref neg_infinity in
  List.iter
    (fun budget ->
      let outcome =
        Dp.run ?mutation ~noise:false
          ~mode:(Dp.Power_bounded { budget = engine_budget ~leak budget; kmax = power_kmax })
          ~lib seg
      in
      let r =
        match outcome.Dp.best with
        | Some r -> r
        | None -> failf "power DP returned no solution at budget %.17g" budget
      in
      if not (fits_budget r.Dp.energy budget) then
        failf "winner energy %.17g exceeds the budget %.17g" r.Dp.energy budget;
      if r.Dp.slack < !prev then
        failf "slack regressed under a larger budget: %.17g after %.17g at budget %.17g"
          r.Dp.slack !prev budget;
      prev := r.Dp.slack)
    budgets;
  (* the generous final budget is unconstrained: the Per_count optimum
     (same kmax, same engine arithmetic) must be reproduced bit-for-bit *)
  let reference = Dp.run ?mutation ~noise:false ~mode:(Dp.Per_count power_kmax) ~lib seg in
  (match (reference.Dp.best, !prev) with
  | Some b, s when b.Dp.slack <> s ->
      failf "unconstrained-budget slack %.17g differs from Per_count optimum %.17g" s
        b.Dp.slack
  | None, _ -> failf "Per_count reference returned no solution"
  | Some _, _ -> ());
  ignore un;
  Pass

(* {2 Parser round-trip oracle}

   No optimizer runs here: the system under test is the ingest front
   end. The instance contributes only entropy — a seed hashed from its
   content — so a corpus entry replays the exact same designs,
   libraries and text mutations. *)

let content_seed (inst : Instance.t) =
  (* FNV-1a over the fields that define the instance *)
  let tree = inst.Instance.tree in
  let h = ref 0xcbf29ce484222325L in
  let mix64 b = h := Int64.mul (Int64.logxor !h b) 0x100000001b3L in
  let mixi i = mix64 (Int64.of_int i) in
  let mixf f = mix64 (Int64.bits_of_float f) in
  mixi (T.node_count tree);
  List.iter
    (fun v ->
      mixi v;
      if v <> T.root tree then begin
        let w = T.wire_to tree v in
        mixf w.T.length;
        mixf w.T.res;
        mixf w.T.cap
      end;
      match T.kind tree v with
      | T.Sink s ->
          mixf s.T.rat;
          mixf s.T.c_sink;
          mixf s.T.nm
      | T.Source _ | T.Internal | T.Buffered _ -> ())
    (T.postorder tree);
  List.iter (fun (b : Tech.Buffer.t) -> mixf b.Tech.Buffer.c_in) inst.Instance.lib;
  mixf inst.Instance.seg_len;
  Int64.to_int (Int64.shift_right_logical !h 2)

(* One deterministic adversarial edit of a rendered file. *)
let mutate_text rng s =
  let n = String.length s in
  match Util.Rng.int rng 4 with
  | 0 -> String.sub s 0 (Util.Rng.int rng (n + 1))
  | 1 ->
      let p = Util.Rng.int rng (n + 1) in
      String.sub s 0 p ^ "\x01 ~junk 1e999 ( .model (" ^ String.sub s p (n - p)
  | 2 ->
      let lines = String.split_on_char '\n' s in
      let k = Util.Rng.int rng (List.length lines) in
      let dup = List.nth lines k in
      String.concat "\n"
        (List.concat (List.mapi (fun i l -> if i = k then [ l; dup ] else [ l ]) lines))
  | _ ->
      let p = Util.Rng.int rng (n + 1) in
      let len = min (n - p) (Util.Rng.int rng 64) in
      String.sub s 0 p ^ String.sub s (p + len) (n - p - len)

let located ~path m =
  let p = path ^ ":" in
  String.length m >= String.length p && String.sub m 0 (String.length p) = p

(* Feed [rounds] mutants of [text] to [parse] (which returns [Some msg]
   for the parser's own located error, [None] for a clean parse, and
   lets anything else escape). Every mutant must land in one of the
   first two buckets, with the error anchored at [path]. *)
let battery rng ~what ~path ~rounds parse text =
  for _ = 1 to rounds do
    let mutant = mutate_text rng text in
    match parse mutant with
    | None -> ()
    | Some m ->
        if not (located ~path m) then
          failf "%s: parse error not located at %s: %s" what path m
    | exception e -> failf "%s: parser escaped with %s" what (Printexc.to_string e)
  done

let parser_roundtrip ?mutation (inst : Instance.t) =
  match mutation with
  | Some _ -> Skip "parser oracle: no DP engine under test"
  | None ->
      let rng = Util.Rng.create (content_seed inst) in
      (* netfmt: rendering is a fixpoint through of_string *)
      let design = Gen.random_design rng in
      let ntext = Sta.Netfmt.to_string design in
      let ntext' = Sta.Netfmt.to_string (Sta.Netfmt.of_string ntext) in
      if ntext' <> ntext then failf "netfmt round-trip is not a fixpoint";
      (* liberty: buffers exact, cells a prefix, nothing warned about *)
      let cells = Gen.random_cells rng in
      let buffers = Gen.random_buffers rng in
      let ltext = Ingest.Liberty.to_string ~name:"fuzz" ~buffers cells in
      let lib = Ingest.Liberty.of_string ltext in
      if lib.Ingest.Liberty.buffers <> buffers then
        failf "liberty round-trip changed the buffer library";
      let prefix =
        List.filteri (fun i _ -> i < List.length cells) lib.Ingest.Liberty.cells
      in
      if prefix <> cells then failf "liberty round-trip changed the cells";
      if lib.Ingest.Liberty.warnings <> 0 then
        failf "liberty round-trip warned %d times on its own output"
          lib.Ingest.Liberty.warnings;
      (* blif: text fixpoint, and re-elaboration is deterministic *)
      let blif = Ingest.Elab.blif_of_design design in
      let btext = Ingest.Blif.to_string blif in
      let blif' = Ingest.Blif.of_string btext in
      if Ingest.Blif.to_string blif' <> btext then
        failf "blif round-trip is not a fixpoint";
      let elab b = Sta.Netfmt.to_string (fst (Ingest.Elab.design_of_blif b)) in
      if elab blif <> elab blif' then
        failf "blif round-trip changed the elaborated design";
      (* malformed-input battery over every rendered format *)
      battery rng ~what:"netfmt" ~path:"f.net" ~rounds:8
        (fun s ->
          match Sta.Netfmt.of_string ~path:"f.net" s with
          | _ -> None
          | exception Sta.Netfmt.Parse m -> Some m)
        ntext;
      battery rng ~what:"liberty" ~path:"f.lib" ~rounds:8
        (fun s ->
          match Ingest.Liberty.of_string ~path:"f.lib" s with
          | _ -> None
          | exception Ingest.Liberty.Parse m -> Some m)
        ltext;
      battery rng ~what:"blif" ~path:"f.blif" ~rounds:8
        (fun s ->
          match Ingest.Elab.design_of_blif (Ingest.Blif.of_string ~path:"f.blif" s) with
          | _ -> None
          | exception Ingest.Blif.Parse m -> Some m
          | exception Ingest.Elab.Error m -> Some m)
        btext;
      Pass

(* {2 Transient solver oracle}

   Noisesim's stage decks on the forest LDL^T solver against the dense
   LU reference. No optimizer is under test; the instance's content
   seeds the deck variants, so a corpus entry replays the same decks. *)

let transient_tol = 1e-9

let transient_disagreement ?density cfg tree =
  let worst a b =
    let d = ref 0.0 in
    Array.iteri (fun i x -> d := Float.max !d (Float.abs (x -. b.(i)))) a;
    !d
  in
  let peaks (res : Circuit.Transient.result) (deck : Noisesim.Deck.t) =
    List.mapi
      (fun i (leaf, _) -> (leaf, res.Circuit.Transient.peaks.(i)))
      deck.Noisesim.Deck.probes
  in
  match
    List.split
      (List.map
         (fun g ->
           let deck = Noisesim.Deck.of_stage ?density cfg tree ~gate:g in
           let dt, t_end = Noisesim.Deck.window cfg deck in
           let sim f =
             f ?record:(Some true) deck.Noisesim.Deck.netlist ~dt ~t_end
               ~probes:(List.map snd deck.Noisesim.Deck.probes)
           in
           let fast = sim Circuit.Transient.simulate in
           let dense = sim Circuit.Transient.simulate_dense in
           if fast.Circuit.Transient.solver <> Circuit.Transient.Forest then
             failf "stage %d: an RC stage deck missed the forest solver" g;
           let traces (r : Circuit.Transient.result) =
             match r.Circuit.Transient.traces with
             | Some t -> t
             | None -> failf "stage %d: traces not recorded" g
           in
           Array.iteri
             (fun p tr ->
               let d = worst tr (traces dense).(p) in
               if d > transient_tol then
                 failf "stage %d probe %d: forest trace differs from dense by %.3g V" g p d)
             (traces fast);
           let d = worst fast.Circuit.Transient.finals dense.Circuit.Transient.finals in
           if d > transient_tol then
             failf "stage %d: forest finals differ from dense by %.3g V" g d;
           (* the early exit must not move a peak by a single bit *)
           let full = peaks fast deck in
           List.iter2
             (fun (leaf, early) (_, whole) ->
               if Int64.bits_of_float early <> Int64.bits_of_float whole then
                 failf "stage %d leaf %d: early-exit peak %h, full window %h" g leaf early
                   whole)
             (Noisesim.Deck.peak_noise cfg deck)
             full;
           (full, peaks dense deck))
         (T.gates tree))
  with
  | exception Failed m -> Some m
  | fast, dense ->
      let verdict peaks =
        let r = Noisesim.Verify.of_peaks tree (List.concat peaks) in
        Printf.sprintf "sim %d metric %d bound %b" r.Noisesim.Verify.sim_violations
          r.Noisesim.Verify.metric_violations r.Noisesim.Verify.bound_ok
      in
      let f = verdict fast and d = verdict dense in
      if f = d then None
      else Some (Printf.sprintf "Verify verdicts differ: forest %s, dense %s" f d)

(* Aggressor spans over about half the wires: one to three each, from
   three slopes, so a deck carries several ramp sources. *)
let random_spans rng tree =
  let slope = Gen.process.Tech.Process.vdd /. Gen.process.Tech.Process.t_rise in
  List.filter_map
    (fun v ->
      let len = if v = T.root tree then 0.0 else (T.wire_to tree v).T.length in
      if len <= 0.0 || Util.Rng.bool rng then None
      else
        Some
          ( v,
            List.init
              (1 + Util.Rng.int rng 3)
              (fun _ ->
                let near = Util.Rng.range rng 0.0 (0.8 *. len) in
                {
                  Coupling.near;
                  far = Util.Rng.range rng (near +. (0.1 *. len)) len;
                  lambda = Util.Rng.range rng 0.05 0.3;
                  slope = slope *. Util.Rng.choice rng [| 0.5; 1.0; 2.0 |];
                }) ))
    (T.postorder tree)

let transient_tree_vs_dense ?mutation (inst : Instance.t) =
  match mutation with
  | Some _ -> Skip "transient oracle: no DP engine under test"
  | None -> (
      let rng = Util.Rng.create (content_seed inst) in
      let n_seg = 1 + Util.Rng.int rng 16 in
      let cfg = { (Noisesim.Deck.default_config Gen.process) with Noisesim.Deck.n_seg } in
      let coupled = Util.Rng.bool rng and buffered = Util.Rng.bool rng in
      let seg_len = inst.Instance.seg_len and lib = inst.Instance.lib in
      let density, tree =
        if coupled then
          let ann =
            Coupling.annotate inst.Instance.tree ~spans:(random_spans rng inst.Instance.tree)
          in
          let ann =
            match
              if buffered then
                Bufins.Buffopt.optimize_coupled ~seg_len Bufins.Buffopt.Buffopt ~lib ann
              else None
            with
            | Some (_, ann') -> ann'
            | None -> Coupling.refine ann ~max_len:seg_len
          in
          (Some (Coupling.density ann), Coupling.tree ann)
        else
          ( None,
            match
              if buffered then
                Bufins.Buffopt.optimize ~seg_len Bufins.Buffopt.Buffopt ~lib inst.Instance.tree
              else None
            with
            | Some run -> run.Bufins.Buffopt.report.Bufins.Eval.tree
            | None -> segmented inst )
      in
      match transient_disagreement ?density cfg tree with
      | None -> Pass
      | Some m ->
          failf "n_seg %d, %s, %s: %s" n_seg
            (if coupled then "multi-aggressor" else "estimation mode")
            (if buffered then "buffered" else "unbuffered")
            m)

let run ?mutation:m (inst : Instance.t) =
  let mutation = engine_mutation m in
  let stale = m = Some Stale_memo and leak = m = Some Bad_power_bound in
  let tag v =
    match v with
    | Fail m -> Fail (Printf.sprintf "[%s] %s" (Instance.oracle_name inst.Instance.oracle) m)
    | v -> v
  in
  match
    match inst.Instance.oracle with
    | Instance.Vangin_vs_brute -> vangin_vs_brute ?mutation inst
    | Instance.Alg3_vs_brute -> alg3_vs_brute ?mutation inst
    | Instance.Alg1_vs_alg2 -> alg1_vs_alg2 inst
    | Instance.Alg3_vs_vangin -> alg3_vs_vangin ?mutation inst
    | Instance.Buffopt_problem3 -> buffopt_problem3 ?mutation inst
    | Instance.Dp_invariants -> dp_invariants ?mutation inst
    | Instance.Dp_trace -> dp_trace ?mutation inst
    | Instance.Pred_vs_sweep -> pred_vs_sweep ?mutation inst
    | Instance.Incremental_vs_scratch -> incremental_vs_scratch ?mutation ~stale inst
    | Instance.Parser_roundtrip -> parser_roundtrip ?mutation:m inst
    | Instance.Power_vs_brute -> power_vs_brute ?mutation ~leak inst
    | Instance.Energy_conservation -> energy_conservation ?mutation inst
    | Instance.Power_monotonicity -> power_monotonicity ?mutation ~leak inst
    | Instance.Transient_tree_vs_dense -> transient_tree_vs_dense ?mutation:m inst
    | Instance.Count_front -> count_front ?mutation inst
  with
  | v -> tag v
  | exception Failed m -> tag (Fail m)
  | exception e ->
      (* an optimizer crash is a counterexample too; Pool bodies must not raise *)
      tag (Fail (Printf.sprintf "exception: %s" (Printexc.to_string e)))

let fails ?mutation inst =
  match run ?mutation inst with Fail m -> Some m | Pass | Skip _ -> None
