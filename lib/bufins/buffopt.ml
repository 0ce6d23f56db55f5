(* Problem 3's pick from a noise-mode [Up_to] outcome *)
let pick_problem3 (outcome : Dp.outcome) =
  let candidates = List.filter_map Fun.id (Array.to_list outcome.Dp.by_count) in
  (* the first of the candidates that [better] prefers to every other *)
  let pick better = function
    | [] -> None
    | r :: rs -> Some (List.fold_left (fun acc r -> if better r acc then r else acc) r rs)
  in
  match List.filter (fun (r : Dp.result) -> r.Dp.slack >= 0.0) candidates with
  | _ :: _ as timing ->
      (* fewest buffers meeting timing; slack breaks ties *)
      pick
        (fun (r : Dp.result) (acc : Dp.result) ->
          r.Dp.count < acc.Dp.count
          || (r.Dp.count = acc.Dp.count && r.Dp.slack > acc.Dp.slack))
        timing
  | [] ->
      (* timing unreachable: fall back to the maximum-slack solution *)
      pick
        (fun (r : Dp.result) (acc : Dp.result) ->
          r.Dp.slack > acc.Dp.slack
          || (r.Dp.slack = acc.Dp.slack && r.Dp.count < acc.Dp.count))
        candidates

let problem3 ~kmax ~lib tree =
  pick_problem3 (Dp.run ~noise:true ~mode:(Dp.Up_to kmax) ~lib tree)

type algorithm =
  | Buffopt
  | Delayopt of int
  | Alg3_max_slack
  | Vangin_max_slack
  | Power_bounded of float

type run = {
  report : Eval.report;
  placements : Rctree.Surgery.placement list;
  count : int;
  predicted_slack : float;
  energy : float;
  segmented : Rctree.Tree.t;
  stats : Dp.stats;
}

let solve_segmented ?kmax:(km = 16) ?pruning ?memo algorithm ~lib seg =
  let dp ~noise mode = Dp.run ?pruning ?memo ~noise ~mode ~lib seg in
  match algorithm with
  | Buffopt -> (
      match pick_problem3 (dp ~noise:true (Dp.Up_to km)) with
      | Some _ as r -> r
      | None ->
          (* the net may simply need more than kmax buffers: fall back
             to the unbounded Problem 2 search before giving up *)
          (dp ~noise:true Dp.Single).Dp.best)
  | Delayopt k -> (dp ~noise:false (Dp.Up_to k)).Dp.best
  | Alg3_max_slack -> (dp ~noise:true Dp.Single).Dp.best
  | Vangin_max_slack -> (dp ~noise:false Dp.Single).Dp.best
  | Power_bounded budget ->
      (dp ~noise:false (Dp.Power_bounded { budget; kmax = km })).Dp.best

(* the run reporting [report] for solution [r] on the segmented tree *)
let run_of ~report seg (r : Dp.result) =
  {
    report;
    placements = r.Dp.placements;
    count = r.Dp.count;
    predicted_slack = r.Dp.slack;
    energy = r.Dp.energy;
    segmented = seg;
    stats = r.Dp.stats;
  }

(* [solve] at [seg_len], then at half of it, at most twice more, until
   it finds a solution *)
let halving seg_len solve =
  let rec go retries seg_len =
    match solve seg_len with
    | None when retries > 0 -> go (retries - 1) (seg_len /. 2.0)
    | found -> found
  in
  go 2 seg_len

let optimize_prepared ?kmax ?pruning ?memo algorithm ~lib seg =
  Option.map
    (fun (r : Dp.result) -> run_of ~report:(Eval.apply seg r.Dp.placements) seg r)
    (solve_segmented ?kmax ?pruning ?memo algorithm ~lib seg)

let optimize ?(seg_len = 500e-6) ?(kmax = 16) algorithm ~lib tree =
  halving seg_len (fun seg_len ->
      optimize_prepared ~kmax algorithm ~lib
        (Rctree.Segment.refine tree ~max_len:seg_len))

let placements_energy ps =
  List.fold_left
    (fun acc (p : Rctree.Surgery.placement) -> acc +. p.Rctree.Surgery.buffer.Tech.Buffer.energy)
    0.0 ps

let optimize_coupled ?(seg_len = 500e-6) ?(kmax = 16) algorithm ~lib ann =
  halving seg_len (fun seg_len ->
      let seg_ann = Coupling.refine ann ~max_len:seg_len in
      let seg = Coupling.tree seg_ann in
      Option.map
        (fun (r : Dp.result) ->
          let buffered = Coupling.buffered seg_ann r.Dp.placements in
          (run_of ~report:(Eval.of_tree (Coupling.tree buffered)) seg r, buffered))
        (solve_segmented ~kmax algorithm ~lib seg))
