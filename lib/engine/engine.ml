module Pool = Pool

type 'a outcome =
  | Done of 'a
  | Failed of { error : string }

type timing = {
  domains : int;
  wall_s : float;
  jobs_per_s : float;
  lat_min_s : float;
  lat_mean_s : float;
  lat_max_s : float;
  sched : Pool.stats;
}

exception Infeasible of string

let describe = function
  | Infeasible msg -> msg
  | e -> Printexc.to_string e

let map ?domains ?pool ?chunk ?costs f xs =
  let domains =
    match (domains, pool) with
    | Some d, _ -> d
    | None, Some p -> Pool.size p
    | None, None -> Pool.default_domains ()
  in
  let input = Array.of_list xs in
  let n = Array.length input in
  let domains = max 1 (min domains (max 1 n)) in
  let out = Array.make n (Failed { error = "never ran" }) in
  let lat = Array.make n 0.0 in
  let one i =
    match f input.(i) with v -> Done v | exception e -> Failed { error = describe e }
  in
  let t0 = Util.Clock.now () in
  (* Workers append (index, outcome, latency) to a buffer that lives in
     their own minor heap — the shared [out] / [lat] arrays are written
     only after the join, by the calling domain, so concurrent workers
     never store into adjacent cells of one unboxed float array (false
     sharing). The merge is by index, hence deterministic. *)
  let buffers, sched =
    Pool.run ~domains ?pool ?chunk ?costs ~n
      ~init:(fun _ -> ref [])
      (fun acc i ->
        let j0 = Util.Clock.now () in
        let o = one i in
        acc := (i, o, Util.Clock.now () -. j0) :: !acc)
  in
  Array.iter
    (fun acc ->
      List.iter
        (fun (i, o, l) ->
          out.(i) <- o;
          lat.(i) <- l)
        !acc)
    buffers;
  let wall = Util.Clock.now () -. t0 in
  let lmin = Array.fold_left Float.min infinity lat in
  let lmax = Array.fold_left Float.max neg_infinity lat in
  let lsum = Array.fold_left ( +. ) 0.0 lat in
  ( out,
    {
      domains;
      wall_s = wall;
      jobs_per_s = (if wall > 0.0 then float_of_int n /. wall else 0.0);
      lat_min_s = (if n = 0 then 0.0 else lmin);
      lat_mean_s = (if n = 0 then 0.0 else lsum /. float_of_int n);
      lat_max_s = (if n = 0 then 0.0 else lmax);
      sched;
    } )

(* ------------------------------------------------------------------ *)
(* Batch BuffOpt                                                       *)

type job = Steiner.Net.t * Rctree.Tree.t

type net_result = {
  net : string;
  outcome : Bufins.Buffopt.run outcome;
}

type report = {
  results : net_result array;
  ok : int;
  failed : int;
  buffers : int;
  energy : float;
  worst_slack : float;
  dp : Bufins.Dp.stats;
  timing : timing;
}

let optimize ?domains ?pool ?chunk ?seg_len ?kmax ~algorithm ~lib jobs =
  let one (net, tree) =
    match Bufins.Buffopt.optimize ?seg_len ?kmax algorithm ~lib tree with
    | Some r -> r
    | None ->
        raise
          (Infeasible
             (Printf.sprintf "no noise-feasible solution for net %s"
                net.Steiner.Net.nname))
  in
  (* chunk sizing and shard balance key off estimated per-net cost; the
     DP's work grows with the sink count, so the net's degree is the
     cheap proxy that keeps domains finishing together *)
  let costs =
    Array.of_list (List.map (fun (net, _) -> Steiner.Net.degree net) jobs)
  in
  let outcomes, timing = map ?domains ?pool ?chunk ~costs one jobs in
  let names = Array.of_list (List.map (fun (n, _) -> n.Steiner.Net.nname) jobs) in
  let results = Array.mapi (fun i outcome -> { net = names.(i); outcome }) outcomes in
  (* merge in job order: the aggregate is independent of scheduling *)
  let ok = ref 0 and failed = ref 0 and buffers = ref 0 in
  let energy = ref 0.0 in
  let worst = ref infinity in
  let gen = ref 0 and pruned = ref 0 and pred = ref 0 and ppruned = ref 0 and peak = ref 0 in
  let cpruned = ref 0 in
  let arena = ref 0 and minor = ref 0.0 in
  Array.iter
    (fun { outcome; _ } ->
      match outcome with
      | Done (r : Bufins.Buffopt.run) ->
          incr ok;
          buffers := !buffers + r.Bufins.Buffopt.count;
          energy := !energy +. r.Bufins.Buffopt.energy;
          worst := Float.min !worst r.Bufins.Buffopt.predicted_slack;
          let s = r.Bufins.Buffopt.stats in
          gen := !gen + s.Bufins.Dp.generated;
          pruned := !pruned + s.Bufins.Dp.pruned;
          pred := !pred + s.Bufins.Dp.pred_pruned;
          ppruned := !ppruned + s.Bufins.Dp.power_pruned;
          cpruned := !cpruned + s.Bufins.Dp.count_pruned;
          peak := max !peak s.Bufins.Dp.peak_width;
          arena := !arena + s.Bufins.Dp.arena;
          minor := !minor +. s.Bufins.Dp.minor_words
      | Failed _ -> incr failed)
    results;
  {
    results;
    ok = !ok;
    failed = !failed;
    buffers = !buffers;
    energy = !energy;
    worst_slack = !worst;
    dp =
      {
        Bufins.Dp.generated = !gen;
        pruned = !pruned;
        pred_pruned = !pred;
        power_pruned = !ppruned;
        count_pruned = !cpruned;
        peak_width = !peak;
        arena = !arena;
        minor_words = !minor;
      };
    timing;
  }

let failed_nets r =
  Array.to_list r.results
  |> List.filter_map (fun { net; outcome } ->
         match outcome with Failed _ -> Some net | Done _ -> None)

let signature r =
  (* determinism contract: only verdict fields — never timing and never
     the Gc words *)
  let b = Buffer.create (64 * (Array.length r.results + 1)) in
  Array.iter
    (fun { net; outcome } ->
      match outcome with
      | Done (run : Bufins.Buffopt.run) ->
          let s = run.Bufins.Buffopt.stats in
          Printf.bprintf b "%s ok count=%d slack=%.17g energy=%.17g dp=%d/%d/%d/%d\n" net
            run.Bufins.Buffopt.count run.Bufins.Buffopt.predicted_slack
            run.Bufins.Buffopt.energy s.Bufins.Dp.generated s.Bufins.Dp.pruned
            s.Bufins.Dp.pred_pruned s.Bufins.Dp.peak_width
      | Failed { error } -> Printf.bprintf b "%s FAILED %s\n" net error)
    r.results;
  Printf.bprintf b
    "aggregate ok=%d failed=%d buffers=%d energy=%.17g worst=%.17g dp=%d/%d/%d/%d\n" r.ok
    r.failed r.buffers r.energy r.worst_slack r.dp.Bufins.Dp.generated
    r.dp.Bufins.Dp.pruned r.dp.Bufins.Dp.pred_pruned r.dp.Bufins.Dp.peak_width;
  Buffer.contents b

let sched_line (s : Pool.stats) =
  if s.Pool.workers = 0 then "no work"
  else
    let u = Pool.utilization s in
    let umin = Array.fold_left Float.min infinity u in
    let umax = Array.fold_left Float.max 0.0 u in
    let umean = Array.fold_left ( +. ) 0.0 u /. float_of_int s.Pool.workers in
    Printf.sprintf "%d chunks, %d stolen, util %.2f/%.2f/%.2f min/mean/max"
      s.Pool.chunks
      (Array.fold_left ( + ) 0 s.Pool.steals)
      umin umean umax

let summary r =
  let t = r.timing in
  Printf.sprintf
    "batch: %d nets optimized, %d infeasible/failed | %d buffers, %.1f fJ \
     buffer energy | worst \
     predicted slack %s | %d domains, %.3f s wall (%.1f nets/s), per-net \
     %.2f/%.2f/%.2f ms min/mean/max | sched %s | dp %d generated, %d \
     pred-pruned, alloc %.1f Mwords minor, %d trace nodes"
    r.ok r.failed r.buffers (r.energy *. 1e15)
    (* every net failed: there is no worst slack, and printing the nan
       that Float.min infinity produces reads like a computed value *)
    (if r.ok = 0 then "n/a" else Printf.sprintf "%.1f ps" (r.worst_slack *. 1e12))
    t.domains t.wall_s t.jobs_per_s (t.lat_min_s *. 1e3) (t.lat_mean_s *. 1e3)
    (t.lat_max_s *. 1e3) (sched_line t.sched) r.dp.Bufins.Dp.generated
    r.dp.Bufins.Dp.pred_pruned
    (r.dp.Bufins.Dp.minor_words /. 1e6)
    r.dp.Bufins.Dp.arena
