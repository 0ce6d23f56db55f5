open Helpers
module T = Rctree.Tree

(* The headline claims of Section V, checked end-to-end on a reduced
   workload: net generation -> Steiner -> segmenting -> optimization ->
   independent evaluation -> transient simulation. *)

let bench = lazy (Workload.trees process (Workload.generate { Workload.default_config with nets = 40 }))

let tests =
  [
    case "buffopt fixes every noise violation (metric)" (fun () ->
        List.iter
          (fun (_, tree) ->
            match Bufins.Buffopt.optimize Bufins.Buffopt.Buffopt ~lib tree with
            | Some r ->
                Alcotest.(check int) "clean" 0
                  (List.length r.Bufins.Buffopt.report.Bufins.Eval.noise_violations)
            | None -> Alcotest.fail "infeasible net")
          (Lazy.force bench));
    case "buffopt solutions are simulation-clean (3dnoise role)" (fun () ->
        (* the expensive cross-check on a subset *)
        List.iteri
          (fun i (_, tree) ->
            if i < 8 then
              match Bufins.Buffopt.optimize Bufins.Buffopt.Buffopt ~lib tree with
              | Some r ->
                  let v = Noisesim.Verify.net process r.Bufins.Buffopt.report.Bufins.Eval.tree in
                  Alcotest.(check int) "sim clean" 0 v.Noisesim.Verify.sim_violations;
                  Alcotest.(check bool) "bound holds" true v.Noisesim.Verify.bound_ok
              | None -> Alcotest.fail "infeasible net")
          (Lazy.force bench));
    case "theorem 2: delay-optimal buffering can leave noise violations" (fun () ->
        (* the paper's Table III finding: even DelayOpt(4) leaves
           violations on a population BuffOpt fully repairs *)
        let offender =
          List.exists
            (fun (_, tree) ->
              match Bufins.Buffopt.optimize (Bufins.Buffopt.Delayopt 4) ~lib tree with
              | Some r -> not (Bufins.Eval.noise_clean r.Bufins.Buffopt.report)
              | None -> false)
            (Lazy.force bench)
        in
        Alcotest.(check bool) "at least one offender in 40 nets" true offender);
    case "noise-aware delay penalty stays small" (fun () ->
        let penalties =
          List.filter_map
            (fun (_, tree) ->
              match Bufins.Buffopt.optimize Bufins.Buffopt.Buffopt ~lib tree with
              | Some bo when bo.Bufins.Buffopt.count > 0 -> (
                  let seg = bo.Bufins.Buffopt.segmented in
                  let base = (Bufins.Eval.of_tree seg).Bufins.Eval.worst_delay in
                  let by =
                    (Bufins.Dp.run ~noise:false ~mode:(Bufins.Dp.Per_count 16) ~lib seg)
                      .Bufins.Dp.by_count
                  in
                  match by.(bo.Bufins.Buffopt.count) with
                  | Some d ->
                      let dly =
                        (Bufins.Eval.apply seg d.Bufins.Dp.placements).Bufins.Eval.worst_delay
                      in
                      let red_bo = base -. bo.Bufins.Buffopt.report.Bufins.Eval.worst_delay in
                      let red_dl = base -. dly in
                      if red_dl > 1e-12 then Some ((red_dl -. red_bo) /. red_dl) else None
                  | None -> None)
              | Some _ | None -> None)
            (Lazy.force bench)
        in
        let avg = List.fold_left ( +. ) 0.0 penalties /. float_of_int (List.length penalties) in
        Alcotest.(check bool) "some pairs measured" true (List.length penalties > 5);
        Alcotest.(check bool) "below 5 percent (paper: 2)" true (avg < 0.05));
    case "metric is conservative: flags at least the simulated set" (fun () ->
        List.iteri
          (fun i (_, tree) ->
            if i < 8 then begin
              let seg = Rctree.Segment.refine tree ~max_len:500e-6 in
              let v = Noisesim.Verify.net process seg in
              Alcotest.(check bool) "metric >= sim count" true
                (v.Noisesim.Verify.metric_violations >= v.Noisesim.Verify.sim_violations)
            end)
          (Lazy.force bench));
    case "alg2 also clears the workload (problem 1 path)" (fun () ->
        List.iter
          (fun (_, tree) ->
            let r = Bufins.Alg2.run ~lib tree in
            Alcotest.(check bool) "clean" true
              (Bufins.Eval.noise_clean (Bufins.Eval.apply tree r.Bufins.Alg2.placements)))
          (Lazy.force bench));
    case "alg2 never uses more buffers than buffopt" (fun () ->
        (* continuous placement (Problem 1) lower-bounds the discrete
           noise-constrained solution at any timing target *)
        List.iter
          (fun (_, tree) ->
            let a2 = (Bufins.Alg2.run ~lib tree).Bufins.Alg2.count in
            match Bufins.Buffopt.optimize Bufins.Buffopt.Buffopt ~lib tree with
            | Some bo -> Alcotest.(check bool) "lower bound" true (a2 <= bo.Bufins.Buffopt.count)
            | None -> Alcotest.fail "infeasible")
          (Lazy.force bench));
  ]

let suites = [ ("integration", tests) ]
