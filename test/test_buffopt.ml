open Helpers
module T = Rctree.Tree

let workload_gen =
  QCheck2.Gen.(
    map
      (fun seed ->
        let cfg = { Workload.default_config with nets = 1; seed } in
        snd (List.hd (Workload.trees process (Workload.generate cfg))))
      small_int)

let relax_rats tree rat =
  (* rebuild with every sink's required arrival time replaced *)
  let b = Rctree.Builder.create () in
  let rec copy v parent =
    let id =
      match T.kind tree v with
      | T.Source d -> Rctree.Builder.add_source b ~r_drv:d.T.r_drv ~d_drv:d.T.d_drv
      | T.Sink s ->
          Rctree.Builder.add_sink b ~parent ~wire:(T.wire_to tree v) ~name:s.T.sname
            ~c_sink:s.T.c_sink ~rat ~nm:s.T.nm
      | T.Internal ->
          Rctree.Builder.add_internal b ~parent ~wire:(T.wire_to tree v) ~feasible:(T.feasible tree v) ()
      | T.Buffered bu -> Rctree.Builder.add_buffered b ~parent ~wire:(T.wire_to tree v) bu
    in
    List.iter (fun c -> copy c id) (T.children tree v)
  in
  copy (T.root tree) (-1);
  Rctree.Builder.finish b

let tests =
  [
    qcase ~count:40 "problem 3 result is noise-clean and reports honestly" workload_gen (fun t ->
        match Bufins.Buffopt.optimize Bufins.Buffopt.Buffopt ~lib t with
        | Some r ->
            Bufins.Eval.noise_clean r.Bufins.Buffopt.report
            && Util.Fx.approx ~rel:1e-9 ~abs:1e-16 r.Bufins.Buffopt.predicted_slack
                 r.Bufins.Buffopt.report.Bufins.Eval.slack
            && r.Bufins.Buffopt.count = r.Bufins.Buffopt.report.Bufins.Eval.buffers
        | None -> false);
    qcase ~count:30 "problem 3 minimizes buffers among timing-feasible counts" workload_gen
      (fun t ->
        let seg = Rctree.Segment.refine t ~max_len:500e-6 in
        match Bufins.Buffopt.problem3 ~kmax:10 ~lib seg with
        | Some (result : Bufins.Dp.result) when result.Bufins.Dp.slack >= 0.0 ->
            (* no smaller count in the count-indexed table meets timing *)
            let by = Bufins.Dp.run ~noise:true ~mode:(Bufins.Dp.Per_count 10) ~lib seg in
            Array.to_list by.Bufins.Dp.by_count
            |> List.for_all (function
                 | Some (r : Bufins.Dp.result) ->
                     r.Bufins.Dp.count >= result.Bufins.Dp.count || r.Bufins.Dp.slack < 0.0
                 | None -> true)
        | Some _ | None -> true);
    case "regression: a zero-margin sink yields an infinite ratio, never nan" (fun () ->
        (* worst_noise_ratio divides noise by the sink margin; a margin of
           zero (or a denormal) used to produce nan/inf garbage that broke
           every downstream max-fold comparison. Pinned behavior: any
           noise into a zero margin is an infinite ratio (never clean),
           zero noise into a zero margin is a ratio of zero (clean). *)
        let noisy_zero_margin = Fixtures.two_pin ~nm:0.0 process ~len:2e-3 in
        let r = Bufins.Eval.of_tree noisy_zero_margin in
        Alcotest.(check bool)
          "noisy ratio is +inf" true
          (r.Bufins.Eval.worst_noise_ratio = Float.infinity);
        Alcotest.(check bool) "not clean" false (Bufins.Eval.noise_clean r);
        let b = Rctree.Builder.create () in
        let so = Rctree.Builder.add_source b ~r_drv:100.0 ~d_drv:0.0 in
        let quiet = T.make_wire ~length:1e-3 ~res:100.0 ~cap:1e-13 ~cur:0.0 in
        ignore
          (Rctree.Builder.add_sink b ~parent:so ~wire:quiet ~name:"s" ~c_sink:1e-14
             ~rat:1e-9 ~nm:0.0);
        let r = Bufins.Eval.of_tree (Rctree.Builder.finish b) in
        Alcotest.(check (float 0.0))
          "quiet ratio is 0" 0.0 r.Bufins.Eval.worst_noise_ratio;
        Alcotest.(check bool) "clean" true (Bufins.Eval.noise_clean r);
        (* denormal margins behave like zero, not like a 1e300-ish ratio *)
        let denormal = Fixtures.two_pin ~nm:1e-320 process ~len:2e-3 in
        let r = Bufins.Eval.of_tree denormal in
        Alcotest.(check bool)
          "denormal margin is +inf too" true
          (r.Bufins.Eval.worst_noise_ratio = Float.infinity));
    case "relaxed timing needs fewer buffers than tight timing" (fun () ->
        let t = Fixtures.two_pin process ~len:10e-3 in
        let loose = relax_rats t 10e-9 in
        let run tree =
          match Bufins.Buffopt.optimize Bufins.Buffopt.Buffopt ~lib tree with
          | Some r -> r.Bufins.Buffopt.count
          | None -> Alcotest.fail "infeasible"
        in
        let tight = relax_rats t 0.65e-9 in
        Alcotest.(check bool) "loose <= tight" true (run loose <= run tight);
        (* with 10 ns of slack only noise forces buffers: 3 on a 12 mm line *)
        Alcotest.(check bool) "loose uses the noise minimum" true (run loose <= 3));
    case "unreachable timing falls back to max slack" (fun () ->
        let t = relax_rats (Fixtures.two_pin process ~len:10e-3) (-1.0) in
        let seg = Rctree.Segment.refine t ~max_len:500e-6 in
        match Bufins.Buffopt.problem3 ~kmax:10 ~lib seg with
        | Some result ->
            Alcotest.(check bool) "timing not met" true (result.Bufins.Dp.slack < 0.0);
            let alg3 = Bufins.Dp.run ~noise:true ~mode:Bufins.Dp.Single ~lib seg in
            (match alg3.Bufins.Dp.best with
            | Some best ->
                feq_rel "matches problem 2 slack" ~eps:1e-9 best.Bufins.Dp.slack
                  result.Bufins.Dp.slack
            | None -> Alcotest.fail "alg3 infeasible")
        | None -> Alcotest.fail "problem3 infeasible");
    qcase ~count:25 "delayopt(k) inserts at most k" workload_gen (fun t ->
        List.for_all
          (fun k ->
            match Bufins.Buffopt.optimize (Bufins.Buffopt.Delayopt k) ~lib t with
            | Some r -> r.Bufins.Buffopt.count <= k
            | None -> false)
          [ 1; 3 ]);
    case "optimize retries with finer segmenting" (fun () ->
        (* 6 mm spans are hopeless (see alg3 tests); starting there must
           fall back to a finer grid and succeed *)
        let t = Fixtures.two_pin process ~len:12e-3 in
        match Bufins.Buffopt.optimize ~seg_len:6e-3 ~retries:3 Bufins.Buffopt.Buffopt ~lib t with
        | Some r -> Alcotest.(check bool) "clean" true (Bufins.Eval.noise_clean r.Bufins.Buffopt.report)
        | None -> Alcotest.fail "retries exhausted");
    case "no retries means failure at coarse segmenting" (fun () ->
        let t = Fixtures.two_pin process ~len:12e-3 in
        Alcotest.(check bool) "none" true
          (Bufins.Buffopt.optimize ~seg_len:6e-3 ~retries:0 Bufins.Buffopt.Buffopt ~lib t = None));
    qcase ~count:25 "buffopt uses no more buffers than alg3 max-slack" workload_gen (fun t ->
        match
          ( Bufins.Buffopt.optimize Bufins.Buffopt.Buffopt ~lib t,
            Bufins.Buffopt.optimize Bufins.Buffopt.Alg3_max_slack ~lib t )
        with
        | Some bo, Some a3 -> bo.Bufins.Buffopt.count <= a3.Bufins.Buffopt.count
        | _, _ -> true);
    qcase ~count:25 "power budget caps energy; generous budget recovers delayopt" workload_gen
      (fun t ->
        (* the budgeted mode is count-bucketed at kmax (16), so its
           generous-budget optimum is Delayopt 16's, not the unbounded
           vangin one *)
        match Bufins.Buffopt.optimize (Bufins.Buffopt.Delayopt 16) ~lib t with
        | None -> false
        | Some unc ->
            let run b = Bufins.Buffopt.optimize (Bufins.Buffopt.Power_bounded b) ~lib t in
            let half = unc.Bufins.Buffopt.energy *. 0.5 in
            (match run half with
            | Some r ->
                r.Bufins.Buffopt.energy <= half +. 1e-27
                && Util.Fx.approx ~rel:1e-12 ~abs:1e-27 r.Bufins.Buffopt.energy
                     (Bufins.Buffopt.placements_energy r.Bufins.Buffopt.placements)
            | None -> false)
            &&
            match run (unc.Bufins.Buffopt.energy *. 2.0 +. 1e-15) with
            | Some r -> r.Bufins.Buffopt.predicted_slack >= unc.Bufins.Buffopt.predicted_slack
            | None -> false);
    qcase ~count:25 "downsize never raises energy and respects its floors" workload_gen
      (fun t ->
        match Bufins.Buffopt.optimize Bufins.Buffopt.Vangin_max_slack ~lib t with
        | None -> false
        | Some r ->
            let d = Bufins.Buffopt.downsize ~lib r in
            let floor = Float.min r.Bufins.Buffopt.report.Bufins.Eval.slack 0.0 in
            let cap = Float.max r.Bufins.Buffopt.report.Bufins.Eval.worst_noise_ratio 1.0 in
            d.Bufins.Buffopt.energy <= r.Bufins.Buffopt.energy +. 1e-27
            && d.Bufins.Buffopt.count <= r.Bufins.Buffopt.count
            && d.Bufins.Buffopt.report.Bufins.Eval.slack >= floor -. 1e-15
            && d.Bufins.Buffopt.report.Bufins.Eval.worst_noise_ratio <= cap +. 1e-9
            && Util.Fx.approx ~rel:1e-12 ~abs:1e-27 d.Bufins.Buffopt.energy
                 (Bufins.Buffopt.placements_energy d.Bufins.Buffopt.placements));
    case "downsize shrinks gratuitous repeaters but keeps load-bearing ones" (fun () ->
        (* a relaxed 6 mm net: max-slack picks four invx16 repeaters that
           a 10 ns RAT does not need. Removal would flip polarity
           (inverters only leave in pairs), so downsize shrinks them to
           the cheapest inverter instead — a large energy cut at the same
           count, even with the floor disabled *)
        let t = relax_rats (Fixtures.two_pin process ~len:6e-3) 10e-9 in
        (match Bufins.Buffopt.optimize Bufins.Buffopt.Vangin_max_slack ~lib t with
        | Some r when r.Bufins.Buffopt.count > 0 ->
            let d = Bufins.Buffopt.downsize ~slack_floor:neg_infinity ~lib r in
            Alcotest.(check int) "count unchanged (polarity)" r.Bufins.Buffopt.count
              d.Bufins.Buffopt.count;
            Alcotest.(check bool) "energy strictly cut" true
              (d.Bufins.Buffopt.energy < r.Bufins.Buffopt.energy *. 0.5)
        | Some _ -> Alcotest.fail "expected max-slack to insert buffers"
        | None -> Alcotest.fail "infeasible");
        (* a long noisy net: buffers are load-bearing (noise-clean needs
           them), so the default guards must keep the solution clean *)
        let t = Fixtures.two_pin process ~len:10e-3 in
        match Bufins.Buffopt.optimize Bufins.Buffopt.Buffopt ~lib t with
        | Some r ->
            let d = Bufins.Buffopt.downsize ~lib r in
            Alcotest.(check bool) "still noise-clean" true
              (Bufins.Eval.noise_clean d.Bufins.Buffopt.report);
            Alcotest.(check bool) "kept some buffers" true (d.Bufins.Buffopt.count > 0)
        | None -> Alcotest.fail "infeasible");
  ]

let suites = [ ("bufins.buffopt", tests) ]
