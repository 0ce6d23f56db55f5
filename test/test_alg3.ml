open Helpers
module T = Rctree.Tree

let brute_gen =
  QCheck2.Gen.(
    map
      (fun seed ->
        let rng = Util.Rng.create seed in
        segment_for_brute (theorem5_tree rng))
      small_int)

let workload_gen =
  QCheck2.Gen.(
    map
      (fun seed ->
        let cfg = { Workload.default_config with nets = 1; seed } in
        snd (List.hd (Workload.trees process (Workload.generate cfg))))
      small_int)

(* Two non-inverting buffers, neither satisfying Theorem 5's margin
   assumption against [lowmargin_tree] sinks: a fast low-margin buffer
   and a slow high-margin one. The optimum often needs the slow buffer
   even where the fast one wins on slack. *)
let mixed_lib = Check.Gen.mixed_lib

let mixed_lib_gen =
  QCheck2.Gen.(
    map
      (fun seed ->
        let rng = Util.Rng.create seed in
        let seg = Rctree.Segment.refine (lowmargin_tree rng) ~max_len:1.5e-3 in
        let feasible = List.filter (T.feasible seg) (T.internals seg) in
        if List.length feasible <= 8 then Some seg else None)
      small_int)

let tests =
  [
    qcase ~count:40 "optimal under Theorem 5 assumptions" brute_gen (function
      | None -> true
      | Some seg -> (
          (* single buffer with c_in below every sink cap and margin below
             every sink margin: Algorithm 3 must match brute force *)
          let o = Bufins.Dp.run ~noise:true ~mode:Bufins.Dp.Single ~lib:single_lib seg in
          let r = o.Bufins.Dp.best in
          match (r, Bufins.Brute.best_slack ~noise:true ~lib:single_lib seg) with
          | Some r, Some (best, _) -> Util.Fx.approx ~rel:1e-9 ~abs:1e-15 best r.Bufins.Dp.slack
          | None, None -> true
          | Some _, None | None, Some _ -> false));
    qcase ~count:60 "solutions are always noise-clean" workload_gen (fun t ->
        let seg = Rctree.Segment.refine t ~max_len:500e-6 in
        match (Bufins.Dp.run ~noise:true ~mode:Bufins.Dp.Single ~lib seg).Bufins.Dp.best with
        | Some r -> Bufins.Eval.noise_clean (Bufins.Eval.apply seg r.Bufins.Dp.placements)
        | None -> false);
    qcase ~count:60 "never beats the unconstrained optimum" workload_gen (fun t ->
        let seg = Rctree.Segment.refine t ~max_len:500e-6 in
        match (Bufins.Dp.run ~noise:true ~mode:Bufins.Dp.Single ~lib seg).Bufins.Dp.best with
        | Some r ->
            let v = Bufins.Dp.run ~noise:false ~mode:Bufins.Dp.Single ~lib seg in
            r.Bufins.Dp.slack <= (Option.get v.Bufins.Dp.best).Bufins.Dp.slack +. 1e-15
        | None -> true);
    qcase ~count:40 "predicted slack equals recomputed slack" workload_gen (fun t ->
        let seg = Rctree.Segment.refine t ~max_len:500e-6 in
        match (Bufins.Dp.run ~noise:true ~mode:Bufins.Dp.Single ~lib seg).Bufins.Dp.best with
        | Some r ->
            let report = Bufins.Eval.apply seg r.Bufins.Dp.placements in
            Util.Fx.approx ~rel:1e-9 ~abs:1e-16 r.Bufins.Dp.slack report.Bufins.Eval.slack
        | None -> true);
    case "returns None when nothing can satisfy the margins" (fun () ->
        (* a sink with a sub-millivolt margin on a long coupled line: no
           discrete buffering can help at coarse segmenting *)
        let t = Fixtures.two_pin ~nm:1e-4 process ~len:10e-3 in
        let seg = Rctree.Segment.refine t ~max_len:5e-3 in
        let o = Bufins.Dp.run ~noise:true ~mode:Bufins.Dp.Single ~lib seg in
        Alcotest.(check bool) "infeasible" true (o.Bufins.Dp.best = None));
    qcase ~count:30 "richer library never hurts" workload_gen (fun t ->
        let seg = Rctree.Segment.refine t ~max_len:500e-6 in
        let alg3 lib =
          (Bufins.Dp.run ~noise:true ~mode:Bufins.Dp.Single ~lib seg).Bufins.Dp.best
        in
        match (alg3 lib, alg3 [ Tech.Lib.min_resistance lib ]) with
        | Some full, Some single -> full.Bufins.Dp.slack >= single.Bufins.Dp.slack -. 1e-15
        | Some _, None -> true
        | None, _ -> true);
    qcase ~count:30 "a buffer is never attached to a noisy candidate" workload_gen (fun t ->
        (* every gate in the produced tree satisfies its stage's margins:
           per-stage noise at any leaf <= margin *)
        let seg = Rctree.Segment.refine t ~max_len:500e-6 in
        match (Bufins.Dp.run ~noise:true ~mode:Bufins.Dp.Single ~lib seg).Bufins.Dp.best with
        | Some r ->
            let tree = Rctree.Surgery.apply seg r.Bufins.Dp.placements in
            List.for_all (fun (_, noise, margin) -> noise <= margin +. 1e-9) (Noise.leaf_noise tree)
        | None -> false);
    qcase ~count:20 "count-indexed buckets are exact in noise mode" workload_gen (fun t ->
        let seg = Rctree.Segment.refine t ~max_len:700e-6 in
        let out = Bufins.Dp.run ~noise:true ~mode:(Bufins.Dp.Per_count 8) ~lib seg in
        let ok = ref true in
        Array.iteri
          (fun k r ->
            match r with
            | Some (r : Bufins.Dp.result) ->
                if r.Bufins.Dp.count <> k then ok := false;
                (* every bucketed solution is noise-clean *)
                if
                  not
                    (Bufins.Eval.noise_clean (Bufins.Eval.apply seg r.Bufins.Dp.placements))
                then ok := false
            | None -> ())
          out.Bufins.Dp.by_count;
        !ok);
    qcase ~count:20 "bucket slacks agree with re-evaluation" workload_gen (fun t ->
        let seg = Rctree.Segment.refine t ~max_len:700e-6 in
        let out = Bufins.Dp.run ~noise:true ~mode:(Bufins.Dp.Per_count 6) ~lib seg in
        Array.for_all
          (function
            | Some (r : Bufins.Dp.result) ->
                let report = Bufins.Eval.apply seg r.Bufins.Dp.placements in
                Util.Fx.approx ~rel:1e-9 ~abs:1e-16 r.Bufins.Dp.slack report.Bufins.Eval.slack
            | None -> true)
          out.Bufins.Dp.by_count);
    qcase ~count:60 "exact against brute force for arbitrary libraries" mixed_lib_gen (function
      | None -> true
      | Some seg -> (
          (* no Theorem 5 assumptions: neither buffer's margin is below
             every sink's. Exactness here needs the full
             (load, slack, current, noise-slack) dominance pruning — the
             (load, slack)-only relation discards candidates that are the
             sole survivors of the upstream wires. *)
          match
            ( (Bufins.Dp.run ~noise:true ~mode:Bufins.Dp.Single ~lib:mixed_lib seg)
                .Bufins.Dp.best,
              Bufins.Brute.best_slack ~noise:true ~lib:mixed_lib seg )
          with
          | Some r, Some (best, _) -> Util.Fx.approx ~rel:1e-9 ~abs:1e-15 best r.Bufins.Dp.slack
          | None, None -> true
          | Some _, None | None, Some _ -> false));
    case "regression: delay-mode pruning once lost the only noise-feasible solution" (fun () ->
        (* these instances made the engine report infeasibility while
           brute force finds a noise-clean buffering: the candidate whose
           noise slack survives the upstream wires is (load, slack)-
           dominated and was pruned before the buffer could rescue it *)
        List.iter
          (fun seed ->
            let rng = Util.Rng.create seed in
            let seg = Rctree.Segment.refine (lowmargin_tree rng) ~max_len:1.5e-3 in
            match
              ( (Bufins.Dp.run ~noise:true ~mode:Bufins.Dp.Single ~lib:mixed_lib seg)
                  .Bufins.Dp.best,
                Bufins.Brute.best_slack ~noise:true ~lib:mixed_lib seg )
            with
            | Some r, Some (best, _) ->
                feq_rel (Printf.sprintf "seed %d slack" seed) ~eps:1e-9 best r.Bufins.Dp.slack
            | None, Some _ -> Alcotest.failf "seed %d: DP infeasible but brute succeeds" seed
            | _, None -> Alcotest.failf "seed %d: instance no longer exercises the bug" seed)
          [ 0; 1; 2; 3; 4 ]);
    case "golden: PR-1 corpus solutions are pinned placement for placement" (fun () ->
        (* End-to-end freeze of the five PR-1 regression instances: the
           flat-candidate + trace-arena DP must keep reproducing exactly
           the solutions the eager list-carrying engine committed — same
           buffers at the same nodes in the same order, same slack to the
           last bit of the printed precision. *)
        let golden =
          [
            (0, "fastlow", [ (4, "fastlow"); (2, "fastlow"); (1, "fastlow") ],
             7.6363756229833327e-10,
             [ (4, "fastlow"); (2, "slowhigh"); (1, "fastlow") ],
             7.6353756229833324e-10);
            (1, "fastlow", [ (3, "fastlow"); (2, "fastlow"); (1, "fastlow") ],
             6.6922693567923953e-10,
             [ (3, "fastlow"); (2, "fastlow"); (1, "slowhigh") ],
             6.4411867265228217e-10);
            (2, "fastlow", [ (2, "fastlow"); (1, "fastlow") ],
             9.9261861089149271e-10,
             [ (2, "fastlow"); (1, "slowhigh") ],
             9.6769576732923342e-10);
            (3, "fastlow", [ (6, "fastlow"); (4, "fastlow"); (1, "fastlow") ],
             2.552401195222317e-10,
             [ (6, "slowhigh"); (4, "slowhigh"); (1, "slowhigh") ],
             2.3046308611853491e-10);
            (4, "fastlow", [ (3, "fastlow"); (2, "fastlow"); (1, "fastlow") ],
             6.5035430075046443e-10,
             [ (3, "fastlow"); (2, "fastlow"); (1, "slowhigh") ],
             6.2619002288324987e-10);
          ]
        in
        let sol (r : Bufins.Dp.result) =
          List.map
            (fun (p : Rctree.Surgery.placement) ->
              Alcotest.(check (float 0.0))
                "buffer sits at the node" 0.0 p.Rctree.Surgery.dist;
              (p.Rctree.Surgery.node, p.Rctree.Surgery.buffer.Tech.Buffer.name))
            r.Bufins.Dp.placements
        in
        (* both candidate engines must keep committing these solutions:
           [`Sweep_only] is the frozen PR-4 engine, [`Predictive] (the
           default since PR 5) must be placement-for-placement identical *)
        List.iter
          (fun (pname, pruning) ->
            List.iter
              (fun (seed, _, dsol, dslack, nsol, nslack) ->
                let rng = Util.Rng.create seed in
                let seg = Rctree.Segment.refine (lowmargin_tree rng) ~max_len:1.5e-3 in
                let d =
                  match
                    (Bufins.Dp.run ~pruning ~noise:false ~mode:Bufins.Dp.Single
                       ~lib:mixed_lib seg).Bufins.Dp.best
                  with
                  | Some r -> r
                  | None -> Alcotest.failf "seed %d (%s): delay mode infeasible" seed pname
                in
                Alcotest.(check (list (pair int string)))
                  (Printf.sprintf "seed %d %s delay placements" seed pname)
                  dsol (sol d);
                feq_rel
                  (Printf.sprintf "seed %d %s delay slack" seed pname)
                  ~eps:1e-12 dslack d.Bufins.Dp.slack;
                match
                  (Bufins.Dp.run ~pruning ~noise:true ~mode:Bufins.Dp.Single
                     ~lib:mixed_lib seg).Bufins.Dp.best
                with
                | None -> Alcotest.failf "seed %d (%s): noise mode infeasible" seed pname
                | Some r ->
                    Alcotest.(check (list (pair int string)))
                      (Printf.sprintf "seed %d %s noise placements" seed pname)
                      nsol (sol r);
                    feq_rel
                      (Printf.sprintf "seed %d %s noise slack" seed pname)
                      ~eps:1e-12 nslack r.Bufins.Dp.slack)
              golden)
          [ ("pred", `Predictive); ("sweep", `Sweep_only) ]);
    case "golden: a multi-type default-library instance is pinned under both engines" (fun () ->
        (* five sinks, the full 11-buffer default library, 500 um
           segmenting: the per-type candidate machinery (prepared
           library, per-type insertion order, inverter parities) on a
           realistic mix. Both engines must reproduce this exact
           solution — nodes, buffer names and slack *)
        let tree =
          Fixtures.random_net (Util.Rng.create 42) process ~max_sinks:5 ~max_len:5e-3
        in
        let seg = Rctree.Segment.refine tree ~max_len:500e-6 in
        let expect =
          [
            (50, "invx16"); (49, "invx1"); (47, "bufx1"); (4, "invx16"); (8, "invx16");
            (12, "invx16"); (14, "bufx8"); (13, "invx1"); (18, "invx16"); (22, "invx16");
            (26, "invx16"); (32, "invx16"); (30, "invx16"); (28, "invx16"); (27, "invx1");
            (37, "invx16"); (41, "invx16");
          ]
        in
        let expect_slack = 5.9319577892898629e-10 in
        let sol (r : Bufins.Dp.result) =
          List.map
            (fun (p : Rctree.Surgery.placement) ->
              Alcotest.(check (float 0.0))
                "buffer sits at the node" 0.0 p.Rctree.Surgery.dist;
              (p.Rctree.Surgery.node, p.Rctree.Surgery.buffer.Tech.Buffer.name))
            r.Bufins.Dp.placements
        in
        List.iter
          (fun (pname, pruning) ->
            (match
               (Bufins.Dp.run ~pruning ~noise:false ~mode:Bufins.Dp.Single ~lib seg)
                 .Bufins.Dp.best
             with
            | None -> Alcotest.failf "%s: delay mode infeasible" pname
            | Some r ->
                Alcotest.(check (list (pair int string)))
                  (pname ^ " delay placements") expect (sol r);
                feq_rel (pname ^ " delay slack") ~eps:1e-12 expect_slack r.Bufins.Dp.slack);
            match
              (Bufins.Dp.run ~pruning ~noise:true ~mode:Bufins.Dp.Single ~lib seg)
                .Bufins.Dp.best
            with
            | None -> Alcotest.failf "%s: noise mode infeasible" pname
            | Some r ->
                Alcotest.(check (list (pair int string)))
                  (pname ^ " noise placements") expect (sol r);
                feq_rel (pname ^ " noise slack") ~eps:1e-12 expect_slack r.Bufins.Dp.slack)
          [ ("pred", `Predictive); ("sweep", `Sweep_only) ]);
    case "golden: power-off outcomes are pinned bit for bit, by_count included" (fun () ->
        (* The power-axis PR's hard invariant: with power mode off, the
           engine's whole observable outcome — every per-count slack to
           the last bit (hex float), every placement node, every buffer
           size, and the noise-mode solution — is frozen at the pre-power
           values, under both candidate engines. The five PR-1 regression
           instances plus the multi-type default-library net. *)
        let sol (r : Bufins.Dp.result) =
          String.concat ","
            (List.map
               (fun (p : Rctree.Surgery.placement) ->
                 Printf.sprintf "%d/%s" p.Rctree.Surgery.node
                   p.Rctree.Surgery.buffer.Tech.Buffer.name)
               r.Bufins.Dp.placements)
        in
        let line ~pruning ~lib seg =
          let o = Bufins.Dp.run ~pruning ~noise:false ~mode:(Bufins.Dp.Per_count 8) ~lib seg in
          let cells =
            Array.to_list
              (Array.mapi
                 (fun k r ->
                   match r with
                   | None -> Printf.sprintf "%d=-" k
                   | Some (r : Bufins.Dp.result) ->
                       Printf.sprintf "%d=%h:%s" k r.Bufins.Dp.slack (sol r))
                 o.Bufins.Dp.by_count)
          in
          let noise =
            match
              (Bufins.Dp.run ~pruning ~noise:true ~mode:Bufins.Dp.Single ~lib seg)
                .Bufins.Dp.best
            with
            | None -> "noise=-"
            | Some r -> Printf.sprintf "noise=%h:%s" r.Bufins.Dp.slack (sol r)
          in
          String.concat "|" (cells @ [ noise ])
        in
        let golden =
          [
            ( 0,
              "0=0x1.322ad2fa34deap-31:|1=0x1.919c3600acbc2p-31:1/fastlow|2=0x1.a2074ca85de8p-31:2/fastlow,1/fastlow|3=0x1.a3d06eba64f7p-31:4/fastlow,2/fastlow,1/fastlow|4=-|5=-|6=-|7=-|8=-|noise=0x1.a3c25bd930d24p-31:4/fastlow,2/slowhigh,1/fastlow" );
            ( 1,
              "0=0x1.a7c36ea11cf2cp-32:|1=0x1.4d0a251809b92p-31:2/fastlow|2=0x1.67b017dbad60fp-31:2/fastlow,1/fastlow|3=0x1.6fe9516cda99bp-31:3/fastlow,2/fastlow,1/fastlow|4=-|5=-|6=-|7=-|8=-|noise=0x1.621ba4e9c1cfap-31:3/fastlow,2/fastlow,1/slowhigh" );
            ( 2,
              "0=0x1.e03c772ed8d3ap-31:|1=0x1.0db8a5a5d78bdp-30:1/fastlow|2=0x1.10d953397aa72p-30:2/fastlow,1/fastlow|3=-|4=-|5=-|6=-|7=-|8=-|noise=0x1.09ff893048994p-30:2/fastlow,1/slowhigh" );
            ( 3,
              "0=0x1.ad5e926f81de8p-34:|1=0x1.6b62ba3da003ep-33:6/fastlow|2=0x1.ec683fbc902b1p-33:6/fastlow,4/fastlow|3=0x1.18a3b4ea2b6dep-32:6/fastlow,4/fastlow,1/fastlow|4=-|5=-|6=-|7=-|8=-|noise=0x1.facb2f0021bd6p-33:6/slowhigh,4/slowhigh,1/slowhigh" );
            ( 4,
              "0=0x1.1334c7f2720b6p-31:|1=0x1.5abd3bd9f0fbep-31:1/fastlow|2=0x1.6409045a5d27bp-31:2/fastlow,1/fastlow|3=0x1.65893b17970f2p-31:3/fastlow,2/fastlow,1/fastlow|4=-|5=-|6=-|7=-|8=-|noise=0x1.5840693ad19e2p-31:3/fastlow,2/fastlow,1/slowhigh" );
          ]
        in
        let multi_golden =
          "0=-0x1.0ea47786a8cd7p-29:|1=-0x1.8bba1ff79b504p-32:24/bufx32|2=0x1.a81d2cd2267a4p-33:12/bufx32,26/bufx32|3=0x1.419fa8d41c112p-32:6/invx16,12/invx16,26/bufx32|4=0x1.9ccb54bf9fdbep-32:6/invx16,12/invx16,20/bufx32,26/bufx32|5=0x1.e983ba0a92b22p-32:6/invx16,12/invx16,20/invx16,26/invx16,39/bufx32|6=0x1.0d025bfdd88a5p-31:6/invx16,12/invx16,21/invx16,26/bufx32,27/invx1,40/invx16|7=0x1.1d5f70d875369p-31:49/bufx1,6/invx16,12/invx16,21/invx16,26/bufx32,27/invx1,40/invx16|8=0x1.2bf00fb892979p-31:49/bufx1,6/invx16,12/invx16,20/invx16,25/invx16,27/bufx1,37/invx16,41/invx16|noise=0x1.461ce24fc0ff9p-31:50/invx16,49/invx1,47/bufx1,4/invx16,8/invx16,12/invx16,14/bufx8,13/invx1,18/invx16,22/invx16,26/invx16,32/invx16,30/invx16,28/invx16,27/invx1,37/invx16,41/invx16"
        in
        List.iter
          (fun (pname, pruning) ->
            List.iter
              (fun (seed, expect) ->
                let rng = Util.Rng.create seed in
                let seg = Rctree.Segment.refine (lowmargin_tree rng) ~max_len:1.5e-3 in
                Alcotest.(check string)
                  (Printf.sprintf "seed %d %s outcome" seed pname)
                  expect
                  (line ~pruning ~lib:mixed_lib seg))
              golden;
            let tree =
              Fixtures.random_net (Util.Rng.create 42) process ~max_sinks:5 ~max_len:5e-3
            in
            let seg = Rctree.Segment.refine tree ~max_len:500e-6 in
            Alcotest.(check string)
              (pname ^ " multi-type outcome")
              multi_golden (line ~pruning ~lib seg))
          [ ("pred", `Predictive); ("sweep", `Sweep_only) ]);
    case "golden: power-on outcomes are pinned bit for bit at two budgets" (fun () ->
        (* The multi-type default-library net under [Power_bounded]: every
           per-count slack (hex float), placement and solution energy at a
           tight and a loose budget, under both candidate engines. The
           budgets are literal so the pin does not depend on any other
           run. Power mode is delay-only: noise mode refuses it. *)
        let tree =
          Fixtures.random_net (Util.Rng.create 42) process ~max_sinks:5 ~max_len:5e-3
        in
        let seg = Rctree.Segment.refine tree ~max_len:500e-6 in
        let sol (r : Bufins.Dp.result) =
          String.concat ","
            (List.map
               (fun (p : Rctree.Surgery.placement) ->
                 Printf.sprintf "%d/%s" p.Rctree.Surgery.node
                   p.Rctree.Surgery.buffer.Tech.Buffer.name)
               r.Bufins.Dp.placements)
        in
        let line ~pruning ~noise budget =
          let o =
            Bufins.Dp.run ~pruning ~noise
              ~mode:(Bufins.Dp.Power_bounded { budget; kmax = 6 })
              ~lib seg
          in
          String.concat "|"
            (Array.to_list
               (Array.mapi
                  (fun k r ->
                    match r with
                    | None -> Printf.sprintf "%d=-" k
                    | Some (r : Bufins.Dp.result) ->
                        Printf.sprintf "%d=%h:%h:%s" k r.Bufins.Dp.slack r.Bufins.Dp.energy
                          (sol r))
                  o.Bufins.Dp.by_count))
        in
        let tight = 0x1.cd18b71fb6c98p-44 and loose = 0x1.cd18b71fb6c98p-43 in
        (* [loose] is exactly the energy of the unconstrained Per_count 6
           optimum, so the loose rows also pin the exact-boundary budget *)
        let golden =
          [
            ( "delay tight",
              tight,
              "0=-0x1.0ea47786a8cd7p-29:0x0p+0:|1=-0x1.8bba1ff79b504p-32:0x1.3749ef34bc35fp-44:24/bufx32|2=0x1.fe69fe869ba36p-34:0x1.6b2b9712db944p-44:12/bufx16,26/bufx16|3=0x1.ec28f79f64a66p-33:0x1.9f0d3ef0faf28p-44:10/bufx16,20/invx8,26/invx16|4=0x1.2d7f2be9f772ap-32:0x1.ac05a8e882ca2p-44:6/invx8,12/invx16,23/invx4,26/invx16|5=0x1.731b5706e952fp-32:0x1.a0594989bbbb4p-44:6/invx8,12/invx16,24/invx8,27/invx1,38/invx8|6=0x1.93d580bc22ab6p-32:0x1.b3cde87d077eap-44:49/bufx1,6/invx8,12/invx16,24/invx8,27/invx1,38/invx8" );
            ( "delay loose",
              loose,
              "0=-0x1.0ea47786a8cd7p-29:0x0p+0:|1=-0x1.8bba1ff79b504p-32:0x1.3749ef34bc35fp-44:24/bufx32|2=0x1.a81d2cd2267a4p-33:0x1.3749ef34bc35fp-43:12/bufx32,26/bufx32|3=0x1.419fa8d41c112p-32:0x1.30cdba38f84a2p-43:6/invx16,12/invx16,26/bufx32|4=0x1.9ccb54bf9fdbep-32:0x1.cc72b1d356652p-43:6/invx16,12/invx16,20/bufx32,26/bufx32|5=0x1.e983ba0a92b22p-32:0x1.c5f67cd792794p-43:6/invx16,12/invx16,20/invx16,26/invx16,39/bufx32|6=0x1.0d025bfdd88a5p-31:0x1.cd18b71fb6c98p-43:6/invx16,12/invx16,21/invx16,26/bufx32,27/invx1,40/invx16" );
          ]
        in
        List.iter
          (fun (pname, pruning) ->
            List.iter
              (fun (tag, budget, expect) ->
                Alcotest.(check string)
                  (Printf.sprintf "%s %s" pname tag)
                  expect (line ~pruning ~noise:false budget))
              golden;
            Alcotest.check_raises
              (pname ^ " noise refuses power mode")
              (Invalid_argument "Dp.run: power mode is delay-only")
              (fun () -> ignore (line ~pruning ~noise:true tight)))
          [ ("pred", `Predictive); ("sweep", `Sweep_only) ]);
    case "insertion counters are pinned; dropped insertions leave no arena node" (fun () ->
        (* The 50-sink caterpillar in delay mode (Per_count 16) and noise
           mode (Single). Every counter is the per-type scan's, which
           built a record and a Buf node for every insertion; [arena]
           was 24,353 and 3,256 nodes then, and an insertion its sweep
           drops no longer leaves one. *)
        let seg = Rctree.Segment.refine (Fixtures.caterpillar process 50) ~max_len:500e-6 in
        List.iter
          (fun (name, noise, mode, (gen, pruned, pred, power, width), arena_before) ->
            let s = (Bufins.Dp.run ~noise ~mode ~lib seg).Bufins.Dp.stats in
            let check what = Alcotest.(check int) (name ^ ": " ^ what) in
            check "generated" gen s.Bufins.Dp.generated;
            check "pruned" pruned s.Bufins.Dp.pruned;
            check "pred_pruned" pred s.Bufins.Dp.pred_pruned;
            check "power_pruned" power s.Bufins.Dp.power_pruned;
            check "peak_width" width s.Bufins.Dp.peak_width;
            Alcotest.(check bool)
              (Printf.sprintf "%s: arena %d below %d" name s.Bufins.Dp.arena arena_before)
              true
              (s.Bufins.Dp.arena < arena_before))
          [
            ("delay k16", false, Bufins.Dp.Per_count 16, (41238, 10535, 25602, 0, 31), 24353);
            ("noise", true, Bufins.Dp.Single, (9095, 5142, 317, 0, 16), 3256);
          ]);
    case "power-mode counters and arena are pinned" (fun () ->
        (* The 50-sink caterpillar under [Power_bounded] on the first
           four library types, kmax 8, at half the Per_count 8 winner's
           energy (literal, so the pin depends on no other run). The
           branch merge decides its pairings on coordinates and joins
           the survivors only, so every counter is that of the
           materializing merge's enumeration. Buffer insertion
           materializes its surviving stand-ins only: [arena] was 99,342
           nodes when every staircase member got its Buf node up front.
           Count dominance (DESIGN.md §17) drops every candidate that a
           same-parity one with fewer buffers dominates: before it, the
           run generated 469,569 candidates into a 97,427-node arena.
           When the rule ran as a pass over each finished table, the
           run generated 119,715, pruned 70,761 (count drops included),
           power-pruned 26,680 and built a 38,867-node arena; deciding
           it on the staged rows, with the insertion sources taken from
           the count-swept bases, leaves none of its drops a node. *)
        let lib = List.filteri (fun i _ -> i < 4) lib in
        let seg = Rctree.Segment.refine (Fixtures.caterpillar process 50) ~max_len:500e-6 in
        let mode = Bufins.Dp.Power_bounded { budget = 0x1.3a8809b29e2bdp-44; kmax = 8 } in
        let s = (Bufins.Dp.run ~noise:false ~mode ~lib seg).Bufins.Dp.stats in
        let check what = Alcotest.(check int) ("power: " ^ what) in
        check "generated" 118440 s.Bufins.Dp.generated;
        check "pruned" 54333 s.Bufins.Dp.pruned;
        check "count_pruned" 16276 s.Bufins.Dp.count_pruned;
        check "pred_pruned" 0 s.Bufins.Dp.pred_pruned;
        check "power_pruned" 26611 s.Bufins.Dp.power_pruned;
        check "peak_width" 334 s.Bufins.Dp.peak_width;
        check "arena" 23307 s.Bufins.Dp.arena;
        Alcotest.(check bool) "power: arena below the count pass's" true
          (s.Bufins.Dp.arena < 38867);
        Alcotest.(check bool) "power: generated below the exact buckets'" true
          (s.Bufins.Dp.generated < 469569);
        Alcotest.(check bool) "power: arena below the exact buckets'" true
          (s.Bufins.Dp.arena < 97427));
    case "finer segmenting can rescue infeasibility" (fun () ->
        let t = Fixtures.two_pin process ~len:12e-3 in
        let coarse = Rctree.Segment.refine t ~max_len:6e-3 in
        let fine = Rctree.Segment.refine t ~max_len:1e-3 in
        (* 6 mm spans violate 0.8 V no matter what drives them *)
        let alg3 seg =
          (Bufins.Dp.run ~noise:true ~mode:Bufins.Dp.Single ~lib seg).Bufins.Dp.best
        in
        Alcotest.(check bool) "coarse fails" true (alg3 coarse = None);
        Alcotest.(check bool) "fine succeeds" true (alg3 fine <> None));
  ]

let suites = [ ("bufins.alg3", tests) ]
