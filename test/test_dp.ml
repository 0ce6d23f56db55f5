open Helpers
module T = Rctree.Tree

(* small segmented trees whose brute-force space is tractable *)
let brute_gen =
  QCheck2.Gen.(
    map
      (fun seed ->
        let rng = Util.Rng.create seed in
        let t = theorem5_tree rng in
        segment_for_brute t)
      small_int)

let two_lib =
  [
    small_buffer;
    Tech.Buffer.make ~name:"i0" ~inverting:true ~c_in:1.5e-15 ~r_b:140.0 ~d_b:15e-12 ~nm:0.6 ();
  ]

let count_inversions tree sink =
  List.fold_left
    (fun acc v ->
      match T.kind tree v with
      | T.Buffered b when b.Tech.Buffer.inverting -> acc + 1
      | T.Buffered _ | T.Source _ | T.Sink _ | T.Internal -> acc)
    0 (T.path_up tree sink)

let tests =
  [
    qcase ~count:40 "van ginneken matches brute force (single buffer)" brute_gen (function
      | None -> true
      | Some seg -> (
          let o = Bufins.Dp.run ~noise:false ~mode:Bufins.Dp.Single ~lib:single_lib seg in
          let r = Option.get o.Bufins.Dp.best in
          match Bufins.Brute.best_slack ~noise:false ~lib:single_lib seg with
          | Some (best, _) -> Util.Fx.approx ~rel:1e-9 ~abs:1e-15 best r.Bufins.Dp.slack
          | None -> false));
    qcase ~count:25 "van ginneken matches brute force (two buffers, with inverter)" brute_gen
      (function
      | None -> true
      | Some seg -> (
          let feasible = List.filter (T.feasible seg) (T.internals seg) in
          if List.length feasible > 6 then true
          else
            let o = Bufins.Dp.run ~noise:false ~mode:Bufins.Dp.Single ~lib:two_lib seg in
            let r = Option.get o.Bufins.Dp.best in
            match Bufins.Brute.best_slack ~noise:false ~lib:two_lib seg with
            | Some (best, _) -> Util.Fx.approx ~rel:1e-9 ~abs:1e-15 best r.Bufins.Dp.slack
            | None -> false));
    qcase ~count:60 "polarity: sinks see an even number of inversions" brute_gen (function
      | None -> true
      | Some seg ->
          let o = Bufins.Dp.run ~noise:false ~mode:Bufins.Dp.Single ~lib:two_lib seg in
          let r = Option.get o.Bufins.Dp.best in
          let tree = Rctree.Surgery.apply seg r.Bufins.Dp.placements in
          List.for_all (fun s -> count_inversions tree s mod 2 = 0) (T.sinks tree));
    qcase ~count:60 "predicted slack equals recomputed slack" brute_gen (function
      | None -> true
      | Some seg ->
          let o = Bufins.Dp.run ~noise:false ~mode:Bufins.Dp.Single ~lib seg in
          let r = Option.get o.Bufins.Dp.best in
          let report = Bufins.Eval.apply seg r.Bufins.Dp.placements in
          Util.Fx.approx ~rel:1e-9 ~abs:1e-16 r.Bufins.Dp.slack report.Bufins.Eval.slack);
    qcase ~count:60 "never slower than the unbuffered tree" brute_gen (function
      | None -> true
      | Some seg ->
          let o = Bufins.Dp.run ~noise:false ~mode:Bufins.Dp.Single ~lib seg in
          let r = Option.get o.Bufins.Dp.best in
          r.Bufins.Dp.slack >= Elmore.slack seg -. 1e-15);
    qcase ~count:40 "max_buffers cap respected" brute_gen (function
      | None -> true
      | Some seg ->
          List.for_all
            (fun k ->
              let o = Bufins.Dp.run ~noise:false ~mode:(Bufins.Dp.Up_to k) ~lib seg in
              (Option.get o.Bufins.Dp.best).Bufins.Dp.count <= k)
            [ 0; 1; 2 ]);
    qcase ~count:40 "by_count buckets are exact" brute_gen (function
      | None -> true
      | Some seg ->
          let o = Bufins.Dp.run ~noise:false ~mode:(Bufins.Dp.Per_count 4) ~lib seg in
          let arr = o.Bufins.Dp.by_count in
          let ok = ref true in
          Array.iteri
            (fun k r ->
              match r with
              | Some r -> if r.Bufins.Dp.count <> k then ok := false
              | None -> ())
            arr;
          !ok);
    qcase ~count:40 "more buffers allowed never hurts" brute_gen (function
      | None -> true
      | Some seg ->
          let slack k =
            let o = Bufins.Dp.run ~noise:false ~mode:(Bufins.Dp.Up_to k) ~lib seg in
            (Option.get o.Bufins.Dp.best).Bufins.Dp.slack
          in
          slack 4 >= slack 1 -. 1e-15);
    qcase ~count:25 "pruning never changes the optimum" brute_gen (function
      | None -> true
      | Some seg ->
          let feasible = List.filter (T.feasible seg) (T.internals seg) in
          List.length feasible > 7
          ||
          let a = Bufins.Dp.run ~noise:false ~mode:Bufins.Dp.Single ~lib:two_lib seg in
          let b =
            Bufins.Dp.run ~pruning:`Off ~noise:false ~mode:Bufins.Dp.Single ~lib:two_lib seg
          in
          match (a.Bufins.Dp.best, b.Bufins.Dp.best) with
          | Some x, Some y -> Util.Fx.approx ~rel:1e-9 ~abs:1e-16 x.Bufins.Dp.slack y.Bufins.Dp.slack
          | None, None -> true
          | Some _, None | None, Some _ -> false);
    case "buffered input rejected" (fun () ->
        let t = Fixtures.two_pin process ~len:4e-3 in
        let buf = Tech.Lib.min_resistance lib in
        let t' = Rctree.Surgery.apply t [ { Rctree.Surgery.node = 1; dist = 2e-3; buffer = buf } ] in
        Alcotest.(check bool) "raises" true
          (match Bufins.Dp.run ~noise:false ~mode:Bufins.Dp.Single ~lib t' with
          | exception Invalid_argument _ -> true
          | _ -> false));
    case "empty library rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (match
             Bufins.Dp.run ~noise:false ~mode:Bufins.Dp.Single ~lib:[]
               (Fixtures.two_pin process ~len:1e-3)
           with
          | exception Invalid_argument _ -> true
          | _ -> false));
    case "stats counters pinned on a fixed fixture" (fun () ->
        (* a 4 mm two-pin line at 1 mm segmenting: small enough that the
           engine's whole candidate history is enumerable by hand. The
           generated count is pre-prune (sink seeds + wire climbs + merge
           pairings + buffer insertions); pruned are dominance-sweep and
           noise drops; their difference is what the old candidates_seen
           (post-prune survivors) used to blur together. *)
        let seg = Rctree.Segment.refine (Fixtures.two_pin process ~len:4e-3) ~max_len:1e-3 in
        let check label ~pruning ~noise ~mode (g, p, pp, w) =
          let o = Bufins.Dp.run ~pruning ~noise ~mode ~lib:single_lib seg in
          let s = o.Bufins.Dp.stats in
          Alcotest.(check int) (label ^ " generated") g s.Bufins.Dp.generated;
          Alcotest.(check int) (label ^ " pruned") p s.Bufins.Dp.pruned;
          Alcotest.(check int) (label ^ " pred-pruned") pp s.Bufins.Dp.pred_pruned;
          Alcotest.(check int) (label ^ " peak width") w s.Bufins.Dp.peak_width;
          (* every result carries the same whole-run stats *)
          match o.Bufins.Dp.best with
          | Some r -> Alcotest.(check int) (label ^ " via result") g r.Bufins.Dp.stats.Bufins.Dp.generated
          | None -> Alcotest.fail (label ^ ": expected a solution")
        in
        (* the sweep-only rows are the exact pre-PR-5 engine's figures:
           [`Sweep_only] must stay literally that engine *)
        check "delay/sweep" ~pruning:`Sweep_only ~noise:false ~mode:Bufins.Dp.Single (14, 1, 0, 4);
        check "noise/sweep" ~pruning:`Sweep_only ~noise:true ~mode:Bufins.Dp.Single (14, 1, 0, 4);
        check "per-count/sweep" ~pruning:`Sweep_only ~noise:false ~mode:(Bufins.Dp.Per_count 4)
          (21, 0, 0, 3);
        (* predictive: fewer materialized, the balance pre-killed; on
           this line the noise-mode 4D rule pre-kills the same two climbs
           as the delay-mode slope rule *)
        check "delay/pred" ~pruning:`Predictive ~noise:false ~mode:Bufins.Dp.Single (11, 0, 2, 3);
        check "noise/pred" ~pruning:`Predictive ~noise:true ~mode:Bufins.Dp.Single (11, 0, 2, 3);
        check "per-count/pred" ~pruning:`Predictive ~noise:false ~mode:(Bufins.Dp.Per_count 4)
          (19, 0, 2, 3));
    qcase ~count:40 "generated bounds pruned and the frontier width" brute_gen (function
      | None -> true
      | Some seg ->
          let o = Bufins.Dp.run ~noise:false ~mode:Bufins.Dp.Single ~lib seg in
          let s = o.Bufins.Dp.stats in
          s.Bufins.Dp.generated > 0
          && s.Bufins.Dp.pruned >= 0
          && s.Bufins.Dp.pruned < s.Bufins.Dp.generated
          && s.Bufins.Dp.pred_pruned >= 0
          && Bufins.Dp.considered s
             = Bufins.Dp.survivors s + s.Bufins.Dp.pruned + s.Bufins.Dp.pred_pruned
          && s.Bufins.Dp.peak_width > 0
          && s.Bufins.Dp.peak_width <= s.Bufins.Dp.generated);
    case "long line benefits from buffering" (fun () ->
        let t = Rctree.Segment.refine (Fixtures.two_pin process ~len:10e-3) ~max_len:500e-6 in
        let o = Bufins.Dp.run ~noise:false ~mode:Bufins.Dp.Single ~lib t in
        let r = Option.get o.Bufins.Dp.best in
        Alcotest.(check bool) "count > 1" true (r.Bufins.Dp.count > 1);
        Alcotest.(check bool) "strictly better" true (r.Bufins.Dp.slack > Elmore.slack t +. 1e-12));
    case "count dominance drops a pairing and a stand-in before they get a node" (fun () ->
        (* Noise mode, one buffer type (10 fF in, margin 0.8 V). Branch
           [v] (no insertion) joins two feasible nodes: [u] over sink A
           (2 fF, margin 0.5 V) and [z] over sink B (6 fF, margin 0.9 V,
           the binding RAT), whose wire up to [v] carries coupling
           current that takes 0.5 V off B's noise slack.
           - At [z] the stand-in (10 fF, margin 0.8) is dominated by B
             itself (7 fF, margin 0.9): 0 buffers beat 1.
           - At [u] the stand-in survives (A's margin is lower), but at
             [v] its pairing with B is dominated by A's: A is lighter,
             and B binds both pairings' slack and noise slack.
           [Up_to] drops both while staged, so its arena holds only the
           surviving stand-in's Buf and the 0-buffer pairing's Join;
           [Per_count] keeps both, and its bucket 1 and 2 winners carry
           them to the root. *)
        let wire ?(cur = 0.0) res = T.make_wire ~length:10e-6 ~res ~cap:1e-15 ~cur in
        let b = Rctree.Builder.create () in
        let so = Rctree.Builder.add_source b ~r_drv:100.0 ~d_drv:30e-12 in
        let v = Rctree.Builder.add_internal b ~parent:so ~wire:(wire 10.0) ~feasible:false () in
        let u = Rctree.Builder.add_internal b ~parent:v ~wire:(wire 10.0) () in
        ignore
          (Rctree.Builder.add_sink b ~parent:u ~wire:(wire 10.0) ~name:"a" ~c_sink:2e-15
             ~rat:2e-9 ~nm:0.5);
        let z = Rctree.Builder.add_internal b ~parent:v ~wire:(wire ~cur:1e-3 1000.0) () in
        ignore
          (Rctree.Builder.add_sink b ~parent:z ~wire:(wire 10.0) ~name:"b" ~c_sink:6e-15
             ~rat:0.5e-9 ~nm:0.9);
        let tree = Rctree.Builder.finish b in
        let lib =
          [
            Tech.Buffer.make ~name:"b10" ~inverting:false ~c_in:10e-15 ~r_b:200.0 ~d_b:20e-12
              ~nm:0.8 ();
          ]
        in
        let run mode = Bufins.Dp.run ~noise:true ~mode ~lib tree in
        let up = run (Bufins.Dp.Up_to 2) and per = run (Bufins.Dp.Per_count 2) in
        let stat o f = f o.Bufins.Dp.stats in
        Alcotest.(check int) "up_to: count_pruned" 2 (stat up (fun s -> s.Bufins.Dp.count_pruned));
        Alcotest.(check int) "up_to: arena" 2 (stat up (fun s -> s.Bufins.Dp.arena));
        Alcotest.(check int) "per_count: count_pruned" 0
          (stat per (fun s -> s.Bufins.Dp.count_pruned));
        (* both Bufs and four Joins: buckets 0 and 2 one each, bucket 1
           the dominated pairing and A's with the stand-in at [z] *)
        Alcotest.(check int) "per_count: arena" 6 (stat per (fun s -> s.Bufins.Dp.arena));
        let at o k =
          match o.Bufins.Dp.by_count.(k) with
          | None -> []
          | Some r ->
              List.sort compare
                (List.map (fun p -> p.Rctree.Surgery.node) r.Bufins.Dp.placements)
        in
        Alcotest.(check (list int)) "per_count: the pairing's winner" [ u ] (at per 1);
        Alcotest.(check (list int)) "per_count: with the stand-in" (List.sort compare [ u; z ])
          (at per 2);
        Alcotest.(check bool) "up_to: the 0-buffer front only" true
          (up.Bufins.Dp.by_count.(1) = None && up.Bufins.Dp.by_count.(2) = None
          && at up 0 = [] && up.Bufins.Dp.by_count.(0) <> None));
    case "a run allocates a few minor words per tree node" (fun () ->
        (* The tables, their groups, the counters and the scratch all
           come from the run state and the domain (DESIGN.md §8), so a
           run's minor words are its set-up and its outcome, plus, in
           predictive mode, each internal node's slope bound, boxed once
           for the kernels: 2 words. The figure is deterministic, so each
           bound sits just above it (9.2, 11.9 and 5.7 words per node on
           this 870-node net). *)
        let seg = Rctree.Segment.refine (Fixtures.caterpillar process 200) ~max_len:500e-6 in
        let nodes = float_of_int (T.node_count seg) in
        let energy =
          match (Bufins.Dp.run ~noise:false ~mode:(Bufins.Dp.Up_to 8) ~lib seg).Bufins.Dp.best with
          | Some r -> r.Bufins.Dp.energy
          | None -> Alcotest.fail "delay mode always has a solution"
        in
        List.iter
          (fun (name, noise, mode, bound) ->
            let s = (Bufins.Dp.run ~noise ~mode ~lib seg).Bufins.Dp.stats in
            let per_node = s.Bufins.Dp.minor_words /. nodes in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %.2f words per node, at most %g" name per_node bound)
              true (per_node <= bound))
          [
            ("delay Up_to 16", false, Bufins.Dp.Up_to 16, 10.0);
            ("noise Single", true, Bufins.Dp.Single, 12.5);
            ( "Power_bounded",
              false,
              Bufins.Dp.Power_bounded { budget = energy /. 2.0; kmax = 8 },
              6.5 );
          ]);
  ]

(* {1 Incremental memo}

   The memo's contract is byte-identity: a [run ?memo] — warm cache,
   cold cache, or after dirty-marked edits — must return exactly the
   slack / placements / sizes / count a scratch run computes. Exact
   ([=]) comparisons throughout, never approx: any drift is a stale
   table. *)

let eq_result (a : Bufins.Dp.result option) (b : Bufins.Dp.result option) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      a.Bufins.Dp.slack = b.Bufins.Dp.slack
      && a.Bufins.Dp.placements = b.Bufins.Dp.placements
      && a.Bufins.Dp.sizes = b.Bufins.Dp.sizes
      && a.Bufins.Dp.count = b.Bufins.Dp.count
  | Some _, None | None, Some _ -> false

let eq_outcome (a : Bufins.Dp.outcome) (b : Bufins.Dp.outcome) =
  eq_result a.Bufins.Dp.best b.Bufins.Dp.best
  && Array.for_all2 eq_result a.Bufins.Dp.by_count b.Bufins.Dp.by_count

let configs =
  [
    ("delay/single", false, Bufins.Dp.Single);
    ("delay/per-count", false, Bufins.Dp.Per_count 4);
    ("noise/single", true, Bufins.Dp.Single);
    ("noise/per-count", true, Bufins.Dp.Per_count 4);
  ]

let memo_tests =
  [
    qcase ~count:25 "warm rerun equals scratch in every mode" brute_gen (function
      | None -> true
      | Some seg ->
          List.for_all
            (fun (_, noise, mode) ->
              let scratch = Bufins.Dp.run ~noise ~mode ~lib:two_lib seg in
              let memo = Bufins.Dp.Memo.create () in
              let cold = Bufins.Dp.run ~memo ~noise ~mode ~lib:two_lib seg in
              let warm = Bufins.Dp.run ~memo ~noise ~mode ~lib:two_lib seg in
              eq_outcome scratch cold && eq_outcome scratch warm
              (* the warm rerun recomputes nothing below the root *)
              && Bufins.Dp.Memo.hits memo > 0)
            configs);
    qcase ~count:25 "incremental RAT edit equals scratch" brute_gen (function
      | None -> true
      | Some seg ->
          List.for_all
            (fun (_, noise, mode) ->
              let memo = Bufins.Dp.Memo.create () in
              let _warm = Bufins.Dp.run ~memo ~noise ~mode ~lib:two_lib seg in
              List.for_all
                (fun s ->
                  let rat = (match T.kind seg s with
                    | T.Sink sk -> sk.T.rat
                    | _ -> assert false) in
                  let seg' = T.with_sink_rat seg s ~rat:(rat *. 0.5) in
                  Bufins.Dp.Memo.dirty memo seg' s;
                  let inc = Bufins.Dp.run ~memo ~noise ~mode ~lib:two_lib seg' in
                  let scratch = Bufins.Dp.run ~noise ~mode ~lib:two_lib seg' in
                  (* restore the original RAT so the next sink's edit
                     starts from the shared baseline *)
                  Bufins.Dp.Memo.dirty memo seg s;
                  ignore (Bufins.Dp.run ~memo ~noise ~mode ~lib:two_lib seg);
                  eq_outcome scratch inc)
                (T.sinks seg))
            configs);
    qcase ~count:25 "incremental wire edit equals scratch" brute_gen (function
      | None -> true
      | Some seg ->
          List.for_all
            (fun (_, noise, mode) ->
              let memo = Bufins.Dp.Memo.create () in
              let _warm = Bufins.Dp.run ~memo ~noise ~mode ~lib:two_lib seg in
              List.for_all
                (fun v ->
                  let seg' =
                    T.map_wires seg (fun i w ->
                        if i = v then
                          {
                            w with
                            T.res = w.T.res *. 1.3;
                            T.cap = w.T.cap *. 1.1;
                          }
                        else w)
                  in
                  Bufins.Dp.Memo.dirty memo seg' v;
                  let inc = Bufins.Dp.run ~memo ~noise ~mode ~lib:two_lib seg' in
                  let scratch = Bufins.Dp.run ~noise ~mode ~lib:two_lib seg' in
                  Bufins.Dp.Memo.dirty memo seg v;
                  ignore (Bufins.Dp.run ~memo ~noise ~mode ~lib:two_lib seg);
                  eq_outcome scratch inc)
                (T.sinks seg))
            configs);
    qcase ~count:20 "config change drops the cache safely" brute_gen (function
      | None -> true
      | Some seg ->
          let memo = Bufins.Dp.Memo.create () in
          (* alternate configurations through one memo: every run must
             still match its own scratch reference *)
          List.for_all
            (fun (_, noise, mode) ->
              let inc = Bufins.Dp.run ~memo ~noise ~mode ~lib:two_lib seg in
              let scratch = Bufins.Dp.run ~noise ~mode ~lib:two_lib seg in
              eq_outcome scratch inc)
            (configs @ configs));
    case "noise-mode wire edit above a clean sibling misses its bound stamp" (fun () ->
        (* the 4D predictive rule folds each site's upstream-resistance
           bound into the kept tables in noise mode too, so editing the
           wire above a branch shifts the bound its clean children were
           built under: they must be recomputed, not replayed. A RAT
           edit moves no bound, and there the clean sibling hits. *)
        let seg =
          Rctree.Segment.refine
            (Fixtures.balanced process ~levels:1 ~trunk_len:1e-3 ~fanout_len:1e-3)
            ~max_len:250e-6
        in
        (* a buffer weaker than the driver plus the trunk, so the bound
           at the branch is the upstream path's, not the library's *)
        let lib =
          [ Tech.Buffer.make ~name:"weak" ~inverting:false ~c_in:2e-15 ~r_b:400.0 ~d_b:30e-12 ~nm:0.6 () ]
        in
        let branch =
          List.find (fun v -> List.length (T.children seg v) = 2) (T.internals seg)
        in
        let seg' =
          T.map_wires seg (fun i w -> if i = branch then { w with T.res = w.T.res *. 1.3 } else w)
        in
        let bound tr =
          (Rctree.Upbound.compute tr
             ~r_gate_min:(Tech.Lib.prepare lib).Tech.Lib.r_min ~max_width:1.0).(branch)
        in
        Alcotest.(check bool) "the edit moves the branch's bound" true (bound seg <> bound seg');
        let run ?memo tr = Bufins.Dp.run ?memo ~noise:true ~mode:Bufins.Dp.Single ~lib tr in
        (* tables recomputed: the dirty path below the root, plus [extra] *)
        let recomputed memo tr v =
          let m0 = Bufins.Dp.Memo.misses memo in
          Bufins.Dp.Memo.dirty memo tr v;
          let inc = run ~memo tr in
          Alcotest.(check bool) "incremental equals scratch" true (eq_outcome (run tr) inc);
          Bufins.Dp.Memo.misses memo - m0 - (List.length (T.path_up tr v) - 1)
        in
        let memo = Bufins.Dp.Memo.create () in
        ignore (run ~memo seg);
        Alcotest.(check bool) "clean children rebuilt under the new bound" true
          (recomputed memo seg' branch >= 2);
        let sink = List.hd (T.sinks seg') in
        let rat = match T.kind seg' sink with T.Sink s -> s.T.rat | _ -> assert false in
        Alcotest.(check int) "a RAT edit replays the clean sibling" 0
          (recomputed memo (T.with_sink_rat seg' sink ~rat:(rat *. 0.9)) sink));
    case "memo counters and clear" (fun () ->
        let seg = Rctree.Segment.refine (Fixtures.two_pin process ~len:4e-3) ~max_len:1e-3 in
        let memo = Bufins.Dp.Memo.create () in
        let _ = Bufins.Dp.run ~memo ~noise:false ~mode:Bufins.Dp.Single ~lib:single_lib seg in
        Alcotest.(check bool) "stored > 0" true (Bufins.Dp.Memo.stored memo > 0);
        Alcotest.(check int) "no hits yet" 0 (Bufins.Dp.Memo.hits memo);
        let _ = Bufins.Dp.run ~memo ~noise:false ~mode:Bufins.Dp.Single ~lib:single_lib seg in
        Alcotest.(check bool) "hits after rerun" true (Bufins.Dp.Memo.hits memo > 0);
        Bufins.Dp.Memo.clear memo;
        Alcotest.(check int) "cleared" 0 (Bufins.Dp.Memo.stored memo));
    case "one domain's runs in every mode equal fresh domains' runs" (fun () ->
        (* A domain reuses its arena, staging areas and row stack from run
           to run. Runs in delay, noise and power modes, with and without
           memos, alternate on this domain; each outcome, stats and minor
           words included, must equal the same run on a fresh domain (a
           memo'd run replaying its memo's runs there). *)
        let seg = Rctree.Segment.refine (Fixtures.caterpillar process 30) ~max_len:500e-6 in
        let seg2 = Rctree.Segment.refine (Fixtures.two_pin process ~len:4e-3) ~max_len:5e-4 in
        let sink = List.hd (T.sinks seg) in
        let rat = match T.kind seg sink with T.Sink s -> s.T.rat | _ -> assert false in
        let edited = T.with_sink_rat seg sink ~rat:(rat *. 0.95) in
        let energy =
          match (Bufins.Dp.run ~noise:false ~mode:(Bufins.Dp.Up_to 8) ~lib seg).Bufins.Dp.best with
          | Some r -> r.Bufins.Dp.energy
          | None -> Alcotest.fail "delay mode always has a solution"
        in
        let power = Bufins.Dp.Power_bounded { budget = energy /. 2.0; kmax = 8 } in
        (* (memo, dirtied node, noise, mode, tree); memo 0 is none *)
        let plan =
          [
            (0, None, false, Bufins.Dp.Up_to 8, seg);
            (1, None, true, Bufins.Dp.Single, seg);
            (0, None, false, power, seg);
            (0, None, true, Bufins.Dp.Up_to 4, seg2);
            (1, None, true, Bufins.Dp.Single, seg);
            (0, None, false, Bufins.Dp.Per_count 4, seg2);
            (1, Some sink, true, Bufins.Dp.Single, edited);
            (2, None, false, power, seg);
            (0, None, true, Bufins.Dp.Single, seg);
            (2, None, false, power, seg);
          ]
        in
        let bytes o = Marshal.to_string (o : Bufins.Dp.outcome) [ Marshal.No_sharing ] in
        (* the plan's runs in order, each memo'd one with its memo *)
        let replay steps =
          let memos =
            [| None; Some (Bufins.Dp.Memo.create ()); Some (Bufins.Dp.Memo.create ()) |]
          in
          List.map
            (fun (m, dirty, noise, mode, tree) ->
              let memo = memos.(m) in
              Option.iter
                (fun v -> Option.iter (fun mm -> Bufins.Dp.Memo.dirty mm tree v) memo)
                dirty;
              bytes (Bufins.Dp.run ?memo ~noise ~mode ~lib tree))
            steps
        in
        let here = replay plan in
        List.iteri
          (fun i ((m, _, _, _, _) as step) ->
            (* a fresh domain runs the step alone, or its memo's steps up to it *)
            let steps =
              if m = 0 then [ step ]
              else List.filteri (fun j (m', _, _, _, _) -> j <= i && m' = m) plan
            in
            let fresh = Domain.join (Domain.spawn (fun () -> List.rev (replay steps))) in
            Alcotest.(check bool)
              (Printf.sprintf "run %d equals a fresh domain's" i)
              true
              (String.equal (List.nth here i) (List.hd fresh)))
          plan);
    case "a memo's traces survive memo-less runs on its domain" (fun () ->
        (* memo-less runs reset the domain's arena; a memo keeps its own,
           so its cached handles still reconstruct afterwards *)
        let seg = Rctree.Segment.refine (Fixtures.caterpillar process 20) ~max_len:500e-6 in
        let seg2 = Rctree.Segment.refine (Fixtures.two_pin process ~len:4e-3) ~max_len:5e-4 in
        let run ?memo noise mode tr = Bufins.Dp.run ?memo ~noise ~mode ~lib tr in
        let memo = Bufins.Dp.Memo.create () in
        let first = run ~memo true (Bufins.Dp.Up_to 6) seg in
        List.iter
          (fun (noise, mode, tr) -> ignore (run noise mode tr))
          [
            (false, Bufins.Dp.Up_to 8, seg2);
            (true, Bufins.Dp.Single, seg);
            (false, Bufins.Dp.Per_count 4, seg);
          ];
        let hits = Bufins.Dp.Memo.hits memo in
        let warm = run ~memo true (Bufins.Dp.Up_to 6) seg in
        Alcotest.(check bool) "the rerun is served from the memo" true
          (Bufins.Dp.Memo.hits memo > hits);
        Alcotest.(check bool) "warm rerun equals the first run" true (eq_outcome first warm);
        Alcotest.(check bool) "and a scratch run" true
          (eq_outcome (run true (Bufins.Dp.Up_to 6) seg) warm);
        let sink = List.hd (T.sinks seg) in
        let rat = match T.kind seg sink with T.Sink s -> s.T.rat | _ -> assert false in
        let edited = T.with_sink_rat seg sink ~rat:(rat *. 0.9) in
        Bufins.Dp.Memo.dirty memo edited sink;
        ignore (run false (Bufins.Dp.Up_to 8) seg2);
        Alcotest.(check bool) "an incremental run equals scratch" true
          (eq_outcome
             (run true (Bufins.Dp.Up_to 6) edited)
             (run ~memo true (Bufins.Dp.Up_to 6) edited)));
  ]

let suites = [ ("bufins.vangin", tests); ("bufins.memo", memo_tests) ]
