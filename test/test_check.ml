open Helpers
module I = Check.Instance

(* the committed counterexample corpus, staged next to the test binary by
   the dune [deps] glob *)
let corpus_dir = "corpus"

let instance_gen =
  QCheck2.Gen.(map (fun seed -> Check.Gen.instance (Util.Rng.create seed)) small_int)

(* The PR-1 Alg3 counterexamples (test_alg3's regression case) as
   instances: (load, slack)-pruning made the DP report infeasibility on
   these while brute force finds a noise-clean buffering. *)
let pr1_instances =
  List.map
    (fun seed ->
      let rng = Util.Rng.create seed in
      I.make ~tree:(Check.Gen.lowmargin_tree rng) ~lib:Check.Gen.mixed_lib ~seg_len:1.5e-3
        I.Alg3_vs_brute)
    [ 0; 1; 2; 3; 4 ]

let corpus_tests =
  [
    qcase ~count:60 "serialization round-trips" instance_gen (fun inst ->
        let text = Check.Corpus.to_string inst in
        match Check.Corpus.of_string text with
        | Error m -> QCheck2.Test.fail_reportf "parse failed: %s" m
        | Ok inst' ->
            (* the fixpoint is the real invariant: re-serializing the
               parse reproduces the text byte for byte *)
            String.equal text (Check.Corpus.to_string inst'))
    ;
    case "parser rejects junk without raising" (fun () ->
        List.iter
          (fun junk ->
            match Check.Corpus.of_string junk with
            | Ok _ -> Alcotest.failf "accepted junk: %S" junk
            | Error _ -> ())
          [
            "";
            "(";
            ")";
            "(instance";
            "(instance (oracle nonsense) (seg-len 1) (lib) (tree))";
            "(instance (oracle alg3-vs-brute) (seg-len 0.001) (lib (buffer b maybe 1 1 1 1)) \
             (tree (source 100 0)))";
            "(instance (oracle alg3-vs-brute) (seg-len 0.001))";
            "(instance (oracle alg3-vs-brute) (seg-len nan) (lib (buffer b ninv 1 1 1 1)) \
             (tree (source 100 0)))";
            "(instance (oracle alg3-vs-brute) (seg-len 0.001) (lib (buffer b ninv 1 1 1 1)) \
             (tree (source 100 0) (sink 7 s 1e-15 1e-9 0.5 (wire 1e-3 1 1e-13 1e-3))))";
          ]);
    case "generation is deterministic" (fun () ->
        let text seed =
          Check.Corpus.to_string (Check.Gen.instance (Util.Rng.create seed))
        in
        List.iter
          (fun seed -> Alcotest.(check string) "same seed, same instance" (text seed) (text seed))
          (seeds 10));
    case "committed corpus replays clean on the healthy engine" (fun () ->
        let results = Check.Fuzz.replay corpus_dir in
        Alcotest.(check bool) "corpus is not empty" true (results <> []);
        List.iter
          (fun (file, verdict) ->
            match verdict with
            | Check.Diff.Pass -> ()
            | Check.Diff.Skip m -> Alcotest.failf "%s skipped: %s" file m
            | Check.Diff.Fail m -> Alcotest.failf "%s failed: %s" file m)
          results);
  ]

let invariant_tests =
  let vangin_case seed =
    let rng = Util.Rng.create seed in
    let seg =
      Rctree.Segment.refine (Check.Gen.theorem5_tree rng) ~max_len:1.5e-3
    in
    let o = Bufins.Dp.run ~noise:false ~mode:Bufins.Dp.Single ~lib:Check.Gen.single_lib seg in
    (seg, Option.get o.Bufins.Dp.best)
  in
  let dp_expect (r : Bufins.Dp.result) =
    {
      Check.Invariant.count = Some r.Bufins.Dp.count;
      slack = Some r.Bufins.Dp.slack;
      noise_clean = false;
      feasible_only = true;
    }
  in
  let codes = function
    | Ok _ -> []
    | Error vs -> List.map (fun v -> v.Check.Invariant.code) vs
  in
  [
    case "accepts a DP solution with its own claims" (fun () ->
        List.iter
          (fun seed ->
            let seg, r = vangin_case seed in
            match
              Check.Invariant.check ~expect:(dp_expect r) seg r.Bufins.Dp.placements
            with
            | Ok report ->
                Alcotest.(check int)
                  "buffer count" r.Bufins.Dp.count report.Bufins.Eval.buffers
            | Error vs ->
                Alcotest.failf "seed %d: %s" seed
                  (String.concat "; " (List.map Check.Invariant.pp_violation vs)))
          (seeds 10));
    case "flags a corrupted buffer count" (fun () ->
        let seg, r = vangin_case 1000 in
        let expect = { (dp_expect r) with Check.Invariant.count = Some (r.Bufins.Dp.count + 1) } in
        Alcotest.(check (list string))
          "violation" [ "count-mismatch" ]
          (codes (Check.Invariant.check ~expect seg r.Bufins.Dp.placements)));
    case "flags an inflated slack claim" (fun () ->
        let seg, r = vangin_case 1001 in
        let expect =
          { (dp_expect r) with Check.Invariant.slack = Some (r.Bufins.Dp.slack +. 1e-10) }
        in
        Alcotest.(check (list string))
          "violation" [ "slack-mismatch" ]
          (codes (Check.Invariant.check ~expect seg r.Bufins.Dp.placements)));
    case "flags illegal placements" (fun () ->
        let seg, _ = vangin_case 1002 in
        let place node dist = { Rctree.Surgery.node; dist; buffer = Check.Gen.small_buffer } in
        let root = Rctree.Tree.root seg in
        Alcotest.(check (list string))
          "root" [ "placement-root" ]
          (codes (Check.Invariant.check seg [ place root 0.0 ]));
        Alcotest.(check (list string))
          "range" [ "placement-range" ]
          (codes (Check.Invariant.check seg [ place (Rctree.Tree.node_count seg) 0.0 ]));
        let sink = List.hd (Rctree.Tree.sinks seg) in
        Alcotest.(check (list string))
          "beyond the wire" [ "placement-dist" ]
          (codes
             (Check.Invariant.check seg
                [ place sink ((Rctree.Tree.wire_to seg sink).Rctree.Tree.length +. 1.0) ]));
        Alcotest.(check (list string))
          "duplicate" [ "placement-duplicate" ]
          (codes (Check.Invariant.check seg [ place sink 0.0; place sink 0.0 ])));
    case "feasible-only forbids offset and infeasible placements" (fun () ->
        (* segmenting a two-pin net leaves dummy/source structure plus
           feasible internals; a mid-wire placement is fine for Alg1 but
           not for a DP claim *)
        let seg = Rctree.Segment.refine (Fixtures.two_pin process ~len:4e-3) ~max_len:1e-3 in
        let sink = List.hd (Rctree.Tree.sinks seg) in
        let place =
          {
            Rctree.Surgery.node = sink;
            dist = (Rctree.Tree.wire_to seg sink).Rctree.Tree.length /. 2.0;
            buffer = Check.Gen.small_buffer;
          }
        in
        let expect = { Check.Invariant.default_expect with feasible_only = true } in
        let got =
          match Check.Invariant.check ~expect seg [ place ] with
          | Ok _ -> []
          | Error vs ->
              List.sort_uniq compare (List.map (fun v -> v.Check.Invariant.code) vs)
        in
        Alcotest.(check (list string))
          "violations" [ "placement-infeasible"; "placement-offset" ] got;
        (* and the same placement is legal for the climbing algorithms *)
        match Check.Invariant.check seg [ place ] with
        | Ok _ -> ()
        | Error vs ->
            Alcotest.failf "unrestricted check rejected: %s"
              (String.concat "; " (List.map Check.Invariant.pp_violation vs)));
    case "flags noise violations when cleanliness is claimed" (fun () ->
        (* a 12 mm unbuffered two-pin net is far beyond any margin *)
        let t = Fixtures.two_pin process ~len:12e-3 in
        let expect = { Check.Invariant.default_expect with noise_clean = true } in
        let got = codes (Check.Invariant.check ~expect t []) in
        Alcotest.(check bool) "noise-violation reported" true
          (List.mem "noise-violation" got);
        Alcotest.(check bool) "gate drive check fires" true
          (List.mem "gate-drive-noise" got);
        (* without the claim the same tree just evaluates *)
        match Check.Invariant.check t [] with
        | Ok _ -> ()
        | Error vs ->
            Alcotest.failf "unclaimed check rejected: %s"
              (String.concat "; " (List.map Check.Invariant.pp_violation vs)));
  ]

let diff_tests =
  [
    qcase ~count:80 "random instances pass every oracle" instance_gen (fun inst ->
        match Check.Diff.run inst with
        | Check.Diff.Pass | Check.Diff.Skip _ -> true
        | Check.Diff.Fail m -> QCheck2.Test.fail_reportf "%s" m);
    case "regression: the checker catches the PR-1 pruning bug" (fun () ->
        (* the exact instances of test_alg3's regression case, run
           differentially: healthy engine passes, the reintroduced
           (load, slack)-pruning defect must be caught on every one *)
        List.iter
          (fun inst ->
            (match Check.Diff.run inst with
            | Check.Diff.Pass -> ()
            | Check.Diff.Skip m -> Alcotest.failf "healthy run skipped: %s" m
            | Check.Diff.Fail m -> Alcotest.failf "healthy run failed: %s" m);
            match Check.Diff.run ~mutation:Check.Diff.Cq_noise_prune inst with
            | Check.Diff.Fail _ -> ()
            | Check.Diff.Pass | Check.Diff.Skip _ ->
                Alcotest.fail "mutated engine escaped the checker")
          pr1_instances);
  ]

let shrink_tests =
  [
    case "an always-failing instance shrinks to the floor" (fun () ->
        let inst =
          Check.Gen.instance_for I.Alg3_vs_brute (Util.Rng.create 77)
        in
        let r = Check.Shrink.shrink ~fails:(fun _ -> Some "always") inst ~message:"always" in
        Alcotest.(check int) "one sink left" 1 (I.sink_count r.Check.Shrink.instance);
        Alcotest.(check int)
          "one buffer left" 1
          (List.length r.Check.Shrink.instance.I.lib);
        Alcotest.(check bool) "made progress" true (r.Check.Shrink.steps > 0));
    case "a never-failing instance is returned unchanged" (fun () ->
        let inst = Check.Gen.instance_for I.Dp_invariants (Util.Rng.create 78) in
        let r = Check.Shrink.shrink ~fails:(fun _ -> None) inst ~message:"original" in
        Alcotest.(check string) "message kept" "original" r.Check.Shrink.message;
        Alcotest.(check int) "no steps" 0 r.Check.Shrink.steps);
  ]

let fuzz_tests =
  [
    case "bounded healthy campaign finds nothing" (fun () ->
        let r = Check.Fuzz.campaign ~jobs:1 ~seed:1 ~count:40 () in
        Alcotest.(check int) "tested" 40 r.Check.Fuzz.tested;
        Alcotest.(check (list string)) "failures" []
          (List.map (fun f -> f.Check.Fuzz.message) r.Check.Fuzz.failures));
    case "campaign verdicts do not depend on the job count" (fun () ->
        let run jobs =
          let r = Check.Fuzz.campaign ~jobs ~seed:5 ~count:30 () in
          (r.Check.Fuzz.tested, r.Check.Fuzz.passed, r.Check.Fuzz.skipped)
        in
        Alcotest.(check (triple int int int)) "1 vs 2 jobs" (run 1) (run 2));
    case "mutation smoke: campaigns catch a broken pruning rule" (fun () ->
        (* DESIGN.md section 10: re-introduce the PR-1 defect and demand a
           shrunk counterexample of at most 4 sinks that fails mutated,
           passes healthy, and replays from its corpus text *)
        let r =
          Check.Fuzz.campaign ~mutation:Check.Diff.Cq_noise_prune ~jobs:1 ~seed:5 ~count:60
            ()
        in
        Alcotest.(check bool) "campaign failed" true (r.Check.Fuzz.failures <> []);
        List.iter
          (fun (f : Check.Fuzz.failure) ->
            let shrunk = f.Check.Fuzz.shrunk in
            Alcotest.(check bool)
              (Printf.sprintf "instance %d shrunk to <= 4 sinks" f.Check.Fuzz.index)
              true
              (I.sink_count shrunk <= 4);
            (match Check.Diff.run ~mutation:Check.Diff.Cq_noise_prune shrunk with
            | Check.Diff.Fail _ -> ()
            | _ -> Alcotest.fail "shrunk instance no longer fails mutated");
            (match Check.Diff.run shrunk with
            | Check.Diff.Pass | Check.Diff.Skip _ -> ()
            | Check.Diff.Fail m -> Alcotest.failf "shrunk instance fails healthy: %s" m);
            (* round-trip through the corpus format and fail again *)
            match Check.Corpus.of_string (Check.Corpus.to_string shrunk) with
            | Error m -> Alcotest.failf "repro does not parse: %s" m
            | Ok replayed -> (
                match Check.Diff.run ~mutation:Check.Diff.Cq_noise_prune replayed with
                | Check.Diff.Fail _ -> ()
                | _ -> Alcotest.fail "replayed repro no longer fails mutated"))
          r.Check.Fuzz.failures);
    case "mutation smoke: missing attach guard is caught too" (fun () ->
        let r =
          Check.Fuzz.campaign ~mutation:Check.Diff.No_attach_guard ~jobs:1 ~seed:1
            ~count:40 ()
        in
        Alcotest.(check bool) "campaign failed" true (r.Check.Fuzz.failures <> []));
    case "mutation smoke: a weakened predictive bound is caught" (fun () ->
        (* DESIGN.md section 12: inflate the upstream-resistance bound by
           25% so the slope rule over-prunes; the predictive engine's
           outcomes drift from the sweep-only reference and the
           pred-vs-sweep oracle must flag it, with a shrunk repro of at
           most 4 sinks that fails mutated and passes healthy *)
        let r =
          Check.Fuzz.campaign ~mutation:Check.Diff.Loose_pred_bound ~jobs:1 ~seed:1
            ~count:80 ()
        in
        Alcotest.(check bool) "campaign failed" true (r.Check.Fuzz.failures <> []);
        List.iter
          (fun (f : Check.Fuzz.failure) ->
            let shrunk = f.Check.Fuzz.shrunk in
            Alcotest.(check bool)
              (Printf.sprintf "instance %d shrunk to <= 4 sinks" f.Check.Fuzz.index)
              true
              (I.sink_count shrunk <= 4);
            (match Check.Diff.run ~mutation:Check.Diff.Loose_pred_bound shrunk with
            | Check.Diff.Fail _ -> ()
            | _ -> Alcotest.fail "shrunk instance no longer fails mutated");
            match Check.Diff.run shrunk with
            | Check.Diff.Pass | Check.Diff.Skip _ -> ()
            | Check.Diff.Fail m -> Alcotest.failf "shrunk instance fails healthy: %s" m)
          r.Check.Fuzz.failures);
    case "noise-mode mutation smoke: a weakened predictive bound is caught" (fun () ->
        (* DESIGN.md section 12: the noise-mode 4D rule multiplies the
           same upstream-resistance bound, so the inflated bound must
           make a noise/... check of pred-vs-sweep diverge as well, not
           only the delay checks *)
        let noise_failures =
          List.filter
            (fun seed ->
              let inst = Check.Gen.instance_for I.Pred_vs_sweep (Util.Rng.create seed) in
              match Check.Diff.run ~mutation:Check.Diff.Loose_pred_bound inst with
              | Check.Diff.Fail m ->
                  let rec has i =
                    i + 6 <= String.length m && (String.sub m i 6 = "noise/" || has (i + 1))
                  in
                  has 0
              | Check.Diff.Pass | Check.Diff.Skip _ -> false)
            (List.init 20 Fun.id)
        in
        Alcotest.(check bool) "some noise-mode check fails" true (noise_failures <> []);
        (* and healthy, those instances pass *)
        List.iter
          (fun seed ->
            match Check.Diff.run (Check.Gen.instance_for I.Pred_vs_sweep (Util.Rng.create seed)) with
            | Check.Diff.Pass | Check.Diff.Skip _ -> ()
            | Check.Diff.Fail m -> Alcotest.failf "seed %d fails healthy: %s" seed m)
          noise_failures);
    case "mutation smoke: a stale incremental memo is caught" (fun () ->
        (* DESIGN.md section 14: under-invalidate the DP memo (the edited
           node only, ancestors keep tables computed for the old subtree)
           and the incremental-vs-scratch oracle must see the replayed
           edit sequence diverge from the scratch reference, with a
           shrunk repro that fails mutated and passes healthy *)
        let r =
          Check.Fuzz.campaign ~mutation:Check.Diff.Stale_memo ~jobs:1 ~seed:1 ~count:60
            ()
        in
        Alcotest.(check bool) "campaign failed" true (r.Check.Fuzz.failures <> []);
        List.iter
          (fun (f : Check.Fuzz.failure) ->
            let shrunk = f.Check.Fuzz.shrunk in
            (match Check.Diff.run ~mutation:Check.Diff.Stale_memo shrunk with
            | Check.Diff.Fail _ -> ()
            | _ -> Alcotest.fail "shrunk instance no longer fails mutated");
            match Check.Diff.run shrunk with
            | Check.Diff.Pass | Check.Diff.Skip _ -> ()
            | Check.Diff.Fail m -> Alcotest.failf "shrunk instance fails healthy: %s" m)
          r.Check.Fuzz.failures);
    case "mutation smoke: a loosened power bound is caught" (fun () ->
        (* DESIGN.md section 16: inflate the energy budget by 25% at every
           admission point, so the DP returns solutions the real budget
           forbids; the power oracles must flag the over-budget winner,
           with a shrunk repro that fails mutated and passes healthy *)
        let r =
          Check.Fuzz.campaign ~mutation:Check.Diff.Bad_power_bound
            ~oracle:Check.Instance.Power_vs_brute ~jobs:1 ~seed:1 ~count:40 ()
        in
        Alcotest.(check bool) "campaign failed" true (r.Check.Fuzz.failures <> []);
        List.iter
          (fun (f : Check.Fuzz.failure) ->
            let shrunk = f.Check.Fuzz.shrunk in
            (match Check.Diff.run ~mutation:Check.Diff.Bad_power_bound shrunk with
            | Check.Diff.Fail _ -> ()
            | _ -> Alcotest.fail "shrunk instance no longer fails mutated");
            match Check.Diff.run shrunk with
            | Check.Diff.Pass | Check.Diff.Skip _ -> ()
            | Check.Diff.Fail m -> Alcotest.failf "shrunk instance fails healthy: %s" m)
          r.Check.Fuzz.failures);
  ]

(* Both transient solvers over every block200 net at the two placements
   the signoff benchmark alternates between, after BuffOpt; and the early
   exit Noisesim runs there, against the full window: bit-identical peaks
   on every deck, in at most 60% of the window's steps. *)
let block200_signoff placement =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let path f = Filename.concat "../examples/blif" f in
  let blif = Ingest.Blif.of_string (read (path "block200.blif")) in
  let liberty = Ingest.Liberty.of_string (read (path "cells.lib")) in
  let options =
    { Ingest.Elab.default_options with Ingest.Elab.cells = liberty.Ingest.Liberty.cells; seed = placement }
  in
  let design, _ = Ingest.Elab.design_of_blif ~options blif in
  let report =
    Engine.optimize ~domains:1 ~algorithm:Bufins.Buffopt.Buffopt
      ~lib:liberty.Ingest.Liberty.buffers
      (Sta.Engine.batch_jobs process design)
  in
  let cfg = Noisesim.Deck.default_config process in
  let taken = ref 0 and window = ref 0 in
  let early_exit net tree =
    List.iter
      (fun g ->
        let deck = Noisesim.Deck.of_stage cfg tree ~gate:g in
        let dt, t_end = Noisesim.Deck.window cfg deck in
        let nl = deck.Noisesim.Deck.netlist in
        let probes = List.map snd deck.Noisesim.Deck.probes in
        let early = Circuit.Transient.simulate_peaks nl ~dt ~t_end ~probes in
        let full = Circuit.Transient.simulate nl ~dt ~t_end ~probes in
        List.iteri
          (fun p (_, v) ->
            let e = early.Circuit.Transient.peaks.(p) in
            let f = full.Circuit.Transient.peaks.(p) in
            let bits = Int64.bits_of_float in
            if bits e <> bits f || bits v <> bits e then
              Alcotest.failf
                "placement %d net %s stage %d probe %d: peak_noise %h, early %h, full %h"
                placement net g p v e f)
          (Noisesim.Deck.peak_noise cfg deck);
        taken := !taken + Array.length early.Circuit.Transient.times - 1;
        window := !window + Array.length full.Circuit.Transient.times - 1)
      (Rctree.Tree.gates tree)
  in
  Array.iter
    (fun (r : Engine.net_result) ->
      match r.Engine.outcome with
      | Engine.Done run -> (
          let tree = run.Bufins.Buffopt.report.Bufins.Eval.tree in
          early_exit r.Engine.net tree;
          match Check.Diff.transient_disagreement cfg tree with
          | None -> ()
          | Some m -> Alcotest.failf "placement %d net %s: %s" placement r.Engine.net m)
      | Engine.Failed _ -> Alcotest.failf "placement %d net %s: BuffOpt failed" placement r.Engine.net)
    report.Engine.results;
  Alcotest.(check int) "every net simulated" (Array.length report.Engine.results) report.Engine.ok;
  if float_of_int !taken > 0.6 *. float_of_int !window then
    Alcotest.failf "placement %d: the early exit took %d of the window's %d steps" placement !taken
      !window

let transient_tests =
  [
    case "transient oracle: a campaign is clean and replays from the corpus" (fun () ->
        let r =
          Check.Fuzz.campaign ~oracle:I.Transient_tree_vs_dense ~jobs:1 ~seed:3 ~count:12 ()
        in
        Alcotest.(check int) "passed" 12 r.Check.Fuzz.passed;
        let inst = Check.Gen.instance_for I.Transient_tree_vs_dense (Util.Rng.create 7) in
        match Check.Corpus.of_string (Check.Corpus.to_string inst) with
        | Ok replayed ->
            Alcotest.(check bool) "replay passes" true (Check.Diff.run replayed = Check.Diff.Pass)
        | Error m -> Alcotest.failf "corpus round-trip: %s" m);
    case "transient oracle: DP mutations skip it" (fun () ->
        let inst = Check.Gen.instance_for I.Transient_tree_vs_dense (Util.Rng.create 7) in
        Alcotest.(check bool) "skipped" true
          (match Check.Diff.run ~mutation:Check.Diff.Cq_noise_prune inst with
          | Check.Diff.Skip _ -> true
          | _ -> false));
    Alcotest.test_case "block200 signoff: forest and dense verdicts agree (placement 1000)"
      `Slow (fun () -> block200_signoff 1000);
    Alcotest.test_case "block200 signoff: forest and dense verdicts agree (placement 1001)"
      `Slow (fun () -> block200_signoff 1001);
  ]

let suites =
  [
    ("check.transient", transient_tests);
    ("check.corpus", corpus_tests);
    ("check.invariant", invariant_tests);
    ("check.diff", diff_tests);
    ("check.shrink", shrink_tests);
    ("check.fuzz", fuzz_tests);
  ]
