open Helpers

(* Scale smoke tests: the optimizers stay well-behaved on nets an order
   of magnitude beyond the workload's typical size. *)

(* The DP on the caterpillar at 50/200/800 sinks: delay mode with
   kmax = 16, noise mode (Algorithm 3) unbucketed, a b = 1/4/8 library
   sweep (the b of the O(bn^2) multi-type DP), and the energy-budgeted
   DP on 4 types with kmax = 8 at half the unconstrained winner's energy.
   The winner's slack and energy are pinned to the bit (as %h), with its
   buffer count and an MD5 digest of its (node, buffer name) placement
   list, so a change in where the buffers go fails even when the
   totals hold. Every delay row runs twice, with exact buckets
   (Per_count) and under count dominance (Up_to, DESIGN.md §17), against
   the same pins. *)
let dp_scenarios =
  [
    (* mode, sinks, buffer types, slack, energy, buffers, placements *)
    (`Delay 16, 50, 11, "0x1.e52442e1f6405p-29", "0x1.d48df40e0b4bfp-41", 16,
      "96bc82e6b233b2cf1d56fd3def8b174a");
    (`Delay 16, 200, 11, "0x1.6f0244940ccdep-29", "0x1.08456f136fc87p-40", 16,
      "4c6336cf51d2a5c1b198ca028ffc817d");
    (`Delay 16, 800, 11, "-0x1.fe62fe224d966p-31", "0x1.dca93648c032bp-41", 16,
      "09cf8e4aed7f7fff43638c7c0dc27175");
    (`Noise, 50, 11, "0x1.edc694b74ccf6p-29", "0x1.8161cc8ac101fp-40", 63,
      "9644a7b1a55ef704ab4a07a26892c73e");
    (`Noise, 200, 11, "0x1.d36f1e532166bp-29", "0x1.ab9de598c68c7p-38", 281,
      "4f2fedec9bf10ee1da4473d419bab892");
    (`Noise, 800, 11, "0x1.b456c7892e5b2p-29", "0x1.a003aece5a084p-36", 1098,
      "20b37685560969b2e9af91a523a0d7e1");
    (`Delay 16, 200, 1, "-0x1.e194ff317564cp-29", "0x1.3749ef34bc35fp-44", 16,
      "414461144b10d3b584abdf35d8007c47");
    (`Delay 16, 200, 4, "0x1.c5ae7b20e9142p-30", "0x1.4c5d9b66f8f45p-42", 16,
      "82b4a75cfacaf6867aa54aeb93341c7e");
    (`Delay 16, 200, 8, "0x1.6f0244940ccdep-29", "0x1.08456f136fc87p-40", 16,
      "4c6336cf51d2a5c1b198ca028ffc817d");
    (`Delay 16, 800, 1, "-0x1.a1c118fb919acp-26", "0x1.3749ef34bc35fp-44", 16,
      "e56be56e60f8460641e7d3d602a43f74");
    (`Delay 16, 800, 4, "-0x1.553675ead0b1cp-28", "0x1.64af621717a89p-42", 16,
      "4a2f39179924ce7fa8351aecc6752429");
    (`Delay 16, 800, 8, "-0x1.fe62fe224d966p-31", "0x1.dca93648c032bp-41", 16,
      "09cf8e4aed7f7fff43638c7c0dc27175");
    (`Half_budget 8, 50, 4, "0x1.722584a52e5b9p-29", "0x1.3749ef34bc36p-44", 7,
      "75ac6795fa63b7bdbf50af109c42b3b0");
    (`Half_budget 8, 200, 4, "-0x1.1c8f52d3b282cp-31", "0x1.71a7cc0e9f802p-44", 7,
      "de49593d3cdf1107e9b4abeb1cd94f07");
    (`Half_budget 8, 800, 4, "-0x1.ba35d7a6de6b7p-27", "0x1.7824010a636bep-44", 8,
      "be6fb32e95583defe7677c387facf156");
  ]

let dp_scenario (mode, sinks, types, slack, energy, buffers, placements) =
  let lib = List.filteri (fun i _ -> i < types) lib in
  let seg = Rctree.Segment.refine (Fixtures.caterpillar process sinks) ~max_len:500e-6 in
  let best ~noise mode = Option.get (Bufins.Dp.run ~noise ~mode ~lib seg).Bufins.Dp.best in
  let runs =
    match mode with
    | `Delay k ->
        [
          (Printf.sprintf "delay k%d" k, best ~noise:false (Bufins.Dp.Per_count k));
          (Printf.sprintf "up-to k%d" k, best ~noise:false (Bufins.Dp.Up_to k));
        ]
    | `Noise -> [ ("noise", best ~noise:true Bufins.Dp.Single) ]
    | `Half_budget k ->
        let unc = best ~noise:false (Bufins.Dp.Per_count k) in
        let budget = 0.5 *. unc.Bufins.Dp.energy in
        [
          ( Printf.sprintf "power k%d" k,
            best ~noise:false (Bufins.Dp.Power_bounded { budget; kmax = k }) );
        ]
  in
  List.iter
    (fun (name, (r : Bufins.Dp.result)) ->
      let name = Printf.sprintf "%s, %d sinks, b = %d" name sinks types in
      Alcotest.(check string) (name ^ ": slack") slack (Printf.sprintf "%h" r.Bufins.Dp.slack);
      Alcotest.(check string)
        (name ^ ": energy") energy
        (Printf.sprintf "%h" r.Bufins.Dp.energy);
      Alcotest.(check int) (name ^ ": buffers") buffers r.Bufins.Dp.count;
      let digest =
        List.map
          (fun (p : Rctree.Surgery.placement) ->
            Printf.sprintf "%d %s" p.Rctree.Surgery.node
              p.Rctree.Surgery.buffer.Tech.Buffer.name)
          r.Bufins.Dp.placements
        |> String.concat ";" |> Digest.string |> Digest.to_hex
      in
      Alcotest.(check string) (name ^ ": placements") placements digest)
    runs

(* Serve's incremental re-optimize on the 800-sink net (delay mode,
   kmax = 16): four single-sink RAT edits through a resident Dp.Memo
   must each reproduce a scratch run, and the fastest incremental run
   must beat the fastest scratch run by 5x (33x when this floor was
   set). *)
let incremental_beats_scratch () =
  let module T = Rctree.Tree in
  let run ?memo t =
    Util.Clock.timed (fun () ->
        Bufins.Dp.run ?memo ~noise:false ~mode:(Bufins.Dp.Per_count 16) ~lib t)
  in
  let memo = Bufins.Dp.Memo.create () in
  let tree = ref (Rctree.Segment.refine (Fixtures.caterpillar process 800) ~max_len:500e-6) in
  ignore (run ~memo !tree);
  let sinks = Array.of_list (T.sinks !tree) in
  let t_incr = ref infinity and t_full = ref infinity in
  for i = 1 to 4 do
    let s = sinks.(i * 37 mod Array.length sinks) in
    let rat = match T.kind !tree s with T.Sink sk -> sk.T.rat | _ -> assert false in
    tree := T.with_sink_rat !tree s ~rat:(rat *. 0.999);
    Bufins.Dp.Memo.dirty memo !tree s;
    let inc, dt_incr = run ~memo !tree in
    let scratch, dt_full = run !tree in
    Alcotest.(check bool)
      (Printf.sprintf "edit %d: incremental = scratch" i)
      true (Test_dp.eq_outcome inc scratch);
    t_incr := Float.min !t_incr dt_incr;
    t_full := Float.min !t_full dt_full
  done;
  let speedup = !t_full /. !t_incr in
  if speedup < 5.0 then Alcotest.failf "incremental speedup %.1fx is below 5x" speedup

let tests =
  [
    Alcotest.test_case "alg2 clears a 200-sink tree" `Slow (fun () ->
        let t = Fixtures.caterpillar process 200 in
        let r = Bufins.Alg2.run ~lib t in
        Alcotest.(check bool) "clean" true
          (Bufins.Eval.noise_clean (Bufins.Eval.apply t r.Bufins.Alg2.placements)));
    Alcotest.test_case "alg3 handles a 200-sink segmented tree" `Slow (fun () ->
        let t = Rctree.Segment.refine (Fixtures.caterpillar process 200) ~max_len:500e-6 in
        match (Bufins.Dp.run ~noise:true ~mode:Bufins.Dp.Single ~lib t).Bufins.Dp.best with
        | Some r ->
            Alcotest.(check bool) "clean" true
              (Bufins.Eval.noise_clean (Bufins.Eval.apply t r.Bufins.Dp.placements))
        | None -> Alcotest.fail "infeasible");
    Alcotest.test_case "buffopt problem 3 at scale" `Slow (fun () ->
        let t = Fixtures.caterpillar process 100 in
        match Bufins.Buffopt.optimize Bufins.Buffopt.Buffopt ~lib t with
        | Some r ->
            Alcotest.(check bool) "clean" true (Bufins.Eval.noise_clean r.Bufins.Buffopt.report)
        | None -> Alcotest.fail "infeasible");
    Alcotest.test_case "transient deck with a thousand unknowns" `Slow (fun () ->
        (* [n_seg] only caps a wire's sections, so the size comes from
           the tree: a 20 mm line cut into 20 um pieces, one section each *)
        let t = Rctree.Segment.refine (Fixtures.two_pin process ~len:20e-3) ~max_len:20e-6 in
        let cfg = Noisesim.Deck.default_config process in
        let deck = Noisesim.Deck.of_stage cfg t ~gate:(Rctree.Tree.root t) in
        let unknowns =
          Circuit.Netlist.node_count deck.Noisesim.Deck.netlist
          - List.length deck.Noisesim.Deck.sources
        in
        if unknowns < 1000 then Alcotest.failf "%d unknowns" unknowns;
        match Noisesim.Deck.peak_noise cfg deck with
        | [ (_, peak) ] -> Alcotest.(check bool) "positive" true (peak > 0.0)
        | _ -> Alcotest.fail "one probe expected");
    Alcotest.test_case "dp scenarios: 50-800 sinks, b = 1/4/8, power" `Slow (fun () ->
        List.iter dp_scenario dp_scenarios);
    Alcotest.test_case "incremental = scratch and 5x faster at 800 sinks" `Slow
      incremental_beats_scratch;
  ]

let suites = [ ("scale", tests) ]
