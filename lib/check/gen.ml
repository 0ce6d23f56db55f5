module T = Rctree.Tree

let process = Tech.Process.default

let small_buffer =
  Tech.Buffer.make ~name:"b0" ~inverting:false ~c_in:2e-15 ~r_b:100.0 ~d_b:30e-12 ~nm:0.6 ()

let single_lib = [ small_buffer ]

let two_lib =
  [
    small_buffer;
    Tech.Buffer.make ~name:"i0" ~inverting:true ~c_in:1.5e-15 ~r_b:140.0 ~d_b:15e-12 ~nm:0.6
      ();
  ]

let mixed_lib =
  [
    Tech.Buffer.make ~name:"fastlow" ~inverting:false ~c_in:2e-15 ~r_b:100.0 ~d_b:10e-12
      ~nm:0.3 ();
    Tech.Buffer.make ~name:"slowhigh" ~inverting:false ~c_in:3e-15 ~r_b:120.0 ~d_b:30e-12
      ~nm:0.9 ();
  ]

(* The random-attachment tree shape shared by [theorem5_tree] and
   [lowmargin_tree]; only the wire-length and margin regimes differ. *)
let attach_tree rng ~max_wire ~nm_lo ~nm_hi =
  let b = Rctree.Builder.create () in
  let so =
    Rctree.Builder.add_source b
      ~r_drv:(Util.Rng.range rng 120.0 300.0)
      ~d_drv:(Util.Rng.range rng 0.0 50e-12)
  in
  let wire () = T.wire_of_length process (Util.Rng.range rng 0.3e-3 max_wire) in
  let n_sinks = 1 + Util.Rng.int rng 3 in
  let attach = ref [ so ] in
  for k = 0 to n_sinks - 1 do
    let parent = List.nth !attach (Util.Rng.int rng (List.length !attach)) in
    let parent =
      if Util.Rng.bool rng then begin
        let v = Rctree.Builder.add_internal b ~parent ~wire:(wire ()) () in
        attach := v :: !attach;
        v
      end
      else parent
    in
    ignore
      (Rctree.Builder.add_sink b ~parent ~wire:(wire ())
         ~name:(Printf.sprintf "s%d" k)
         ~c_sink:(Util.Rng.range rng 5e-15 40e-15)
         ~rat:(Util.Rng.range rng 0.3e-9 1.5e-9)
         ~nm:(Util.Rng.range rng nm_lo nm_hi))
  done;
  Rctree.Builder.finish b

let theorem5_tree rng = attach_tree rng ~max_wire:2.5e-3 ~nm_lo:0.7 ~nm_hi:1.0

let lowmargin_tree rng = attach_tree rng ~max_wire:3.0e-3 ~nm_lo:0.4 ~nm_hi:0.9

let chain rng =
  let len = Util.Rng.range rng 0.5e-3 15e-3 in
  let r_drv = Util.Rng.range rng 20.0 400.0 in
  let c_sink = Util.Rng.range rng 2e-15 50e-15 in
  Fixtures.two_pin ~r_drv ~c_sink process ~len

let segment_for_brute tree =
  let seg = Rctree.Segment.refine tree ~max_len:1.5e-3 in
  let feasible = List.filter (T.feasible seg) (T.internals seg) in
  if List.length feasible <= 9 then Some seg else None

let random_net rng = Fixtures.random_net rng process ~max_sinks:5 ~max_len:5e-3

(* one Workload net (the Table I sink-count mix, 2-16 mm) under a random
   seed: the population Noisesim verifies in Table II *)
let workload_net rng =
  let cfg =
    { Workload.default_config with Workload.nets = 1; seed = Util.Rng.int rng 1_000_000 }
  in
  match Workload.trees process (Workload.generate cfg) with
  | [ (_, tree) ] -> tree
  | _ -> invalid_arg "Gen.workload_net: expected one net"

(* {1 Front-end fodder: random designs and libraries}

   These feed the parser round-trip oracle, so the float fields are
   arbitrary doubles on purpose: the writers promise bit-identical
   round-trips through [Util.Fx], not just for pretty values. *)

let random_cells rng =
  let n = 3 + Util.Rng.int rng 6 in
  List.init n (fun i ->
      {
        Sta.Cell.cname = Printf.sprintf "c%d_x%d" i (1 + Util.Rng.int rng 8);
        n_inputs = 1 + Util.Rng.int rng 3;
        c_in = Util.Rng.range rng 1e-15 25e-15;
        r_out = Util.Rng.range rng 200.0 9000.0;
        d_intr = Util.Rng.range rng 10e-12 400e-12;
        nm = Util.Rng.range rng 0.3 1.2;
      })

let random_buffers rng =
  let n = 2 + Util.Rng.int rng 4 in
  List.init n (fun i ->
      Tech.Buffer.make
        ~name:(Printf.sprintf "rb%d" i)
        ~inverting:(Util.Rng.bool rng)
        ~c_in:(Util.Rng.range rng 1e-15 10e-15)
        ~r_b:(Util.Rng.range rng 80.0 800.0)
        ~d_b:(Util.Rng.range rng 5e-12 60e-12)
        ~nm:(Util.Rng.range rng 0.3 1.0)
        ~energy:(Util.Rng.range rng 1e-15 20e-15) ())

let random_design rng =
  let cfg =
    {
      Sta.Gen.default_config with
      Sta.Gen.gates = 5 + Util.Rng.int rng 30;
      pis = 3 + Util.Rng.int rng 6;
      seed = Util.Rng.int rng 1_000_000;
    }
  in
  Sta.Gen.random cfg

let instance_for oracle rng =
  match oracle with
  | Instance.Vangin_vs_brute ->
      let lib = if Util.Rng.bool rng then single_lib else two_lib in
      Instance.make ~tree:(theorem5_tree rng) ~lib ~seg_len:1.5e-3 oracle
  | Instance.Alg3_vs_brute ->
      let tree, lib =
        if Util.Rng.bool rng then (theorem5_tree rng, single_lib)
        else (lowmargin_tree rng, mixed_lib)
      in
      Instance.make ~tree ~lib ~seg_len:1.5e-3 oracle
  | Instance.Alg1_vs_alg2 ->
      Instance.make ~tree:(chain rng) ~lib:Tech.Lib.default_library ~seg_len:1.5e-3 oracle
  | Instance.Alg3_vs_vangin ->
      Instance.make ~tree:(random_net rng) ~lib:Tech.Lib.default_library ~seg_len:500e-6
        oracle
  | Instance.Buffopt_problem3 ->
      Instance.make ~tree:(random_net rng) ~lib:Tech.Lib.default_library ~seg_len:700e-6
        oracle
  | Instance.Dp_invariants ->
      Instance.make ~tree:(random_net rng) ~lib:Tech.Lib.default_library ~seg_len:500e-6
        oracle
  | Instance.Dp_trace ->
      Instance.make ~tree:(random_net rng) ~lib:Tech.Lib.default_library ~seg_len:500e-6
        oracle
  | Instance.Pred_vs_sweep ->
      Instance.make ~tree:(random_net rng) ~lib:Tech.Lib.default_library ~seg_len:500e-6
        oracle
  | Instance.Incremental_vs_scratch | Instance.Count_front ->
      Instance.make ~tree:(random_net rng) ~lib:Tech.Lib.default_library ~seg_len:500e-6
        oracle
  | Instance.Parser_roundtrip ->
      (* the tree is only entropy: the oracle derives its designs and
         libraries from the instance's content (Diff), so any valid
         instance works — and corpus replay stays meaningful *)
      Instance.make ~tree:(random_net rng) ~lib:Tech.Lib.default_library ~seg_len:500e-6
        oracle
  | Instance.Power_vs_brute ->
      (* brute-tractable trees; libraries with distinct energies (and an
         inverting buffer) so budgets actually separate solutions *)
      let lib =
        match Util.Rng.int rng 3 with 0 -> single_lib | 1 -> two_lib | _ -> mixed_lib
      in
      Instance.make ~tree:(theorem5_tree rng) ~lib ~seg_len:1.5e-3 oracle
  | Instance.Energy_conservation ->
      Instance.make ~tree:(random_net rng) ~lib:Tech.Lib.default_library ~seg_len:500e-6
        oracle
  | Instance.Power_monotonicity ->
      (* coarser segmenting than the other DP oracles: the ladder runs
         the budgeted DP five times plus a Per_count reference per
         instance, and the 3-axis frontier grows steeply with node
         count; monotonicity itself does not depend on the granularity *)
      Instance.make ~tree:(random_net rng) ~lib:Tech.Lib.default_library ~seg_len:1e-3
        oracle
  | Instance.Transient_tree_vs_dense ->
      (* the segmenting sets the deck size the dense reference pays
         O(n^2) per step for; the oracle draws the rest from the content *)
      Instance.make ~tree:(workload_net rng) ~lib:Tech.Lib.default_library
        ~seg_len:(Util.Rng.range rng 400e-6 1.5e-3) oracle

let instance rng =
  let oracle = Util.Rng.choice rng (Array.of_list Instance.all_oracles) in
  instance_for oracle rng
