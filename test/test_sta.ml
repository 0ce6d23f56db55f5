open Helpers
module P = Geometry.Point
module D = Sta.Design

let inv = Sta.Cell.find "inv_x4"

(* PI -> inv -> PO in a straight 2 mm line per net *)
let two_stage () =
  let pi =
    { D.pname = "in"; pat = P.make 0 0; arrival = 50e-12; r_pad = 100.0; d_pad = 30e-12 }
  in
  let po =
    { D.oname = "out"; oat = P.make 4_000_000 0; required = 2e-9; c_pad = 30e-15; po_nm = 0.8 }
  in
  let inst = { D.iname = "g0"; cell = inv; at = P.make 2_000_000 0 } in
  {
    D.instances = [| inst |];
    nets =
      [|
        { D.nname = "n0"; source = D.From_pi 0; sinks = [| D.To_inst (0, 0) |] };
        { D.nname = "n1"; source = D.From_inst 0; sinks = [| D.To_po 0 |] };
      |];
    pis = [| pi |];
    pos = [| po |];
  }

let expected_two_stage_arrival () =
  let len = 2e-3 in
  let rw = Tech.Process.wire_r process len and cw = Tech.Process.wire_c process len in
  let stage r_drv d c_sink = d +. (r_drv *. (cw +. c_sink)) +. (rw *. ((cw /. 2.0) +. c_sink)) in
  50e-12 +. stage 100.0 30e-12 inv.Sta.Cell.c_in
  +. stage inv.Sta.Cell.r_out inv.Sta.Cell.d_intr 30e-15

let design_gen =
  QCheck2.Gen.(
    map
      (fun seed ->
        Sta.Gen.random { Sta.Gen.default_config with Sta.Gen.gates = 40; pis = 6; seed })
      small_int)

(* block200 elaborated at a placement seed, as the signoff benchmark
   loads it *)
let block200 placement =
  let read f =
    In_channel.with_open_bin (Filename.concat "../examples/blif" f) In_channel.input_all
  in
  let liberty = Ingest.Liberty.of_string (read "cells.lib") in
  let options =
    {
      Ingest.Elab.default_options with
      Ingest.Elab.cells = liberty.Ingest.Liberty.cells;
      seed = placement;
    }
  in
  fst (Ingest.Elab.design_of_blif ~options (Ingest.Blif.of_string (read "block200.blif")))

(* block200 at five placements and three random designs *)
let derivation_designs () =
  List.map (fun p -> (Printf.sprintf "block200@%d" p, block200 p)) [ 0; 1; 17; 1000; 2001 ]
  @ List.map
      (fun seed ->
        ( Printf.sprintf "random seed %d" seed,
          Sta.Gen.random { Sta.Gen.default_config with Sta.Gen.gates = 60; seed } ))
      [ 1; 5; 11 ]

(* the driver lookup by a scan of every net, the last match winning *)
let scan_source_net (d : D.t) src =
  let found = ref (-1) in
  Array.iteri (fun nid (net : D.net) -> if net.D.source = src then found := nid) d.D.nets;
  if !found < 0 then invalid_arg "dangling source";
  !found

let cell_tests =
  [
    case "library lookup" (fun () ->
        Alcotest.(check int) "nand2 inputs" 2 (Sta.Cell.find "nand2_x1").Sta.Cell.n_inputs;
        Alcotest.(check bool) "unknown raises" true
          (match Sta.Cell.find "nope" with exception Not_found -> true | _ -> false));
    case "dynamic cells have reduced margins" (fun () ->
        Alcotest.(check bool) "0.5 V" true ((Sta.Cell.find "dyn_and2").Sta.Cell.nm = 0.5));
  ]

let design_tests =
  [
    case "two-stage design validates" (fun () ->
        Alcotest.(check (result unit string)) "ok" (Ok ()) (D.validate (two_stage ())));
    case "unconnected input detected" (fun () ->
        let d = two_stage () in
        let broken = { d with D.nets = [| d.D.nets.(1) |] } in
        Alcotest.(check bool) "error" true (D.validate broken <> Ok ()));
    case "doubly driven input detected" (fun () ->
        let d = two_stage () in
        let dup =
          {
            d with
            D.nets =
              Array.append d.D.nets
                [| { D.nname = "n2"; source = D.From_pi 0; sinks = [| D.To_inst (0, 0) |] } |];
          }
        in
        Alcotest.(check bool) "error" true (D.validate dup <> Ok ()));
    case "cycle detected" (fun () ->
        let a = { D.iname = "a"; cell = inv; at = P.make 0 0 } in
        let b = { D.iname = "b"; cell = inv; at = P.make 1000 0 } in
        let po = { D.oname = "o"; oat = P.make 2000 0; required = 1e-9; c_pad = 1e-15; po_nm = 0.8 } in
        let pi = { D.pname = "i"; pat = P.make 3000 0; arrival = 0.0; r_pad = 100.0; d_pad = 0.0 } in
        let d =
          {
            D.instances = [| a; b |];
            nets =
              [|
                { D.nname = "nab"; source = D.From_inst 0; sinks = [| D.To_inst (1, 0) |] };
                { D.nname = "nba"; source = D.From_inst 1; sinks = [| D.To_inst (0, 0); D.To_po 0 |] };
                { D.nname = "npi"; source = D.From_pi 0; sinks = [| D.To_po 0 |] };
              |];
            pis = [| pi |];
            pos = [| po |];
          }
        in
        (* note npi double-drives the PO too; either error is acceptable *)
        Alcotest.(check bool) "error" true (D.validate d <> Ok ()));
    case "source_nets agrees with a scan of the nets" (fun () ->
        List.iter
          (fun (name, (d : D.t)) ->
            let net_of = D.source_nets d in
            let sources =
              List.init (Array.length d.D.pis) (fun p -> D.From_pi p)
              @ List.init (Array.length d.D.instances) (fun i -> D.From_inst i)
            in
            List.iter
              (fun src -> Alcotest.(check int) name (scan_source_net d src) (net_of src))
              sources)
          (derivation_designs ()));
    case "source_nets raises on a dangling source" (fun () ->
        let d = two_stage () in
        (* drop n1, the net the inverter drives *)
        let d = { d with D.nets = [| d.D.nets.(0) |] } in
        let net_of = D.source_nets d in
        Alcotest.(check int) "the PI still drives n0" 0 (net_of (D.From_pi 0));
        List.iter
          (fun src ->
            let dangling f =
              match f src with exception Invalid_argument _ -> true | (_ : int) -> false
            in
            Alcotest.(check bool) "scan raises" true (dangling (scan_source_net d));
            Alcotest.(check bool) "index raises" true (dangling net_of))
          [ D.From_inst 0; D.From_inst 1; D.From_pi 1; D.From_pi (-1) ]);
    qcase ~count:30 "random designs validate" design_gen (fun d -> D.validate d = Ok ());
    qcase ~count:30 "topological order is consistent" design_gen (fun d ->
        let pos_of = Hashtbl.create 64 in
        List.iteri (fun idx i -> Hashtbl.replace pos_of i idx) (D.topo_order d);
        Array.for_all
          (fun net ->
            match net.D.source with
            | D.From_pi _ -> true
            | D.From_inst src ->
                Array.for_all
                  (fun s ->
                    match s with
                    | D.To_inst (i, _) -> Hashtbl.find pos_of src < Hashtbl.find pos_of i
                    | D.To_po _ -> true)
                  net.D.sinks)
          d.D.nets);
  ]

let engine_tests =
  [
    case "two-stage arrival matches hand computation" (fun () ->
        let d = two_stage () in
        let t = Sta.Engine.analyze process d in
        let expected = expected_two_stage_arrival () in
        feq_rel "wns" ~eps:1e-9 (2e-9 -. expected) t.Sta.Engine.wns;
        match Sta.Engine.endpoint_slacks d t with
        | [ ("out", slack) ] -> feq_rel "endpoint" ~eps:1e-9 (2e-9 -. expected) slack
        | _ -> Alcotest.fail "unexpected endpoints");
    qcase ~count:20 "pin slacks never beat the wns" design_gen (fun d ->
        let t = Sta.Engine.analyze process d in
        Array.for_all
          (fun (nt : Sta.Engine.net_timing) ->
            Array.for_all2
              (fun (_, r) (_, a) -> r -. a >= t.Sta.Engine.wns -. 1e-12)
              nt.Sta.Engine.sink_required nt.Sta.Engine.sink_arrival)
          t.Sta.Engine.nets);
    qcase ~count:20 "tns is consistent with endpoint slacks" design_gen (fun d ->
        let t = Sta.Engine.analyze process d in
        let sum =
          List.fold_left
            (fun acc (_, s) -> if s < 0.0 then acc +. s else acc)
            0.0
            (Sta.Engine.endpoint_slacks d t)
        in
        Util.Fx.approx ~rel:1e-9 ~abs:1e-15 sum t.Sta.Engine.tns);
    case "supplying a buffered tree speeds a long net up" (fun () ->
        let d = two_stage () in
        let base = Sta.Engine.analyze process d in
        let tree = Sta.Engine.net_to_steiner d 1 |> Steiner.Build.tree_of_net process in
        let seg = Rctree.Segment.refine tree ~max_len:500e-6 in
        let o = Bufins.Dp.run ~noise:false ~mode:Bufins.Dp.Single ~lib seg in
        let opt = Option.get o.Bufins.Dp.best in
        let buffered = Rctree.Surgery.apply seg opt.Bufins.Dp.placements in
        let t =
          Sta.Engine.analyze ~trees:(fun nid -> if nid = 1 then Some buffered else None) process d
        in
        Alcotest.(check bool) "wns improves" true (t.Sta.Engine.wns > base.Sta.Engine.wns);
        Alcotest.(check int) "buffers counted" opt.Bufins.Dp.count t.Sta.Engine.total_buffers);
  ]

let rat_tests =
  [
    case "net_to_steiner installs rats and margins" (fun () ->
        let d = two_stage () in
        let snet = Sta.Engine.net_to_steiner ~rats:[| 1.5e-9 |] d 1 in
        (match snet.Steiner.Net.pins with
        | [ pin ] ->
            feq_rel "rat" ~eps:1e-12 1.5e-9 pin.Steiner.Net.rat;
            feq "po margin" 0.8 pin.Steiner.Net.nm;
            feq_rel "pad cap" ~eps:1e-12 30e-15 pin.Steiner.Net.c_sink
        | _ -> Alcotest.fail "one pin expected");
        let snet0 = Sta.Engine.net_to_steiner d 0 in
        match snet0.Steiner.Net.pins with
        | [ pin ] ->
            feq_rel "cell input cap" ~eps:1e-12 inv.Sta.Cell.c_in pin.Steiner.Net.c_sink;
            feq "cell margin" inv.Sta.Cell.nm pin.Steiner.Net.nm
        | _ -> Alcotest.fail "one pin expected");
    case "batch_jobs equals the direct derivation" (fun () ->
        (* the tree STA built, RATs installed, against a fresh Steiner
           build from the placed net carrying those RATs *)
        let bytes v = Marshal.to_string v [ Marshal.No_sharing ] in
        List.iter
          (fun (name, d) ->
            let t = Sta.Engine.analyze process d in
            let direct =
              List.init (Array.length d.D.nets) (fun nid ->
                  let nt = t.Sta.Engine.nets.(nid) in
                  let rats =
                    Array.map
                      (fun (_, r) -> r -. nt.Sta.Engine.source_arrival)
                      nt.Sta.Engine.sink_required
                  in
                  let snet = Sta.Engine.net_to_steiner ~rats d nid in
                  (snet, Steiner.Build.tree_of_net process snet))
            in
            let jobs = Sta.Engine.batch_jobs process d in
            Alcotest.(check int)
              (name ^ ": one job per net")
              (List.length direct) (List.length jobs);
            List.iteri
              (fun nid (job, want) ->
                if bytes job <> bytes want then
                  Alcotest.failf "%s: net %d differs from the direct derivation" name nid)
              (List.combine jobs direct))
          (derivation_designs ()));
    case "flow rats make per-net timing consistent with sta" (fun () ->
        (* the slack the optimizer sees for a net equals the STA's
           worst pin slack on that net *)
        let d = Sta.Gen.random { Sta.Gen.default_config with Sta.Gen.gates = 30; seed = 9 } in
        let t = Sta.Engine.analyze process d in
        Array.iteri
          (fun nid (nt : Sta.Engine.net_timing) ->
            let rats =
              Array.map (fun (_, r) -> r -. nt.Sta.Engine.source_arrival) nt.Sta.Engine.sink_required
            in
            let snet = Sta.Engine.net_to_steiner ~rats d nid in
            let tree = Steiner.Build.tree_of_net process snet in
            let opt_slack = Elmore.slack tree in
            let sta_slack =
              Array.fold_left
                (fun acc ((_, r), (_, a)) -> Float.min acc (r -. a))
                infinity
                (Array.map2 (fun r a -> (r, a)) nt.Sta.Engine.sink_required nt.Sta.Engine.sink_arrival)
            in
            feq_rel (Printf.sprintf "net %d" nid) ~eps:1e-6 sta_slack opt_slack)
          t.Sta.Engine.nets);
  ]

let flow_tests =
  [
    case "flow clears noise and closes timing on the default design" (fun () ->
        let d = Sta.Gen.random Sta.Gen.default_config in
        let r = Sta.Flow.optimize process ~lib d in
        Alcotest.(check int) "no noisy nets" 0 r.Sta.Flow.after.Sta.Engine.noisy_nets;
        Alcotest.(check bool) "wns improves" true
          (r.Sta.Flow.after.Sta.Engine.wns > r.Sta.Flow.before.Sta.Engine.wns);
        feq "tns closed" 0.0 r.Sta.Flow.after.Sta.Engine.tns;
        Alcotest.(check bool) "buffers inserted" true (r.Sta.Flow.inserted_buffers > 0);
        Alcotest.(check bool) "no infeasible nets" true (r.Sta.Flow.infeasible_nets = 0));
    qcase ~count:8 "flow always removes every noise violation" design_gen (fun d ->
        let r = Sta.Flow.optimize process ~lib d in
        r.Sta.Flow.after.Sta.Engine.noisy_nets = 0
        && r.Sta.Flow.after.Sta.Engine.wns >= r.Sta.Flow.before.Sta.Engine.wns -. 1e-12);
    case "flow is deterministic" (fun () ->
        let d = Sta.Gen.random { Sta.Gen.default_config with Sta.Gen.gates = 40 } in
        let a = Sta.Flow.optimize process ~lib d and b = Sta.Flow.optimize process ~lib d in
        feq "same wns" a.Sta.Flow.after.Sta.Engine.wns b.Sta.Flow.after.Sta.Engine.wns;
        Alcotest.(check int) "same buffers" a.Sta.Flow.inserted_buffers b.Sta.Flow.inserted_buffers);
  ]


let sizing_tests =
  [
    case "upsize map" (fun () ->
        Alcotest.(check bool) "inv_x1 grows" true
          (Sta.Cell.upsize (Sta.Cell.find "inv_x1") = Some (Sta.Cell.find "inv_x4"));
        Alcotest.(check bool) "inv_x4 tops out" true (Sta.Cell.upsize (Sta.Cell.find "inv_x4") = None));
  ]

let suites =
  [
    ("sta.cell", cell_tests);
    ("sta.design", design_tests);
    ("sta.engine", engine_tests);
    ("sta.rats", rat_tests);
    ("sta.flow", flow_tests);
    ("sta.sizing", sizing_tests);
  ]
