open Helpers
module T = Rctree.Tree

let tree_gen =
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

(* exhaustive joint optimum over width and buffer assignments *)
let brute_joint ~widths ~lib tree =
  let wire_nodes =
    List.filter
      (fun v -> v <> T.root tree && (T.wire_to tree v).T.length > 0.0)
      (T.postorder tree)
  in
  let rec width_assignments = function
    | [] -> Seq.return []
    | v :: rest ->
        Seq.concat_map
          (fun tail -> Seq.map (fun w -> (v, w) :: tail) (List.to_seq widths))
          (width_assignments rest)
  in
  Seq.fold_left
    (fun best sizes ->
      let sized = Bufins.Wiresize.apply_sizes tree sizes in
      match Bufins.Brute.best_slack ~noise:false ~lib sized with
      | Some (slack, _) -> (
          match best with Some b when b >= slack -> best | Some _ | None -> Some slack)
      | None -> best)
    None (width_assignments wire_nodes)

let tests =
  [
    case "resize model" (fun () ->
        let w = T.make_wire ~length:1e-3 ~res:80.0 ~cap:2e-13 ~cur:1e-3 in
        let r = T.resize_wire w ~width:2.0 in
        feq_rel "half resistance" ~eps:1e-12 40.0 r.T.res;
        feq_rel "area grows" ~eps:1e-12 (2e-13 *. ((0.4 *. 2.0) +. 0.6)) r.T.cap;
        feq_rel "coupling unchanged" ~eps:1e-12 1e-3 r.T.cur;
        feq_rel "length unchanged" ~eps:1e-12 1e-3 r.T.length);
    case "width one is the identity" (fun () ->
        let w = T.make_wire ~length:1e-3 ~res:80.0 ~cap:2e-13 ~cur:1e-3 in
        let r = T.resize_wire w ~width:1.0 in
        feq_rel "res" ~eps:1e-15 w.T.res r.T.res;
        feq_rel "cap" ~eps:1e-15 w.T.cap r.T.cap);
    qcase ~count:15 "matches joint brute force (single buffer, widths 1/3)" tree_gen (function
      | None -> true
      | Some seg -> (
          let feasible = List.filter (T.feasible seg) (T.internals seg) in
          let wires =
            List.filter (fun v -> v <> T.root seg && (T.wire_to seg v).T.length > 0.0) (T.postorder seg)
          in
          if List.length feasible > 4 || List.length wires > 6 then true
          else begin
            let widths = [ 1.0; 3.0 ] in
            match
              ( Bufins.Wiresize.run ~widths ~noise:false ~lib:single_lib seg,
                brute_joint ~widths ~lib:single_lib seg )
            with
            | Some r, Some best -> Util.Fx.approx ~rel:1e-9 ~abs:1e-15 best r.Bufins.Dp.slack
            | None, _ | _, None -> false
          end));
    qcase ~count:40 "wider menu never hurts" workload_gen (fun t ->
        let seg = Rctree.Segment.refine t ~max_len:1e-3 in
        match
          ( Bufins.Wiresize.run ~widths:[ 1.0 ] ~noise:false ~lib seg,
            Bufins.Wiresize.run ~widths:[ 1.0; 2.0; 4.0 ] ~noise:false ~lib seg )
        with
        | Some narrow, Some wide -> wide.Bufins.Dp.slack >= narrow.Bufins.Dp.slack -. 1e-15
        | _, _ -> false);
    qcase ~count:40 "predicted slack equals evaluated slack" workload_gen (fun t ->
        let seg = Rctree.Segment.refine t ~max_len:1e-3 in
        match Bufins.Wiresize.run ~noise:false ~lib seg with
        | Some r ->
            let report = Bufins.Wiresize.evaluate seg r in
            Util.Fx.approx ~rel:1e-9 ~abs:1e-16 r.Bufins.Dp.slack report.Bufins.Eval.slack
        | None -> false);
    qcase ~count:30 "noise mode stays clean with sizing" workload_gen (fun t ->
        let seg = Rctree.Segment.refine t ~max_len:700e-6 in
        match Bufins.Wiresize.run ~noise:true ~lib seg with
        | Some r -> Bufins.Eval.noise_clean (Bufins.Wiresize.evaluate seg r)
        | None -> false);
    qcase ~count:30 "sizing never hurts the noise-constrained optimum" workload_gen (fun t ->
        let seg = Rctree.Segment.refine t ~max_len:700e-6 in
        let plain = Bufins.Dp.run ~noise:true ~mode:Bufins.Dp.Single ~lib seg in
        match (plain.Bufins.Dp.best, Bufins.Wiresize.run ~noise:true ~lib seg) with
        | Some plain, Some sized -> sized.Bufins.Dp.slack >= plain.Bufins.Dp.slack -. 1e-15
        | None, Some _ -> true
        | _, None -> false);
    case "matches plain van ginneken when menu is trivial" (fun () ->
        let t = Rctree.Segment.refine (Fixtures.two_pin process ~len:8e-3) ~max_len:1e-3 in
        let o = Bufins.Dp.run ~noise:false ~mode:Bufins.Dp.Single ~lib t in
        let plain = Option.get o.Bufins.Dp.best in
        match Bufins.Wiresize.run ~widths:[ 1.0 ] ~noise:false ~lib t with
        | Some sized ->
            feq_rel "same slack" ~eps:1e-12 plain.Bufins.Dp.slack sized.Bufins.Dp.slack;
            Alcotest.(check int) "no sizes" 0 (List.length sized.Bufins.Dp.sizes)
        | None -> Alcotest.fail "unexpected None");
    case "apply_sizes rejects bad nodes" (fun () ->
        let t = Fixtures.two_pin process ~len:1e-3 in
        Alcotest.(check bool) "root" true
          (match Bufins.Wiresize.apply_sizes t [ (0, 2.0) ] with
          | exception Invalid_argument _ -> true
          | _ -> false));
    case "bad width menu rejected" (fun () ->
        let t = Fixtures.two_pin process ~len:1e-3 in
        Alcotest.(check bool) "raises" true
          (match Bufins.Wiresize.run ~widths:[ 0.5 ] ~noise:false ~lib t with
          | exception Invalid_argument _ -> true
          | _ -> false));
    case "long resistive line prefers wide wire" (fun () ->
        (* no buffer sites, a strong driver: widening is the only lever
           and clearly wins on a 6 mm resistive line *)
        let t = Fixtures.two_pin ~r_drv:25.0 ~rat:5e-9 process ~len:6e-3 in
        match
          ( Bufins.Wiresize.run ~widths:[ 1.0; 4.0 ] ~noise:false ~lib t,
            Bufins.Wiresize.run ~widths:[ 1.0 ] ~noise:false ~lib t )
        with
        | Some wide, Some narrow ->
            Alcotest.(check bool) "wire widened" true (wide.Bufins.Dp.sizes <> []);
            Alcotest.(check bool) "strictly better" true
              (wide.Bufins.Dp.slack > narrow.Bufins.Dp.slack +. 1e-12)
        | _, _ -> Alcotest.fail "unexpected None");
  ]

let suites = [ ("bufins.wiresize", tests) ]
