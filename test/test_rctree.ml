open Helpers
module T = Rctree.Tree
module B = Rctree.Builder

let tree_gen ~max_sinks ~max_len =
  QCheck2.Gen.(
    map
      (fun seed ->
        let rng = Util.Rng.create seed in
        Fixtures.random_net rng process ~max_sinks ~max_len)
      small_int)

let wire len = T.wire_of_length process len

let builder_tests =
  [
    case "minimal two-pin tree" (fun () ->
        let t = Fixtures.two_pin process ~len:1e-3 in
        Alcotest.(check int) "nodes" 2 (T.node_count t);
        Alcotest.(check (result unit string)) "valid" (Ok ()) (T.validate t);
        Alcotest.(check int) "sinks" 1 (List.length (T.sinks t));
        Alcotest.(check int) "root" 0 (T.root t));
    case "source must be first and unique" (fun () ->
        let b = B.create () in
        ignore (B.add_source b ~r_drv:100.0 ~d_drv:0.0);
        Alcotest.(check bool) "double source" true
          (match B.add_source b ~r_drv:1.0 ~d_drv:0.0 with
          | exception Invalid_argument _ -> true
          | _ -> false));
    case "finish without source fails" (fun () ->
        let b = B.create () in
        Alcotest.(check bool) "raises" true
          (match B.finish b with exception Invalid_argument _ -> true | _ -> false));
    case "unknown parent rejected" (fun () ->
        let b = B.create () in
        ignore (B.add_source b ~r_drv:100.0 ~d_drv:0.0);
        Alcotest.(check bool) "raises" true
          (match B.add_internal b ~parent:7 ~wire:(wire 1e-3) () with
          | exception Invalid_argument _ -> true
          | _ -> false));
    case "high fanout binarized with infeasible dummies" (fun () ->
        let b = B.create () in
        let so = B.add_source b ~r_drv:100.0 ~d_drv:0.0 in
        let hub = B.add_internal b ~parent:so ~wire:(wire 1e-3) () in
        for k = 0 to 3 do
          ignore
            (B.add_sink b ~parent:hub ~wire:(wire 1e-3) ~name:(Printf.sprintf "s%d" k)
               ~c_sink:1e-15 ~rat:1e-9 ~nm:0.8)
        done;
        let t = B.finish b in
        Alcotest.(check (result unit string)) "valid" (Ok ()) (T.validate t);
        Alcotest.(check int) "sinks kept" 4 (List.length (T.sinks t));
        List.iter
          (fun v -> Alcotest.(check bool) "fanout <= 2" true (List.length (T.children t v) <= 2))
          (T.postorder t);
        (* two dummies needed to spread 4 children *)
        Alcotest.(check int) "node count" 8 (T.node_count t);
        let dummies = List.filter (fun v -> not (T.feasible t v)) (T.internals t) in
        Alcotest.(check int) "dummies infeasible" 2 (List.length dummies);
        List.iter
          (fun v -> feq "zero wire" 0.0 (T.wire_to t v).T.length)
          dummies);
    qcase ~count:60 "random trees validate" (tree_gen ~max_sinks:8 ~max_len:2e-3) (fun t ->
        T.validate t = Ok ());
    qcase ~count:60 "postorder is child-first" (tree_gen ~max_sinks:8 ~max_len:2e-3) (fun t ->
        let pos = Array.make (T.node_count t) 0 in
        List.iteri (fun i v -> pos.(v) <- i) (T.postorder t);
        List.for_all
          (fun v -> List.for_all (fun c -> pos.(c) < pos.(v)) (T.children t v))
          (T.postorder t));
    qcase ~count:60 "path_up reaches root" (tree_gen ~max_sinks:6 ~max_len:2e-3) (fun t ->
        List.for_all
          (fun s ->
            let p = T.path_up t s in
            List.hd p = s && List.nth p (List.length p - 1) = T.root t)
          (T.sinks t));
  ]

let stage_tests =
  [
    case "stages split at buffers" (fun () ->
        let t = Fixtures.two_pin process ~len:4e-3 in
        let buf = Tech.Lib.min_resistance lib in
        let t =
          Rctree.Surgery.apply t [ { Rctree.Surgery.node = 1; dist = 2e-3; buffer = buf } ]
        in
        Alcotest.(check int) "two gates" 2 (List.length (T.gates t));
        let root_stage = T.stage_members t (T.root t) in
        Alcotest.(check int) "root stage has one wire" 1 (List.length root_stage);
        let b = List.hd (List.filter (fun g -> g <> T.root t) (T.gates t)) in
        Alcotest.(check bool) "buffer stage ends at sink" true
          (List.for_all (fun v -> T.is_stage_leaf t v) (T.stage_leaves t b)));
    case "zero length wires permitted" (fun () ->
        let b = B.create () in
        let so = B.add_source b ~r_drv:100.0 ~d_drv:0.0 in
        let v = B.add_internal b ~parent:so ~wire:T.zero_wire () in
        ignore (B.add_sink b ~parent:v ~wire:(wire 1e-3) ~name:"s" ~c_sink:1e-15 ~rat:1e-9 ~nm:0.8);
        Alcotest.(check (result unit string)) "valid" (Ok ()) (T.validate (B.finish b)));
    case "wire_of_length uses process" (fun () ->
        let w = wire 1e-3 in
        feq_rel "res" ~eps:1e-12 80.0 w.T.res;
        feq_rel "cap" ~eps:1e-12 2e-13 w.T.cap;
        feq_rel "cur" ~eps:1e-12 (Tech.Process.i_per_m process *. 1e-3) w.T.cur);
    case "scale_wire is linear" (fun () ->
        let w = wire 2e-3 in
        let h = T.scale_wire w 0.5 in
        feq_rel "len" ~eps:1e-12 (w.T.length /. 2.0) h.T.length;
        feq_rel "res" ~eps:1e-12 (w.T.res /. 2.0) h.T.res;
        feq_rel "cap" ~eps:1e-12 (w.T.cap /. 2.0) h.T.cap;
        feq_rel "cur" ~eps:1e-12 (w.T.cur /. 2.0) h.T.cur);
  ]

let segment_tests =
  [
    case "pieces_for" (fun () ->
        Alcotest.(check int) "exact" 2 (Rctree.Segment.pieces_for 1.0 ~max_len:0.5);
        Alcotest.(check int) "round up" 3 (Rctree.Segment.pieces_for 1.01 ~max_len:0.5);
        Alcotest.(check int) "short" 1 (Rctree.Segment.pieces_for 0.3 ~max_len:0.5);
        Alcotest.(check int) "zero" 1 (Rctree.Segment.pieces_for 0.0 ~max_len:0.5));
    qcase ~count:40 "refine preserves totals" (tree_gen ~max_sinks:6 ~max_len:3e-3) (fun t ->
        let s = Rctree.Segment.refine t ~max_len:400e-6 in
        T.validate s = Ok ()
        && Util.Fx.approx ~rel:1e-9 (T.total_wirelength t) (T.total_wirelength s)
        && Util.Fx.approx ~rel:1e-9 (T.total_wire_cap t) (T.total_wire_cap s)
        && List.length (T.sinks t) = List.length (T.sinks s));
    qcase ~count:40 "refine bounds wire lengths" (tree_gen ~max_sinks:6 ~max_len:3e-3) (fun t ->
        let s = Rctree.Segment.refine t ~max_len:400e-6 in
        List.for_all
          (fun v -> v = T.root s || (T.wire_to s v).T.length <= 400e-6 +. 1e-12)
          (T.postorder s));
    case "refine adds feasible nodes" (fun () ->
        let t = Fixtures.two_pin process ~len:4e-3 in
        let s = Rctree.Segment.refine t ~max_len:1e-3 in
        Alcotest.(check int) "internal nodes" 3 (List.length (T.internals s));
        List.iter
          (fun v -> Alcotest.(check bool) "feasible" true (T.feasible s v))
          (T.internals s));
    case "refine_by sizes pieces per wire" (fun () ->
        let b = Rctree.Builder.create () in
        let so = Rctree.Builder.add_source b ~r_drv:100.0 ~d_drv:0.0 in
        let mid = Rctree.Builder.add_internal b ~parent:so ~wire:(wire 2e-3) () in
        ignore
          (Rctree.Builder.add_sink b ~parent:mid ~wire:(wire 2e-3) ~name:"s" ~c_sink:1e-15
             ~rat:1e-9 ~nm:0.8);
        let t = Rctree.Builder.finish b in
        (* first wire split in half, second in quarters *)
        let s =
          Rctree.Segment.refine_by t (fun v _ -> if v = 1 then 1e-3 else 0.5e-3)
        in
        Alcotest.(check (result unit string)) "valid" (Ok ()) (T.validate s);
        Alcotest.(check int) "2 + 4 pieces -> 5 internal nodes" 5
          (List.length (T.internals s));
        feq_rel "length preserved" ~eps:1e-9 4e-3 (T.total_wirelength s));
    case "noise-driven segmenting spends nodes on coupled wires" (fun () ->
        let t = Fixtures.two_pin process ~len:8e-3 in
        let lightly =
          Fixtures.two_pin { process with Tech.Process.lambda = 0.1 } ~len:8e-3
        in
        let sc = Bufins.Segmenting.noise_driven ~lib t in
        let sq = Bufins.Segmenting.noise_driven ~lib lightly in
        Alcotest.(check bool) "heavier coupling, denser candidates" true
          (List.length (T.internals sc) > List.length (T.internals sq));
        (* and the result is still optimizable to a clean solution *)
        match (Bufins.Dp.run ~noise:true ~mode:Bufins.Dp.Single ~lib sc).Bufins.Dp.best with
        | Some r ->
            Alcotest.(check bool) "clean" true
              (Bufins.Eval.noise_clean (Bufins.Eval.apply sc r.Bufins.Dp.placements))
        | None -> Alcotest.fail "infeasible");
    case "bad max_len rejected" (fun () ->
        let t = Fixtures.two_pin process ~len:1e-3 in
        Alcotest.(check bool) "raises" true
          (match Rctree.Segment.refine t ~max_len:0.0 with
          | exception Invalid_argument _ -> true
          | _ -> false));
  ]

let buf = Tech.Lib.min_resistance lib

let surgery_tests =
  [
    case "with_wire replaces one wire and shares the rest" (fun () ->
        let t =
          Rctree.Segment.refine (Fixtures.balanced process ~levels:2 ~trunk_len:2e-3)
            ~max_len:5e-4
        in
        let v = List.hd (T.sinks t) in
        let f w = { w with T.res = w.T.res *. 1.5; T.cap = w.T.cap *. 0.5 } in
        let t' = T.with_wire t v f in
        Alcotest.(check bool) "same as map_wires on that node" true
          (t' = T.map_wires t (fun u w -> if u = v then f w else w));
        for u = 0 to T.node_count t - 1 do
          if u <> v then
            Alcotest.(check bool)
              (Printf.sprintf "node %d shared" u)
              true
              (T.node t' u == T.node t u)
        done;
        Alcotest.(check bool) "the original is untouched" true
          (T.wire_to t v <> T.wire_to t' v);
        Alcotest.(check bool) "the root has no wire" true
          (match T.with_wire t (T.root t) f with
          | exception Invalid_argument _ -> true
          | _ -> false));
    case "dist zero converts internal node" (fun () ->
        let t = Rctree.Segment.refine (Fixtures.two_pin process ~len:2e-3) ~max_len:1e-3 in
        let v = List.hd (T.internals t) in
        let t' = Rctree.Surgery.apply t [ { Rctree.Surgery.node = v; dist = 0.0; buffer = buf } ] in
        Alcotest.(check int) "one buffer" 1 (T.buffer_count t');
        Alcotest.(check int) "same node count" (T.node_count t) (T.node_count t'));
    case "mid-wire split proportional" (fun () ->
        let t = Fixtures.two_pin process ~len:3e-3 in
        let t' = Rctree.Surgery.apply t [ { Rctree.Surgery.node = 1; dist = 1e-3; buffer = buf } ] in
        Alcotest.(check int) "nodes" 3 (T.node_count t');
        Alcotest.(check (result unit string)) "valid" (Ok ()) (T.validate t');
        feq_rel "total len kept" ~eps:1e-12 3e-3 (T.total_wirelength t');
        let b = List.hd (List.filter (fun g -> g <> T.root t') (T.gates t')) in
        feq_rel "upper piece" ~eps:1e-9 2e-3 (T.wire_to t' b).T.length);
    case "several buffers on one wire keep order" (fun () ->
        let t = Fixtures.two_pin process ~len:4e-3 in
        let t' =
          Rctree.Surgery.apply t
            [
              { Rctree.Surgery.node = 1; dist = 1e-3; buffer = buf };
              { Rctree.Surgery.node = 1; dist = 3e-3; buffer = buf };
            ]
        in
        Alcotest.(check int) "buffers" 2 (T.buffer_count t');
        feq_rel "length preserved" ~eps:1e-12 4e-3 (T.total_wirelength t');
        (* from root: 1 mm to the first buffer, 2 mm between buffers, 1 mm to sink *)
        let sink = List.hd (T.sinks t') in
        let lens = List.map (fun v -> if v = T.root t' then 0.0 else (T.wire_to t' v).T.length) (T.path_up t' sink) in
        Alcotest.(check int) "path nodes" 4 (List.length lens);
        feq_rel "sink wire" ~eps:1e-9 1e-3 (List.nth lens 0));
    case "dist at full length lands below parent" (fun () ->
        let t = Fixtures.two_pin process ~len:2e-3 in
        let t' = Rctree.Surgery.apply t [ { Rctree.Surgery.node = 1; dist = 2e-3; buffer = buf } ] in
        let b = List.hd (List.filter (fun g -> g <> T.root t') (T.gates t')) in
        feq "zero upper wire" 0.0 (T.wire_to t' b).T.length);
    case "errors rejected" (fun () ->
        let t = Fixtures.two_pin process ~len:2e-3 in
        let reject p =
          match Rctree.Surgery.apply t [ p ] with
          | exception Invalid_argument _ -> true
          | _ -> false
        in
        Alcotest.(check bool) "root" true (reject { Rctree.Surgery.node = 0; dist = 0.0; buffer = buf });
        Alcotest.(check bool) "too far" true (reject { Rctree.Surgery.node = 1; dist = 3e-3; buffer = buf });
        Alcotest.(check bool) "negative" true (reject { Rctree.Surgery.node = 1; dist = -1.0; buffer = buf });
        (* dist = 0 on a sink is legal: a zero-length split just above it *)
        let zero = Rctree.Surgery.apply t [ { Rctree.Surgery.node = 1; dist = 0.0; buffer = buf } ] in
        Alcotest.(check (result unit string)) "dist0 on sink ok" (Ok ()) (T.validate zero);
        Alcotest.(check int) "buffer added" 1 (T.buffer_count zero);
        Alcotest.(check bool) "duplicate" true
          (match
             Rctree.Surgery.apply t
               [
                 { Rctree.Surgery.node = 1; dist = 1e-3; buffer = buf };
                 { Rctree.Surgery.node = 1; dist = 1e-3; buffer = buf };
               ]
           with
          | exception Invalid_argument _ -> true
          | _ -> false));
    case "apply_traced reports provenance" (fun () ->
        let t = Rctree.Segment.refine (Fixtures.two_pin process ~len:4e-3) ~max_len:2e-3 in
        let mid = List.hd (T.internals t) in
        let sink = List.hd (T.sinks t) in
        let t', prov =
          Rctree.Surgery.apply_traced t
            [
              { Rctree.Surgery.node = mid; dist = 0.0; buffer = buf };
              { Rctree.Surgery.node = sink; dist = 1e-3; buffer = buf };
            ]
        in
        Alcotest.(check int) "one extra node" (T.node_count t + 1) (T.node_count t');
        let same = ref 0 and piece = ref 0 in
        Array.iter
          (function
            | Rctree.Surgery.Same _ -> incr same
            | Rctree.Surgery.Piece_of owner ->
                incr piece;
                Alcotest.(check int) "piece owner is the sink" sink owner)
          prov;
        Alcotest.(check int) "pieces" 1 !piece;
        Alcotest.(check int) "sames" (T.node_count t) !same);
    qcase ~count:40 "random applications stay valid" (tree_gen ~max_sinks:5 ~max_len:3e-3)
      (fun t ->
        (* place a buffer in the middle of every positive-length wire *)
        let placements =
          List.filter_map
            (fun v ->
              if v = T.root t then None
              else begin
                let w = T.wire_to t v in
                if w.T.length > 0.0 then
                  Some { Rctree.Surgery.node = v; dist = w.T.length /. 2.0; buffer = buf }
                else None
              end)
            (T.postorder t)
        in
        let t' = Rctree.Surgery.apply t placements in
        T.validate t' = Ok ()
        && T.buffer_count t' = List.length placements
        && Util.Fx.approx ~rel:1e-9 (T.total_wirelength t) (T.total_wirelength t'));
  ]

let dot_tests =
  [
    case "render mentions every node and edge" (fun () ->
        let t = Fixtures.balanced process ~levels:1 ~trunk_len:1e-3 in
        let s = Rctree.Dot.render t in
        List.iter
          (fun v ->
            let needle = Printf.sprintf "n%d [" v in
            Alcotest.(check bool) needle true
              (let re = ref false in
               String.iteri
                 (fun i _ ->
                   if i + String.length needle <= String.length s
                      && String.sub s i (String.length needle) = needle
                   then re := true)
                 s;
               !re))
          (T.postorder t);
        Alcotest.(check bool) "digraph" true (String.length s > 8 && String.sub s 0 7 = "digraph"));
    case "buffered nodes render as triangles" (fun () ->
        let t = Fixtures.two_pin process ~len:4e-3 in
        let t' = Rctree.Surgery.apply t [ { Rctree.Surgery.node = 1; dist = 2e-3; buffer = buf } ] in
        let s = Rctree.Dot.render t' in
        Alcotest.(check bool) "triangle" true
          (let rec find i =
             i + 8 <= String.length s && (String.sub s i 8 = "triangle" || find (i + 1))
           in
           find 0));
    case "deterministic output" (fun () ->
        let t = Fixtures.balanced process ~levels:2 ~trunk_len:1e-3 in
        Alcotest.(check string) "stable" (Rctree.Dot.render t) (Rctree.Dot.render t));
  ]

let suites =
  [
    ("rctree.builder", builder_tests);
    ("rctree.dot", dot_tests);
    ("rctree.stage", stage_tests);
    ("rctree.segment", segment_tests);
    ("rctree.surgery", surgery_tests);
  ]
