open Helpers
module T = Rctree.Tree

let buf = Tech.Lib.min_resistance lib

let metric_tests =
  [
    case "fig3 currents" (fun () ->
        let t = Fixtures.fig3 () in
        let curs = Noise.cur_at t in
        feq "I(v1)" 8.0 curs.(1);
        feq "I(s1)" 0.0 curs.(2);
        feq "driver current" 12.0 (Noise.drive_current t curs (T.root t)));
    case "fig3 wire noise" (fun () ->
        let t = Fixtures.fig3 () in
        let curs = Noise.cur_at t in
        feq "Noise(w1)" 20.0 (Noise.wire_noise (T.wire_to t 1) ~downstream:curs.(1));
        feq "Noise(w2)" 3.0 (Noise.wire_noise (T.wire_to t 2) ~downstream:curs.(2));
        feq "Noise(w3)" 6.0 (Noise.wire_noise (T.wire_to t 3) ~downstream:curs.(3)));
    case "fig3 sink noise (worked example)" (fun () ->
        let t = Fixtures.fig3 () in
        match Noise.leaf_noise t with
        | [ (2, n1, m1); (3, n2, m2) ] ->
            feq "noise s1" 143.0 n1;
            feq "margin s1" 200.0 m1;
            feq "noise s2" 146.0 n2;
            feq "margin s2" 150.0 m2
        | _ -> Alcotest.fail "unexpected leaf set");
    case "fig3 noise slack (eq. 12)" (fun () ->
        let t = Fixtures.fig3 () in
        let ns = Noise.noise_slack t in
        feq "ns(v1)" 144.0 ns.(1);
        feq "ns(so)" 124.0 ns.(0);
        feq "ns(sink) = margin" 200.0 ns.(2));
    case "fig3 has no violation" (fun () ->
        Alcotest.(check int) "none" 0 (List.length (Noise.violations (Fixtures.fig3 ()))));
    case "violation appears when margin shrinks" (fun () ->
        let b = Rctree.Builder.create () in
        let so = Rctree.Builder.add_source b ~r_drv:10.0 ~d_drv:0.0 in
        let w = T.make_wire ~length:1.0 ~res:2.0 ~cap:1.0 ~cur:4.0 in
        ignore (Rctree.Builder.add_sink b ~parent:so ~wire:w ~name:"s" ~c_sink:1.0 ~rat:1.0 ~nm:43.9);
        let t = Rctree.Builder.finish b in
        (* noise = 10*4 + 2*(0+2) = 44 > 43.9 *)
        Alcotest.(check int) "one violation" 1 (List.length (Noise.violations t)));
    case "buffers reset noise accumulation" (fun () ->
        let t = Fixtures.two_pin process ~len:8e-3 in
        let before = List.hd (Noise.leaf_noise t) in
        let t' = Rctree.Surgery.apply t [ { Rctree.Surgery.node = 1; dist = 4e-3; buffer = buf } ] in
        let leaves = Noise.leaf_noise t' in
        Alcotest.(check int) "two leaves" 2 (List.length leaves);
        List.iter
          (fun (_, noise, _) ->
            let _, n0, _ = before in
            Alcotest.(check bool) "smaller than unbuffered" true (noise < n0))
          leaves);
    case "margin accessor" (fun () ->
        let t = Fixtures.fig3 () in
        feq "sink margin" 200.0 (Noise.margin t 2);
        Alcotest.(check bool) "internal rejected" true
          (match Noise.margin t 1 with exception Invalid_argument _ -> true | _ -> false));
  ]

let params_gen =
  QCheck2.Gen.(
    let* r_b = float_range 5.0 1000.0 in
    let* i_down = float_range 0.0 5e-3 in
    let* slack_over = float_range 0.01 2.0 in
    let* r_per_m = float_range 1e3 2e5 in
    let* i_per_m = float_range 1e-2 5.0 in
    (* guarantee feasibility: ns exceeds the r_b * i_down floor *)
    return (r_b, i_down, (r_b *. i_down) +. slack_over, r_per_m, i_per_m))

let noise_at ~r_b ~i_down ~r_per_m ~i_per_m l =
  (r_b *. (i_down +. (i_per_m *. l))) +. (r_per_m *. l *. (i_down +. (i_per_m *. l /. 2.0)))

let maxlen_tests =
  [
    qcase ~count:200 "theorem 1 boundary is exact" params_gen
      (fun (r_b, i_down, ns, r_per_m, i_per_m) ->
        match Noise.max_safe_length ~r_b ~i_down ~ns ~r_per_m ~i_per_m with
        | Some l when Float.is_finite l ->
            Util.Fx.approx ~rel:1e-6 (noise_at ~r_b ~i_down ~r_per_m ~i_per_m l) ns
        | Some _ -> i_per_m = 0.0 (* only current-free wires are unbounded *)
        | None -> false);
    qcase ~count:200 "below the bound is safe, above violates" params_gen
      (fun (r_b, i_down, ns, r_per_m, i_per_m) ->
        match Noise.max_safe_length ~r_b ~i_down ~ns ~r_per_m ~i_per_m with
        | Some l when Float.is_finite l ->
            noise_at ~r_b ~i_down ~r_per_m ~i_per_m (l *. 0.99) <= ns
            && noise_at ~r_b ~i_down ~r_per_m ~i_per_m (l *. 1.01) >= ns
        | Some _ | None -> true);
    case "infeasible state returns None" (fun () ->
        Alcotest.(check bool) "none" true
          (Noise.max_safe_length ~r_b:100.0 ~i_down:1.0 ~ns:50.0 ~r_per_m:1e4 ~i_per_m:1.0 = None));
    case "no coupling and no downstream current is unbounded" (fun () ->
        Alcotest.(check bool) "infinite" true
          (Noise.max_safe_length ~r_b:100.0 ~i_down:0.0 ~ns:0.5 ~r_per_m:1e4 ~i_per_m:0.0
          = Some infinity));
    case "matches the simple approximation at r_b = 0" (fun () ->
        let r_per_m = process.Tech.Process.r_per_m and i_per_m = Tech.Process.i_per_m process in
        match Noise.max_safe_length ~r_b:0.0 ~i_down:0.0 ~ns:0.8 ~r_per_m ~i_per_m with
        | Some l -> feq_rel "sqrt(2 ns / r i)" ~eps:1e-9 (sqrt (2.0 *. 0.8 /. (r_per_m *. i_per_m))) l
        | None -> Alcotest.fail "unexpected None");
    qcase ~count:100 "monotone in driver resistance" params_gen
      (fun (r_b, i_down, ns, r_per_m, i_per_m) ->
        match
          ( Noise.max_safe_length ~r_b ~i_down ~ns ~r_per_m ~i_per_m,
            Noise.max_safe_length ~r_b:(r_b *. 2.0) ~i_down ~ns ~r_per_m ~i_per_m )
        with
        | Some l1, Some l2 -> l2 <= l1 +. 1e-12
        | Some _, None -> true
        | None, _ -> false);
    qcase ~count:100 "monotone in noise slack" params_gen
      (fun (r_b, i_down, ns, r_per_m, i_per_m) ->
        match
          ( Noise.max_safe_length ~r_b ~i_down ~ns ~r_per_m ~i_per_m,
            Noise.max_safe_length ~r_b ~i_down ~ns:(ns *. 2.0) ~r_per_m ~i_per_m )
        with
        | Some l1, Some l2 -> l2 >= l1 -. 1e-12
        | _, None | None, _ -> false);
    case "lambda_bound is critical" (fun () ->
        let r_b = 100.0 and i_down = 1e-4 and ns = 0.8 and length = 2e-3 in
        let r_per_m = process.Tech.Process.r_per_m
        and c_per_m = process.Tech.Process.c_per_m
        and slope = Tech.Process.slope process in
        let lambda = Noise.lambda_bound ~r_b ~i_down ~ns ~r_per_m ~c_per_m ~slope ~length in
        Alcotest.(check bool) "positive" true (lambda > 0.0);
        let i_per_m = lambda *. c_per_m *. slope in
        feq_rel "exactly at slack" ~eps:1e-9 ns (noise_at ~r_b ~i_down ~r_per_m ~i_per_m length));
  ]

let devgan_vs_elmore_tests =
  [
    qcase ~count:60 "noise slack at source bounds the driver term"
      QCheck2.Gen.(map (fun s -> Fixtures.random_net (Util.Rng.create s) process ~max_sinks:5 ~max_len:2e-3) small_int)
      (fun t ->
        let ns = Noise.noise_slack t in
        let curs = Noise.cur_at t in
        let r_drv = match T.kind t (T.root t) with T.Source d -> d.T.r_drv | _ -> 0.0 in
        let driver_noise = r_drv *. Noise.drive_current t curs (T.root t) in
        let has_violation = Noise.violations t <> [] in
        (* eq. 11 <-> eq. 12 equivalence on a single unbuffered stage *)
        has_violation = (driver_noise > ns.(T.root t) +. 1e-9));
    qcase ~count:60 "currents scale with capacitance"
      QCheck2.Gen.(float_range 1e-4 1e-2)
      (fun len ->
        let t = Fixtures.two_pin process ~len in
        let curs = Noise.cur_at t in
        Util.Fx.approx ~rel:1e-9
          (Noise.drive_current t curs (T.root t))
          (Tech.Process.wire_i process len));
  ]


(* appended: attribution and crosstalk delta-delay *)
let extras =
  [
    case "attribution sums to the leaf noise (fig. 3)" (fun () ->
        let t = Fixtures.fig3 () in
        List.iter
          (fun (leaf, total, _) ->
            let parts = Noise.attribute t ~leaf in
            let sum = List.fold_left (fun a (c : Noise.contribution) -> a +. c.Noise.amount) 0.0 parts in
            feq_rel "additive" ~eps:1e-9 total sum;
            (* the 10-ohm driver's 120 dominates both sinks *)
            match parts with
            | { Noise.element = `Driver 0; amount } :: _ -> feq "driver term" 120.0 amount
            | _ -> Alcotest.fail "driver should dominate")
          (Noise.leaf_noise t));
    qcase ~count:40 "attribution is additive on random nets"
      QCheck2.Gen.(map (fun s -> Fixtures.random_net (Util.Rng.create s) process ~max_sinks:5 ~max_len:3e-3) small_int)
      (fun t ->
        List.for_all
          (fun (leaf, total, _) ->
            let sum =
              List.fold_left
                (fun a (c : Noise.contribution) -> a +. c.Noise.amount)
                0.0 (Noise.attribute t ~leaf)
            in
            Util.Fx.approx ~rel:1e-9 ~abs:1e-15 total sum)
          (Noise.leaf_noise t));
    case "attribute rejects non-leaves" (fun () ->
        let t = Fixtures.fig3 () in
        Alcotest.(check bool) "raises" true
          (match Noise.attribute t ~leaf:1 with exception Invalid_argument _ -> true | _ -> false));
  ]

let suites =
  [
    ("noise.metric", metric_tests);
    ("noise.maxlen", maxlen_tests);
    ("noise.properties", devgan_vs_elmore_tests);
    ("noise.extras", extras);
  ]
