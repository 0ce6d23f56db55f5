open Helpers
module N = Circuit.Netlist

let workload_tree_gen =
  QCheck2.Gen.(
    map
      (fun seed ->
        let cfg = { Workload.default_config with nets = 1; seed } in
        snd (List.hd (Workload.trees process (Workload.generate cfg))))
      small_int)

let acmoments_tests =
  [
    case "rc divider transfer moments" (fun () ->
        (* source - R - out - C - ground: H(s) = 1/(1+sRC),
           h0 = 1, h1 = -RC, h2 = (RC)^2 *)
        let nl = N.create () in
        let src = N.fresh nl and out = N.fresh nl in
        let r = 1000.0 and c = 1e-12 in
        N.resistor nl src out r;
        N.capacitor nl out N.ground c;
        N.drive nl src (Circuit.Waveform.dc 1.0);
        match Circuit.Acmoments.transfer_moments nl ~order:2 ~probes:[ out ] with
        | [ m ] ->
            feq_rel "h0" ~eps:1e-12 1.0 m.Circuit.Acmoments.moments.(0).(0);
            feq_rel "h1" ~eps:1e-12 (-.(r *. c)) m.Circuit.Acmoments.moments.(1).(0);
            feq_rel "h2" ~eps:1e-12 ((r *. c) ** 2.0) m.Circuit.Acmoments.moments.(2).(0)
        | _ -> Alcotest.fail "expected one source");
    case "capacitive coupling has zero dc transfer" (fun () ->
        let nl = N.create () in
        let agg = N.fresh nl and vic = N.fresh nl in
        N.resistor nl vic N.ground 200.0;
        N.capacitor nl vic agg 50e-15;
        N.drive nl agg (Circuit.Waveform.dc 1.0);
        match Circuit.Acmoments.transfer_moments nl ~order:1 ~probes:[ vic ] with
        | [ m ] ->
            feq "h0 = 0" 0.0 m.Circuit.Acmoments.moments.(0).(0);
            (* h1 = R * Cc: the injected-current transfer *)
            feq_rel "h1 = R*Cc" ~eps:1e-12 (200.0 *. 50e-15) m.Circuit.Acmoments.moments.(1).(0)
        | _ -> Alcotest.fail "expected one source");
    case "one entry per driven source" (fun () ->
        let nl = N.create () in
        let a = N.fresh nl and b = N.fresh nl and vic = N.fresh nl in
        N.resistor nl vic N.ground 100.0;
        N.capacitor nl vic a 10e-15;
        N.capacitor nl vic b 20e-15;
        N.drive nl a (Circuit.Waveform.dc 1.0);
        N.drive nl b (Circuit.Waveform.dc 1.0);
        let ms = Circuit.Acmoments.transfer_moments nl ~order:1 ~probes:[ vic ] in
        Alcotest.(check int) "two sources" 2 (List.length ms);
        let total = List.fold_left (fun acc (m : Circuit.Acmoments.t) -> acc +. m.Circuit.Acmoments.moments.(1).(0)) 0.0 ms in
        feq_rel "superposition" ~eps:1e-12 (100.0 *. 30e-15) total);
    qcase ~count:12 "forest and dense moments agree on workload decks" workload_tree_gen
      (fun t ->
        let cfg = Noisesim.Deck.default_config process in
        List.for_all
          (fun g ->
            let deck = Noisesim.Deck.of_stage cfg t ~gate:g in
            let nl = deck.Noisesim.Deck.netlist in
            let probes = List.map snd deck.Noisesim.Deck.probes in
            let fast = Circuit.Acmoments.transfer_moments nl ~order:3 ~probes in
            let dense = Circuit.Acmoments.transfer_moments_dense nl ~order:3 ~probes in
            (* relative to the largest magnitude of each (source, order)
               row, so exact zeros (h0 of pure coupling) compare too *)
            let agree (a : Circuit.Acmoments.t) (b : Circuit.Acmoments.t) =
              Array.for_all2
                (fun ra rb ->
                  let scale = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0.0 rb in
                  Array.for_all2 (fun x y -> Float.abs (x -. y) <= 1e-9 *. scale) ra rb)
                a.Circuit.Acmoments.moments b.Circuit.Acmoments.moments
            in
            Circuit.Forest.plan (Circuit.Mna.build nl) <> None
            && List.length fast = List.length dense
            && List.for_all2 agree fast dense)
          (Rctree.Tree.gates t));
    case "negative order rejected" (fun () ->
        let nl = N.create () in
        ignore (N.fresh nl);
        Alcotest.(check bool) "raises" true
          (match Circuit.Acmoments.transfer_moments nl ~order:(-1) ~probes:[] with
          | exception Invalid_argument _ -> true
          | _ -> false));
  ]

let awe_tests =
  [
    case "plateau equals devgan metric on a uniform line" (fun () ->
        (* distributed steady-ramp noise == the metric's pi-model value on
           a single wire (they lump identically) *)
        List.iter
          (fun len ->
            let t = Fixtures.two_pin process ~len in
            let metric = match Noise.leaf_noise t with [ (_, n, _) ] -> n | _ -> assert false in
            let _, est = List.hd (Noisesim.Awe.net process t) in
            feq_rel "plateau" ~eps:2e-3 metric est.Noisesim.Awe.plateau)
          [ 1e-3; 3e-3; 6e-3 ]);
    qcase ~count:12 "awe peak tracks the transient within 20%" workload_tree_gen (fun t ->
        let sim = Noisesim.Verify.net process t in
        let awe = Noisesim.Awe.net process t in
        List.for_all
          (fun (l : Noisesim.Verify.leaf_report) ->
            match List.assoc_opt l.Noisesim.Verify.leaf awe with
            | Some est ->
                l.Noisesim.Verify.peak < 1e-3
                || Float.abs (est.Noisesim.Awe.peak -. l.Noisesim.Verify.peak)
                   /. l.Noisesim.Verify.peak
                   < 0.20
            | None -> false)
          sim.Noisesim.Verify.leaves);
    qcase ~count:12 "devgan metric bounds the awe plateau" workload_tree_gen (fun t ->
        let metric = Hashtbl.create 16 in
        List.iter (fun (v, n, _) -> Hashtbl.replace metric v n) (Noise.leaf_noise t);
        List.for_all
          (fun (leaf, est) ->
            match Hashtbl.find_opt metric leaf with
            | Some m -> m >= est.Noisesim.Awe.plateau -. 1e-4
            | None -> false)
          (Noisesim.Awe.net process t));
    qcase ~count:12 "peak never exceeds plateau" workload_tree_gen (fun t ->
        List.for_all
          (fun (_, est) -> est.Noisesim.Awe.peak <= est.Noisesim.Awe.plateau +. 1e-12)
          (Noisesim.Awe.net process t));
    case "multi-aggressor estimate superposes" (fun () ->
        let t = Fixtures.two_pin process ~len:3e-3 in
        let slope = Tech.Process.slope process in
        (* wipe the estimation current, then add two explicit aggressors *)
        let bare = Rctree.Tree.map_wires t (fun _ w -> { w with Rctree.Tree.cur = 0.0 }) in
        let ann =
          Coupling.annotate bare
            ~spans:
              [
                ( 1,
                  [
                    { Coupling.near = 0.0; far = 3e-3; lambda = 0.35; slope };
                    { Coupling.near = 0.0; far = 3e-3; lambda = 0.35; slope = slope /. 2.0 };
                  ] );
              ]
        in
        let tr = Coupling.tree ann in
        let ests = Noisesim.Awe.net ~density:(Coupling.density ann) process tr in
        let _, est = List.hd ests in
        (* the plateau must equal the single-aggressor lambda=0.7 case:
           0.35*slope + 0.35*slope/2 = 0.525*slope of coupling-weighted
           current -> compare against the metric on the annotated tree *)
        let metric = match Noise.leaf_noise tr with [ (_, n, _) ] -> n | _ -> assert false in
        feq_rel "superposed plateau" ~eps:5e-3 metric est.Noisesim.Awe.plateau);
  ]

let suites = [ ("circuit.acmoments", acmoments_tests); ("noisesim.awe", awe_tests) ]
