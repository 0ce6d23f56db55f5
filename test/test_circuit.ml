open Helpers
module N = Circuit.Netlist
module W = Circuit.Waveform

let waveform_tests =
  [
    case "dc" (fun () ->
        let w = W.dc 1.5 in
        feq "v" 1.5 (W.value w 3.0);
        feq "dv" 0.0 (W.deriv w 3.0));
    case "ramp values" (fun () ->
        let w = W.ramp ~t0:1.0 ~t_rise:2.0 ~v0:0.0 ~v1:4.0 in
        feq "before" 0.0 (W.value w 0.5);
        feq "mid" 2.0 (W.value w 2.0);
        feq "after" 4.0 (W.value w 5.0);
        feq "slope" 2.0 (W.deriv w 2.0);
        feq "flat" 0.0 (W.deriv w 5.0));
    case "pwl interpolation" (fun () ->
        let w = W.pwl [ (0.0, 0.0); (1.0, 2.0); (3.0, 0.0) ] in
        feq "at 0.5" 1.0 (W.value w 0.5);
        feq "at 2.0" 1.0 (W.value w 2.0);
        feq "deriv down" (-1.0) (W.deriv w 2.0);
        feq "clamp right" 0.0 (W.value w 10.0));
    case "settle: the instant from which the value is constant" (fun () ->
        Alcotest.(check (float 0.0)) "dc" neg_infinity (W.settle (W.dc 1.0));
        let r = W.ramp ~t0:1.0 ~t_rise:2.0 ~v0:0.0 ~v1:4.0 in
        Alcotest.(check (float 0.0)) "ramp" 3.0 (W.settle r);
        let p = W.pwl [ (0.0, 0.0); (1.0, 2.0); (3.0, 0.5) ] in
        Alcotest.(check (float 0.0)) "pwl" 3.0 (W.settle p);
        List.iter
          (fun (name, w) ->
            let s = W.settle w in
            List.iter
              (fun dt ->
                Alcotest.(check (float 0.0)) name (W.value w s) (W.value w (s +. dt)))
              [ 0.0; 1e-12; 0.5; 1e9 ])
          [ ("ramp", r); ("pwl", p) ];
        (* a Noisesim-style ramp, whose end rounds *)
        let t_rise = 1.8 /. 7.3e9 in
        let d = W.ramp ~t0:0.0 ~t_rise ~v0:0.0 ~v1:1.8 in
        Alcotest.(check (float 0.0)) "rounded ramp end" 1.8 (W.value d (W.settle d)));
    case "bad ramps and pwls raise Invalid_argument" (fun () ->
        let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
        List.iter
          (fun t_rise ->
            Alcotest.(check bool)
              (Printf.sprintf "ramp t_rise %g" t_rise)
              true
              (raises (fun () -> W.ramp ~t0:0.0 ~t_rise ~v0:0.0 ~v1:1.0)))
          [ 0.0; -1e-12; Float.nan; neg_infinity ];
        List.iter
          (fun (name, pts) -> Alcotest.(check bool) name true (raises (fun () -> W.pwl pts)))
          [
            ("empty", []);
            ("repeated time", [ (0.0, 0.0); (0.0, 1.0) ]);
            ("decreasing", [ (1.0, 0.0); (0.5, 1.0) ]);
            ("nan time", [ (0.0, 0.0); (Float.nan, 1.0) ]);
            ("single nan", [ (Float.nan, 1.0) ]);
          ]);
  ]

(* RC low-pass step: v(t) = V (1 - exp(-t/RC)) *)
let rc_charge () =
  let nl = N.create () in
  let src = N.fresh ~label:"src" nl in
  let out = N.fresh ~label:"out" nl in
  let r = 1000.0 and c = 1e-9 in
  N.resistor nl src out r;
  N.capacitor nl out N.ground c;
  N.drive nl src (W.ramp ~t0:0.0 ~t_rise:1e-12 ~v0:0.0 ~v1:1.0);
  (nl, out, r *. c)

let transient_tests =
  [
    case "rc step response" (fun () ->
        let nl, out, tau = rc_charge () in
        let res =
          Circuit.Transient.simulate ~record:true nl ~dt:(tau /. 200.0) ~t_end:(5.0 *. tau)
            ~probes:[ out ]
        in
        let tr = match res.Circuit.Transient.traces with Some t -> t.(0) | None -> assert false in
        Array.iteri
          (fun k t ->
            if t > 2e-12 then begin
              let expected = 1.0 -. exp (-.t /. tau) in
              feq ~eps:5e-3 (Printf.sprintf "v(%g)" t) expected tr.(k)
            end)
          res.Circuit.Transient.times);
    case "dc divider operating point" (fun () ->
        let nl = N.create () in
        let src = N.fresh nl and mid = N.fresh nl in
        N.resistor nl src mid 1000.0;
        N.resistor nl mid N.ground 3000.0;
        N.drive nl src (W.dc 2.0);
        let res = Circuit.Transient.simulate nl ~dt:1e-9 ~t_end:1e-8 ~probes:[ mid ] in
        feq ~eps:1e-9 "divider" 1.5 res.Circuit.Transient.finals.(0));
    case "coupled noise below devgan bound" (fun () ->
        (* victim node held by r_g, coupled by c_c to a ramp: the metric
           bound is r_g * c_c * slope *)
        let nl = N.create () in
        let agg = N.fresh nl and vic = N.fresh nl in
        let r_g = 200.0 and c_c = 50e-15 and c_g = 30e-15 in
        let t_rise = 0.25e-9 and vdd = 1.8 in
        N.resistor nl vic N.ground r_g;
        N.capacitor nl vic agg c_c;
        N.capacitor nl vic N.ground c_g;
        N.drive nl agg (W.ramp ~t0:0.0 ~t_rise ~v0:0.0 ~v1:vdd);
        let res = Circuit.Transient.simulate nl ~dt:(t_rise /. 100.0) ~t_end:(4.0 *. t_rise) ~probes:[ vic ] in
        let bound = r_g *. c_c *. (vdd /. t_rise) in
        let peak = res.Circuit.Transient.peaks.(0) in
        Alcotest.(check bool) "positive" true (peak > 0.2 *. bound);
        Alcotest.(check bool) "bounded" true (peak <= bound +. 1e-9));
    case "probing driven node returns waveform" (fun () ->
        let nl = N.create () in
        let src = N.fresh nl and out = N.fresh nl in
        N.resistor nl src out 100.0;
        N.capacitor nl out N.ground 1e-12;
        N.drive nl src (W.dc 1.0);
        let res = Circuit.Transient.simulate nl ~dt:1e-11 ~t_end:1e-10 ~probes:[ src; N.ground ] in
        feq "driven" 1.0 res.Circuit.Transient.finals.(0);
        feq "ground" 0.0 res.Circuit.Transient.finals.(1));
    case "peak time recorded" (fun () ->
        let nl = N.create () in
        let agg = N.fresh nl and vic = N.fresh nl in
        N.resistor nl vic N.ground 100.0;
        N.capacitor nl vic agg 10e-15;
        N.drive nl agg (W.ramp ~t0:0.0 ~t_rise:1e-10 ~v0:0.0 ~v1:1.0);
        let res = Circuit.Transient.simulate nl ~dt:1e-12 ~t_end:5e-10 ~probes:[ vic ] in
        Alcotest.(check bool) "peak inside ramp window" true
          (res.Circuit.Transient.peak_times.(0) <= 1.2e-10));
    case "bad dt rejected" (fun () ->
        let nl = N.create () in
        ignore (N.fresh nl);
        Alcotest.(check bool) "raises" true
          (match Circuit.Transient.simulate nl ~dt:0.0 ~t_end:1.0 ~probes:[] with
          | exception Invalid_argument _ -> true
          | _ -> false));
    case "netlist validation" (fun () ->
        let nl = N.create () in
        let a = N.fresh nl in
        Alcotest.(check bool) "bad resistor" true
          (match N.resistor nl a N.ground 0.0 with exception Invalid_argument _ -> true | _ -> false);
        Alcotest.(check bool) "negative cap" true
          (match N.capacitor nl a N.ground (-1.0) with exception Invalid_argument _ -> true | _ -> false);
        N.drive nl a (W.dc 1.0);
        Alcotest.(check bool) "double drive" true
          (match N.drive nl a (W.dc 2.0) with exception Invalid_argument _ -> true | _ -> false);
        Alcotest.(check bool) "drive ground" true
          (match N.drive nl N.ground (W.dc 2.0) with exception Invalid_argument _ -> true | _ -> false));
    case "trapezoidal is second-order on smooth inputs" (fun () ->
        (* with a resolvable ramp, halving dt shrinks the error ~4x *)
        let tau = 1e-6 in
        let final dt =
          let nl = Circuit.Netlist.create () in
          let src = N.fresh nl and out = N.fresh nl in
          N.resistor nl src out 1000.0;
          N.capacitor nl out N.ground 1e-9;
          N.drive nl src (W.ramp ~t0:0.0 ~t_rise:(tau /. 2.0) ~v0:0.0 ~v1:1.0);
          let res = Circuit.Transient.simulate nl ~dt ~t_end:tau ~probes:[ out ] in
          res.Circuit.Transient.finals.(0)
        in
        let reference = final (tau /. 4000.0) in
        let e1 = Float.abs (final (tau /. 10.0) -. reference) in
        let e2 = Float.abs (final (tau /. 20.0) -. reference) in
        Alcotest.(check bool) "convergence order" true (e2 < e1 /. 2.5));
  ]

(* A victim tree held by [r_g], coupled to a ramp aggressor at every
   node: the shape of a Noisesim stage deck. [extra] adds elements that
   may push it off the forest path. *)
let coupled_tree ?(extra = fun _ _ -> ()) () =
  let nl = N.create () in
  let agg = N.fresh ~label:"agg" nl in
  N.drive nl agg (W.ramp ~t0:0.0 ~t_rise:1e-10 ~v0:0.0 ~v1:1.8);
  let root = N.fresh ~label:"root" nl in
  N.resistor nl root N.ground 150.0;
  let branch from k =
    let cursor = ref from in
    for i = 1 to k do
      let next = N.fresh nl in
      N.resistor nl !cursor next (40.0 +. float_of_int i);
      N.capacitor nl next N.ground 5e-15;
      N.capacitor nl next agg (3e-15 +. (1e-16 *. float_of_int i));
      cursor := next
    done;
    !cursor
  in
  let a = branch root 5 and b = branch root 3 in
  let c = branch a 4 in
  extra nl (a, b, c);
  (nl, [ a; b; c; root ])

let solver =
  Alcotest.testable
    (fun ppf s ->
      Format.pp_print_string ppf
        (match s with Circuit.Transient.Forest -> "forest" | Circuit.Transient.Dense -> "dense"))
    ( = )

let run_both (nl, probes) =
  let sim f = f ?record:(Some true) nl ~dt:2e-12 ~t_end:1e-9 ~probes in
  (sim Circuit.Transient.simulate, sim Circuit.Transient.simulate_dense)

let solver_tests =
  [
    case "rc forest takes the forest path and matches dense" (fun () ->
        let fast, dense = run_both (coupled_tree ()) in
        Alcotest.check solver "simulate" Circuit.Transient.Forest fast.Circuit.Transient.solver;
        Alcotest.check solver "reference" Circuit.Transient.Dense dense.Circuit.Transient.solver;
        Array.iteri
          (fun p peak -> feq ~eps:1e-12 (Printf.sprintf "peak %d" p) dense.Circuit.Transient.peaks.(p) peak)
          fast.Circuit.Transient.peaks;
        match (fast.Circuit.Transient.traces, dense.Circuit.Transient.traces) with
        | Some a, Some b ->
            Array.iteri
              (fun p tr -> Array.iteri (fun k v -> feq ~eps:1e-12 "trace" b.(p).(k) v) tr)
              a
        | _ -> Alcotest.fail "traces not recorded");
    case "a single rc is a forest" (fun () ->
        let nl, out, tau = rc_charge () in
        let res = Circuit.Transient.simulate nl ~dt:(tau /. 10.0) ~t_end:tau ~probes:[ out ] in
        Alcotest.check solver "rc" Circuit.Transient.Forest res.Circuit.Transient.solver);
    case "an inductor forces the dense path" (fun () ->
        let fast, dense =
          run_both
            (coupled_tree
               ~extra:(fun nl (_, b, _) ->
                 let tail = N.fresh nl in
                 N.inductor nl b tail 1e-10;
                 N.capacitor nl tail N.ground 2e-15)
               ())
        in
        Alcotest.check solver "rlc" Circuit.Transient.Dense fast.Circuit.Transient.solver;
        Alcotest.(check (array (float 0.0))) "same run" dense.Circuit.Transient.peaks
          fast.Circuit.Transient.peaks);
    case "a resistor loop forces the dense path" (fun () ->
        let fast, _ =
          run_both (coupled_tree ~extra:(fun nl (_, b, c) -> N.resistor nl b c 500.0) ())
        in
        Alcotest.check solver "loop" Circuit.Transient.Dense fast.Circuit.Transient.solver);
    case "a resistor to ground is no loop; a parallel pair is" (fun () ->
        let fast, _ =
          run_both (coupled_tree ~extra:(fun nl (a, _, _) -> N.resistor nl a N.ground 1e4) ())
        in
        Alcotest.check solver "to ground is still a forest" Circuit.Transient.Forest
          fast.Circuit.Transient.solver;
        let nl = N.create () in
        let src = N.fresh nl and out = N.fresh nl in
        N.resistor nl src out 100.0;
        N.resistor nl out N.ground 100.0;
        let mid = N.fresh nl in
        N.resistor nl out mid 100.0;
        N.resistor nl out mid 300.0;
        N.capacitor nl mid N.ground 1e-15;
        N.drive nl src (W.dc 1.0);
        let res = Circuit.Transient.simulate nl ~dt:1e-12 ~t_end:1e-11 ~probes:[ mid ] in
        Alcotest.check solver "parallel pair" Circuit.Transient.Dense res.Circuit.Transient.solver;
        feq ~eps:1e-9 "divider" 0.5 res.Circuit.Transient.finals.(0));
    case "a capacitor between free nodes forces the dense path" (fun () ->
        let fast, _ =
          run_both (coupled_tree ~extra:(fun nl (a, b, _) -> N.capacitor nl a b 1e-15) ())
        in
        Alcotest.check solver "coupled victims" Circuit.Transient.Dense
          fast.Circuit.Transient.solver);
    case "a node hung only on a capacitor is singular on the forest path" (fun () ->
        let deck ~grounded =
          coupled_tree
            ~extra:(fun nl _ ->
              let hang = N.fresh ~label:"hang" nl in
              N.capacitor nl hang N.ground 2e-15;
              if grounded then N.resistor nl hang N.ground 1e3)
            ()
        in
        (* with a resistor to ground the same shape is a forest deck *)
        let fast, _ = run_both (deck ~grounded:true) in
        Alcotest.check solver "shape" Circuit.Transient.Forest fast.Circuit.Transient.solver;
        let raises simulate =
          let nl, probes = deck ~grounded:false in
          match simulate ?record:None nl ~dt:2e-12 ~t_end:1e-9 ~probes with
          | _ -> false
          | exception Linalg.Mat.Singular _ -> true
        in
        Alcotest.(check bool) "forest raises" true (raises Circuit.Transient.simulate);
        Alcotest.(check bool) "dense raises" true (raises Circuit.Transient.simulate_dense));
  ]

let suites =
  [
    ("circuit.waveform", waveform_tests);
    ("circuit.transient", transient_tests);
    ("circuit.solver", solver_tests);
  ]
