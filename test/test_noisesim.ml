open Helpers
module T = Rctree.Tree

let buf = Tech.Lib.min_resistance lib

let workload_tree_gen =
  QCheck2.Gen.(
    map
      (fun seed ->
        let cfg = { Workload.default_config with nets = 1; seed } in
        match Workload.trees process (Workload.generate cfg) with
        | [ (_, t) ] -> t
        | _ -> assert false)
      small_int)

(* Hand-built decks for the early exit: [simulate_peaks] (what
   [Deck.peak_noise] runs) against the full window, bit for bit. *)
module N = Circuit.Netlist
module W = Circuit.Waveform

let bits = Int64.bits_of_float

let early_vs_full cfg deck =
  let dt, t_end = Noisesim.Deck.window cfg deck in
  let nl = deck.Noisesim.Deck.netlist and probes = List.map snd deck.Noisesim.Deck.probes in
  let early = Circuit.Transient.simulate_peaks nl ~dt ~t_end ~probes in
  let full = Circuit.Transient.simulate nl ~dt ~t_end ~probes in
  let peaks = early.Circuit.Transient.peaks in
  Array.iteri
    (fun p whole ->
      if bits peaks.(p) <> bits whole then
        Alcotest.failf "probe %d: early-exit peak %h, full window %h" p peaks.(p) whole)
    full.Circuit.Transient.peaks;
  List.iteri
    (fun p (_, v) ->
      if bits v <> bits peaks.(p) then Alcotest.failf "probe %d: peak_noise differs" p)
    (Noisesim.Deck.peak_noise cfg deck);
  (early, full)

let ramp_from ?(t0 = 0.0) nl t_rise =
  let a = N.fresh nl in
  N.drive nl a (W.ramp ~t0 ~t_rise ~v0:0.0 ~v1:process.Tech.Process.vdd);
  a

let deck ?(tau = 1e-9) nl probes =
  {
    Noisesim.Deck.netlist = nl;
    probes = List.mapi (fun i n -> (i, n)) probes;
    sources = [];
    tau;
  }

let steps (r : Circuit.Transient.result) = Array.length r.Circuit.Transient.times - 1

let early_exit_tests =
  let cfg = Noisesim.Deck.default_config process in
  let t_rise = process.Tech.Process.t_rise in
  [
    case "early exit waits for a late-peaking probe" (fun () ->
        (* a small coupling cap at a driver, then a long RC tail: the far
           end peaks well after the aggressor has settled *)
        let nl = N.create () in
        let agg = ramp_from nl t_rise in
        let root = N.fresh nl in
        N.resistor nl root N.ground 200.0;
        N.capacitor nl root agg 2e-15;
        N.capacitor nl root N.ground 5e-15;
        let far =
          List.fold_left
            (fun up _ ->
              let next = N.fresh nl in
              N.resistor nl up next 300.0;
              N.capacitor nl next N.ground 10e-15;
              next)
            root (List.init 60 Fun.id)
        in
        (* the deck's crude time constant, as [Deck.of_stage] takes it *)
        let tau = (200.0 +. (60.0 *. 300.0)) *. (7e-15 +. (60.0 *. 10e-15)) in
        let early, full = early_vs_full cfg (deck ~tau nl [ root; far ]) in
        let late = full.Circuit.Transient.peak_times.(1) in
        Alcotest.(check bool) "the far end peaks after the ramp" true (late > 2.0 *. t_rise);
        Alcotest.(check bool) "it still stops early" true (steps early < steps full);
        Alcotest.(check bool) "not before the late peak" true
          (early.Circuit.Transient.times.(steps early) >= late));
    case "early exit on a quiet deck" (fun () ->
        (* no coupling at all: every probe stays at exactly 0 V, the
           energy is exactly 0, and the first check stops the run *)
        let nl = N.create () in
        let _agg = ramp_from nl t_rise in
        let root = N.fresh nl and leaf = N.fresh nl in
        N.resistor nl root N.ground 200.0;
        N.resistor nl root leaf 500.0;
        N.capacitor nl leaf N.ground 10e-15;
        let early, _ = early_vs_full cfg (deck nl [ root; leaf ]) in
        Alcotest.(check (float 0.0)) "silent" 0.0 early.Circuit.Transient.peaks.(1);
        Alcotest.(check int) "stops at the first check" 8 (steps early));
    case "a zero-coupling probe at 0 V holds the exit back" (fun () ->
        (* a second, uncoupled victim in the same deck stays at exactly
           0 V; a zero peak is only certified at zero energy, which the
           coupled victim never reaches, so the run takes the window *)
        let nl = N.create () in
        let agg = ramp_from nl t_rise in
        let hot = N.fresh nl and cold = N.fresh nl in
        N.resistor nl hot N.ground 10e3;
        N.capacitor nl hot agg 20e-15;
        N.capacitor nl hot N.ground 30e-15;
        N.resistor nl cold N.ground 200.0;
        N.capacitor nl cold N.ground 20e-15;
        let early, full = early_vs_full cfg (deck nl [ hot; cold ]) in
        let peaks = early.Circuit.Transient.peaks in
        Alcotest.(check bool) "coupled victim is noisy" true (peaks.(0) > 0.01);
        Alcotest.(check (float 0.0)) "uncoupled victim at 0 V" 0.0 peaks.(1);
        Alcotest.(check int) "full window" (steps full) (steps early));
    case "early exit waits for the slower of two aggressors" (fun () ->
        (* one node, so the energy bound is exactly |v|: a fast aggressor
           kicks it early; a slow one, starting once that bump has died
           down, lifts it higher later. An exit that ignored the slow
           ramp's settle instant would stop in the quiet gap between. *)
        let nl = N.create () in
        let fast = ramp_from nl t_rise in
        let slow_t0 = 4e-9 and slow_rise = 8.0 *. t_rise in
        let slow = ramp_from ~t0:slow_t0 nl slow_rise in
        let v = N.fresh nl in
        N.resistor nl v N.ground 200.0;
        N.capacitor nl v fast 20e-15;
        N.capacitor nl v slow 200e-15;
        N.capacitor nl v N.ground 20e-15;
        let early, full = early_vs_full cfg (deck nl [ v ]) in
        Alcotest.(check bool) "the slow aggressor sets the peak" true
          (full.Circuit.Transient.peak_times.(0) > slow_t0);
        Alcotest.(check bool) "stops after the slow ramp settles" true
          (early.Circuit.Transient.times.(steps early) >= slow_t0 +. slow_rise);
        Alcotest.(check bool) "and before the window ends" true (steps early < steps full));
    case "stiff decks: a wider margin, and the whole window past its cap" (fun () ->
        (* a 100 ohm driver, then 16 coupled segments of [seg_r] ohm and
           0.01 fF, then a 20-segment tail: with milliohm segments the
           stiffness G_kk dt / (2 C_kk) is about 1e8, so the rounding of
           the steps left may reach 5.6e-4 of the bound, under the 1e-3
           cap; with micro-ohm segments it would exceed 0.2, and the
           deck runs the whole window *)
        let stiff seg_r =
          let nl = N.create () in
          let agg = ramp_from nl t_rise in
          let root = N.fresh nl in
          N.resistor nl root N.ground 100.0;
          N.capacitor nl root N.ground 1e-17;
          let chain up n r c =
            List.fold_left
              (fun up _ ->
                let next = N.fresh nl in
                N.resistor nl up next r;
                N.capacitor nl next N.ground c;
                N.capacitor nl next agg 5e-18;
                next)
              up (List.init n Fun.id)
          in
          let mid = chain root 16 seg_r 1e-17 in
          let far = chain mid 20 300.0 10e-15 in
          let tau = (100.0 +. (20.0 *. 300.0)) *. (20.0 *. 10e-15) in
          early_vs_full cfg (deck ~tau nl [ root; mid; far ])
        in
        let early, full = stiff 4e-3 in
        Alcotest.(check bool) "milliohm segments stop early" true (steps early < steps full);
        let early, full = stiff 1e-6 in
        Alcotest.(check int) "micro-ohm segments run the window" (steps full) (steps early));
    case "an RLC deck runs the whole window" (fun () ->
        let cfg = { cfg with Noisesim.Deck.l_per_m = 0.3e-6 } in
        let t = Fixtures.two_pin process ~len:3e-3 in
        let d = Noisesim.Deck.of_stage cfg t ~gate:(T.root t) in
        let early, full = early_vs_full cfg d in
        Alcotest.(check bool) "dense solver" true
          (early.Circuit.Transient.solver = Circuit.Transient.Dense);
        Alcotest.(check int) "full window" (steps full) (steps early));
    case "forest step pinned bit for bit on four decks" (fun () ->
        (* each deck's step count, then every probe's peak and peak time
           in %h, then an MD5 digest of the full window's traces in %h:
           the forest step may move where a value lives, never the order
           of a sum *)
        let pinned name d expect =
          let dt, t_end = Noisesim.Deck.window cfg d in
          let nl = d.Noisesim.Deck.netlist and probes = List.map snd d.Noisesim.Deck.probes in
          let r = Circuit.Transient.simulate_peaks nl ~dt ~t_end ~probes in
          let full = Circuit.Transient.simulate ~record:true nl ~dt ~t_end ~probes in
          let probe p peak = Printf.sprintf "%h@%h" peak r.Circuit.Transient.peak_times.(p) in
          let hex tr =
            String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") tr))
          in
          let traces =
            List.map hex (Array.to_list (Option.get full.Circuit.Transient.traces))
          in
          let digest = Digest.to_hex (Digest.string (String.concat "\n" traces)) in
          let peaks = Array.to_list (Array.mapi probe r.Circuit.Transient.peaks) in
          let got = String.concat " " ((string_of_int (steps r) :: peaks) @ [ digest ]) in
          Alcotest.(check string) name expect got
        in
        (* a branch node with three children, so [finish] adds a
           zero-length wire to a dummy node, and a sink on a zero-length
           wire of its own *)
        let b = Rctree.Builder.create () in
        let so = Rctree.Builder.add_source b ~r_drv:120.0 ~d_drv:30e-12 in
        let wire len = T.wire_of_length process len in
        let fork = Rctree.Builder.add_internal b ~parent:so ~wire:(wire 1e-3) () in
        List.iteri
          (fun i len ->
            ignore
              (Rctree.Builder.add_sink b ~parent:fork ~wire:(wire len) ~name:(string_of_int i)
                 ~c_sink:15e-15 ~rat:2e-9 ~nm:0.8))
          [ 0.0; 2e-3; 1.5e-3 ];
        let t = Rctree.Builder.finish b in
        pinned "branch and zero-resistance wire"
          (Noisesim.Deck.of_stage cfg t ~gate:(T.root t))
          "88 0x1.440d9ae8a00c1p-1@0x1.12e0be826d695p-32 0x1.7d5b2f389dcdp-1@0x1.12e0be826d695p-32 \
           0x1.64f6444499b26p-1@0x1.12e0be826d695p-32 a4f458be109e7a80e5224a19b1abfea3";
        (* two aggressor slopes on one wire: two sources in every row *)
        let line = Fixtures.two_pin process ~len:3e-3 in
        let span slope = { Coupling.near = 0.0; far = 3e-3; lambda = 0.3; slope } in
        let slope = Tech.Process.slope process in
        let ann = Coupling.annotate line ~spans:[ (1, [ span slope; span (slope /. 3.0) ]) ] in
        let tr = Coupling.tree ann in
        pinned "two aggressors"
          (Noisesim.Deck.of_stage ~density:(Coupling.density ann) cfg tr ~gate:(T.root tr))
          "200 0x1.54dfd48d976p-2@0x1.12d06b2b4567bp-32 271d275513a461b2c5cd9e924d955d2f";
        (* a resistor from a free node to an aggressor: a conductive RHS,
           then two capacitive terms in the same row, and no early exit *)
        let nl = N.create () in
        let agg = ramp_from nl t_rise in
        let late = ramp_from ~t0:1e-10 nl (2.0 *. t_rise) in
        let v = N.fresh nl and w = N.fresh nl in
        N.resistor nl v N.ground 200.0;
        N.resistor nl v agg 5e3;
        N.capacitor nl v agg 3e-15;
        N.capacitor nl v late 4e-15;
        N.capacitor nl v N.ground 20e-15;
        N.resistor nl v w 300.0;
        N.capacitor nl w N.ground 10e-15;
        N.capacitor nl w agg 5e-15;
        pinned "conductive coupling" (deck ~tau:2e-11 nl [ v; w ])
          "400 0x1.4a69a58b1c272p-4@0x1.1230d283619e3p-32 0x1.718b9461b73d2p-4@0x1.1230d283619e3p-32 \
           f2c73e379ca16df04d6f899ffd7edc76";
        (* a coupled driver and a 12-segment tail: stops early *)
        let nl = N.create () in
        let agg = ramp_from nl t_rise in
        let root = N.fresh nl in
        N.resistor nl root N.ground 200.0;
        N.capacitor nl root agg 4e-15;
        N.capacitor nl root N.ground 5e-15;
        let far =
          List.fold_left
            (fun up _ ->
              let next = N.fresh nl in
              N.resistor nl up next 300.0;
              N.capacitor nl next N.ground 10e-15;
              next)
            root (List.init 12 Fun.id)
        in
        pinned "early exit" (deck ~tau:2e-10 nl [ root; far ])
          "144 0x1.6da05598bb83dp-8@0x1.0f0794ee2b5e1p-32 0x1.ef9f8f79c2587p-9@0x1.3adf657e1bcb7p-32 \
           cde65eaa299763da84cc59df8039cb06");
  ]

(* Every sink's simulated peak over all stages of a tree, by sink name. *)
let sink_peaks cfg t =
  List.concat_map
    (fun g ->
      List.filter_map
        (fun (v, peak) ->
          match T.kind t v with T.Sink s -> Some (s.T.sname, peak) | _ -> None)
        (Noisesim.Deck.peak_noise cfg (Noisesim.Deck.of_stage cfg t ~gate:g)))
    (T.gates t)

(* free nodes of a deck: everything but its ramp sources *)
let unknowns d =
  Circuit.Netlist.node_count d.Noisesim.Deck.netlist - List.length d.Noisesim.Deck.sources

let section_tests =
  let cfg = Noisesim.Deck.default_config process in
  let line_deck ?(cfg = cfg) len =
    let t = Fixtures.two_pin process ~len in
    Noisesim.Deck.of_stage cfg t ~gate:(T.root t)
  in
  [
    case "per-wire decks match a 20 um reference on workload trees" (fun () ->
        (* signoff-shaped trees (BuffOpt's output, and the unbuffered net
           cut at 500 um) against the same trees refined into pieces of at
           most 20 um, each one section: its RC is far below the step and
           above the lumping floor. Per-wire sections err by O(1/k^2):
           at k = 1.5, 2.7e-4 V at worst here and 2.2e-4 V on block200,
           where k = 1 gives 5.0e-4 V (DESIGN.md §4.1). *)
        let nets =
          Workload.trees process
            (Workload.generate { Workload.default_config with nets = 6; seed = 3 })
        in
        let worst = ref 0.0 in
        List.iter
          (fun (_, t) ->
            let trees =
              Rctree.Segment.refine t ~max_len:500e-6
              ::
              (match Bufins.Buffopt.optimize Bufins.Buffopt.Buffopt ~lib t with
              | Some run -> [ run.Bufins.Buffopt.report.Bufins.Eval.tree ]
              | None -> [])
            in
            List.iter
              (fun t ->
                let fine = sink_peaks cfg (Rctree.Segment.refine t ~max_len:20e-6) in
                List.iter
                  (fun (name, peak) ->
                    worst := Float.max !worst (Float.abs (peak -. List.assoc name fine)))
                  (sink_peaks cfg t))
              trees)
          nets;
        if !worst > 5e-4 then Alcotest.failf "worst leaf error %.3g V over 5e-4 V" !worst);
    case "a sub-micron wire is lumped at its upper node" (fun () ->
        let d = line_deck 0.5e-6 in
        Alcotest.(check int) "only the stage root" 1 (unknowns d);
        match Noisesim.Deck.peak_noise cfg d with
        | [ (_, peak) ] -> Alcotest.(check bool) "its coupling stays" true (peak > 0.0)
        | _ -> Alcotest.fail "one probe expected");
    case "a 4 mm wire keeps n_seg sections" (fun () ->
        Alcotest.(check int) "root and 8 sections" 9 (unknowns (line_deck 4e-3)));
    case "n_seg caps the per-wire count" (fun () ->
        let three = { cfg with Noisesim.Deck.n_seg = 3 } in
        Alcotest.(check int) "3 sections" 4 (unknowns (line_deck ~cfg:three 4e-3));
        (* uncapped, the count is ceil (1.5 sqrt (RC / dt)) *)
        let big = { cfg with Noisesim.Deck.n_seg = 1000 } in
        let d = line_deck ~cfg:big 4e-3 in
        let dt, _ = Noisesim.Deck.window big d in
        let rc = Tech.Process.wire_r process 4e-3 *. Tech.Process.wire_c process 4e-3 in
        Alcotest.(check int) "from the time constant"
          (1 + int_of_float (Float.ceil (1.5 *. sqrt (rc /. dt))))
          (unknowns d));
  ]

let tests =
  [
    case "deck probes every stage leaf" (fun () ->
        let t = Fixtures.balanced process ~levels:2 ~trunk_len:2e-3 in
        let cfg = Noisesim.Deck.default_config process in
        let deck = Noisesim.Deck.of_stage cfg t ~gate:(T.root t) in
        Alcotest.(check int) "four sinks probed" 4 (List.length deck.Noisesim.Deck.probes));
    case "of_stage rejects non-gates" (fun () ->
        let t = Fixtures.balanced process ~levels:1 ~trunk_len:1e-3 in
        let cfg = Noisesim.Deck.default_config process in
        let internal = List.hd (T.internals t) in
        Alcotest.(check bool) "raises" true
          (match Noisesim.Deck.of_stage cfg t ~gate:internal with
          | exception Invalid_argument _ -> true
          | _ -> false));
    qcase ~count:15 "devgan metric upper-bounds simulated peaks" workload_tree_gen (fun t ->
        let r = Noisesim.Verify.net process t in
        r.Noisesim.Verify.bound_ok);
    qcase ~count:10 "bound also holds after buffering" workload_tree_gen (fun t ->
        match Bufins.Buffopt.optimize Bufins.Buffopt.Buffopt ~lib t with
        | Some run ->
            let r = Noisesim.Verify.net process run.Bufins.Buffopt.report.Bufins.Eval.tree in
            r.Noisesim.Verify.bound_ok && Noisesim.Verify.is_clean r
        | None -> false);
    case "simulated peak grows with coupling" (fun () ->
        let peak lambda =
          let p = { process with Tech.Process.lambda } in
          let t = Fixtures.two_pin p ~len:3e-3 in
          let r = Noisesim.Verify.net p t in
          (List.hd r.Noisesim.Verify.leaves).Noisesim.Verify.peak
        in
        let p03 = peak 0.3 and p07 = peak 0.7 in
        Alcotest.(check bool) "monotone" true (p07 > p03 && p03 > 0.0));
    case "no coupling means no noise" (fun () ->
        let p = { process with Tech.Process.lambda = 0.0 } in
        let t = Fixtures.two_pin p ~len:3e-3 in
        let r = Noisesim.Verify.net p t in
        Alcotest.(check bool) "silent" true
          ((List.hd r.Noisesim.Verify.leaves).Noisesim.Verify.peak < 1e-6));
    case "segment count convergence" (fun () ->
        let t = Fixtures.two_pin process ~len:4e-3 in
        let peak n_seg =
          let cfg = { (Noisesim.Deck.default_config process) with Noisesim.Deck.n_seg } in
          let r = Noisesim.Verify.net ~config:cfg process t in
          (List.hd r.Noisesim.Verify.leaves).Noisesim.Verify.peak
        in
        feq_rel "8 vs 24 segments" ~eps:0.02 (peak 8) (peak 24));
    case "metric reported alongside peaks" (fun () ->
        let t = Fixtures.two_pin process ~len:4e-3 in
        let r = Noisesim.Verify.net process t in
        let l = List.hd r.Noisesim.Verify.leaves in
        let metric = match Noise.leaf_noise t with [ (_, n, _) ] -> n | _ -> assert false in
        feq_rel "same metric" ~eps:1e-9 metric l.Noisesim.Verify.metric);
    case "violation counting is consistent" (fun () ->
        let t = Fixtures.two_pin process ~len:8e-3 in
        let r = Noisesim.Verify.net process t in
        Alcotest.(check int) "metric violation" 1 r.Noisesim.Verify.metric_violations;
        Alcotest.(check bool) "sim violation too (8 mm line)" true (r.Noisesim.Verify.sim_violations = 1);
        let fixed =
          Rctree.Surgery.apply t
            [
              { Rctree.Surgery.node = 1; dist = 2.7e-3; buffer = buf };
              { Rctree.Surgery.node = 1; dist = 5.4e-3; buffer = buf };
            ]
        in
        let r' = Noisesim.Verify.net process fixed in
        Alcotest.(check int) "clean after buffering" 0 r'.Noisesim.Verify.sim_violations);
  ]

let suites =
  [
    ("noisesim", tests);
    ("noisesim.early", early_exit_tests);
    ("noisesim.sections", section_tests);
  ]
