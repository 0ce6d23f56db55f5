(* Regenerates every data exhibit of the paper's evaluation (Section V):
   Tables I-IV, the Fig. 3 worked example, the Theorem-1 length curves,
   and the two ablations called out in DESIGN.md. Every run is
   deterministic in the seed. *)

let process = Tech.Process.default

let lib = Tech.Lib.default_library

let kmax = 16

type bench = {
  nets : (Steiner.Net.t * Rctree.Tree.t) list;
  cfg : Workload.config;
  jobs : int;  (** worker domains for the batch tables *)
}

let make_bench ~nets ~seed ~jobs =
  let cfg = { Workload.default_config with nets; seed } in
  let jobs = if jobs <= 0 then Engine.Pool.default_domains () else jobs in
  { nets = Workload.trees process (Workload.generate cfg); cfg; jobs }

(* chunk sizing and shard balance for the batch tables key off each
   net's sink count, like Engine.optimize *)
let net_costs bench =
  Array.of_list (List.map (fun (n, _) -> Steiner.Net.degree n) bench.nets)

(* wall-clock seconds (Util.Clock): Sys.time is CPU seconds and
   double-counts under the batch engine's parallelism *)
let timed f = Util.Clock.timed f

let ps x = Printf.sprintf "%.1f" (x *. 1e12)

(* ------------------------------------------------------------------ *)
(* Table I: sink distribution of the test nets                         *)

let table1 bench =
  let nets = List.map fst bench.nets in
  let tab =
    Util.Ftab.create
      ~title:(Printf.sprintf "Table I: sink distribution of the %d test nets" (List.length nets))
      ~headers:[ "sinks"; "nets"; "share" ]
  in
  List.iter
    (fun (label, n) ->
      Util.Ftab.add_row tab
        [ label; string_of_int n; Printf.sprintf "%.1f%%" (100.0 *. float_of_int n /. float_of_int (List.length nets)) ])
    (Workload.sink_histogram ~buckets:bench.cfg.Workload.mix nets);
  let wl = Util.Stats.of_list (List.map (fun (_, t) -> Rctree.Tree.total_wirelength t *. 1e3) bench.nets) in
  Util.Ftab.add_row tab
    [ "wirelength"; Printf.sprintf "%.1f-%.1f mm" (Util.Stats.min wl) (Util.Stats.max wl);
      Printf.sprintf "avg %.1f mm" (Util.Stats.mean wl) ];
  Util.Ftab.print tab

(* ------------------------------------------------------------------ *)
(* Table II: violations before/after BuffOpt, metric vs simulation     *)

let buffopt_run tree =
  match Bufins.Buffopt.optimize ~kmax Bufins.Buffopt.Buffopt ~lib tree with
  | Some r -> r
  | None -> failwith "BuffOpt infeasible even after segmenting retries"

let table2 bench =
  let metric_before = ref 0 and sim_before = ref 0 in
  let metric_after = ref 0 and sim_after = ref 0 in
  let bound_violations = ref 0 in
  let total = List.length bench.nets in
  let per_net (_, tree) =
    let seg = Rctree.Segment.refine tree ~max_len:500e-6 in
    let before = Noisesim.Verify.net process seg in
    let r = buffopt_run tree in
    let after = Noisesim.Verify.net process r.Bufins.Buffopt.report.Bufins.Eval.tree in
    (before, after)
  in
  let outcomes, _ = Engine.map ~domains:bench.jobs ~costs:(net_costs bench) per_net bench.nets in
  Array.iter
    (function
      | Engine.Done (before, after) ->
          if before.Noisesim.Verify.metric_violations > 0 then incr metric_before;
          if before.Noisesim.Verify.sim_violations > 0 then incr sim_before;
          if not before.Noisesim.Verify.bound_ok then incr bound_violations;
          if after.Noisesim.Verify.metric_violations > 0 then incr metric_after;
          if after.Noisesim.Verify.sim_violations > 0 then incr sim_after;
          if not after.Noisesim.Verify.bound_ok then incr bound_violations
      | Engine.Failed { error; _ } -> failwith error)
    outcomes;
  let tab =
    Util.Ftab.create
      ~title:
        (Printf.sprintf
           "Table II: nets with noise violations before/after BuffOpt (%d nets; simulator = 3dnoise substitute)"
           total)
      ~headers:[ "analysis"; "before BuffOpt"; "after BuffOpt" ]
  in
  Util.Ftab.add_row tab
    [ "Devgan metric (BuffOpt's view)"; string_of_int !metric_before; string_of_int !metric_after ];
  Util.Ftab.add_row tab
    [ "transient simulation"; string_of_int !sim_before; string_of_int !sim_after ];
  Util.Ftab.print tab;
  Printf.printf "upper-bound check: metric >= simulated peak on every leaf of every net: %s\n\n"
    (if !bound_violations = 0 then "PASS" else Printf.sprintf "FAIL (%d nets)" !bound_violations)

(* ------------------------------------------------------------------ *)
(* Table III: BuffOpt vs DelayOpt(k)                                   *)

let count_hist counts =
  (* "nets with b buffers" rendering, e.g. 0x77 1x161 2x232 *)
  let tbl = Hashtbl.create 8 in
  List.iter (fun c -> Hashtbl.replace tbl c (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c))) counts;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare
  |> List.map (fun (k, v) -> Printf.sprintf "%dx%d" k v)
  |> String.concat " "

let table3 bench =
  let tab =
    Util.Ftab.create
      ~title:"Table III: noise avoidance, BuffOpt vs DelayOpt(k)"
      ~headers:
        [ "algorithm"; "nets w/ metric viol."; "nets w/ sim viol."; "total buffers"; "nets by count"; "wall (s)" ]
  in
  let eval_algo name algo =
    let per_net (_, tree) =
      match Bufins.Buffopt.optimize ~kmax algo ~lib tree with
      | Some r ->
          let report = r.Bufins.Buffopt.report in
          let m = if Bufins.Eval.noise_clean report then 0 else 1 in
          let s =
            let v = Noisesim.Verify.net process report.Bufins.Eval.tree in
            if v.Noisesim.Verify.sim_violations > 0 then 1 else 0
          in
          Some (r.Bufins.Buffopt.count, m, s)
      | None -> None
    in
    let outcomes, t = Engine.map ~domains:bench.jobs ~costs:(net_costs bench) per_net bench.nets in
    let counts, metric_bad, sim_bad =
      Array.fold_left
        (fun (counts, mbad, sbad) -> function
          | Engine.Done (Some (c, m, s)) -> (c :: counts, mbad + m, sbad + s)
          | Engine.Done None -> (counts, mbad + 1, sbad + 1)
          | Engine.Failed { error; _ } -> failwith error)
        ([], 0, 0) outcomes
    in
    let total = List.fold_left ( + ) 0 counts in
    Util.Ftab.add_row tab
      [
        name;
        string_of_int metric_bad;
        string_of_int sim_bad;
        string_of_int total;
        count_hist counts;
        Printf.sprintf "%.2f" t.Engine.wall_s;
      ]
  in
  eval_algo "BuffOpt" Bufins.Buffopt.Buffopt;
  for k = 1 to 4 do
    eval_algo (Printf.sprintf "DelayOpt(%d)" k) (Bufins.Buffopt.Delayopt k)
  done;
  Util.Ftab.print tab

(* ------------------------------------------------------------------ *)
(* Table IV: delay penalty of noise avoidance                          *)

let table4 bench =
  (* pair BuffOpt with DelayOpt at the same buffer count, per the paper *)
  let groups = Hashtbl.create 8 in
  let add k (base, bo, dly) =
    let cur = Option.value ~default:[] (Hashtbl.find_opt groups k) in
    Hashtbl.replace groups k ((base, bo, dly) :: cur)
  in
  let per_net (_, tree) =
    let r = buffopt_run tree in
    let k = r.Bufins.Buffopt.count in
    if k = 0 then None
    else begin
      let base = (Bufins.Eval.of_tree r.Bufins.Buffopt.segmented).Bufins.Eval.worst_delay in
      let bo = r.Bufins.Buffopt.report.Bufins.Eval.worst_delay in
      let by =
        Bufins.Dp.run ~noise:false ~mode:(Bufins.Dp.Per_count kmax) ~lib
          r.Bufins.Buffopt.segmented
      in
      let dly =
        match by.Bufins.Dp.by_count.(k) with
        | Some d -> (Bufins.Eval.apply r.Bufins.Buffopt.segmented d.Bufins.Dp.placements).Bufins.Eval.worst_delay
        | None -> bo
      in
      Some (k, (base, bo, dly))
    end
  in
  let outcomes, _ = Engine.map ~domains:bench.jobs ~costs:(net_costs bench) per_net bench.nets in
  Array.iter
    (function
      | Engine.Done (Some (k, row)) -> add k row
      | Engine.Done None -> ()
      | Engine.Failed { error; _ } -> failwith error)
    outcomes;
  let tab =
    Util.Ftab.create ~title:"Table IV: average delay reduction (ps) at equal buffer count"
      ~headers:[ "buffers"; "nets"; "BuffOpt red."; "DelayOpt red."; "penalty" ]
  in
  let tot_n = ref 0 and tot_bo = ref 0.0 and tot_dl = ref 0.0 in
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) groups []
  |> List.sort compare
  |> List.iter (fun (k, rows) ->
         let n = List.length rows in
         let red f = List.fold_left (fun a r -> a +. f r) 0.0 rows /. float_of_int n in
         let bo = red (fun (b, o, _) -> b -. o) and dl = red (fun (b, _, d) -> b -. d) in
         tot_n := !tot_n + n;
         tot_bo := !tot_bo +. (bo *. float_of_int n);
         tot_dl := !tot_dl +. (dl *. float_of_int n);
         Util.Ftab.add_row tab
           [
             string_of_int k;
             string_of_int n;
             ps bo;
             ps dl;
             Printf.sprintf "%.1f%%" (Util.Fx.pct dl bo);
           ]);
  let avg_bo = !tot_bo /. float_of_int !tot_n and avg_dl = !tot_dl /. float_of_int !tot_n in
  Util.Ftab.add_row tab
    [
      "all";
      string_of_int !tot_n;
      ps avg_bo;
      ps avg_dl;
      Printf.sprintf "%.2f%%" (Util.Fx.pct avg_dl avg_bo);
    ];
  Util.Ftab.print tab;
  Printf.printf
    "paper: average delay penalty of optimizing noise+delay vs delay alone was 1.99%%\n\n"

(* ------------------------------------------------------------------ *)
(* Fig. 3: worked noise-computation example                            *)

let fig3 () =
  let tree = Fixtures.fig3 () in
  Printf.printf "Fig. 3 worked example (abstract units, see Fixtures.fig3):\n";
  List.iter
    (fun (v, noise, margin) ->
      Printf.printf "  noise at node %d = %.1f (margin %.1f)%s\n" v noise margin
        (if noise > margin then "  VIOLATION" else ""))
    (Noise.leaf_noise tree);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Theorem 1 curves (the paper's Fig. 6/7 setting)                     *)

let fig_maxlen () =
  let r_per_m = process.Tech.Process.r_per_m in
  let i_per_m = Tech.Process.i_per_m process in
  let ns = process.Tech.Process.nm_default in
  Printf.printf "Theorem 1: max noise-safe wire length vs driver resistance (ns=%.2f V)\n" ns;
  Printf.printf "  %-12s %-14s %-14s\n" "r_b (ohm)" "l_max (mm)" "simple approx";
  let approx = sqrt (2.0 *. ns /. (r_per_m *. i_per_m)) in
  List.iter
    (fun r_b ->
      match Noise.max_safe_length ~r_b ~i_down:0.0 ~ns ~r_per_m ~i_per_m with
      | Some l -> Printf.printf "  %-12.0f %-14.3f %-14.3f\n" r_b (l *. 1e3) (approx *. 1e3)
      | None -> ())
    [ 0.0; 36.0; 65.0; 120.0; 230.0; 440.0; 850.0 ];
  Printf.printf "\nTheorem 1: max length vs coupling ratio lambda (r_b = 36 ohm)\n";
  Printf.printf "  %-12s %-14s\n" "lambda" "l_max (mm)";
  List.iter
    (fun lambda ->
      let i = lambda *. process.Tech.Process.c_per_m *. Tech.Process.slope process in
      match Noise.max_safe_length ~r_b:36.0 ~i_down:0.0 ~ns ~r_per_m ~i_per_m:i with
      | Some l -> Printf.printf "  %-12.2f %-14.3f\n" lambda (l *. 1e3)
      | None -> ())
    [ 0.1; 0.2; 0.3; 0.5; 0.7; 0.9; 1.0 ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Ablation A: wire segmenting granularity (Alpert-Devgan trade-off)   *)

let ablation_seg bench =
  let sample = List.filteri (fun i _ -> i < 60) bench.nets in
  let tab =
    Util.Ftab.create ~title:"Ablation A: segmenting strategy vs quality/run time (Alg. 3, 60 nets)"
      ~headers:[ "segmenting"; "avg slack (ps)"; "avg buffers"; "candidates"; "wall (s)" ]
  in
  let row label refine =
    let (slacks, bufs, cands), cpu =
      timed (fun () ->
          List.fold_left
            (fun (ss, bs, cs) (_, tree) ->
              let o = Bufins.Dp.run ~noise:true ~mode:Bufins.Dp.Single ~lib (refine tree) in
              match o.Bufins.Dp.best with
              | Some r -> (r.Bufins.Dp.slack :: ss, r.Bufins.Dp.count + bs, r.Bufins.Dp.stats.Bufins.Dp.generated + cs)
              | None -> (ss, bs, cs))
            ([], 0, 0) sample)
    in
    let n = float_of_int (List.length slacks) in
    Util.Ftab.add_row tab
      [
        label;
        ps (List.fold_left ( +. ) 0.0 slacks /. n);
        Printf.sprintf "%.2f" (float_of_int bufs /. n);
        string_of_int cands;
        Printf.sprintf "%.2f" cpu;
      ]
  in
  List.iter
    (fun seg_um ->
      row
        (Printf.sprintf "uniform %.0f um" seg_um)
        (fun tree -> Rctree.Segment.refine tree ~max_len:(seg_um *. 1e-6)))
    [ 2000.0; 1000.0; 500.0; 250.0; 125.0 ];
  (* footnote 3: spend candidate nodes where Theorem 1 says they matter *)
  row "noise-driven (fn. 3)" (fun tree -> Bufins.Segmenting.noise_driven ~lib tree);
  Util.Ftab.print tab

(* ------------------------------------------------------------------ *)
(* Ablation B: candidate pruning                                       *)

let ablation_prune () =
  let bench = make_bench ~nets:20 ~seed:7 ~jobs:1 in
  let trees = List.map snd bench.nets in
  let tab =
    Util.Ftab.create ~title:"Ablation B: candidate population (20 workload nets)"
      ~headers:[ "engine"; "generated"; "pruned"; "wall (s)" ]
  in
  let measure name f =
    let (gen, prn), cpu =
      timed (fun () ->
          List.fold_left
            (fun (g, p) t ->
              let s : Bufins.Dp.stats = f (Rctree.Segment.refine t ~max_len:400e-6) in
              (g + s.Bufins.Dp.generated, p + s.Bufins.Dp.pruned))
            (0, 0) trees)
    in
    Util.Ftab.add_row tab
      [ name; string_of_int gen; string_of_int prn; Printf.sprintf "%.3f" cpu ]
  in
  measure "Van Ginneken, pruned" (fun t ->
      (Bufins.Dp.run ~noise:false ~mode:Bufins.Dp.Single ~lib t).Bufins.Dp.stats);
  measure "Alg. 3 (noise), pruned" (fun t ->
      (Bufins.Dp.run ~noise:true ~mode:Bufins.Dp.Single ~lib t).Bufins.Dp.stats);
  measure "Van Ginneken, no pruning" (fun t ->
      (Bufins.Dp.run ~pruning:`Off ~noise:false ~mode:Bufins.Dp.Single ~lib t).Bufins.Dp.stats);
  measure "Alg. 3 (noise), no pruning" (fun t ->
      (Bufins.Dp.run ~pruning:`Off ~noise:true ~mode:Bufins.Dp.Single ~lib t).Bufins.Dp.stats);
  Util.Ftab.print tab;
  Printf.printf
    "paper: Alg. 3 generates only the noise-legal subset of Van Ginneken's candidates,\nwhich is why BuffOpt's CPU time undercuts DelayOpt's in Table III.\n\n"

(* ------------------------------------------------------------------ *)
(* Extension: simultaneous wire sizing (Lillis et al. [18])            *)

let extension_wiresize bench =
  let sample = List.filteri (fun i _ -> i < 60) bench.nets in
  let tab =
    Util.Ftab.create
      ~title:"Extension: buffer insertion with simultaneous wire sizing (noise-constrained, 60 nets)"
      ~headers:[ "width menu"; "avg slack (ps)"; "avg buffers"; "wires widened"; "wall (s)" ]
  in
  List.iter
    (fun (label, widths) ->
      let (slacks, bufs, widened), cpu =
        timed (fun () ->
            List.fold_left
              (fun (ss, bs, ws) (_, tree) ->
                let seg = Rctree.Segment.refine tree ~max_len:500e-6 in
                match Bufins.Wiresize.run ~widths ~noise:true ~lib seg with
                | Some r ->
                    ( r.Bufins.Dp.slack :: ss,
                      bs + r.Bufins.Dp.count,
                      ws + List.length r.Bufins.Dp.sizes )
                | None -> (ss, bs, ws))
              ([], 0, 0) sample)
      in
      let n = float_of_int (List.length slacks) in
      Util.Ftab.add_row tab
        [
          label;
          ps (List.fold_left ( +. ) 0.0 slacks /. n);
          Printf.sprintf "%.2f" (float_of_int bufs /. n);
          string_of_int widened;
          Printf.sprintf "%.2f" cpu;
        ])
    [ ("1x", [ 1.0 ]); ("1x 2x", [ 1.0; 2.0 ]); ("1x 2x 4x", [ 1.0; 2.0; 4.0 ]) ];
  Util.Ftab.print tab

(* ------------------------------------------------------------------ *)
(* Verifier stack: Devgan metric vs AWE moments vs transient           *)

let verifiers bench =
  let sample = List.filteri (fun i _ -> i < 100) bench.nets in
  let trees = List.map (fun (_, t) -> Rctree.Segment.refine t ~max_len:500e-6) sample in
  let tab =
    Util.Ftab.create
      ~title:"Verifier comparison on 100 unbuffered nets (leaves over margin)"
      ~headers:[ "analysis"; "violating leaves"; "violating nets"; "wall (s)" ]
  in
  let row name f =
    let (leaves, nets), cpu =
      timed (fun () ->
          List.fold_left
            (fun (l, n) tree ->
              let bad = f tree in
              (l + bad, n + if bad > 0 then 1 else 0))
            (0, 0) trees)
    in
    Util.Ftab.add_row tab [ name; string_of_int leaves; string_of_int nets; Printf.sprintf "%.2f" cpu ]
  in
  row "Devgan metric (eq. 9)" (fun t -> List.length (Noise.violations t));
  row "AWE 1-pole peak (RICE-class)" (fun t ->
      List.length
        (List.filter
           (fun (leaf, est) -> est.Noisesim.Awe.peak > Noise.margin t leaf +. 1e-9)
           (Noisesim.Awe.net process t)));
  row "transient simulation" (fun t ->
      (Noisesim.Verify.net process t).Noisesim.Verify.sim_violations);
  Util.Ftab.print tab;
  Printf.printf
    "expected ordering: metric >= AWE ~= transient in flagged leaves; AWE runs at\na fraction of the transient cost — the 3dnoise design point.\n\n"

(* ------------------------------------------------------------------ *)
(* Full-design mode: STA-driven optimization of whole gate netlists     *)

let design_flow () =
  let tab =
    Util.Ftab.create ~title:"Full-design mode: STA -> BuffOpt -> STA on random gate netlists"
      ~headers:
        [ "gates"; "nets"; "wns before"; "wns after"; "tns before (ns)"; "noisy before"; "noisy after"; "buffers"; "wall (s)" ]
  in
  List.iter
    (fun (gates, seed) ->
      let design = Sta.Gen.random { Sta.Gen.default_config with Sta.Gen.gates; seed } in
      let r, cpu = timed (fun () -> Sta.Flow.optimize process ~lib design) in
      Util.Ftab.add_row tab
        [
          string_of_int gates;
          string_of_int (Array.length design.Sta.Design.nets);
          ps r.Sta.Flow.before.Sta.Engine.wns;
          ps r.Sta.Flow.after.Sta.Engine.wns;
          Printf.sprintf "%.1f" (r.Sta.Flow.before.Sta.Engine.tns *. 1e9);
          string_of_int r.Sta.Flow.before.Sta.Engine.noisy_nets;
          string_of_int r.Sta.Flow.after.Sta.Engine.noisy_nets;
          string_of_int r.Sta.Flow.inserted_buffers;
          Printf.sprintf "%.2f" cpu;
        ])
    [ (60, 3); (120, 7); (240, 11); (400, 13) ];
  Util.Ftab.print tab

(* ------------------------------------------------------------------ *)
(* Sensitivity: violation counts vs margin and coupling ratio          *)

let fig_sensitivity bench =
  let sample = List.filteri (fun i _ -> i < 150) bench.nets in
  let tab =
    Util.Ftab.create
      ~title:"Sensitivity: nets with metric violations vs margin and coupling (150 nets)"
      ~headers:[ "noise margin (V)"; "lambda 0.3"; "lambda 0.5"; "lambda 0.7"; "lambda 0.9" ]
  in
  List.iter
    (fun nm ->
      let row =
        List.map
          (fun lambda ->
            let p = { process with Tech.Process.lambda } in
            let bad =
              List.length
                (List.filter
                   (fun (net, _) ->
                     (* rebuild at this lambda; compare against a uniform
                        margin for the sweep *)
                     let tree = Steiner.Build.tree_of_net p net in
                     List.exists (fun (_, noise, _) -> noise > nm) (Noise.leaf_noise tree))
                   sample)
            in
            string_of_int bad)
          [ 0.3; 0.5; 0.7; 0.9 ]
      in
      Util.Ftab.add_row tab (Printf.sprintf "%.1f" nm :: row))
    [ 0.4; 0.6; 0.8; 1.0; 1.2 ];
  Util.Ftab.print tab;
  Printf.printf
    "the eq. 13 trade: violation counts fall with margin and rise with coupling;\nthe paper's corner (0.8 V, lambda 0.7) sits mid-slope.\n\n"

(* ------------------------------------------------------------------ *)
(* Estimation mode vs explicit aggressor spans                          *)

let ext_coupling bench =
  let sample = List.filteri (fun i _ -> i < 120) bench.nets in
  let rng = Util.Rng.create 42 in
  let explicit_tree tree =
    (* strip estimation currents, then couple ~60% of each wire to one or
       two explicit aggressors of the process slope *)
    let bare = Rctree.Tree.map_wires tree (fun _ w -> { w with Rctree.Tree.cur = 0.0 }) in
    let slope = Tech.Process.slope process in
    let spans =
      List.filter_map
        (fun v ->
          if v = Rctree.Tree.root bare then None
          else begin
            let w = Rctree.Tree.wire_to bare v in
            if w.Rctree.Tree.length <= 1e-6 then None
            else begin
              let len = w.Rctree.Tree.length in
              let cover a b =
                {
                  Coupling.near = a *. len;
                  far = b *. len;
                  lambda = process.Tech.Process.lambda;
                  slope;
                }
              in
              let lo = Util.Rng.range rng 0.0 0.4 in
              Some (v, [ cover lo (lo +. Util.Rng.range rng 0.3 0.6) ])
            end
          end)
        (Rctree.Tree.postorder bare)
    in
    Coupling.annotate bare ~spans
  in
  let est_bad = ref 0 and exp_bad = ref 0 and est_buf = ref 0 and exp_buf = ref 0 in
  List.iter
    (fun (_, tree) ->
      if Noise.violations tree <> [] then incr est_bad;
      (match Bufins.Buffopt.optimize Bufins.Buffopt.Buffopt ~lib tree with
      | Some r -> est_buf := !est_buf + r.Bufins.Buffopt.count
      | None -> ());
      let ann = explicit_tree tree in
      let t = Coupling.tree ann in
      if Noise.violations t <> [] then incr exp_bad;
      match Bufins.Buffopt.optimize Bufins.Buffopt.Buffopt ~lib t with
      | Some r -> exp_buf := !exp_buf + r.Bufins.Buffopt.count
      | None -> ())
    sample;
  let tab =
    Util.Ftab.create
      ~title:"Estimation mode vs explicit aggressor spans (120 nets, ~60% coverage)"
      ~headers:[ "coupling model"; "nets w/ violations"; "BuffOpt buffers" ]
  in
  Util.Ftab.add_row tab
    [ "estimation (every wire coupled)"; string_of_int !est_bad; string_of_int !est_buf ];
  Util.Ftab.add_row tab
    [ "explicit spans (Fig. 2)"; string_of_int !exp_bad; string_of_int !exp_buf ];
  Util.Ftab.print tab;
  Printf.printf
    "estimation mode is the pre-route worst case (paper Sect. II-B): with real\nspans both the violations and the buffers needed to fix them shrink.\n\n"

(* ------------------------------------------------------------------ *)
(* Ablation C: buffer library strength                                  *)

let ablation_lib bench =
  let sample = List.filteri (fun i _ -> i < 100) bench.nets in
  let tab =
    Util.Ftab.create ~title:"Ablation C: library strength (BuffOpt, 100 nets)"
      ~headers:[ "library"; "feasible"; "nets w/ viol."; "buffers"; "avg slack (ps)" ]
  in
  let weak =
    List.filter
      (fun (b : Tech.Buffer.t) -> b.Tech.Buffer.r_b >= 200.0)
      (Tech.Lib.non_inverting lib)
  in
  let strongest = [ Tech.Lib.min_resistance lib ] in
  let row name sub =
    let feas = ref 0 and bad = ref 0 and bufs = ref 0 and slack = ref 0.0 in
    List.iter
      (fun (_, tree) ->
        match Bufins.Buffopt.optimize Bufins.Buffopt.Buffopt ~lib:sub tree with
        | Some r ->
            incr feas;
            if not (Bufins.Eval.noise_clean r.Bufins.Buffopt.report) then incr bad;
            bufs := !bufs + r.Bufins.Buffopt.count;
            slack := !slack +. r.Bufins.Buffopt.report.Bufins.Eval.slack
        | None -> ())
      sample;
    Util.Ftab.add_row tab
      [
        name;
        Printf.sprintf "%d/%d" !feas (List.length sample);
        string_of_int !bad;
        string_of_int !bufs;
        ps (!slack /. float_of_int (max 1 !feas));
      ]
  in
  row "full (11 buffers)" lib;
  row "strongest only" strongest;
  row "weak only (r >= 200)" weak;
  Util.Ftab.print tab

(* ------------------------------------------------------------------ *)
(* Extraction: eq. 17's spacing trade on a routed parallel bus         *)

let ext_extract () =
  let cfg = Extract.default_config process in
  let tab =
    Util.Ftab.create
      ~title:"Extraction: 16-bit 10 mm bus, middle bit, vs pitch (eq. 17 lambda = kappa/spacing)"
      ~headers:[ "pitch (nm)"; "lambda/side"; "metric noise (V)"; "buffers needed"; "sim clean" ]
  in
  List.iter
    (fun pitch ->
      let routed =
        List.map (Extract.route process) (Workload.parallel_bus ~bits:16 ~pitch ~len:10_000_000 ())
      in
      let victim = List.nth routed 8 in
      let aggressors = List.filteri (fun i _ -> i <> 8) routed in
      let ann = Extract.annotate cfg ~victim ~aggressors in
      let tree = Coupling.tree ann in
      let noise = match Noise.leaf_noise tree with (_, n, _) :: _ -> n | [] -> 0.0 in
      let r = Bufins.Alg2.run ~lib tree in
      let ann' = Coupling.buffered ann r.Bufins.Alg2.placements in
      let v = Noisesim.Verify.net ~density:(Coupling.density ann') process (Coupling.tree ann') in
      Util.Ftab.add_row tab
        [
          string_of_int pitch;
          Printf.sprintf "%.3f" (Extract.lambda_of_spacing cfg pitch);
          Printf.sprintf "%.3f" noise;
          string_of_int r.Bufins.Alg2.count;
          (if v.Noisesim.Verify.sim_violations = 0 then "yes" else "NO");
        ])
    [ 400; 600; 800; 1000; 1200; 1600 ];
  Util.Ftab.print tab;
  Printf.printf
    "doubling the spacing halves lambda (eq. 17); past the coupling window the bus\nneeds no repeaters at all — buffering and spacing trade against each other.\n\n";
  (* whole-bus repair: every bit optimized against its extracted
     neighbours, each verified with its own multi-aggressor decks *)
  let routed =
    List.map (Extract.route process) (Workload.parallel_bus ~bits:16 ~len:10_000_000 ())
  in
  let total_buffers = ref 0 and dirty = ref 0 in
  List.iteri
    (fun i victim ->
      let aggressors = List.filteri (fun j _ -> j <> i) routed in
      let ann = Extract.annotate cfg ~victim ~aggressors in
      let r = Bufins.Alg2.run ~lib (Coupling.tree ann) in
      total_buffers := !total_buffers + r.Bufins.Alg2.count;
      let ann' = Coupling.buffered ann r.Bufins.Alg2.placements in
      let v = Noisesim.Verify.net ~density:(Coupling.density ann') process (Coupling.tree ann') in
      if v.Noisesim.Verify.sim_violations > 0 then incr dirty)
    routed;
  Printf.printf
    "whole 16-bit bus repaired: %d repeaters total, %d bits still violating in simulation\n\n"
    !total_buffers !dirty

(* ------------------------------------------------------------------ *)
(* Metal corner: aluminum vs copper (the introduction's claim)          *)

let fig_metal () =
  let tab =
    Util.Ftab.create
      ~title:"Metal corner: the same 150 nets in aluminum vs copper wiring"
      ~headers:
        [ "metal"; "nets w/ viol."; "BuffOpt buffers"; "avg buffered delay (ps)"; "max safe span (mm)" ]
  in
  let nets = Workload.generate { Workload.default_config with nets = 150 } in
  let corner name p =
    let bad = ref 0 and bufs = ref 0 and delays = ref [] in
    List.iter
      (fun net ->
        let tree = Steiner.Build.tree_of_net p net in
        if Noise.violations tree <> [] then incr bad;
        match Bufins.Buffopt.optimize Bufins.Buffopt.Buffopt ~lib tree with
        | Some r ->
            bufs := !bufs + r.Bufins.Buffopt.count;
            delays := r.Bufins.Buffopt.report.Bufins.Eval.worst_delay :: !delays
        | None -> ())
      nets;
    let span =
      match
        Noise.max_safe_length
          ~r_b:(Tech.Lib.min_resistance lib).Tech.Buffer.r_b ~i_down:0.0
          ~ns:p.Tech.Process.nm_default ~r_per_m:p.Tech.Process.r_per_m
          ~i_per_m:(Tech.Process.i_per_m p)
      with
      | Some l -> l
      | None -> nan
    in
    let n = float_of_int (List.length !delays) in
    Util.Ftab.add_row tab
      [
        name;
        string_of_int !bad;
        string_of_int !bufs;
        ps (List.fold_left ( +. ) 0.0 !delays /. n);
        Printf.sprintf "%.2f" (span *. 1e3);
      ]
  in
  corner "aluminum (0.080 ohm/um)" process;
  corner "copper (0.044 ohm/um)" Tech.Process.copper;
  Util.Ftab.print tab;
  Printf.printf
    "copper stretches Theorem 1's safe span by ~35%% and trims buffers and delay,\nbut violations persist on long nets — the paper's \"temporary relief\".\n\n"

(* ------------------------------------------------------------------ *)
(* Extension: power-delay trade-off under an energy-budgeted DP         *)

let monotone name slacks =
  let ok =
    fst
      (List.fold_left
         (fun (ok, prev) s -> (ok && s >= prev, s))
         (true, neg_infinity) slacks)
  in
  Printf.printf "%s frontier monotone (more energy never hurts slack): %s\n\n" name
    (if ok then "yes" else "NO");
  if not ok then exit 1

let fig_power jobs =
  (* Part 1: the 800-sink caterpillar net. The budgeted DP carries a
     3-axis (load, slack, energy) frontier whose width grows much faster
     than the 2-axis one, so the big-net curve uses the four weakest
     buffer types and kmax = 8 — enough library variety for the budget
     to pick sizes, small enough to keep the sweep under a minute. *)
  let plib = List.filteri (fun i _ -> i < 4) lib in
  let kmax = 8 in
  let seg = Rctree.Segment.refine (Fixtures.caterpillar process 800) ~max_len:500e-6 in
  let best_exn (o : Bufins.Dp.outcome) = Option.get o.Bufins.Dp.best in
  let unc =
    best_exn (Bufins.Dp.run ~noise:false ~mode:(Bufins.Dp.Per_count kmax) ~lib:plib seg)
  in
  let tab =
    Util.Ftab.create
      ~title:
        (Printf.sprintf
           "Power-delay trade-off: 800-sink net, 4 buffer types, kmax = %d (unconstrained: \
            %s ps at %.1f fJ)"
           kmax (ps unc.Bufins.Dp.slack)
           (unc.Bufins.Dp.energy *. 1e15))
      ~headers:
        [ "budget (fJ)"; "slack (ps)"; "energy (fJ)"; "buffers"; "generated"; "power-pruned" ]
  in
  let slacks =
    List.map
      (fun frac ->
        let budget = frac *. unc.Bufins.Dp.energy in
        let o =
          Bufins.Dp.run ~noise:false
            ~mode:(Bufins.Dp.Power_bounded { budget; kmax })
            ~lib:plib seg
        in
        let r = best_exn o in
        let s = o.Bufins.Dp.stats in
        Util.Ftab.add_row tab
          [
            Printf.sprintf "%.1f" (budget *. 1e15);
            ps r.Bufins.Dp.slack;
            Printf.sprintf "%.1f" (r.Bufins.Dp.energy *. 1e15);
            string_of_int r.Bufins.Dp.count;
            string_of_int s.Bufins.Dp.generated;
            string_of_int s.Bufins.Dp.power_pruned;
          ];
        r.Bufins.Dp.slack)
      [ 0.125; 0.25; 0.5; 0.75; 1.0 ]
  in
  Util.Ftab.print tab;
  monotone "800-sink" slacks;
  (* Part 2: the block200 BLIF corpus through the batch engine, every
     net under the same per-net budget; the worst slack over the design
     is monotone because each net's is. *)
  let design, _buffers, warnings = Ingest.Elab.load "examples/blif/block200.blif" in
  if warnings > 0 then Printf.printf "front-end: %d warning(s)\n" warnings;
  let nets = Sta.Engine.batch_jobs process design in
  let domains = if jobs <= 0 then Engine.Pool.default_domains () else jobs in
  let run algorithm = Engine.optimize ~domains ~algorithm ~lib nets in
  let unbounded = run Bufins.Buffopt.Vangin_max_slack in
  let per_net_max =
    Array.fold_left
      (fun acc (nr : Engine.net_result) ->
        match nr.Engine.outcome with
        | Engine.Done r -> Float.max acc r.Bufins.Buffopt.energy
        | Engine.Failed _ -> acc)
      0.0 unbounded.Engine.results
  in
  let tab =
    Util.Ftab.create
      ~title:
        (Printf.sprintf
           "Power-delay trade-off: block200.blif, %d nets, per-net energy budget (richest \
            unconstrained net: %.1f fJ)"
           (List.length nets) (per_net_max *. 1e15))
      ~headers:
        [ "budget (fJ/net)"; "optimized"; "buffers"; "energy (fJ)"; "worst slack (ps)" ]
  in
  let row name (r : Engine.report) =
    Util.Ftab.add_row tab
      [
        name;
        Printf.sprintf "%d/%d" r.Engine.ok (List.length nets);
        string_of_int r.Engine.buffers;
        Printf.sprintf "%.1f" (r.Engine.energy *. 1e15);
        ps r.Engine.worst_slack;
      ];
    r.Engine.worst_slack
  in
  let slacks =
    List.map
      (fun frac ->
        let budget = frac *. per_net_max in
        row
          (Printf.sprintf "%.1f" (budget *. 1e15))
          (run (Bufins.Buffopt.Power_bounded budget)))
      [ 0.0; 0.125; 0.25; 0.5; 1.0 ]
  in
  let unb = row "unbounded" unbounded in
  Util.Ftab.print tab;
  monotone "block200" (slacks @ [ unb ]);
  Printf.printf
    "the budget ladder walks the power-delay frontier: cheap solutions stop at the\n\
     few placements that pay for themselves, the full budget recovers the\n\
     unconstrained slack at (often) less than the unconstrained energy.\n\n"

(* ------------------------------------------------------------------ *)

open Cmdliner

let nets_arg =
  Arg.(value & opt int 500 & info [ "nets" ] ~docv:"N" ~doc:"Number of workload nets.")

let seed_arg = Arg.(value & opt int 1998 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")

let jobs_arg =
  Arg.(
    value
    & opt int 0
    & info [ "jobs" ] ~docv:"N"
        ~doc:"Worker domains for the batch tables (0 = one per recommended core).")

let with_bench f nets seed jobs = f (make_bench ~nets ~seed ~jobs)

let cmd name doc f =
  Cmd.v (Cmd.info name ~doc) Term.(const (with_bench f) $ nets_arg $ seed_arg $ jobs_arg)

let cmd0 name doc f = Cmd.v (Cmd.info name ~doc) Term.(const f $ const ())

let all bench =
  table1 bench;
  table2 bench;
  table3 bench;
  table4 bench;
  fig3 ();
  fig_maxlen ();
  ablation_seg bench;
  ablation_prune ();
  extension_wiresize bench;
  verifiers bench;
  design_flow ();
  fig_sensitivity bench;
  ext_coupling bench;
  ablation_lib bench;
  ext_extract ();
  fig_metal ()

(* Tables I-IV on a real-format netlist (the ingest front end) instead
   of the synthetic workload. *)
let blif_cmd path liberty jobs =
  let design, _buffers, warnings = Ingest.Elab.load ?liberty path in
  if warnings > 0 then Printf.printf "front-end: %d warning(s)\n" warnings;
  Printf.printf "design: %s\n" (Sta.Design.stats design);
  let nets = Sta.Engine.batch_jobs process design in
  let jobs = if jobs <= 0 then Engine.Pool.default_domains () else jobs in
  let bench = { nets; cfg = Workload.default_config; jobs } in
  table1 bench;
  table2 bench;
  table3 bench;
  table4 bench

let () =
  let cmds =
    [
      cmd "table1" "Sink distribution of the test nets (Table I)." table1;
      cmd "table2" "Noise violations before/after BuffOpt (Table II)." table2;
      cmd "table3" "BuffOpt vs DelayOpt(k) (Table III)." table3;
      cmd "table4" "Delay penalty of noise avoidance (Table IV)." table4;
      cmd0 "fig3" "Worked noise-computation example (Fig. 3)." fig3;
      cmd0 "fig-maxlen" "Theorem 1 maximum-length curves." fig_maxlen;
      cmd "ablation-seg" "Wire-segmenting granularity trade-off." ablation_seg;
      cmd0 "ablation-prune" "Candidate pruning ablation." ablation_prune;
      cmd "ext-wiresize" "Simultaneous wire sizing extension." extension_wiresize;
      cmd "verifiers" "Metric vs AWE vs transient comparison." verifiers;
      cmd0 "design-flow" "STA-driven whole-design optimization." design_flow;
      cmd "fig-sensitivity" "Violations vs margin and coupling ratio." fig_sensitivity;
      cmd "ext-coupling" "Estimation mode vs explicit aggressor spans." ext_coupling;
      cmd "ablation-lib" "Buffer library strength ablation." ablation_lib;
      cmd0 "ext-extract" "Routed-bus coupling extraction vs pitch." ext_extract;
      cmd0 "fig-metal" "Aluminum vs copper wiring corner." fig_metal;
      Cmd.v
        (Cmd.info "power" ~doc:"Power-delay trade-off curves (energy-budgeted DP).")
        Term.(const fig_power $ jobs_arg);
      cmd "all" "Run every experiment." all;
      (let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"DESIGN") in
       let liberty =
         Arg.(
           value
           & opt (some file) None
           & info [ "liberty" ] ~docv:"FILE" ~doc:"Liberty-subset cell library.")
       in
       Cmd.v
         (Cmd.info "blif" ~doc:"Tables I-IV on a real netlist (.blif or .design).")
         Term.(const blif_cmd $ path $ liberty $ jobs_arg));
    ]
  in
  exit (Cmd.eval (Cmd.group (Cmd.info "experiments" ~doc:"Reproduce the paper's evaluation.") cmds))
