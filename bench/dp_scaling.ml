(* DP candidate-engine scaling bench: runs the Van Ginneken / Algorithm 3
   engine on synthetic trees of 50 / 200 / 800 sinks and emits BENCH_dp.json.

     dune exec bench/dp_scaling.exe             # full run (3 iterations)
     dune exec bench/dp_scaling.exe -- --smoke  # CI smoke mode (1 iteration)

   The headline run is the 800-sink [Per_count kmax=16] delay-mode DP — the
   BuffOpt / DelayOpt(k) hot path. A library-size sweep (b = 1 / 4 / 8
   buffer types) tracks how the per-type frontier populations and the
   predictive-pruning rate (DESIGN.md §12) scale with the library. Times
   are Util.Clock wall-clock seconds (Sys.time CPU seconds would
   double-count under parallelism), the minimum over iterations. *)

let process = Tech.Process.default

let lib = Tech.Lib.default_library

(* The test suite's scale-tree shape (test/test_scale.ml): a random
   caterpillar-ish topology, one sink hanging off every internal node. *)
let big_tree sinks =
  let rng = Util.Rng.create 99 in
  let b = Rctree.Builder.create () in
  let so = Rctree.Builder.add_source b ~r_drv:100.0 ~d_drv:30e-12 in
  let attach = ref [ so ] in
  for k = 0 to sinks - 1 do
    let parent = List.nth !attach (Util.Rng.int rng (List.length !attach)) in
    let v =
      Rctree.Builder.add_internal b ~parent
        ~wire:(Rctree.Tree.wire_of_length process (Util.Rng.range rng 0.2e-3 1.5e-3))
        ()
    in
    attach := v :: !attach;
    ignore
      (Rctree.Builder.add_sink b ~parent:v
         ~wire:(Rctree.Tree.wire_of_length process (Util.Rng.range rng 0.2e-3 1e-3))
         ~name:(Printf.sprintf "s%d" k) ~c_sink:15e-15 ~rat:4e-9 ~nm:0.8)
  done;
  Rctree.Builder.finish b

type run = {
  name : string;
  sinks : int;
  noise : bool;
  kmax : int option;
  lib_size : int;
  seconds : float;
  slack : float;
  energy : float;
  generated : int;
  pruned : int;
  pred_pruned : int;
  power_pruned : int;
  peak_width : int;
  arena : int;
  minor_words : float;
}

let time_run ~iters f =
  let best = ref infinity in
  let out = ref None in
  for _ = 1 to iters do
    let r, dt = Util.Clock.timed f in
    if dt < !best then best := dt;
    out := Some r
  done;
  (!best, Option.get !out)

let scenario ?(lib = lib) ?suffix ?budget_frac ~iters ~sinks ~noise ~kmax () =
  let seg = Rctree.Segment.refine (big_tree sinks) ~max_len:500e-6 in
  let mode =
    match (kmax, budget_frac) with
    | None, None -> Bufins.Dp.Single
    | Some k, None -> Bufins.Dp.Per_count k
    | Some k, Some frac ->
        (* the budget is a fraction of the unconstrained winner's
           energy, measured by an untimed Per_count reference run *)
        let unc =
          (Bufins.Dp.run ~noise ~mode:(Bufins.Dp.Per_count k) ~lib seg).Bufins.Dp.best
        in
        let e = match unc with Some r -> r.Bufins.Dp.energy | None -> 0.0 in
        Bufins.Dp.Power_bounded { budget = frac *. e; kmax = k }
    | None, Some _ -> invalid_arg "budget_frac requires kmax"
  in
  let seconds, (outcome : Bufins.Dp.outcome) =
    time_run ~iters (fun () -> Bufins.Dp.run ~noise ~mode ~lib seg)
  in
  let slack = match outcome.Bufins.Dp.best with Some r -> r.Bufins.Dp.slack | None -> nan in
  let energy = match outcome.Bufins.Dp.best with Some r -> r.Bufins.Dp.energy | None -> 0.0 in
  {
    name =
      Printf.sprintf "%s_%s_%d%s"
        (match (kmax, budget_frac) with
        | None, _ -> "single"
        | Some k, None -> Printf.sprintf "per_count_k%d" k
        | Some k, Some frac -> Printf.sprintf "power_k%d_p%.0f" k (frac *. 100.))
        (if noise then "noise" else "delay")
        sinks
        (match suffix with None -> "" | Some s -> "_" ^ s);
    sinks;
    noise;
    kmax;
    lib_size = List.length lib;
    seconds;
    slack;
    energy;
    generated = outcome.Bufins.Dp.stats.Bufins.Dp.generated;
    pruned = outcome.Bufins.Dp.stats.Bufins.Dp.pruned;
    pred_pruned = outcome.Bufins.Dp.stats.Bufins.Dp.pred_pruned;
    power_pruned = outcome.Bufins.Dp.stats.Bufins.Dp.power_pruned;
    peak_width = outcome.Bufins.Dp.stats.Bufins.Dp.peak_width;
    arena = outcome.Bufins.Dp.stats.Bufins.Dp.arena;
    (* per-run Gc deltas measured by the DP itself; minor words are the
       allocation-pressure headline the trace-arena refactor targets *)
    minor_words = outcome.Bufins.Dp.stats.Bufins.Dp.minor_words;
  }

let json_of_run r =
  Printf.sprintf
    "    {\"name\": \"%s\", \"sinks\": %d, \"noise\": %b, \"kmax\": %s, \"lib_size\": %d, \
     \"wall_seconds\": %.6f, \"slack\": %.6e, \"energy\": %.6e, \"generated\": %d, \
     \"pruned\": %d, \"pred_pruned\": %d, \"power_pruned\": %d, \"peak_width\": %d, \
     \"arena_nodes\": %d, \"minor_words\": %.0f}"
    r.name r.sinks r.noise
    (match r.kmax with None -> "null" | Some k -> string_of_int k)
    r.lib_size r.seconds r.slack r.energy r.generated r.pruned r.pred_pruned r.power_pruned
    r.peak_width r.arena r.minor_words

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let out_path =
    let rec find i = if i >= Array.length Sys.argv - 1 then "BENCH_dp.json"
      else if Sys.argv.(i) = "-o" then Sys.argv.(i + 1) else find (i + 1)
    in
    find 1
  in
  let iters = if smoke then 1 else 3 in
  let sub_lib b = List.filteri (fun i _ -> i < b) lib in
  let runs =
    List.concat
      [
        (* the headline scaling series: count-indexed delay DP, kmax = 16 *)
        List.map
          (fun sinks -> scenario ~iters ~sinks ~noise:false ~kmax:(Some 16) ())
          [ 50; 200; 800 ];
        (* the noise-constrained engine (Algorithm 3), unbucketed *)
        List.map (fun sinks -> scenario ~iters ~sinks ~noise:true ~kmax:None ()) [ 50; 200; 800 ];
        (* library-size sweep: per-type frontier widths and predictive
           pruning rates for b = 1 / 4 / 8 buffer types *)
        List.concat_map
          (fun sinks ->
            List.map
              (fun b ->
                scenario ~lib:(sub_lib b)
                  ~suffix:(Printf.sprintf "b%d" b)
                  ~iters ~sinks ~noise:false ~kmax:(Some 16) ())
              [ 1; 4; 8 ])
          [ 200; 800 ];
        (* the energy-budgeted engine: its 3-axis frontier is far wider
           than the 2-axis one, so these rows use 4 buffer types and
           kmax = 8 (the experiments' power curve settings) with the
           budget at half the unconstrained winner's energy *)
        List.map
          (fun sinks ->
            scenario ~lib:(sub_lib 4) ~suffix:"b4" ~budget_frac:0.5 ~iters ~sinks
              ~noise:false ~kmax:(Some 8) ())
          [ 50; 200; 800 ];
      ]
  in
  List.iter
    (fun r ->
      Printf.printf
        "%-28s %10.3f s wall  slack %+.1f ps  energy %.1f fJ  generated %d  pruned %d  \
         pred-pruned %d  power-pruned %d  peak width %d  arena %d  alloc %.1f Mwords \
         minor\n%!"
        r.name r.seconds (r.slack *. 1e12) (r.energy *. 1e15) r.generated r.pruned
        r.pred_pruned r.power_pruned r.peak_width r.arena
        (r.minor_words /. 1e6))
    runs;
  let oc = open_out out_path in
  Printf.fprintf oc "{\n  \"engine\": \"predictive\",\n  \"smoke\": %b,\n  \"runs\": [\n%s\n  ]\n}\n"
    smoke
    (String.concat ",\n" (List.map json_of_run runs));
  close_out oc;
  Printf.printf "wrote %s\n" out_path
