(* The repository benchmark: one workload per process, end-to-end
   metrics untraced, per-layer metrics from a traced run. See
   README.md for the workloads, the metrics and what each layer metric
   should move.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

   The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics]. Inputs depend only on
   the seed; sizes (nets, sinks, requests) depend only on the workload,
   [--seconds] and [--smoke]. Every timed call runs at one domain.

   A run is a fixed plan of set-up repetitions and rounds, sized from
   [--seconds] with nominal per-item times measured on a 2-core x86
   box, so every seed does the same amount of work. In a traced run the
   repetitions alternate untraced / traced: traced ones give the layer
   splits, and the two kinds' median walls give the tracing overhead.

   Untraced times are calibrated: divided by the machine's slowdown,
   sampled between ops with Calib's kernels, they read in seconds of a
   quiet reference box. *)

module T = Rctree.Tree
module B = Bufins.Buffopt
module Dp = Bufins.Dp

let process = Tech.Process.default

let blif_path = "examples/blif/block200.blif"
let liberty_path = "examples/blif/cells.lib"

(* {1 Arguments} *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref false
let smoke = ref false
let daemon_socket = ref ""
let out_dir = "perfbench/out"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S nominal measured time");
      ("--trace", Arg.Int (fun t -> trace := t <> 0), "0|1 per-layer traced run");
      ("--smoke", Arg.Set smoke, " tiny sizes, for the benchmark's own tests");
      ("--serve-daemon", Arg.Set_string daemon_socket, "PATH internal: serve on this socket");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1"

(* [count_for ~nominal_s] items fill about [--seconds] on the reference
   box; smoke runs take [smoke] items. *)
let count_for ~smoke:n ~nominal_s =
  if !smoke then n else max 1 (int_of_float (Float.round (!seconds /. nominal_s)))

(* {1 Measurement state} *)

let setup_walls = ref [] (* untraced walls per set-up, s *)
let round_walls = ref [] (* untraced round walls, s *)
let traced_setup_walls = ref []
let traced_round_walls = ref []
let traced_setups = ref 0 (* set-ups and rounds run traced *)
let traced_rounds = ref 0
(* Untraced samples as (time, wall s), normalized by the machine's
   speed at that time when the run ends (see Calib): every set-up of a
   batch, every op by its id, and the remainder of every round, its
   wall minus its ops *)
let setup_samples = ref []
let op_samples : (int, (float * float) list) Hashtbl.t = Hashtbl.create 256
let rest_samples = ref []
let round_op_s = ref 0.0 (* untraced op time in the current round *)
(* the number of op sets the rounds cycle through: a round runs one *)
let op_sets = ref 1
let attempted = ref 0
(* the failed ops, by (round, op id); every op of every round is checked *)
let failed_ops : (int * int, unit) Hashtbl.t = Hashtbl.create 8
let checks : (string, int) Hashtbl.t = Hashtbl.create 8
(* buffers and energy of every solution checked, per round *)
let quality_buffers = ref 0
let quality_energy = ref 0.0
let quality_rounds = ref 1

let quality buffers energy =
  quality_buffers := !quality_buffers + buffers;
  quality_energy := !quality_energy +. energy

(* a correctness check of op [op] = (round, op id), run outside the
   timed window; an op with any failed check is one failed op *)
let check ~op kind ok fmt =
  Printf.ksprintf
    (fun msg ->
      Hashtbl.replace checks kind (1 + try Hashtbl.find checks kind with Not_found -> 0);
      if not ok then begin
        Hashtbl.replace failed_ops op ();
        Printf.eprintf "check %s failed: %s\n%!" kind msg
      end)
    fmt

(* Counts are deterministic, so they are taken once: in the first
   traced set-up and the first traced round, which makes every count
   "per set-up" plus "per round". *)
let counting = ref false
let sums : (string, float) Hashtbl.t = Hashtbl.create 32
let maxes : (string, float) Hashtbl.t = Hashtbl.create 8

let count name v =
  if !counting then
    Hashtbl.replace sums name (v +. try Hashtbl.find sums name with Not_found -> 0.0)

let count_max name v =
  if !counting then
    Hashtbl.replace maxes name (Float.max v (try Hashtbl.find maxes name with Not_found -> 0.0))

type phase = Setup | Round

let setup_spans = ref []
let round_spans = ref []
let counted = ref []

(* Run [f] [times] times in a row as repetition [i] of phase [ph]:
   traced on odd repetitions of a traced run, timed either way, its wall
   per run of [f] recorded by kind. A set-up of a few milliseconds is
   timed as a batch of 0.1 s or more, so that the clock's and the
   scheduler's granularity do not show in [setup_s]. Returns the first
   run's result. *)
let rep ?(times = 1) ph i f =
  let traced = !trace && i mod 2 = 1 in
  Gc.full_major ();
  Calib.active := not traced;
  Calib.tick ();
  let sampled = !Calib.spent_s in
  Span.on := traced;
  Span.spans := [];
  Span.op := -1;
  round_op_s := 0.0;
  counting := traced && not (List.mem ph !counted);
  if !counting then counted := ph :: !counted;
  let root = match ph with Setup -> "setup" | Round -> "round" in
  let run () =
    Span.with_ root (fun () ->
        let r = f () in
        counting := false;
        for _ = 2 to times do
          ignore (f ())
        done;
        r)
  in
  let r, dt = Util.Clock.timed run in
  let t = Util.Clock.now () -. (dt /. 2.0) in
  (* calibration samples taken between the round's ops are not its time *)
  let dt = dt -. (!Calib.spent_s -. sampled) in
  Calib.active := false;
  Span.on := false;
  counting := false;
  let walls, kept =
    match (ph, traced) with
    | Setup, false -> (setup_walls, None)
    | Round, false -> (round_walls, None)
    | Setup, true -> (traced_setup_walls, Some (setup_spans, traced_setups))
    | Round, true -> (traced_round_walls, Some (round_spans, traced_rounds))
  in
  walls := (dt /. float_of_int times) :: !walls;
  (match (ph, traced) with
  | Setup, false -> setup_samples := (t, dt /. float_of_int times) :: !setup_samples
  | Round, false -> rest_samples := (t, dt -. !round_op_s) :: !rest_samples
  | _, true -> ());
  Option.iter
    (fun (l, n) ->
      l := !Span.spans @ !l;
      n := !n + times)
    kept;
  r

(* repetitions per plan: a traced run needs one of each kind *)
let reps n = if !trace then max 2 n else n

(* [batches] timed set-up batches of [times] set-ups each, run before
   round [r]. The machine's speed drifts over fractions of a second, so
   the batches are spread over the run, not timed in one block. *)
let setups_before r ~batches ~times f =
  for b = 0 to batches - 1 do
    ignore (rep ~times Setup ((batches * r) + b) f)
  done

(* one op: its latency is recorded when untraced *)
let op id f =
  incr attempted;
  Calib.tick ();
  Span.op := id;
  let r, dt = Util.Clock.timed (fun () -> Span.with_ "op" f) in
  if not !Span.on then begin
    round_op_s := !round_op_s +. dt;
    let sample = (Util.Clock.now () -. (dt /. 2.0), dt) in
    Hashtbl.replace op_samples id (sample :: try Hashtbl.find op_samples id with Not_found -> [])
  end;
  r

let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let rss_mb = ref 0.0

(* {1 Shared pieces} *)

let stats_counts (s : Dp.stats) =
  count "bufins.generated" (float_of_int s.Dp.generated);
  count "bufins.pred_pruned" (float_of_int s.Dp.pred_pruned);
  count "bufins.power_pruned" (float_of_int s.Dp.power_pruned);
  count "bufins.survivors" (float_of_int (Dp.survivors s));
  count "bufins.considered" (float_of_int (Dp.considered s));
  count "bufins.arena_nodes" (float_of_int s.Dp.arena);
  count "bufins.minor_words" s.Dp.minor_words;
  count_max "bufins.peak_width" (float_of_int s.Dp.peak_width)

let invariant ~op ?(noise_clean = false) what (r : B.run) =
  let expect =
    {
      Check.Invariant.count = Some r.B.count;
      slack = Some r.B.predicted_slack;
      noise_clean;
      feasible_only = true;
    }
  in
  match Check.Invariant.check ~expect r.B.segmented r.B.placements with
  | Ok _ -> check ~op "invariant" true "%s" what
  | Error vs ->
      check ~op "invariant" false "%s: %s" what
        (String.concat "; " (List.map Check.Invariant.pp_violation vs))

(* The scale-tree shape of the DP bench and the test suite: a random
   caterpillar-ish topology, one sink hanging off every internal node.
   Net [net]'s topology and base wire lengths are fixed; the run seed
   scales each wire by a factor within [jitter] of 1. Candidate-frontier
   widths, and so DP time, depend mostly on topology, so this keeps the
   work of every seed alike while the seed still moves every wire. *)
type spec = { parent : int array; internal_um : float array; sink_um : float array }

let caterpillar ~jitter ~net sinks =
  let topo = Util.Rng.create (1998 + net) in
  let rng = Util.Rng.create ((!seed * 7919) + net) in
  let len lo hi = Util.Rng.range topo lo hi *. Util.Rng.range rng (1.0 -. jitter) (1.0 +. jitter) in
  let parent = Array.make sinks 0 and internal_um = Array.make sinks 0.0 in
  let sink_um = Array.make sinks 0.0 in
  for k = 0 to sinks - 1 do
    (* attach to the source (index -1) or an earlier internal node *)
    parent.(k) <- Util.Rng.int topo (k + 1) - 1;
    internal_um.(k) <- len 200.0 1500.0;
    sink_um.(k) <- len 200.0 1000.0
  done;
  { parent; internal_um; sink_um }

let build spec =
  let b = Rctree.Builder.create () in
  let so = Rctree.Builder.add_source b ~r_drv:100.0 ~d_drv:30e-12 in
  let ids = Array.make (Array.length spec.parent) so in
  Array.iteri
    (fun k p ->
      let parent = if p < 0 then so else ids.(p) in
      let v =
        Rctree.Builder.add_internal b ~parent
          ~wire:(T.wire_of_length process (spec.internal_um.(k) *. 1e-6))
          ()
      in
      ids.(k) <- v;
      ignore
        (Rctree.Builder.add_sink b ~parent:v
           ~wire:(T.wire_of_length process (spec.sink_um.(k) *. 1e-6))
           ~name:(Printf.sprintf "s%d" k) ~c_sink:15e-15 ~rat:4e-9 ~nm:0.8))
    spec.parent;
  Rctree.Builder.finish b

(* the set-up of bignet and power: build and segment every net *)
let load_trees specs =
  List.map
    (fun spec ->
      let t = Span.with_ "rctree.build" (fun () -> build spec) in
      let seg = Span.with_ "rctree.segment" (fun () -> Rctree.Segment.refine t ~max_len:500e-6) in
      count "rctree.nodes" (float_of_int (T.node_count seg));
      seg)
    specs

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* {1 signoff_block200} *)

(* the user's load: read and parse the netlist and library, elaborate
   at the seeded placement, derive the per-net jobs *)
let signoff_setup placement =
  let blif, liberty =
    Span.with_ "ingest.parse" (fun () ->
        ( Ingest.Blif.of_string ~path:blif_path (read_file blif_path),
          Ingest.Liberty.of_string ~path:liberty_path (read_file liberty_path) ))
  in
  let options =
    {
      Ingest.Elab.default_options with
      Ingest.Elab.cells = liberty.Ingest.Liberty.cells;
      seed = placement;
    }
  in
  let design, _warnings =
    Span.with_ "ingest.elab" (fun () -> Ingest.Elab.design_of_blif ~options blif)
  in
  let jobs = Span.with_ "sta.jobs" (fun () -> Sta.Engine.batch_jobs process design) in
  (design, liberty.Ingest.Liberty.buffers, jobs)

(* one op: the net's BuffOpt through the batch engine at one domain,
   then simulation of the buffered net *)
let signoff_net lib id job =
  op id (fun () ->
      let report =
        Span.with_ "engine" (fun () ->
            let r = Engine.optimize ~domains:1 ~algorithm:B.Buffopt ~lib [ job ] in
            let t = r.Engine.timing in
            let busy = Array.fold_left ( +. ) 0.0 t.Engine.sched.Engine.Pool.busy_s in
            Span.inner "bufins" busy;
            count "engine.busy_s" busy;
            count "engine.wall_s" t.Engine.wall_s;
            r)
      in
      match report.Engine.results.(0).Engine.outcome with
      | Engine.Done run ->
          stats_counts run.B.stats;
          let v =
            Span.with_ "noisesim.verify" (fun () ->
                Noisesim.Verify.net process run.B.report.Bufins.Eval.tree)
          in
          count "noisesim.leaves" (float_of_int (List.length v.Noisesim.Verify.leaves));
          Ok (run, v)
      | Engine.Failed { error; _ } -> Error error)

(* The rounds alternate between two placements of the seed, so a run
   averages over both; with one, a seed's placement moved the median op
   by a tenth. An op is a net at a placement, and it repeats the same
   work in every round at that placement. *)
let signoff () =
  let rounds = reps (count_for ~smoke:2 ~nominal_s:3.4) in
  let placement i = (!seed * 1000) + i in
  op_sets := 2;
  let loaded =
    Array.init !op_sets (fun p ->
        let design, lib, jobs = signoff_setup (placement p) in
        (design, lib, if !smoke then List.filteri (fun i _ -> i < 12) jobs else jobs))
  in
  let k = ref 0 in
  for r = 0 to rounds - 1 do
    (* a traced run alternates untraced and traced rounds, so it moves
       to the next placement every two rounds *)
    let p = (if !trace then r / 2 else r) mod !op_sets in
    let design, lib, jobs = loaded.(p) in
    (* batches of 16 set-ups, about 0.14 s. Set-up time depends on the
       placement, so every batch runs the same 16 placements in turn. *)
    setups_before r ~batches:2 ~times:16 (fun () ->
        incr k;
        signoff_setup (placement (!k mod 16)));
    let per_net, sta =
      rep Round r (fun () ->
          let per_net = List.mapi (fun nid -> signoff_net lib ((p * List.length jobs) + nid)) jobs in
          let trees = Hashtbl.create 256 in
          List.iteri
            (fun nid -> function
              | Ok ((run : B.run), _) -> Hashtbl.replace trees nid run.B.report.Bufins.Eval.tree
              | Error _ -> ())
            per_net;
          let sta =
            Span.with_ "sta.analyze" (fun () ->
                Sta.Engine.analyze ~trees:(Hashtbl.find_opt trees) process design)
          in
          (per_net, sta))
    in
    List.iteri
      (fun nid outcome ->
        let name = Printf.sprintf "placement %d net %d" (placement p) nid in
        let op = (r, nid) in
        match outcome with
        | Error e -> check ~op "feasible" false "%s: %s" name e
        | Ok ((run : B.run), (v : Noisesim.Verify.report)) ->
            invariant ~op ~noise_clean:true name run;
            check ~op "bound_ok" v.Noisesim.Verify.bound_ok "%s: metric below simulated peak" name;
            check ~op "sim_clean" (v.Noisesim.Verify.sim_violations = 0)
              "%s: %d simulated violations" name v.Noisesim.Verify.sim_violations;
            quality run.B.count run.B.energy)
      per_net;
    Printf.printf "signoff round %d, placement %d: wns %.1f ps, tns %.1f ps, %d buffers over %d nets\n"
      r (placement p) (sta.Sta.Engine.wns *. 1e12) (sta.Sta.Engine.tns *. 1e12)
      sta.Sta.Engine.total_buffers (List.length per_net)
  done;
  quality_rounds := rounds

(* {1 bignet_delay800} *)

(* Every round optimizes the same nets, so an op's times differ only by
   the machine; short rounds give every op many samples for its median. *)
let bignet () =
  let rounds = reps (count_for ~smoke:1 ~nominal_s:2.0) in
  let nets = if !smoke then 2 else 6 in
  let sinks = if !smoke then 40 else 800 in
  let lib = Tech.Lib.default_library in
  let specs = List.init nets (fun net -> caterpillar ~jitter:0.05 ~net sinks) in
  let trees = load_trees specs in
  for i = 0 to rounds - 1 do
    (* batches of 5 set-ups, about 0.13 s *)
    setups_before i ~batches:1 ~times:5 (fun () -> load_trees specs);
    let runs =
      rep Round i (fun () ->
          List.mapi
            (fun id seg ->
              op id (fun () ->
                  let r =
                    Span.with_ "bufins" (fun () ->
                        B.optimize_prepared ~pruning:`Predictive (B.Delayopt 16) ~lib seg)
                  in
                  Option.iter (fun (r : B.run) -> stats_counts r.B.stats) r;
                  r))
            trees)
    in
    (* every round is checked; quality is taken from the first *)
    List.iteri
      (fun id r ->
        let name = Printf.sprintf "net %d" id in
        let op = (i, id) in
        match r with
        | None -> check ~op "feasible" false "%s: no solution" name
        | Some (run : B.run) ->
            invariant ~op name run;
            if i = 0 then quality run.B.count run.B.energy)
      runs
  done

(* {1 power_curve} *)

let ladder = [ 0.125; 0.25; 0.5; 0.75; 1.0 ]

(* as in bignet, every round solves the same nets *)
let power () =
  let rounds = reps (count_for ~smoke:1 ~nominal_s:4.0) in
  let nets = if !smoke then 2 else 8 in
  let sinks = if !smoke then 8 else 24 in
  let kmax = 8 in
  let lib = List.filteri (fun i _ -> i < 4) Tech.Lib.default_library in
  (* the power DP's frontiers are far more sensitive to wire lengths
     than the delay DP's: at 5% a net's curve time moved by a tenth
     from seed to seed *)
  let specs = List.init nets (fun net -> caterpillar ~jitter:0.01 ~net sinks) in
  let trees = load_trees specs in
  let solve algorithm seg =
    let r = Span.with_ "bufins" (fun () -> B.optimize_prepared ~kmax algorithm ~lib seg) in
    Option.iter (fun (r : B.run) -> stats_counts r.B.stats) r;
    r
  in
  for i = 0 to rounds - 1 do
    (* batches of 336 set-ups, about 0.09 s *)
    setups_before i ~batches:3 ~times:336 (fun () -> load_trees specs);
    let curves =
      rep Round i (fun () ->
          List.mapi
            (fun id seg ->
              op id (fun () ->
                  match solve (B.Delayopt kmax) seg with
                  | None -> None
                  | Some (reference : B.run) ->
                      let e = reference.B.energy in
                      Some
                        ( reference,
                          List.map
                            (fun frac -> (frac *. e, solve (B.Power_bounded (frac *. e)) seg))
                            ladder )))
            trees)
    in
    (* every round is checked; quality is taken from the first *)
    List.iteri
      (fun id c ->
        let name = Printf.sprintf "curve %d" id in
        let op = (i, id) in
        match c with
        | None -> check ~op "feasible" false "%s: no reference solution" name
        | Some ((reference : B.run), rungs) ->
            invariant ~op (name ^ " reference") reference;
            let slacks =
              List.map
                (fun (budget, r) ->
                  match r with
                  | None ->
                      check ~op "feasible" false "%s: no solution at %.3g fJ" name (budget *. 1e15);
                      neg_infinity
                  | Some (run : B.run) ->
                      invariant ~op (Printf.sprintf "%s at %.3g fJ" name (budget *. 1e15)) run;
                      check ~op "budget"
                        (run.B.energy <= budget *. (1.0 +. 1e-9))
                        "%s: %.6g fJ over its %.6g fJ budget" name (run.B.energy *. 1e15)
                        (budget *. 1e15);
                      if i = 0 then quality run.B.count run.B.energy;
                      run.B.predicted_slack)
                rungs
            in
            let monotone, _ =
              List.fold_left (fun (ok, prev) s -> (ok && s >= prev, s)) (true, neg_infinity) slacks
            in
            check ~op "monotone" monotone "%s: slack falls as the budget grows" name;
            check ~op "full_budget"
              (List.nth slacks (List.length slacks - 1) = reference.B.predicted_slack)
              "%s: the full budget does not recover the unconstrained slack" name)
      curves
  done

(* {1 serve_eco_block200} *)

type net_mirror = { mutable tree : T.t; sinks : int array; memo : Dp.Memo.t }

(* the daemon's view of the design, rebuilt here to write the ECO script
   and to re-check replies: the same front end, jobs and segmenting
   ({!Serve.Session.default_options}) *)
let mirror () =
  let design, _, _ = Ingest.Elab.load blif_path in
  let opts = Serve.Session.default_options in
  List.map
    (fun (_, tree) ->
      let seg = Rctree.Segment.refine tree ~max_len:opts.Serve.Session.seg_len in
      { tree = seg; sinks = Array.of_list (T.sinks seg); memo = Dp.Memo.create () })
    (Sta.Engine.batch_jobs process design)
  |> Array.of_list

(* The seeded ECO script. Every net gets the same actions: three
   repeat optimizes (served from the result cache), a RAT edit and a
   wire edit each followed by an optimize (served incrementally when
   the net's memo is warm), and a noise edit followed by an optimize
   (the memo is cleared, so served in full). The seed shuffles the
   actions and picks sinks, wires and values, so every seed sends the
   same requests to the same nets; nets differ widely in cost, so a seed
   that drew nets would change the work. A stats
   request follows every 48 actions. Edits only tighten RATs by up to
   10% or shrink wires and aggressor current, so no net turns
   noise-infeasible. Two thirds of the requests are cheap, so the
   median request is well inside the cheap classes. *)
type action = Hit | Rat | Wire | Noise

let eco_script ~nets:n (nets : net_mirror array) =
  let rng = Util.Rng.create (!seed * 104729) in
  let actions =
    Array.of_list
      (List.concat_map (fun net -> [ (net, Hit); (net, Hit); (net, Hit); (net, Rat); (net, Wire); (net, Noise) ])
         (List.init n Fun.id))
  in
  Util.Rng.shuffle rng actions;
  List.concat
    (List.mapi
       (fun i (net, action) ->
         let m = nets.(net) in
         let edit =
           match action with
           | Hit -> []
           | Rat ->
               let s = Util.Rng.int rng (Array.length m.sinks) in
               let rat = match T.kind m.tree m.sinks.(s) with T.Sink sk -> sk.T.rat | _ -> 0.0 in
               [ Printf.sprintf "update-rat %d %d %.3f" net s (rat *. 1e12 *. Util.Rng.range rng 0.9 1.0) ]
           | Wire ->
               let node = ref (T.root m.tree) in
               while !node = T.root m.tree do
                 node := Util.Rng.int rng (T.node_count m.tree)
               done;
               [ Printf.sprintf "update-wire %d %d %.4f" net !node (Util.Rng.range rng 0.85 0.99) ]
           | Noise -> [ Printf.sprintf "update-noise %d %.4f" net (Util.Rng.range rng 0.85 0.99) ]
         in
         edit @ [ Printf.sprintf "optimize %d" net ] @ if i mod 48 = 47 then [ "stats" ] else [])
       (Array.to_list actions))

let field reply key =
  let prefix = key ^ "=" in
  let n = String.length prefix in
  List.find_map
    (fun tok ->
      if String.length tok > n && String.sub tok 0 n = prefix then
        Some (String.sub tok n (String.length tok - n))
      else None)
    (String.split_on_char ' ' reply)

let payload reply =
  String.concat " "
    (List.filter_map
       (fun k -> Option.map (fun v -> k ^ "=" ^ v) (field reply k))
       [ "slack_ps"; "buffers"; "energy_fj" ])

let render_payload (r : B.run) =
  Printf.sprintf "slack_ps=%.3f buffers=%d energy_fj=%.3f" (r.B.predicted_slack *. 1e12)
    r.B.count (r.B.energy *. 1e15)

let request_class line reply =
  match String.split_on_char ' ' line with
  | "optimize" :: _ -> (
      match field reply "served" with Some c -> c | None -> "err")
  | "stats" :: _ -> "stats"
  | _ -> "edit"

(* Replay the script on the mirror after the first round, outside the
   timed window: apply each edit as the daemon does, re-check every 8th
   incremental or full reply against a from-scratch
   {!Bufins.Buffopt.optimize_prepared} on the edited tree, and — in a
   traced run — re-run every incremental and full optimize through the
   mirror's own memos to count memo hits and DP work. Later rounds are
   checked reply by reply against the first. *)
let replay (nets : net_mirror array) lines replies ~memo =
  let opts = Serve.Session.default_options in
  let solve ?memo m =
    B.optimize_prepared ~kmax:opts.Serve.Session.kmax ?memo opts.Serve.Session.algorithm
      ~lib:opts.Serve.Session.lib m.tree
  in
  if memo then Array.iter (fun m -> ignore (solve ~memo:m.memo m)) nets;
  let hits0 = Array.fold_left (fun a m -> a + Dp.Memo.hits m.memo) 0 nets in
  let miss0 = Array.fold_left (fun a m -> a + Dp.Memo.misses m.memo) 0 nets in
  let sampled = ref 0 in
  List.iteri
    (fun id (line, reply) ->
      match String.split_on_char ' ' line with
      | [ "update-rat"; n; s; ps ] ->
          let m = nets.(int_of_string n) in
          let v = m.sinks.(int_of_string s) in
          m.tree <- T.with_sink_rat m.tree v ~rat:(float_of_string ps *. 1e-12);
          Dp.Memo.dirty m.memo m.tree v
      | [ "update-wire"; n; node; scale ] ->
          let m = nets.(int_of_string n) and node = int_of_string node in
          let scale = float_of_string scale in
          m.tree <-
            T.map_wires m.tree (fun v w ->
                if v = node then { w with T.res = w.T.res *. scale; T.cap = w.T.cap *. scale }
                else w);
          Dp.Memo.dirty m.memo m.tree node
      | [ "update-noise"; n; scale ] ->
          let m = nets.(int_of_string n) and scale = float_of_string scale in
          m.tree <- T.map_wires m.tree (fun _ w -> { w with T.cur = w.T.cur *. scale });
          Dp.Memo.clear m.memo
      | [ "optimize"; n ] -> (
          let m = nets.(int_of_string n) in
          match field reply "served" with
          | Some ("incr" | "full") ->
              if memo then Option.iter (fun (r : B.run) -> stats_counts r.B.stats) (solve ~memo:m.memo m);
              incr sampled;
              if !sampled mod 8 = 1 then
                let expected = Option.map render_payload (solve m) in
                check ~op:(0, id) "serve_scratch"
                  (expected = Some (payload reply))
                  "%s: daemon says %s, from scratch %s" line (payload reply)
                  (Option.value expected ~default:"infeasible")
          | _ -> ())
      | _ -> ())
    (List.combine lines replies);
  let hits = Array.fold_left (fun a m -> a + Dp.Memo.hits m.memo) 0 nets - hits0 in
  let misses = Array.fold_left (fun a m -> a + Dp.Memo.misses m.memo) 0 nets - miss0 in
  (hits, misses)

(* What fills the latency tail: per request class, the median and p99
   of the client-timed latency, and how many of the requests at or
   above the overall p99 the class accounts for. *)
let tail_report samples =
  let all = List.map fst samples in
  let p99 = Util.Stats.percentile all 99.0 in
  List.iter
    (fun cls ->
      let mine = List.filter_map (fun (dt, c) -> if c = cls then Some dt else None) samples in
      if mine <> [] then
        Printf.printf "serve class %-5s n=%d p50 %.4f ms p99 %.4f ms; %d of the %d requests >= p99\n"
          cls (List.length mine)
          (1e3 *. Util.Stats.percentile mine 50.0)
          (1e3 *. Util.Stats.percentile mine 99.0)
          (List.length (List.filter (fun dt -> dt >= p99) mine))
          (List.length (List.filter (fun dt -> dt >= p99) all)))
    [ "hit"; "incr"; "full"; "edit"; "stats" ]

let is_ok reply = String.length reply >= 2 && String.sub reply 0 2 = "ok"

let serve () =
  let by_class = ref [] in
  let script_nets = if !smoke then 12 else 192 in
  let rounds = count_for ~smoke:2 ~nominal_s:2.4 in
  let socket = Filename.concat out_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let endpoint = Serve.Unix_path socket in
  (* the daemon is this executable again, in a fresh process *)
  let daemon =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--serve-daemon"; socket |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let stop () =
    (try Unix.kill daemon Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] daemon)
  in
  Fun.protect ~finally:(fun () -> try stop () with Unix.Unix_error _ -> ())
  @@ fun () ->
  let deadline = Util.Clock.now () +. 30.0 in
  let rec connect () =
    match Serve.Client.connect endpoint with
    | c -> c
    | exception Unix.Unix_error _ when Util.Clock.now () < deadline ->
        Unix.sleepf 0.01;
        connect ()
  in
  let client = ref (connect ()) in
  (* one request timed at the client: the daemon's own handling time
     (t=) becomes a child span named after the request's class *)
  let request line =
    Util.Clock.timed (fun () ->
        Span.with_ "serve.request" (fun () ->
            let reply =
              match Serve.Client.request !client line with
              | Some r -> r
              | None -> failwith ("daemon closed the connection on: " ^ line)
            in
            let t_ms = Option.fold ~none:0.0 ~some:float_of_string (field reply "t") in
            let cls = if String.starts_with ~prefix:"load" line then "load" else request_class line reply in
            Span.inner ("serve." ^ cls) (t_ms /. 1e3);
            count ("serve.n_" ^ cls) 1.0;
            if String.starts_with ~prefix:"optimize" line then count "serve.n_optimize" 1.0;
            reply))
  in
  let nets = mirror () in
  let lines = eco_script ~nets:script_nets nets in
  let first = ref None in
  for i = 0 to reps rounds - 1 do
    (* every round is a new connection, so a new session: it loads the
       design afresh and serves the same script against the same state,
       and its stats requests see only this round's latencies *)
    if i > 0 then begin
      Serve.Client.close !client;
      client := connect ()
    end;
    let loaded, _ = rep Setup i (fun () -> request ("load design " ^ blif_path)) in
    (* a failed load fails the round's first op; the rest fail reply_ok *)
    check ~op:(i, 0) "load" (is_ok loaded) "%s" loaded;
    let replies =
      rep Round i (fun () ->
          List.mapi
            (fun id line ->
              let reply, dt = op id (fun () -> request line) in
              if not !Span.on then by_class := (dt, request_class line reply) :: !by_class;
              reply)
            lines)
    in
    List.iteri
      (fun id (line, reply) -> check ~op:(i, id) "reply_ok" (is_ok reply) "%s -> %s" line reply)
      (List.combine lines replies);
    (* a reply without its timing; stats replies report latencies, so
       they are not compared *)
    let strip r = List.filter (fun t -> not (String.starts_with ~prefix:"t=" t)) (String.split_on_char ' ' r) in
    match !first with
    | None ->
        first := Some replies;
        counting := !trace;
        let hits, misses = replay nets lines replies ~memo:!trace in
        count "serve.memo_hits" (float_of_int hits);
        count "serve.memo_misses" (float_of_int misses);
        counting := false;
        List.iter2
          (fun line reply ->
            if String.starts_with ~prefix:"optimize" line then begin
              quality
                (Option.fold ~none:0 ~some:int_of_string (field reply "buffers"))
                (Option.fold ~none:0.0 ~some:(fun e -> float_of_string e *. 1e-15) (field reply "energy_fj"))
            end)
          lines replies
    | Some replies0 ->
        List.iteri
          (fun id ((line, reply), reply0) ->
            check ~op:(i, id) "repeatable"
              (line = "stats" || strip reply = strip reply0)
              "round %d: %s -> %s, round 0 had %s" i line reply reply0)
          (List.combine (List.combine lines replies) replies0)
  done;
  if not !trace then tail_report !by_class;
  rss_mb := peak_rss_mb (string_of_int daemon);
  ignore (Serve.Client.request !client "shutdown");
  Serve.Client.close !client;
  ignore (Unix.waitpid [] daemon)

(* {1 Report} *)

let median l = Util.Stats.percentile l 50.0

(* the highest of these percentiles with at least 10 samples beyond it *)
let tail_percentile n =
  List.find_opt (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0) [ 99.0; 90.0; 75.0; 50.0 ]

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit)
         ms)
  ^ "}"

(* Times are in reference-box seconds: each sample divided by the
   machine's slowdown when it was taken (see Calib). An op runs in every
   round of its op set, and its time is its median over those rounds.
   [wall_s] is a round: the sum of the ops' times over the op sets plus
   the median remainder of a round. The op percentiles are over the
   ops' times. *)
(* The calibration mix of each phase (see Calib). Set-ups (parsing,
   elaboration, tree building, the daemon's load) are list and
   allocation work, as are the DP's rounds; Noisesim's dense solves take
   about nine tenths of a signoff round. *)
let setup_mix = [ (Calib.Frontier, 1.0) ]
let round_mix = ref [ (Calib.Frontier, 1.0) ]

let end_to_end () =
  let norm mix =
    let factor = Calib.factor mix in
    List.map (fun (t, dt) -> dt /. factor t)
  in
  let norm_round = norm !round_mix in
  let ops = Hashtbl.fold (fun _ l a -> (1e3 *. median (norm_round l)) :: a) op_samples [] in
  let n = List.length ops in
  let tail = Option.value (tail_percentile n) ~default:50.0 in
  let factors = List.map (fun (t, _) -> Calib.factor !round_mix t) !Calib.samples in
  Printf.printf "machine slowdown over %d samples: min %.3f median %.3f max %.3f\n"
    (List.length factors) (List.fold_left Float.min infinity factors) (median factors)
    (List.fold_left Float.max 0.0 factors);
  Printf.printf "op_p50_ms over n=%d ops; op_tail_ms is p%g over n=%d ops; each op's median over %d rounds\n"
    n tail n (List.length !rest_samples);
  [
    ("setup_s", "s", median (norm setup_mix !setup_samples));
    ("wall_s", "s",
      (List.fold_left ( +. ) 0.0 ops /. 1e3 /. float_of_int !op_sets)
      +. median (norm_round !rest_samples));
    ("op_p50_ms", "ms", Util.Stats.percentile ops 50.0);
    ("op_tail_ms", "ms", Util.Stats.percentile ops tail);
    ("peak_rss_mb", "MB", !rss_mb);
    ("buffers", "count", float_of_int !quality_buffers /. float_of_int !quality_rounds);
    ("energy_fj", "fJ", !quality_energy *. 1e15 /. float_of_int !quality_rounds);
  ]

let per_layer () =
  let ns = float_of_int !traced_setups in
  let nr = float_of_int !traced_rounds in
  let self_ms spans =
    let t = Span.self_times spans in
    fun name -> (try Hashtbl.find t name with Not_found -> 0.0) *. 1e3
  in
  let s = self_ms !setup_spans and r = self_ms !round_spans in
  let per name = (s name /. ns) +. (r name /. nr) in
  let sum name = try Hashtbl.find sums name with Not_found -> 0.0 in
  let ratio a b = if sum b = 0.0 then 0.0 else sum a /. sum b in
  let bench_ms = per "setup" +. per "round" +. per "op" in
  let layers =
    [
      ("ingest.parse_ms", per "ingest.parse");
      ("ingest.elab_ms", per "ingest.elab");
      ("sta.jobs_ms", per "sta.jobs");
      ("sta.analyze_ms", per "sta.analyze");
      ("rctree.build_ms", per "rctree.build");
      ("rctree.segment_ms", per "rctree.segment");
      ("bufins.self_ms", per "bufins");
      ("engine.self_ms", per "engine");
      ("noisesim.verify_ms", per "noisesim.verify");
      ("serve.load_ms", per "serve.load");
      ("serve.hit_ms", per "serve.hit");
      ("serve.edit_ms", per "serve.edit");
      ("serve.incr_ms", per "serve.incr");
      ("serve.full_ms", per "serve.full");
      ("serve.stats_ms", per "serve.stats");
      ("serve.transport_ms", per "serve.request");
    ]
  in
  let layer_total = List.fold_left (fun a (_, v) -> a +. v) bench_ms layers in
  (* the traced wall: the root spans' durations per set-up plus per round *)
  let root_ms spans name =
    1e3 *. List.fold_left (fun a (sp : Span.t) -> if sp.Span.name = name then a +. sp.Span.t1 -. sp.Span.t0 else a) 0.0 spans
  in
  let wall_ms = (root_ms !setup_spans "setup" /. ns) +. (root_ms !round_spans "round" /. nr) in
  let overhead =
    let traced = median !traced_setup_walls +. median !traced_round_walls in
    let untraced = median !setup_walls +. median !round_walls in
    100.0 *. (traced -. untraced) /. untraced
  in
  Printf.printf "traced wall %.3f ms per set-up + round; layer self times + bench self %.3f ms\n"
    wall_ms layer_total;
  let ms = List.map (fun (k, v) -> (k, "ms", v)) layers in
  ms
  @ [
      ("bench.self_ms", "ms", bench_ms);
      ("trace.wall_ms", "ms", wall_ms);
      ("trace.overhead_pct", "%", overhead);
      ("rctree.nodes", "count", sum "rctree.nodes");
      ("bufins.generated", "count", sum "bufins.generated");
      ("bufins.pred_pruned", "count", sum "bufins.pred_pruned");
      ("bufins.power_pruned", "count", sum "bufins.power_pruned");
      ("bufins.peak_width", "count", (try Hashtbl.find maxes "bufins.peak_width" with Not_found -> 0.0));
      ("bufins.keep_ratio", "ratio", ratio "bufins.survivors" "bufins.considered");
      ("bufins.arena_nodes", "count", sum "bufins.arena_nodes");
      ("bufins.minor_words", "words", sum "bufins.minor_words");
      ("engine.util", "ratio", ratio "engine.busy_s" "engine.wall_s");
      ("noisesim.leaves", "count", sum "noisesim.leaves");
      ("serve.hit_rate", "ratio",
        ratio "serve.n_hit" "serve.n_optimize");
      ("serve.memo_hits", "count", sum "serve.memo_hits");
      ("serve.memo_misses", "count", sum "serve.memo_misses");
    ]

let () =
  if !daemon_socket <> "" then begin
    Serve.serve ~domains:1 (Serve.Unix_path !daemon_socket);
    exit 0
  end;
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  if !workload = "signoff_block200" then round_mix := [ (Calib.Lu, 0.9); (Calib.Frontier, 0.1) ];
  Calib.kernels := List.sort_uniq compare (List.map fst (setup_mix @ !round_mix));
  (match !workload with
  | "signoff_block200" -> signoff ()
  | "bignet_delay800" -> bignet ()
  | "power_curve" -> power ()
  | "serve_eco_block200" -> serve ()
  | w ->
      Printf.eprintf "unknown workload %S\n" w;
      exit 2);
  if !workload <> "serve_eco_block200" then rss_mb := peak_rss_mb "self";
  Printf.printf "checks:%s\n"
    (String.concat ""
       (List.map (fun (k, v) -> Printf.sprintf " %s=%d" k v)
          (List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) checks []))));
  let metrics = if !trace then per_layer () else end_to_end () in
  if !trace then begin
    let path =
      Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" !workload !seed)
    in
    let oc = open_out path in
    Span.chrome_json ~per_layer:(List.map (fun (k, _, v) -> (k, v)) metrics) oc
      ~spans:(!setup_spans @ !round_spans);
    close_out oc;
    Printf.printf "wrote %s\n" path
  end;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
    (Hashtbl.length failed_ops = 0) !attempted (Hashtbl.length failed_ops) (json_metrics metrics)
