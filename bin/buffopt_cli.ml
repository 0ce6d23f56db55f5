(* buffopt: command-line buffer insertion for noise and delay.
   Every command that reads a design takes a .blif netlist or a
   [Sta.Netfmt] design file (see [buffopt sample]) through [load_design],
   and [run], [report] and [dot] act on each of its nets in turn. *)

let process = Tech.Process.default

let algo_of_string = function
  | "buffopt" -> Ok Bufins.Buffopt.Buffopt
  | "alg3" -> Ok Bufins.Buffopt.Alg3_max_slack
  | "vangin" | "delayopt" -> Ok Bufins.Buffopt.Vangin_max_slack
  | s -> (
      match String.index_opt s '-' with
      | Some i when String.sub s 0 i = "delayopt" -> (
          match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
          | Some k when k >= 0 -> Ok (Bufins.Buffopt.Delayopt k)
          | Some _ | None -> Error (`Msg ("bad algorithm: " ^ s)))
      | Some i when String.sub s 0 i = "power" -> (
          (* budget is given in fJ on the command line; the library works in J *)
          match float_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
          | Some fj when fj >= 0.0 -> Ok (Bufins.Buffopt.Power_bounded (fj *. 1e-15))
          | Some _ | None -> Error (`Msg ("bad algorithm: " ^ s)))
      | _ -> Error (`Msg ("bad algorithm: " ^ s)))

let describe_report prefix (r : Bufins.Eval.report) =
  Printf.printf "%s: buffers=%d slack=%.1f ps worst-delay=%.1f ps noise-violations=%d\n" prefix
    r.Bufins.Eval.buffers (r.Bufins.Eval.slack *. 1e12)
    (r.Bufins.Eval.worst_delay *. 1e12)
    (List.length r.Bufins.Eval.noise_violations)

(* the front end: .blif or design-file input, an optional .lib
   cell/buffer library, one warning line when the readers skipped
   anything; a malformed input is reported as file:line: message and
   exits 1. [summary] takes the one-line design summary. *)
let load_design ?(summary = stdout) file liberty k =
  match Ingest.Elab.load ?liberty file with
  | exception
      ( Sta.Netfmt.Parse m
      | Ingest.Blif.Parse m
      | Ingest.Liberty.Parse m
      | Ingest.Elab.Error m
      | Sys_error m ) ->
      prerr_endline m;
      1
  | design, buffers, warnings ->
      if warnings > 0 then Printf.eprintf "front-end: %d warning(s)\n" warnings;
      Printf.fprintf summary "design: %s\n" (Sta.Design.stats design);
      k design buffers

(* [f] on each net's job (RATs from one STA pass), in design order,
   after a [net <name>] header line; the worst exit code wins *)
let each_net design f =
  List.fold_left
    (fun code ((net, _) as job) ->
      Printf.printf "net %s\n" net.Steiner.Net.nname;
      max code (f job))
    0
    (Sta.Engine.batch_jobs process design)

let run_net ~seg_len ~kmax algorithm ~lib simulate ((net : Steiner.Net.t), tree) =
  describe_report "unbuffered" (Bufins.Eval.of_tree tree);
  match Bufins.Buffopt.optimize ~seg_len ~kmax algorithm ~lib tree with
  | None ->
      Printf.eprintf "no noise-feasible solution found for net %s\n" net.Steiner.Net.nname;
      1
  | Some r ->
      describe_report "optimized" r.Bufins.Buffopt.report;
      Printf.printf "energy: %.2f fJ in inserted buffers\n" (r.Bufins.Buffopt.energy *. 1e15);
      let s = r.Bufins.Buffopt.stats in
      Printf.printf
        "engine: candidates generated=%d pruned=%d count-pruned=%d pred-pruned=%d \
         power-pruned=%d peak-frontier=%d trace-arena=%d alloc=%.1f Mwords minor\n"
        s.Bufins.Dp.generated s.Bufins.Dp.pruned s.Bufins.Dp.count_pruned
        s.Bufins.Dp.pred_pruned s.Bufins.Dp.power_pruned s.Bufins.Dp.peak_width
        s.Bufins.Dp.arena
        (s.Bufins.Dp.minor_words /. 1e6);
      List.iter
        (fun (p : Rctree.Surgery.placement) ->
          Printf.printf "  insert %s on the parent wire of node %d, %.1f um above it\n"
            p.Rctree.Surgery.buffer.Tech.Buffer.name p.Rctree.Surgery.node
            (p.Rctree.Surgery.dist *. 1e6))
        r.Bufins.Buffopt.placements;
      if simulate then begin
        let v = Noisesim.Verify.net process r.Bufins.Buffopt.report.Bufins.Eval.tree in
        Printf.printf "simulation: %d violating leaves (metric bound holds: %b)\n"
          v.Noisesim.Verify.sim_violations v.Noisesim.Verify.bound_ok
      end;
      0

let run_cmd file algo seg_um kmax simulate =
  match algo_of_string algo with
  | Error (`Msg m) ->
      prerr_endline m;
      1
  | Ok algorithm ->
      load_design file None (fun design lib ->
          each_net design
            (run_net ~seg_len:(seg_um *. 1e-6) ~kmax algorithm ~lib simulate))

let report_net simulate (_, tree) =
  let r = Bufins.Eval.of_tree tree in
  describe_report "unbuffered" r;
  List.iter
    (fun (v, noise, margin) ->
      Printf.printf "  leaf %d: metric noise %.3f V (margin %.2f V)\n" v noise margin;
      if noise > margin then
        (* name the spans a designer would move, shield or buffer *)
        List.iteri
          (fun i (c : Noise.contribution) ->
            if i < 3 then
              match c.Noise.element with
              | `Driver g -> Printf.printf "      %.3f V from the driver at node %d\n" c.Noise.amount g
              | `Wire w ->
                  Printf.printf "      %.3f V from the %.2f mm wire above node %d\n" c.Noise.amount
                    ((Rctree.Tree.wire_to tree w).Rctree.Tree.length *. 1e3)
                    w)
          (Noise.attribute tree ~leaf:v))
    (Noise.leaf_noise tree);
  if simulate then begin
    let v = Noisesim.Verify.net process tree in
    List.iter
      (fun (l : Noisesim.Verify.leaf_report) ->
        Printf.printf "  leaf %d: simulated peak %.3f V\n" l.Noisesim.Verify.leaf
          l.Noisesim.Verify.peak)
      v.Noisesim.Verify.leaves
  end;
  0

let report_cmd file simulate =
  load_design file None (fun design _ -> each_net design (report_net simulate))

let write_text path text =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

(* one digraph per net, each named after its net, in one Graphviz file;
   the design summary goes to stderr so stdout stays Graphviz. With
   [optimize], a net without a noise-feasible solution is drawn
   unbuffered, reported as [run] reports it, and the exit code is 1. *)
let dot_cmd file out optimize =
  load_design ~summary:stderr file None (fun design lib ->
      let code = ref 0 in
      let graph ((net : Steiner.Net.t), tree) =
        let tree =
          if not optimize then tree
          else
            match Bufins.Buffopt.optimize Bufins.Buffopt.Buffopt ~lib tree with
            | Some r -> r.Bufins.Buffopt.report.Bufins.Eval.tree
            | None ->
                Printf.eprintf "no noise-feasible solution found for net %s\n"
                  net.Steiner.Net.nname;
                code := 1;
                tree
        in
        Rctree.Dot.render ~name:net.Steiner.Net.nname tree
      in
      let text = String.concat "" (List.map graph (Sta.Engine.batch_jobs process design)) in
      (match out with Some path -> write_text path text | None -> print_string text);
      !code)

let batch_cmd file algo seg_um kmax jobs liberty =
  match algo_of_string algo with
  | Error (`Msg m) ->
      prerr_endline m;
      1
  | Ok algorithm ->
      load_design file liberty (fun design lib ->
          (* one STA pass supplies every net's RATs measured from its
             driving pin — the same derivation the full flow uses per
             round *)
          let jobs_list = Sta.Engine.batch_jobs process design in
          let domains = if jobs <= 0 then Engine.Pool.default_domains () else jobs in
          let r =
            Engine.optimize ~domains ~seg_len:(seg_um *. 1e-6) ~kmax ~algorithm ~lib jobs_list
          in
          print_endline (Engine.summary r);
          match Engine.failed_nets r with
          | [] -> 0
          | bad ->
              List.iter (Printf.eprintf "infeasible net: %s\n") bad;
              1)

let flow_cmd file iterations liberty =
  load_design file liberty (fun design lib ->
      let r = Sta.Flow.optimize ~iterations process ~lib design in
      print_endline (Sta.Flow.summary r);
      if r.Sta.Flow.after.Sta.Engine.noisy_nets > 0 || r.Sta.Flow.after.Sta.Engine.wns < 0.0
      then 1
      else 0)

let gen_design_cmd gates seed out =
  let design = Sta.Gen.random { Sta.Gen.default_config with Sta.Gen.gates; seed } in
  (match out with
  | Some path when Filename.check_suffix path ".blif" ->
      Ingest.Blif.write path (Ingest.Elab.blif_of_design design)
  | Some path -> Sta.Netfmt.write path design
  | None -> print_string (Sta.Netfmt.to_string design));
  0

let gen_lib_cmd out =
  let text =
    Ingest.Liberty.to_string ~name:"buffopt" ~buffers:Tech.Lib.default_library Sta.Cell.library
  in
  (match out with Some path -> write_text path text | None -> print_string text);
  0

(* the one-net design [buffopt sample] prints: one input pad drives
   three output pads up to 9 mm away *)
let sample =
  "# pi <name> <x_um> <y_um> <arrival_ps> <r_ohm> <d_ps>\n\
   # po <name> <x_um> <y_um> <required_ps> <c_fF> <nm_V>\n\
   pi src 0 0 0 120 30\n\
   po a 8000 2000 1200 20 0.8\n\
   po b 6500 4500 1500 35 0.8\n\
   po c 9000 500 1300 10 0.8\n\
   net sample pi:src po:a po:b po:c\n"

let sample_cmd () =
  print_string sample;
  0

let endpoint_of socket port =
  match (socket, port) with
  | Some path, None -> Ok (Serve.Unix_path path)
  | None, Some p -> Ok (Serve.Tcp_port p)
  | None, None -> Error "one of --socket or --port is required"
  | Some _, Some _ -> Error "--socket and --port are mutually exclusive"

let serve_cmd socket port algo seg_um kmax jobs verbose =
  match endpoint_of socket port with
  | Error m ->
      prerr_endline m;
      1
  | Ok endpoint -> (
      match algo_of_string algo with
      | Error (`Msg m) ->
          prerr_endline m;
          1
      | Ok algorithm ->
          let options =
            {
              Serve.Session.default_options with
              Serve.Session.algorithm;
              seg_len = seg_um *. 1e-6;
              kmax;
            }
          in
          let domains = if jobs <= 0 then None else Some jobs in
          let log = if verbose then prerr_endline else ignore in
          Serve.serve ~options ?domains ~log endpoint;
          0)

let client_cmd socket port script =
  match endpoint_of socket port with
  | Error m ->
      prerr_endline m;
      1
  | Ok endpoint ->
      let read_lines ic =
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        go []
      in
      let requests =
        (match script with
        | "-" -> read_lines stdin
        | path ->
            let ic = open_in path in
            Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_lines ic))
        |> List.filter (fun l -> String.trim l <> "" && l.[0] <> '#')
      in
      let replies = Serve.Client.script endpoint requests in
      let bad = ref 0 in
      List.iter2
        (fun req reply ->
          Printf.printf "> %s\n< %s\n" req reply;
          if not (String.length reply >= 2 && String.sub reply 0 2 = "ok") then incr bad)
        requests replies;
      if !bad > 0 then 1 else 0

let mutation_of_string = function
  | "" -> Ok None
  | "cq-noise-prune" -> Ok (Some Check.Diff.Cq_noise_prune)
  | "no-attach-guard" -> Ok (Some Check.Diff.No_attach_guard)
  | "loose-pred-bound" -> Ok (Some Check.Diff.Loose_pred_bound)
  | "stale-memo" -> Ok (Some Check.Diff.Stale_memo)
  | "bad-power-bound" -> Ok (Some Check.Diff.Bad_power_bound)
  | s ->
      Error
        ("bad mutation (want cq-noise-prune, no-attach-guard, loose-pred-bound, \
          stale-memo or bad-power-bound): " ^ s)

let oracle_of_string = function
  | None -> Ok None
  | Some s -> (
      match Check.Instance.oracle_of_name s with
      | Some o -> Ok (Some o)
      | None ->
          Error
            (Printf.sprintf "bad oracle %s (want one of: %s)" s
               (String.concat ", "
                  (List.map Check.Instance.oracle_name Check.Instance.all_oracles))))

let fuzz_cmd seed count jobs minutes corpus mutate oracle replay_path =
  match (mutation_of_string mutate, oracle_of_string oracle) with
  | Error m, _ | _, Error m ->
      prerr_endline m;
      1
  | Ok mutation, Ok oracle -> (
      match replay_path with
      | Some path ->
          let results = Check.Fuzz.replay ?mutation path in
          let bad = ref 0 in
          List.iter
            (fun (file, verdict) ->
              match verdict with
              | Check.Diff.Pass -> Printf.printf "PASS %s\n" file
              | Check.Diff.Skip m -> Printf.printf "SKIP %s (%s)\n" file m
              | Check.Diff.Fail m ->
                  incr bad;
                  Printf.printf "FAIL %s\n  %s\n" file m)
            results;
          Printf.printf "replayed %d corpus entries, %d failed\n" (List.length results) !bad;
          if !bad > 0 then 1 else 0
      | None ->
          let r =
            Check.Fuzz.campaign ?mutation ?oracle ~jobs ~minutes ?corpus_dir:corpus
              ~seed ~count ()
          in
          print_endline (Check.Fuzz.summary r);
          (* a failure's minimized repro goes to stdout so a report needs
             no corpus directory to be actionable *)
          List.iter
            (fun (f : Check.Fuzz.failure) ->
              print_endline "minimized counterexample:";
              print_string (Check.Corpus.to_string f.Check.Fuzz.shrunk))
            r.Check.Fuzz.failures;
          if r.Check.Fuzz.failures <> [] then 1 else 0)

open Cmdliner

let file_arg =
  Arg.(
    required
    & pos 0 (some non_dir_file) None
    & info [] ~docv:"DESIGN"
        ~doc:"A .blif netlist or a design file (see $(b,buffopt sample) for the format).")

let algo_arg =
  Arg.(
    value
    & opt string "buffopt"
    & info [ "algo" ] ~docv:"ALGO"
        ~doc:
          "One of buffopt, alg3, vangin, delayopt-$(i,k) (e.g. delayopt-4), or \
           power-$(i,fJ) for a delay optimization under a buffer-energy budget in \
           femtojoules (e.g. power-60).")

(* A numeric flag is range-checked where Cmdliner parses it, so run,
   batch and serve reject a bad value alike, before any work starts. *)
let checked parse ok expected pp =
  let parse s =
    match parse s with
    | Some x when ok x -> Ok x
    | Some _ | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
  in
  Arg.conv (parse, pp)

let seg_arg =
  let um =
    checked float_of_string_opt
      (fun x -> Float.is_finite x && x > 0.0)
      "a finite length > 0" Format.pp_print_float
  in
  Arg.(value & opt um 500.0 & info [ "seg" ] ~docv:"UM" ~doc:"Wire-segmenting length, um.")

let int_at_least lo =
  checked int_of_string_opt (fun k -> k >= lo) (Printf.sprintf "an integer >= %d" lo)
    Format.pp_print_int

let kmax_arg =
  Arg.(value & opt (int_at_least 0) 16 & info [ "kmax" ] ~docv:"K" ~doc:"Buffer-count search bound.")

let sim_arg =
  Arg.(value & flag & info [ "simulate" ] ~doc:"Also run the transient noise simulator.")

let jobs_arg =
  Arg.(
    value
    & opt int 0
    & info [ "jobs" ] ~docv:"N"
        ~doc:"Worker domains for batch optimization (0 = one per recommended core).")

let liberty_arg =
  Arg.(
    value
    & opt (some non_dir_file) None
    & info [ "liberty" ] ~docv:"FILE"
        ~doc:"Liberty-subset library supplying gate cells and the buffer library.")

let () =
  let run =
    Cmd.v
      (Cmd.info "run" ~doc:"Optimize every net of a design and print its buffer placements.")
      Term.(const run_cmd $ file_arg $ algo_arg $ seg_arg $ kmax_arg $ sim_arg)
  in
  let report =
    Cmd.v
      (Cmd.info "report" ~doc:"Analyze every net of a design without inserting buffers.")
      Term.(const report_cmd $ file_arg $ sim_arg)
  in
  let sample =
    Cmd.v
      (Cmd.info "sample" ~doc:"Print a sample one-net design file.")
      Term.(const sample_cmd $ const ())
  in
  let dot =
    let out =
      Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Output path.")
    in
    let optimize =
      Arg.(value & flag & info [ "optimize" ] ~doc:"Render the BuffOpt solution, not the raw tree.")
    in
    Cmd.v
      (Cmd.info "dot" ~doc:"Export every net's routing tree as Graphviz, one digraph each.")
      Term.(const dot_cmd $ file_arg $ out $ optimize)
  in
  let batch =
    Cmd.v
      (Cmd.info "batch"
         ~doc:
           "Optimize every net of a design (.design or .blif, see buffopt gen-design) on a \
            domain pool. Exits nonzero when any net is infeasible, naming it on stderr.")
      Term.(
        const batch_cmd $ file_arg $ algo_arg $ seg_arg $ kmax_arg $ jobs_arg $ liberty_arg)
  in
  let flow =
    let iters =
      Arg.(
        value
        & opt (int_at_least 1) 2
        & info [ "iterations" ] ~docv:"N" ~doc:"STA/optimize rounds.")
    in
    Cmd.v
      (Cmd.info "flow"
         ~doc:
           "Run the STA-driven whole-design flow on a design file or BLIF netlist (see \
            buffopt gen-design).")
      Term.(const flow_cmd $ file_arg $ iters $ liberty_arg)
  in
  let fuzz =
    let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Campaign master seed.") in
    let count =
      Arg.(value & opt (int_at_least 0) 1000 & info [ "count" ] ~docv:"N" ~doc:"Instances to test.")
    in
    let minutes =
      let m =
        checked float_of_string_opt
          (fun x -> Float.is_finite x && x >= 0.0)
          "a finite value >= 0" Format.pp_print_float
      in
      Arg.(
        value
        & opt m 0.0
        & info [ "minutes" ] ~docv:"M"
            ~doc:"Stop drawing new instances after $(docv) minutes (0 = no budget).")
    in
    let corpus =
      Arg.(
        value
        & opt (some string) None
        & info [ "corpus" ] ~docv:"DIR"
            ~doc:"Save every minimized counterexample under $(docv) as a .corpus file.")
    in
    let mutate =
      Arg.(
        value
        & opt string ""
        & info [ "mutate" ] ~docv:"NAME"
            ~doc:
              "Run against a deliberately broken DP engine (cq-noise-prune, \
               no-attach-guard, loose-pred-bound, stale-memo or bad-power-bound); \
               the campaign is expected to fail.")
    in
    let oracle =
      Arg.(
        value
        & opt (some string) None
        & info [ "oracle" ] ~docv:"NAME"
            ~doc:
              "Pin every instance to one oracle (e.g. parser, dp-invariants) instead \
               of drawing uniformly over all of them.")
    in
    let replay =
      Arg.(
        value
        & opt (some string) None
        & info [ "replay" ] ~docv:"PATH"
            ~doc:
              "Instead of a campaign, replay a .corpus file or a directory of them; \
               exits nonzero when any entry fails.")
    in
    Cmd.v
      (Cmd.info "fuzz"
         ~doc:
           "Differential fuzzing of the optimizers: random instances are cross-checked \
            against brute force and each other on a domain pool; failures are shrunk \
            to minimal counterexamples and printed (and saved with --corpus).")
      Term.(
        const fuzz_cmd $ seed $ count $ jobs_arg $ minutes $ corpus $ mutate $ oracle
        $ replay)
  in
  let gen_design =
    let gates =
      Arg.(value & opt (int_at_least 1) 120 & info [ "gates" ] ~docv:"N" ~doc:"Gate count.")
    in
    let seed = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"S" ~doc:"Generator seed.") in
    let out =
      Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Output path.")
    in
    Cmd.v
      (Cmd.info "gen-design"
         ~doc:"Emit a random design for the flow (.blif output path emits BLIF).")
      Term.(const gen_design_cmd $ gates $ seed $ out)
  in
  let gen_lib =
    let out =
      Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Output path.")
    in
    Cmd.v
      (Cmd.info "gen-lib"
         ~doc:
           "Emit the built-in gate cells and buffer library as a Liberty-subset file \
            (for buffopt batch/flow --liberty).")
      Term.(const gen_lib_cmd $ out)
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")
  in
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT" ~doc:"TCP port on loopback.")
  in
  let serve =
    let verbose =
      Arg.(value & flag & info [ "verbose" ] ~doc:"Log connections to stderr.")
    in
    Cmd.v
      (Cmd.info "serve"
         ~doc:
           "Run the persistent optimization daemon: designs stay resident, repeated \
            optimize requests are answered from the result cache or incrementally \
            (only the edited path of the tree is recomputed), and worker domains \
            stay warm between requests. Stop it with the shutdown request.")
      Term.(
        const serve_cmd $ socket_arg $ port_arg $ algo_arg $ seg_arg $ kmax_arg
        $ jobs_arg $ verbose)
  in
  let client =
    let script =
      Arg.(
        value
        & pos 0 string "-"
        & info [] ~docv:"SCRIPT"
            ~doc:"Request file, one request per line ('-' = stdin; '#' comments).")
    in
    Cmd.v
      (Cmd.info "client"
         ~doc:
           "Send a request script to a running daemon and print each reply; exits \
            nonzero when any reply is an error.")
      Term.(const client_cmd $ socket_arg $ port_arg $ script)
  in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "buffopt" ~doc:"Buffer insertion for noise and delay optimization.")
          [ run; report; sample; dot; batch; flow; fuzz; gen_design; gen_lib; serve; client ]))
