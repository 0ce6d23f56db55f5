type failure = {
  index : int;
  seed : int;
  message : string;
  shrunk : Instance.t;
  shrunk_message : string;
  corpus_path : string option;
}

type report = {
  requested : int;
  tested : int;
  passed : int;
  skipped : int;
  failures : failure list;
  wall_s : float;
  per_s : float;
  jobs : int;
  sched : Engine.Pool.stats;
}

let instance_of_seed ?oracle seed =
  let rng = Util.Rng.create seed in
  match oracle with
  | Some o -> Gen.instance_for o rng
  | None -> Gen.instance rng

let campaign ?mutation ?oracle ?(jobs = 0) ?(minutes = 0.) ?corpus_dir ~seed ~count () =
  let jobs = if jobs <= 0 then Engine.Pool.default_domains () else jobs in
  (* one positive seed per instance, all derived from the master seed up
     front: the instance stream does not depend on the job count *)
  let master = Util.Rng.create seed in
  let seeds =
    Array.init count (fun _ ->
        Int64.to_int (Int64.shift_right_logical (Util.Rng.bits64 master) 1))
  in
  let deadline =
    if minutes > 0. then Some (Util.Clock.now () +. (minutes *. 60.)) else None
  in
  let verdicts : (Instance.t * Diff.verdict) option array = Array.make count None in
  let t0 = Util.Clock.now () in
  (* each worker buffers its verdicts locally (its own minor heap) and
     the shared array is filled after the join, by index — no two
     domains ever write neighbouring cells of [verdicts] concurrently *)
  let buffers, sched =
    Engine.Pool.run ~domains:jobs ~n:count
      ~init:(fun _ -> ref [])
      (fun acc i ->
        let expired =
          match deadline with Some d -> Util.Clock.now () > d | None -> false
        in
        if not expired then begin
          (* Diff.run and Gen never raise, as Pool bodies must not *)
          match instance_of_seed ?oracle seeds.(i) with
          | inst -> acc := (i, (inst, Diff.run ?mutation inst)) :: !acc
          | exception e ->
              let inst = Gen.instance_for Instance.Dp_invariants (Util.Rng.create 0) in
              acc :=
                ( i,
                  ( inst,
                    Diff.Fail
                      (Printf.sprintf "generator raised: %s" (Printexc.to_string e)) ) )
                :: !acc
        end)
  in
  Array.iter
    (fun acc -> List.iter (fun (i, v) -> verdicts.(i) <- Some v) !acc)
    buffers;
  let wall_s = Util.Clock.now () -. t0 in
  let tested = ref 0 and passed = ref 0 and skipped = ref 0 in
  let failures = ref [] in
  Array.iteri
    (fun i -> function
      | None -> ()
      | Some (inst, verdict) -> (
          incr tested;
          match verdict with
          | Diff.Pass -> incr passed
          | Diff.Skip _ -> incr skipped
          | Diff.Fail message ->
              let s =
                Shrink.shrink ~fails:(Diff.fails ?mutation) inst ~message
              in
              let corpus_path =
                Option.map (fun dir -> Corpus.save ~dir s.Shrink.instance) corpus_dir
              in
              failures :=
                {
                  index = i;
                  seed = seeds.(i);
                  message;
                  shrunk = s.Shrink.instance;
                  shrunk_message = s.Shrink.message;
                  corpus_path;
                }
                :: !failures))
    verdicts;
  {
    requested = count;
    tested = !tested;
    passed = !passed;
    skipped = !skipped;
    failures = List.rev !failures;
    wall_s;
    per_s = (if wall_s > 0. then float_of_int !tested /. wall_s else 0.);
    jobs;
    sched;
  }

let replay ?mutation path =
  let files =
    if Sys.is_directory path then List.map fst (Corpus.load_dir path) else [ path ]
  in
  List.map
    (fun file ->
      match Corpus.load_file file with
      | Error m -> (file, Diff.Fail (Printf.sprintf "unreadable corpus entry: %s" m))
      | Ok inst -> (file, Diff.run ?mutation inst))
    files

let summary r =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "fuzz: %d/%d instances tested (%d passed, %d skipped, %d failed) in %.2f s \
     (%.1f/s, %d jobs)"
    r.tested r.requested r.passed r.skipped (List.length r.failures) r.wall_s r.per_s
    r.jobs;
  List.iter
    (fun f ->
      Printf.bprintf b
        "\n  #%d (seed %d): %s\n    shrunk to %d sinks / %d nodes: %s%s" f.index f.seed
        f.message
        (Instance.sink_count f.shrunk)
        (Rctree.Tree.node_count f.shrunk.Instance.tree)
        f.shrunk_message
        (match f.corpus_path with
        | Some p -> Printf.sprintf "\n    saved: %s" p
        | None -> ""))
    r.failures;
  Buffer.contents b
