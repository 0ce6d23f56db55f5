let default_domains () = Domain.recommended_domain_count ()

(* {1 Persistent pool handle}

   A resident fork-join pool: [domains - 1] worker domains are spawned
   once at [create] and then sleep on a condition variable between
   parallel regions, so a long-lived caller (the serve daemon) pays the
   Domain.spawn/join cost once instead of per request. A region is one
   [(int -> unit)] task executed as task w on every worker w (the
   calling domain is always worker 0); [exec] returns when every worker
   has finished the region. Regions never overlap: [exec] is a
   full barrier, and concurrent [exec] calls from different domains are
   not supported (the serve loop is single-threaded). *)

type t = {
  psize : int;  (** total workers including the calling domain *)
  m : Mutex.t;
  start : Condition.t;
  finished : Condition.t;
  mutable epoch : int;  (** bumped once per region *)
  mutable task : (int -> unit) option;
  mutable remaining : int;  (** helpers still inside the current region *)
  mutable stopped : bool;
  mutable helpers : unit Domain.t list;
}

(* Helpers park here between regions. The task wrapper installed by
   [exec] never lets an exception escape (worker bodies record their
   exception per worker slot), so a raise cannot wedge the barrier. *)
let helper_loop p w =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock p.m;
    while (not p.stopped) && p.epoch = !seen do
      Condition.wait p.start p.m
    done;
    if p.stopped then begin
      Mutex.unlock p.m;
      running := false
    end
    else begin
      seen := p.epoch;
      let task = Option.get p.task in
      Mutex.unlock p.m;
      task w;
      Mutex.lock p.m;
      p.remaining <- p.remaining - 1;
      if p.remaining = 0 then Condition.broadcast p.finished;
      Mutex.unlock p.m
    end
  done

let create ?domains () =
  let psize = max 1 (match domains with Some d -> d | None -> default_domains ()) in
  let p =
    {
      psize;
      m = Mutex.create ();
      start = Condition.create ();
      finished = Condition.create ();
      epoch = 0;
      task = None;
      remaining = 0;
      stopped = false;
      helpers = [];
    }
  in
  p.helpers <- List.init (psize - 1) (fun i -> Domain.spawn (fun () -> helper_loop p (i + 1)));
  p

let size p = p.psize

let exec p task =
  Mutex.lock p.m;
  if p.stopped then begin
    Mutex.unlock p.m;
    invalid_arg "Pool.exec: pool is shut down"
  end;
  p.task <- Some task;
  p.remaining <- p.psize - 1;
  p.epoch <- p.epoch + 1;
  Condition.broadcast p.start;
  Mutex.unlock p.m;
  task 0;
  Mutex.lock p.m;
  while p.remaining > 0 do
    Condition.wait p.finished p.m
  done;
  p.task <- None;
  Mutex.unlock p.m

let shutdown p =
  Mutex.lock p.m;
  let first = not p.stopped in
  p.stopped <- true;
  Condition.broadcast p.start;
  Mutex.unlock p.m;
  if first then begin
    List.iter Domain.join p.helpers;
    p.helpers <- []
  end

type stats = {
  workers : int;
  chunks : int;
  jobs : int array;
  steals : int array;
  busy_s : float array;
  wall_s : float;
}

let no_stats =
  {
    workers = 0;
    chunks = 0;
    jobs = [||];
    steals = [||];
    busy_s = [||];
    wall_s = 0.0;
  }

let utilization st =
  Array.map (fun b -> if st.wall_s > 0.0 then b /. st.wall_s else 0.0) st.busy_s

(* Default (cost-blind) chunk size: aim for ~4 chunks per worker so the
   stealing phase has slack to rebalance, but never below 8 indices per
   chunk — a chunk of 1 maximizes queue traffic exactly when the jobs
   are cheapest — and never above ceil(n / workers), which would leave a
   worker with no chunk at all. See pool.mli for the full formula. *)
let default_chunk ~workers n =
  let per_worker = (n + workers - 1) / workers in
  max 1 (min per_worker (max 8 (n / (4 * workers))))

let fixed_chunks ~size n =
  let k = (n + size - 1) / size in
  Array.init k (fun i -> (i * size, min n ((i + 1) * size)))

(* Cost-sized chunks: contiguous runs cut so every chunk carries about
   total_cost / (4 * workers) estimated work. Costs are clamped to >= 1
   so zero-cost jobs still consume queue slots; a minimum run length
   keeps pathological cost skew from degenerating into 1-index chunks. *)
let cost_chunks ~workers ~costs n =
  let total = Array.fold_left (fun a c -> a + max 1 c) 0 costs in
  let target = max 1 ((total + (4 * workers) - 1) / (4 * workers)) in
  let min_len = max 1 (n / (16 * workers)) in
  let cuts = ref [] in
  let start = ref 0 and acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + max 1 costs.(i);
    if !acc >= target && i - !start + 1 >= min_len && i < n - 1 then begin
      cuts := (!start, i + 1) :: !cuts;
      start := i + 1;
      acc := 0
    end
  done;
  cuts := (!start, n) :: !cuts;
  Array.of_list (List.rev !cuts)

let chunk_cost costs (a, b) =
  match costs with
  | None -> b - a
  | Some cs ->
      let s = ref 0 in
      for i = a to b - 1 do
        s := !s + max 1 cs.(i)
      done;
      !s

(* Shard chunks across workers so total estimated cost balances — the
   Fiduccia–Mattheyses idea of moving the element with the best balance
   gain, degenerated to construction order: heaviest chunk first onto
   the least-loaded worker (LPT). Deterministic: ties break on the
   lowest chunk id, then the lowest worker id. Each queue is sorted by
   chunk id afterwards so a worker walks its own shard in index order
   (locality for caches and for any downstream merge). *)
let assign ~workers ~costs chunks =
  let k = Array.length chunks in
  let cost = Array.map (chunk_cost costs) chunks in
  let order = Array.init k (fun i -> i) in
  Array.sort
    (fun a b ->
      match compare cost.(b) cost.(a) with 0 -> compare a b | c -> c)
    order;
  let load = Array.make workers 0 in
  let qs = Array.make workers [] in
  Array.iter
    (fun cid ->
      let w = ref 0 in
      for d = 1 to workers - 1 do
        if load.(d) < load.(!w) then w := d
      done;
      load.(!w) <- load.(!w) + cost.(cid);
      qs.(!w) <- cid :: qs.(!w))
    order;
  Array.map
    (fun l ->
      let a = Array.of_list l in
      Array.sort compare a;
      a)
    qs

let run ~domains ?pool ?chunk ?costs ~n ~init body =
  if domains < 1 then invalid_arg "Pool.run: domains < 1";
  (match chunk with
  | Some c when c < 1 -> invalid_arg "Pool.run: chunk < 1"
  | _ -> ());
  (match costs with
  | Some cs when Array.length cs <> n ->
      invalid_arg "Pool.run: costs length <> n"
  | _ -> ());
  if n = 0 then ([||], no_stats)
  else begin
    let workers =
      match pool with
      | None -> min domains n
      | Some p -> min (min domains n) (size p)
    in
    let chunks =
      match (chunk, costs) with
      | Some c, _ -> fixed_chunks ~size:c n
      | None, Some costs -> cost_chunks ~workers ~costs n
      | None, None -> fixed_chunks ~size:(default_chunk ~workers n) n
    in
    let nchunks = Array.length chunks in
    let queues = assign ~workers ~costs chunks in
    let qlen = Array.map Array.length queues in
    (* One claim cursor per worker queue. In the common case a worker
       touches only its own cursor; other workers' fetch_and_adds land
       on different cache lines thanks to the spacer allocations, so the
       shared-counter ping-pong of a single global queue is gone. *)
    let cursors =
      Array.init workers (fun _ ->
          let c = Atomic.make 0 in
          ignore (Sys.opaque_identity (Array.make 15 0));
          c)
    in
    let jobs = Array.make workers 0 in
    let steals = Array.make workers 0 in
    let busy = Array.make workers 0.0 in
    (* an exhausted queue is detected with a plain load first: polling
       an empty shard must not keep writing its cache line *)
    let claim q =
      if Atomic.get cursors.(q) >= qlen.(q) then None
      else
        let pos = Atomic.fetch_and_add cursors.(q) 1 in
        if pos < qlen.(q) then Some queues.(q).(pos) else None
    in
    let worker w =
      let st = init w in
      let my_jobs = ref 0 and my_steals = ref 0 and my_busy = ref 0.0 in
      let flush () =
        jobs.(w) <- !my_jobs;
        steals.(w) <- !my_steals;
        busy.(w) <- !my_busy
      in
      Fun.protect ~finally:flush (fun () ->
          let run_chunk cid =
            let a, b = chunks.(cid) in
            let c0 = Util.Clock.now () in
            Fun.protect
              ~finally:(fun () ->
                my_busy := !my_busy +. (Util.Clock.now () -. c0))
              (fun () ->
                for i = a to b - 1 do
                  body st i;
                  incr my_jobs
                done)
          in
          let rec drain_own () =
            match claim w with
            | Some cid ->
                run_chunk cid;
                drain_own ()
            | None -> ()
          in
          drain_own ();
          (* coarse stealing: sweep the other shards whole-chunk at a
             time; queues never refill, so a full sweep that yields
             nothing means the pool is drained *)
          if workers > 1 then begin
            let rec sweep () =
              let got = ref false in
              for d = 1 to workers - 1 do
                let v = (w + d) mod workers in
                match claim v with
                | Some cid ->
                    got := true;
                    incr my_steals;
                    run_chunk cid
                | None -> ()
              done;
              if !got then sweep ()
            in
            sweep ()
          end);
      st
    in
    let results = Array.make workers None in
    (* every worker records its exception in its own slot; the first
       slot in index order is re-raised only after every domain has
       finished the region (a domain left unjoined would leak) *)
    let exns = Array.make workers None in
    let attempt w =
      try results.(w) <- Some (worker w) with e -> exns.(w) <- Some e
    in
    let t0 = Util.Clock.now () in
    (match pool with
    | Some p -> exec p (fun w -> if w < workers then attempt w)
    | None ->
        if workers = 1 then attempt 0
        else begin
          let helpers =
            List.init (workers - 1) (fun i -> Domain.spawn (fun () -> attempt (i + 1)))
          in
          attempt 0;
          List.iter Domain.join helpers
        end);
    let wall = Util.Clock.now () -. t0 in
    Array.iter (function Some e -> raise e | None -> ()) exns;
    let states =
      Array.map (function Some s -> s | None -> assert false) results
    in
    (states, { workers; chunks = nchunks; jobs; steals; busy_s = busy; wall_s = wall })
  end
