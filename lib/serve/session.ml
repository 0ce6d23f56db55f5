module T = Rctree.Tree

type options = {
  algorithm : Bufins.Buffopt.algorithm;
  lib : Tech.Buffer.t list;
  process : Tech.Process.t;
  seg_len : float;
  kmax : int;
}

let default_options =
  {
    algorithm = Bufins.Buffopt.Buffopt;
    lib = Tech.Lib.default_library;
    process = Tech.Process.default;
    seg_len = 500e-6;
    kmax = 16;
  }

(* One version of a net: a tree and its result-cache key, together.
   The key is forced at most once per version, on the session's own
   domain (OCaml 5.1's [Lazy] is not domain-safe: warm-pass workers
   read [tree] only). An edit replaces the whole version, so a new tree
   is never paired with an old key. *)
type version = { tree : T.t; key : Digest.t Lazy.t }

(* One loaded net: the segmented tree is the resident optimization
   substrate (segmenting happens once, at load), the memo carries the
   incremental DP state across edits, and [sinks] maps protocol sink
   indices to tree node ids. *)
type net_state = {
  name : string;
  mutable current : version;
  memo : Bufins.Dp.Memo.t;
  sinks : int array;
}

(* A float ring of the last [Array.length xs] samples: [n] counts every
   sample ever added, and sample [j] lives in slot [j mod cap]. *)
module Window = struct
  type t = { xs : float array; mutable n : int }

  let create cap =
    if cap <= 0 then invalid_arg "Session.Window.create: capacity must be positive";
    { xs = Array.make cap 0.0; n = 0 }

  let add w x =
    w.xs.(w.n mod Array.length w.xs) <- x;
    w.n <- w.n + 1

  let sorted w =
    let s = Array.sub w.xs 0 (min w.n (Array.length w.xs)) in
    Array.sort Float.compare s;
    s

  let rank s p =
    let n = Array.length s in
    if n = 0 then 0.0 else s.(min (n - 1) (int_of_float ((Float.of_int (n - 1) *. p) +. 0.5)))

  let percentile w p = rank (sorted w) p
end

type t = {
  opts : options;
  pool : Engine.Pool.t option;
  mutable nets : net_state array;
  (* result cache: content fingerprint of (tree, options) -> rendered
     optimize payload. The fingerprint covers everything the DP reads,
     so an edit changes the key and stale entries are simply never
     looked up again; a size cap keeps a long mutation session from
     accumulating dead keys without bound. *)
  cache : (Digest.t, string) Hashtbl.t;
  mutable requests : int;
  mutable errors : int;
  mutable optimizes : int;
  mutable cache_hits : int;
  mutable incremental : int;
  mutable full : int;
  opt_lat : Window.t;  (** the last [cache_cap] optimize handling latencies, s *)
}

(* bounds both the result cache and the latency window *)
let cache_cap = 4096

let create ?pool ?(options = default_options) () =
  {
    opts = options;
    pool;
    nets = [||];
    cache = Hashtbl.create 256;
    requests = 0;
    errors = 0;
    optimizes = 0;
    cache_hits = 0;
    incremental = 0;
    full = 0;
    opt_lat = Window.create cache_cap;
  }

let loaded t = Array.length t.nets

type reply = { line : string; ok : bool; shutdown : bool }

let errf fmt = Printf.ksprintf (fun m -> Error m) fmt

let net_of t i =
  if Array.length t.nets = 0 then
    Error "no design loaded (use: load workload <nets> <seed> | load design <path>)"
  else if i < 0 || i >= Array.length t.nets then
    errf "net id %d out of range (0..%d)" i (Array.length t.nets - 1)
  else Ok t.nets.(i)

let version t tree =
  (* Marshal is the cheap structural serializer: the tree is immutable
     data (arrays, floats, strings) and the options pin the algorithm,
     library and DP knobs the result depends on. [No_sharing] makes the
     bytes a function of the content alone: with sharing they record
     which blocks an edit happened to share, so equal content could
     key apart. *)
  {
    tree;
    key =
      lazy
        (Digest.string
           (Marshal.to_string
              (tree, t.opts.algorithm, t.opts.lib, t.opts.kmax)
              [ Marshal.No_sharing ]));
  }

let render (r : Bufins.Buffopt.run) =
  Printf.sprintf "slack_ps=%.3f buffers=%d energy_fj=%.3f"
    (r.Bufins.Buffopt.predicted_slack *. 1e12)
    r.Bufins.Buffopt.count
    (r.Bufins.Buffopt.energy *. 1e15)

(* Shared tail of every load verb: make the (net, tree) jobs resident
   and run the warm pass, whatever produced them. *)
let install t jobs =
  let states =
    List.map
      (fun ((net : Steiner.Net.t), tree) ->
        let seg = Rctree.Segment.refine tree ~max_len:t.opts.seg_len in
        {
          name = net.Steiner.Net.nname;
          current = version t seg;
          memo = Bufins.Dp.Memo.create ();
          sinks = Array.of_list (T.sinks seg);
        })
      jobs
  in
  t.nets <- Array.of_list states;
  Hashtbl.reset t.cache;
  (* Warm pass on the resident pool: every net's memo and result-cache
     entry is populated up front, so the first interactive optimize of
     any net is already a cache hit and every later edit re-optimizes
     incrementally. Per-net memos are disjoint, so workers never share
     mutable state; they read each version's tree, and its key is forced
     here, after the pass, and kept for the first optimize. *)
  let outcomes, _ =
    Engine.map ?pool:t.pool
      ~costs:(Array.map (fun ns -> Array.length ns.sinks) t.nets)
      (fun (ns : net_state) ->
        Bufins.Buffopt.optimize_prepared ~kmax:t.opts.kmax ~memo:ns.memo
          t.opts.algorithm ~lib:t.opts.lib ns.current.tree)
      (Array.to_list t.nets)
  in
  let infeasible = ref 0 in
  Array.iteri
    (fun i outcome ->
      match outcome with
      | Engine.Done (Some (r : Bufins.Buffopt.run)) ->
          Hashtbl.replace t.cache (Lazy.force t.nets.(i).current.key) (render r)
      | Engine.Done None | Engine.Failed _ -> incr infeasible)
    outcomes;
  let sinks = Array.fold_left (fun a ns -> a + Array.length ns.sinks) 0 t.nets in
  Ok
    (Printf.sprintf "loaded nets=%d sinks=%d infeasible=%d"
       (Array.length t.nets) sinks !infeasible)

let do_load t ~nets ~seed =
  let cfg = { Workload.default_config with Workload.nets; seed } in
  install t (Workload.trees t.opts.process (Workload.generate cfg))

let do_load_design t ~path =
  (* a bad path or malformed file is a protocol error, not a crash *)
  match Ingest.Elab.load path with
  | design, _buffers, _warnings -> install t (Sta.Engine.batch_jobs t.opts.process design)
  | exception Ingest.Blif.Parse m -> Error m
  | exception Ingest.Liberty.Parse m -> Error m
  | exception Ingest.Elab.Error m -> Error m
  | exception Sta.Netfmt.Parse m -> Error m
  | exception Sys_error m -> Error m

let do_optimize t i =
  let ( let* ) = Result.bind in
  let* ns = net_of t i in
  t.optimizes <- t.optimizes + 1;
  let key = Lazy.force ns.current.key in
  match Hashtbl.find_opt t.cache key with
  | Some payload ->
      t.cache_hits <- t.cache_hits + 1;
      Ok (Printf.sprintf "net=%d %s served=hit" i payload)
  | None -> (
      let warm = Bufins.Dp.Memo.stored ns.memo > 0 in
      match
        Bufins.Buffopt.optimize_prepared ~kmax:t.opts.kmax ~memo:ns.memo
          t.opts.algorithm ~lib:t.opts.lib ns.current.tree
      with
      | None -> errf "infeasible net=%d (no noise-feasible solution)" i
      | Some r ->
          if warm then t.incremental <- t.incremental + 1
          else t.full <- t.full + 1;
          let payload = render r in
          if Hashtbl.length t.cache >= cache_cap then Hashtbl.reset t.cache;
          Hashtbl.replace t.cache key payload;
          Ok
            (Printf.sprintf "net=%d %s served=%s" i payload
               (if warm then "incr" else "full")))

let do_update_rat t i sink ps =
  let ( let* ) = Result.bind in
  let* ns = net_of t i in
  if sink < 0 || sink >= Array.length ns.sinks then
    errf "sink id %d out of range for net %d (0..%d)" sink i
      (Array.length ns.sinks - 1)
  else begin
    let v = ns.sinks.(sink) in
    ns.current <- version t (T.with_sink_rat ns.current.tree v ~rat:(ps *. 1e-12));
    Bufins.Dp.Memo.dirty ns.memo ns.current.tree v;
    Ok (Printf.sprintf "net=%d sink=%d rat_ps=%.3f" i sink ps)
  end

let do_update_wire t i node scale =
  let ( let* ) = Result.bind in
  let* ns = net_of t i in
  let tree = ns.current.tree in
  if node < 0 || node >= T.node_count tree then
    errf "node id %d out of range for net %d (0..%d)" node i (T.node_count tree - 1)
  else if node = T.root tree then errf "node %d is the root: it has no parent wire" node
  else begin
    ns.current <-
      version t
        (T.with_wire tree node (fun w ->
             { w with T.res = w.T.res *. scale; T.cap = w.T.cap *. scale }));
    Bufins.Dp.Memo.dirty ns.memo ns.current.tree node;
    Ok (Printf.sprintf "net=%d node=%d scale=%g" i node scale)
  end

let do_update_noise t i scale =
  let ( let* ) = Result.bind in
  let* ns = net_of t i in
  ns.current <-
    version t (T.map_wires ns.current.tree (fun _ w -> { w with T.cur = w.T.cur *. scale }));
  (* every wire changed: every cached table is stale *)
  Bufins.Dp.Memo.clear ns.memo;
  Ok (Printf.sprintf "net=%d scale=%g" i scale)

let do_stats t =
  (* the daemon's resident DP state, summed over the loaded nets *)
  let total f = Array.fold_left (fun a ns -> a + f ns.memo) 0 t.nets in
  let lat = Window.sorted t.opt_lat in
  Ok
    (Printf.sprintf
       "requests=%d errors=%d optimizes=%d cache_hits=%d incr=%d full=%d \
        hit_rate=%.3f p50_ms=%.3f p99_ms=%.3f memo_entries=%d arena_nodes=%d"
       t.requests t.errors t.optimizes t.cache_hits t.incremental t.full
       (if t.optimizes = 0 then 0.0
        else float_of_int t.cache_hits /. float_of_int t.optimizes)
       (Window.rank lat 0.50 *. 1e3)
       (Window.rank lat 0.99 *. 1e3)
       (total Bufins.Dp.Memo.stored) (total Bufins.Dp.Memo.arena_nodes))

let handle t (req : Protocol.request) =
  t.requests <- t.requests + 1;
  let outcome, dt =
    Util.Clock.timed (fun () ->
        match req with
        | Protocol.Load { nets; seed } -> do_load t ~nets ~seed
        | Protocol.Load_design { path } -> do_load_design t ~path
        | Protocol.Optimize { net } -> do_optimize t net
        | Protocol.Update_rat { net; sink; ps } -> do_update_rat t net sink ps
        | Protocol.Update_wire { net; node; scale } ->
            do_update_wire t net node scale
        | Protocol.Update_noise { net; scale } -> do_update_noise t net scale
        | Protocol.Stats -> do_stats t
        | Protocol.Shutdown -> Ok "bye")
  in
  (match req with
  | Protocol.Optimize _ -> Window.add t.opt_lat dt
  | _ -> ());
  let shutdown = req = Protocol.Shutdown in
  match outcome with
  | Ok payload ->
      { line = Printf.sprintf "ok %s t=%.3f" payload (dt *. 1e3); ok = true; shutdown }
  | Error msg ->
      t.errors <- t.errors + 1;
      { line = Printf.sprintf "err %s t=%.3f" msg (dt *. 1e3); ok = false; shutdown }

let handle_line t line =
  match Protocol.parse line with
  | Ok req -> handle t req
  | Error msg ->
      t.requests <- t.requests + 1;
      t.errors <- t.errors + 1;
      { line = Printf.sprintf "err %s t=0.000" msg; ok = false; shutdown = false }
