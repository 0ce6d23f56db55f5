(* The batch engine (lib/engine): pool coverage, scheduling-independent
   determinism, fault isolation, and the retry knob. *)

open Helpers

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

(* [Pool.run] with no per-worker state *)
let each ~domains ?pool ?chunk ~n body =
  let (_ : unit array), (_ : Engine.Pool.stats) =
    Engine.Pool.run ~domains ?pool ?chunk ~n ~init:(fun _ -> ()) (fun () i -> body i)
  in
  ()

let pool_covers_every_index () =
  let n = 101 in
  let hits = Array.make n 0 in
  each ~domains:4 ~chunk:3 ~n (fun i -> hits.(i) <- hits.(i) + 1);
  Array.iteri
    (fun i h -> Alcotest.(check int) (Printf.sprintf "index %d hit once" i) 1 h)
    hits

let pool_edges () =
  (* n = 0: no calls, no spawn *)
  each ~domains:4 ~n:0 (fun _ -> Alcotest.fail "body on n=0");
  (* more domains than work; chunk larger than n *)
  let hits = Array.make 3 0 in
  each ~domains:16 ~chunk:100 ~n:3 (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check (list int)) "each once" [ 1; 1; 1 ] (Array.to_list hits);
  Alcotest.check_raises "domains < 1" (Invalid_argument "Pool.run: domains < 1")
    (fun () -> each ~domains:0 ~n:1 ignore);
  Alcotest.check_raises "chunk < 1" (Invalid_argument "Pool.run: chunk < 1")
    (fun () -> each ~domains:1 ~chunk:0 ~n:1 ignore)

let pool_propagates_exception () =
  match each ~domains:3 ~n:50 (fun i -> if i = 17 then failwith "boom")
  with
  | () -> Alcotest.fail "expected the worker's exception to surface"
  | exception Failure m -> Alcotest.(check string) "message" "boom" m

(* every index in [0, n) exactly once, across randomized (n, domains,
   chunk, costs) including chunk > n, domains > n and n = 0 — the
   contract no sharding or stealing scheme may bend *)
let pool_coverage_property () =
  let rng = Util.Rng.create 0xb0ff in
  let cases = ref [ (0, 4, None, None); (3, 16, Some 100, None); (1, 7, None, Some [| 0 |]); (7, 7, Some 1, None) ] in
  for _ = 1 to 60 do
    let n = Util.Rng.int rng 41 in
    let domains = 1 + Util.Rng.int rng 8 in
    let chunk = if Util.Rng.int rng 2 = 0 then None else Some (1 + Util.Rng.int rng (n + 5)) in
    let costs =
      if chunk <> None || Util.Rng.int rng 2 = 0 then None
      else Some (Array.init n (fun _ -> Util.Rng.int rng 30))
    in
    cases := (n, domains, chunk, costs) :: !cases
  done;
  List.iter
    (fun (n, domains, chunk, costs) ->
      let name = Printf.sprintf "n=%d domains=%d chunk=%s costs=%b" n domains
          (match chunk with None -> "-" | Some c -> string_of_int c)
          (costs <> None)
      in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      let states, stats =
        Engine.Pool.run ~domains ?chunk ?costs ~n
          ~init:(fun w -> w)
          (fun _ i -> Atomic.incr hits.(i))
      in
      Array.iteri
        (fun i h ->
          Alcotest.(check int) (name ^ Printf.sprintf ": index %d once" i) 1 (Atomic.get h))
        hits;
      let expected_workers = if n = 0 then 0 else min domains n in
      Alcotest.(check int) (name ^ ": workers") expected_workers stats.Engine.Pool.workers;
      Alcotest.(check int) (name ^ ": states are per-worker")
        expected_workers (Array.length states);
      Array.iteri (fun w st -> Alcotest.(check int) (name ^ ": state identity") w st) states;
      Alcotest.(check int) (name ^ ": jobs sum to n") n
        (Array.fold_left ( + ) 0 stats.Engine.Pool.jobs);
      Array.iter
        (fun u ->
          Alcotest.(check bool) (name ^ ": utilization in [0, 1]") true
            (u >= 0.0 && u <= 1.000001))
        (Engine.Pool.utilization stats))
    !cases

(* an exception in one worker must still join every helper: one
   exception surfaces, nothing runs twice, and the pool is immediately
   reusable (a leaked domain would wedge or crash the next run) *)
let pool_exception_joins_all () =
  let n = 64 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  (match
     each ~domains:5 ~chunk:2 ~n (fun i ->
         Atomic.incr hits.(i);
         if i mod 11 = 3 then failwith "several workers raise")
   with
  | () -> Alcotest.fail "expected an exception"
  | exception Failure m -> Alcotest.(check string) "message" "several workers raise" m);
  Array.iteri
    (fun i h ->
      Alcotest.(check bool) (Printf.sprintf "index %d at most once" i) true
        (Atomic.get h <= 1))
    hits;
  let again = Array.make n 0 in
  each ~domains:5 ~n (fun i -> again.(i) <- again.(i) + 1);
  Array.iteri
    (fun i h -> Alcotest.(check int) (Printf.sprintf "reusable: index %d" i) 1 h)
    again

let pool_cost_sharding_balances () =
  (* one net 100x the others: LPT must not let chunk order serialize the
     heavy job behind everything else on one worker *)
  let n = 40 in
  let costs = Array.init n (fun i -> if i = 0 then 400 else 4) in
  let sum_by_worker = Array.init 4 (fun _ -> Atomic.make 0) in
  let _, stats =
    Engine.Pool.run ~domains:4 ~costs ~n
      ~init:(fun w -> w)
      (fun w i -> ignore (Atomic.fetch_and_add sum_by_worker.(w) costs.(i)))
  in
  Alcotest.(check int) "all cost executed" (400 + (4 * 39))
    (Array.fold_left (fun a c -> a + Atomic.get c) 0 sum_by_worker);
  Alcotest.(check bool) "several chunks planned" true (stats.Engine.Pool.chunks >= 4)

(* ------------------------------------------------------------------ *)
(* Persistent pool handle                                              *)

let handle_exec_covers_every_worker () =
  let p = Engine.Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Engine.Pool.shutdown p)
    (fun () ->
      Alcotest.(check int) "size" 4 (Engine.Pool.size p);
      let hits = Array.init 4 (fun _ -> Atomic.make 0) in
      (* regions are reusable: the same handle serves many barriers *)
      for _ = 1 to 6 do
        Engine.Pool.exec p (fun w -> Atomic.incr hits.(w))
      done;
      Array.iteri
        (fun w h ->
          Alcotest.(check int) (Printf.sprintf "worker %d ran each region" w) 6
            (Atomic.get h))
        hits)

let handle_caps_run_workers () =
  let p = Engine.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Engine.Pool.shutdown p)
    (fun () ->
      let n = 37 in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      let _, stats =
        Engine.Pool.run ~domains:8 ~pool:p ~n
          ~init:(fun w -> w)
          (fun _ i -> Atomic.incr hits.(i))
      in
      Alcotest.(check int) "workers capped at pool size" 2 stats.Engine.Pool.workers;
      Array.iteri
        (fun i h ->
          Alcotest.(check int) (Printf.sprintf "index %d once" i) 1 (Atomic.get h))
        hits;
      (* exceptions surface exactly as without a pool, and the handle
         survives them *)
      (match
         each ~domains:2 ~pool:p ~n:20 (fun i ->
             if i = 7 then failwith "pooled boom")
       with
      | () -> Alcotest.fail "expected the worker's exception to surface"
      | exception Failure m -> Alcotest.(check string) "message" "pooled boom" m);
      let again = Array.make n 0 in
      each ~domains:2 ~pool:p ~n (fun i -> again.(i) <- again.(i) + 1);
      Array.iteri
        (fun i h -> Alcotest.(check int) (Printf.sprintf "reusable: index %d" i) 1 h)
        again)

let handle_shutdown_is_final_and_idempotent () =
  let p = Engine.Pool.create ~domains:3 () in
  Engine.Pool.exec p ignore;
  Engine.Pool.shutdown p;
  Engine.Pool.shutdown p;
  Alcotest.check_raises "exec after shutdown"
    (Invalid_argument "Pool.exec: pool is shut down") (fun () ->
      Engine.Pool.exec p ignore)

(* ------------------------------------------------------------------ *)
(* Engine.map: order, determinism, isolation                           *)

let outcome_int =
  Alcotest.testable
    (fun ppf -> function
      | Engine.Done v -> Format.fprintf ppf "Done %d" v
      | Engine.Failed { error } -> Format.fprintf ppf "Failed(%s)" error)
    ( = )

let map_is_order_preserving () =
  let xs = List.init 257 (fun i -> i) in
  let f x = x * x in
  let seq, _ = Engine.map ~domains:1 f xs in
  let par, _ = Engine.map ~domains:4 ~chunk:2 f xs in
  Alcotest.(check (array outcome_int))
    "1 domain = 4 domains, in input order" seq par;
  Array.iteri
    (fun i o -> Alcotest.check outcome_int "value" (Engine.Done (i * i)) o)
    par

let map_isolates_failures () =
  let xs = List.init 40 (fun i -> i) in
  let f x = if x mod 13 = 7 then failwith (Printf.sprintf "poisoned %d" x) else x in
  let out, _ = Engine.map ~domains:4 f xs in
  Array.iteri
    (fun i o ->
      match o with
      | Engine.Done v -> Alcotest.(check int) "survivor" i v
      | Engine.Failed { error } ->
          Alcotest.(check bool) "only the poisoned indices fail" true (i mod 13 = 7);
          Alcotest.(check string) "error text" (Printf.sprintf "Failure(\"poisoned %d\")" i) error)
    out

let map_records_infeasible () =
  let calls = Atomic.make 0 in
  let f () =
    ignore (Atomic.fetch_and_add calls 1);
    raise (Engine.Infeasible "verdict is deterministic")
  in
  let out, _ = Engine.map ~domains:1 f [ () ] in
  (match out.(0) with
  | Engine.Failed { error } ->
      Alcotest.(check string) "message" "verdict is deterministic" error
  | Engine.Done _ -> Alcotest.fail "infeasible job cannot succeed");
  Alcotest.(check int) "called exactly once" 1 (Atomic.get calls)

(* ------------------------------------------------------------------ *)
(* Batch BuffOpt over workload nets                                    *)

let workload_jobs n seed =
  Workload.trees process
    (Workload.generate { Workload.default_config with Workload.nets = n; seed })

let batch_parallel_equals_sequential () =
  let jobs = workload_jobs 60 1998 in
  let r1 = Engine.optimize ~domains:1 ~algorithm:Bufins.Buffopt.Buffopt ~lib jobs in
  let r2 = Engine.optimize ~domains:2 ~algorithm:Bufins.Buffopt.Buffopt ~lib jobs in
  let r4 = Engine.optimize ~domains:4 ~chunk:1 ~algorithm:Bufins.Buffopt.Buffopt ~lib jobs in
  Alcotest.(check string)
    "byte-identical aggregate signature at 1 vs 2 domains"
    (Engine.signature r1) (Engine.signature r2);
  Alcotest.(check string)
    "byte-identical aggregate signature at 1 vs 4 domains"
    (Engine.signature r1) (Engine.signature r4);
  (* the same batch through a resident pool handle: byte-identical too,
     twice in a row through the same warm domains *)
  let p = Engine.Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Engine.Pool.shutdown p)
    (fun () ->
      let rp = Engine.optimize ~pool:p ~chunk:1 ~algorithm:Bufins.Buffopt.Buffopt ~lib jobs in
      Alcotest.(check string)
        "byte-identical through the resident pool"
        (Engine.signature r1) (Engine.signature rp);
      let rp2 = Engine.optimize ~pool:p ~algorithm:Bufins.Buffopt.Buffopt ~lib jobs in
      Alcotest.(check string)
        "and again through the same warm handle"
        (Engine.signature r1) (Engine.signature rp2));
  Alcotest.(check int) "ok" r1.Engine.ok r4.Engine.ok;
  Alcotest.(check int) "buffers" r1.Engine.buffers r4.Engine.buffers;
  Array.iteri
    (fun i (nr1 : Engine.net_result) ->
      let nr4 = r4.Engine.results.(i) in
      Alcotest.(check string) "net order" nr1.Engine.net nr4.Engine.net;
      match (nr1.Engine.outcome, nr4.Engine.outcome) with
      | Engine.Done a, Engine.Done b ->
          Alcotest.(check int) "count" a.Bufins.Buffopt.count b.Bufins.Buffopt.count;
          feq "predicted slack" a.Bufins.Buffopt.predicted_slack b.Bufins.Buffopt.predicted_slack;
          Alcotest.(check bool) "identical placements" true
            (a.Bufins.Buffopt.placements = b.Bufins.Buffopt.placements)
      | _ -> Alcotest.fail "outcome kind differs between domain counts")
    r1.Engine.results

(* Each domain reuses its DP scratch from run to run, so the delay and
   power modes, whose kernels use parts of it the noise mode does not,
   get the same 1 vs 2/4-domain and warm-pool checks *)
let batch_reuse_equal_in_every_mode () =
  let jobs = workload_jobs 40 2006 in
  List.iter
    (fun (name, algorithm) ->
      let r1 = Engine.optimize ~domains:1 ~algorithm ~lib jobs in
      Alcotest.(check bool) (name ^ ": nets optimized") true (r1.Engine.ok > 0);
      let same what r =
        Alcotest.(check string) (Printf.sprintf "%s: %s" name what) (Engine.signature r1)
          (Engine.signature r)
      in
      same "2 domains" (Engine.optimize ~domains:2 ~algorithm ~lib jobs);
      same "4 domains" (Engine.optimize ~domains:4 ~chunk:1 ~algorithm ~lib jobs);
      let p = Engine.Pool.create ~domains:4 () in
      Fun.protect
        ~finally:(fun () -> Engine.Pool.shutdown p)
        (fun () ->
          same "resident pool" (Engine.optimize ~pool:p ~chunk:1 ~algorithm ~lib jobs);
          same "warm pool again" (Engine.optimize ~pool:p ~algorithm ~lib jobs)))
    [
      ("delayopt 16", Bufins.Buffopt.Delayopt 16);
      ("power 20 fJ", Bufins.Buffopt.Power_bounded 20e-15);
    ]

(* a tree that already carries a buffer makes Buffopt.optimize raise, so
   poisoning every job yields an all-failed batch *)
let poison (net, tree) =
  let sink = List.hd (Rctree.Tree.sinks tree) in
  ( net,
    Rctree.Surgery.apply tree
      [ { Rctree.Surgery.node = sink; dist = 0.0; buffer = small_buffer } ] )

let summary_all_infeasible_prints_na () =
  let jobs = List.map poison (workload_jobs 5 11) in
  let r = Engine.optimize ~domains:2 ~algorithm:Bufins.Buffopt.Buffopt ~lib jobs in
  Alcotest.(check int) "nothing succeeded" 0 r.Engine.ok;
  let s = Engine.summary r in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "worst slack prints n/a" true
    (contains "worst predicted slack n/a" s);
  Alcotest.(check bool) "no nan anywhere" false (contains "nan" s)

(* Dp.stats allocation words are domain-local flushed-window deltas:
   the batch-summed minor words must be bit-identical at every domain
   count — Gc.quick_stat deltas used to charge each run with every
   concurrent domain's allocation *)
let alloc_words_not_cross_contaminated () =
  let jobs = workload_jobs 24 2024 in
  let minor d =
    (Engine.optimize ~domains:d ~algorithm:Bufins.Buffopt.Buffopt ~lib jobs)
      .Engine.dp.Bufins.Dp.minor_words
  in
  let m1 = minor 1 in
  Alcotest.(check bool) "a real run allocates" true (m1 > 1e5);
  feq ~eps:0.0 "2-domain batch minor sum = 1-domain sum" m1 (minor 2);
  (* the paranoid oversubscribed case, per the issue gated on actually
     having cores to disagree on *)
  if Engine.Pool.default_domains () > 1 then
    feq ~eps:0.0 "4-domain batch minor sum = 1-domain sum" m1 (minor 4)

(* at a single domain, the domain-local counter and the old
   Gc.quick_stat delta measure the same thing. quick_stat's in-progress
   young-region term is only exact right after a minor collection on
   this runtime, so the external window flushes at both edges; the
   windows then differ only by the optimizer's own bookkeeping *)
let alloc_counter_matches_quick_stat_single_domain () =
  (* the 50-sink caterpillar: a workload net's run allocates too few
     minor words for a 1% comparison *)
  let tree = Rctree.Segment.refine (Fixtures.caterpillar process 50) ~max_len:500e-6 in
  Gc.minor ();
  let q0 = Gc.quick_stat () in
  let outcome =
    Bufins.Dp.run ~noise:false ~mode:(Bufins.Dp.Per_count 8) ~lib tree
  in
  Gc.minor ();
  let q1 = Gc.quick_stat () in
  let internal = outcome.Bufins.Dp.stats.Bufins.Dp.minor_words in
  let external_ = q1.Gc.minor_words -. q0.Gc.minor_words in
  Alcotest.(check bool) "a real run allocates" true (internal > 1e4);
  Alcotest.(check bool)
    (Printf.sprintf "quick_stat delta %.0f within 1%% of counter %.0f" external_
       internal)
    true
    (Float.abs (external_ -. internal) <= 0.01 *. internal)

let batch_isolates_poisoned_job () =
  let jobs = workload_jobs 8 7 in
  let jobs = List.mapi (fun i job -> if i = 3 then poison job else job) jobs in
  let r = Engine.optimize ~domains:3 ~algorithm:Bufins.Buffopt.Buffopt ~lib jobs in
  Alcotest.(check int) "one failure" 1 r.Engine.failed;
  Alcotest.(check int) "everything else succeeded" 7 r.Engine.ok;
  Alcotest.(check (list string))
    "the failing net is named"
    [ (fst (List.nth jobs 3)).Steiner.Net.nname ]
    (Engine.failed_nets r);
  match r.Engine.results.(3).Engine.outcome with
  | Engine.Failed { error; _ } ->
      Alcotest.(check bool) "Invalid_argument surfaced" true
        (String.length error > 0)
  | Engine.Done _ -> Alcotest.fail "poisoned job cannot succeed"

let suites =
  [
    ( "engine",
      [
        case "pool: every index exactly once" pool_covers_every_index;
        case "pool: edge cases" pool_edges;
        case "pool: worker exception surfaces after join" pool_propagates_exception;
        case "pool: randomized coverage property" pool_coverage_property;
        case "pool: exception still joins all helpers" pool_exception_joins_all;
        case "pool: cost sharding balances queues" pool_cost_sharding_balances;
        case "pool handle: exec covers every worker, regions reusable"
          handle_exec_covers_every_worker;
        case "pool handle: run caps workers at pool size" handle_caps_run_workers;
        case "pool handle: shutdown idempotent, exec then raises"
          handle_shutdown_is_final_and_idempotent;
        case "map: order-preserving, 1 = 4 domains" map_is_order_preserving;
        case "map: poisoned elements fail alone" map_isolates_failures;
        case "map: Infeasible becomes Failed with its message" map_records_infeasible;
        case "batch: poisoned job isolated, others succeed" batch_isolates_poisoned_job;
        case "batch: 1 vs 4 domains byte-identical" batch_parallel_equals_sequential;
        case "summary: all-infeasible batch prints n/a, not nan"
          summary_all_infeasible_prints_na;
        case "dp stats: minor words identical across domain counts"
          alloc_words_not_cross_contaminated;
        case "dp stats: counter matches quick_stat at one domain"
          alloc_counter_matches_quick_stat_single_domain;
        case "batch: scratch reuse equal in delay and power modes"
          batch_reuse_equal_in_every_mode;
      ] );
  ]
