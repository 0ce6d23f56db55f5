(* The serve daemon (lib/serve, DESIGN.md §14): protocol parsing,
   session-level range checks and served-class accounting, and the
   socket server end to end — concurrent clients with isolated
   sessions, oversized-input defence, clean shutdown. *)

open Helpers
module P = Serve.Protocol
module S = Serve.Session

(* ------------------------------------------------------------------ *)
(* Protocol parser                                                     *)

let roundtrips =
  [
    P.Load { nets = 12; seed = 42 };
    P.Optimize { net = 3 };
    P.Update_rat { net = 0; sink = 2; ps = 350.5 };
    P.Update_wire { net = 1; node = 7; scale = 1.25 };
    P.Update_noise { net = 4; scale = 0.5 };
    P.Stats;
    P.Shutdown;
  ]

let parse_roundtrip () =
  List.iter
    (fun req ->
      match P.parse (P.render req) with
      | Ok got ->
          Alcotest.(check bool)
            (Printf.sprintf "parse (render %S)" (P.render req))
            true (got = req)
      | Error m -> Alcotest.failf "render %S did not parse: %s" (P.render req) m)
    roundtrips

let parse_tolerates_padding () =
  (match P.parse "  optimize   5  " with
  | Ok (P.Optimize { net = 5 }) -> ()
  | _ -> Alcotest.fail "runs of spaces must be tolerated");
  match P.parse "stats\r" with
  | Ok P.Stats -> ()
  | _ -> Alcotest.fail "a trailing CR must be tolerated"

let parse_rejects_garbage () =
  let expect_err line =
    match P.parse line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" line
  in
  (* empty / unknown verbs *)
  expect_err "";
  expect_err "   ";
  expect_err "optimise 3";
  expect_err "OPTIMIZE 3";
  expect_err "reticulate-splines";
  (* truncated argument lists *)
  expect_err "load workload 5";
  expect_err "load";
  expect_err "optimize";
  expect_err "update-rat 0 1";
  expect_err "update-wire 0";
  expect_err "update-noise";
  (* excess arguments *)
  expect_err "stats now";
  expect_err "shutdown please";
  expect_err "optimize 1 2";
  (* malformed numbers *)
  expect_err "optimize one";
  expect_err "load workload five 1";
  expect_err "update-rat 0 0 soon";
  expect_err "update-rat 0 0 nan";
  expect_err "update-wire 0 1 inf";
  (* domain constraints the parser owns *)
  expect_err "load workload 0 1";
  expect_err "update-wire 0 1 0";
  expect_err "update-wire 0 1 -2";
  expect_err "update-noise 0 -0.5";
  (* the line-length cap *)
  expect_err ("optimize " ^ String.make P.max_line '1')

let parse_error_is_specific () =
  (match P.parse "frobnicate 1" with
  | Error m ->
      Alcotest.(check bool) "names the verb" true
        (String.length m >= 12 && String.sub m 0 12 = "unknown verb")
  | Ok _ -> Alcotest.fail "accepted an unknown verb");
  match P.parse (String.make (P.max_line + 1) 'x') with
  | Error m ->
      Alcotest.(check bool) "oversized is called out" true
        (String.length m >= 9 && String.sub m 0 9 = "oversized")
  | Ok _ -> Alcotest.fail "accepted an oversized line"

(* ------------------------------------------------------------------ *)
(* Session semantics (no socket)                                       *)

let expect_ok session line =
  let r = S.handle_line session line in
  if not r.S.ok then Alcotest.failf "%S failed: %s" line r.S.line;
  r.S.line

let expect_err session line =
  let r = S.handle_line session line in
  if r.S.ok then Alcotest.failf "%S unexpectedly succeeded: %s" line r.S.line;
  r.S.line

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let session_range_checks () =
  let s = S.create () in
  (* nothing loaded yet: every net-addressed verb must refuse *)
  ignore (expect_err s "optimize 0");
  ignore (expect_err s "update-rat 0 0 100");
  ignore (expect_err s "update-wire 0 1 1.5");
  ignore (expect_err s "update-noise 0 2");
  let loaded = expect_ok s "load workload 3 42" in
  Alcotest.(check bool) "load reports nets" true (contains "nets=3" loaded);
  Alcotest.(check int) "loaded" 3 (S.loaded s);
  (* out-of-range ids, each flavour *)
  ignore (expect_err s "optimize 3");
  ignore (expect_err s "optimize -1");
  ignore (expect_err s "update-rat 0 99 100");
  ignore (expect_err s "update-rat 99 0 100");
  ignore (expect_err s "update-wire 0 9999 1.5");
  (* the root has no parent wire *)
  ignore (expect_err s "update-wire 0 0 1.5");
  (* parse errors are err replies, not exceptions *)
  ignore (expect_err s "frobnicate");
  let stats = expect_ok s "stats" in
  Alcotest.(check bool) "errors counted" true (contains "errors=11" stats)

let session_served_classes () =
  let s = S.create () in
  ignore (expect_ok s "load workload 6 7");
  let n = S.loaded s in
  (* the load warm pass already cached every net's result *)
  for i = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "warm load makes net %d a cache hit" i)
      true
      (contains "served=hit" (expect_ok s (Printf.sprintf "optimize %d" i)))
  done;
  (* an edit invalidates the fingerprint; on any net with structure above
     the edited sink the memo serves the re-run incrementally, a trivial
     two-pin net has nothing left to reuse and recomputes in full —
     never a cache hit either way *)
  let incr_seen = ref false in
  for i = 0 to n - 1 do
    ignore (expect_ok s (Printf.sprintf "update-rat %d 0 250" i));
    let r = expect_ok s (Printf.sprintf "optimize %d" i) in
    if contains "served=incr" r then incr_seen := true;
    Alcotest.(check bool)
      (Printf.sprintf "net %d is not a hit right after an edit" i)
      false (contains "served=hit" r)
  done;
  Alcotest.(check bool) "some net re-optimized incrementally" true !incr_seen;
  (* asking again with no edit in between: cache hit again *)
  Alcotest.(check bool) "repeat is a hit" true
    (contains "served=hit" (expect_ok s "optimize 0"));
  (* a noise-environment change clears the memo: full recompute *)
  ignore (expect_ok s "update-noise 1 1.7");
  let full = expect_ok s "optimize 1" in
  Alcotest.(check bool) "post-clear optimize is full" true
    (contains "served=full" full);
  let stats = expect_ok s "stats" in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in stats") true (contains needle stats))
    [
      Printf.sprintf "optimizes=%d" ((2 * n) + 2);
      Printf.sprintf "cache_hits=%d" (n + 1);
      "p50_ms=";
      "p99_ms=";
    ]

(* the integer value of [key=] in a reply line *)
let field key line =
  let prefix = key ^ "=" in
  match List.find_opt (String.starts_with ~prefix) (String.split_on_char ' ' line) with
  | Some kv ->
      let n = String.length prefix in
      int_of_string (String.sub kv n (String.length kv - n))
  | None -> Alcotest.failf "no %s in %S" prefix line

let session_memory_stats () =
  (* stats reports the resident memo entries and arena nodes summed over
     the nets; update-noise clears one net's memo, so its share, and
     only its share, drops to zero *)
  let s = S.create () in
  let empty = expect_ok s "stats" in
  Alcotest.(check (pair int int)) "nothing loaded" (0, 0)
    (field "memo_entries" empty, field "arena_nodes" empty);
  ignore (expect_ok s "load workload 2 5");
  let sizes () =
    let st = expect_ok s "stats" in
    (field "memo_entries" st, field "arena_nodes" st)
  in
  let e2, a2 = sizes () in
  ignore (expect_ok s "update-noise 0 1.7");
  let e1, a1 = sizes () in
  ignore (expect_ok s "update-noise 1 1.7");
  let e0, a0 = sizes () in
  Alcotest.(check (pair int int)) "both memos cleared" (0, 0) (e0, a0);
  Alcotest.(check bool) "net 1 holds entries and nodes" true (e1 > 0 && a1 > 0);
  Alcotest.(check bool) "net 0 held entries and nodes" true (e2 > e1 && a2 > a1);
  ignore (expect_ok s "optimize 1");
  let e, a = sizes () in
  Alcotest.(check bool) "a re-optimize refills net 1's memo" true (e > 0 && a > 0)

let latency_window_keeps_the_last_samples () =
  (* the stats percentiles of N + m optimize latencies are those of the
     last N: the window forgets the oldest m *)
  let rng = Util.Rng.create 17 in
  List.iter
    (fun (cap, m) ->
      let xs = Array.init (cap + m) (fun _ -> Util.Rng.range rng 0.0 1e-2) in
      let all = S.Window.create cap and last = S.Window.create cap in
      Array.iter (S.Window.add all) xs;
      Array.iteri (fun j x -> if j >= m then S.Window.add last x) xs;
      List.iter
        (fun p ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%d + %d: percentile %g" cap m p)
            (S.Window.percentile last p) (S.Window.percentile all p))
        [ 0.0; 0.5; 0.99; 1.0 ])
    [ (1, 3); (7, 0); (7, 5); (7, 20); (4096, 1); (4096, 5000) ];
  Alcotest.(check (float 0.0)) "empty window" 0.0 (S.Window.percentile (S.Window.create 4) 0.5)

let session_noop_edit_is_a_hit () =
  (* an edit that leaves the content as it was keeps the fingerprint,
     however the edited tree came to share its blocks *)
  let s = S.create () in
  ignore (expect_ok s "load workload 3 42");
  List.iter
    (fun (edit, net) ->
      ignore (expect_ok s edit);
      Alcotest.(check bool)
        (edit ^ ", then optimize, is a hit")
        true
        (contains "served=hit" (expect_ok s (Printf.sprintf "optimize %d" net))))
    [ ("update-wire 1 1 1", 1); ("update-noise 2 1", 2) ]

let session_edit_revert_is_deterministic () =
  (* editing a RAT and reverting it must reproduce the original payload
     byte for byte — the fingerprint cache and the memo agree with
     scratch (the golden form of the incremental-vs-scratch oracle) *)
  let s = S.create () in
  ignore (expect_ok s "load workload 2 11");
  (* only the optimization payload is compared: the served class
     legitimately differs between the first computation and the
     cache-served revert, and t= is wall time *)
  let payload_of line =
    let rec find i =
      if i + 7 > String.length line then String.length line
      else if String.sub line i 7 = " served" then i
      else find (i + 1)
    in
    String.sub line 0 (find 0)
  in
  let base = payload_of (expect_ok s "optimize 0") in
  (* reading the original RAT back out is not in the protocol; instead
     set an explicit value twice with an excursion in between *)
  ignore (expect_ok s "update-rat 0 0 4000");
  let pinned = payload_of (expect_ok s "optimize 0") in
  ignore (expect_ok s "update-rat 0 0 150");
  let excursion = payload_of (expect_ok s "optimize 0") in
  ignore (expect_ok s "update-rat 0 0 4000");
  let back_line = expect_ok s "optimize 0" in
  let back = payload_of back_line in
  Alcotest.(check string) "revert reproduces the pinned payload" pinned back;
  Alcotest.(check bool) "the revert is served from the cache" true
    (contains "served=hit" back_line);
  Alcotest.(check bool) "the excursion actually changed something" true
    (excursion <> pinned || base <> pinned)

let session_matches_a_scratch_mirror () =
  (* A seeded random script of edits and optimizes, replayed on a
     mirror that applies the same Tree edits. Every optimize is served
     [hit] exactly when the mirror's tree's fingerprint — computed here
     from scratch, by the definition — was cached earlier in the
     session, the load's warm pass included, and its payload is a
     from-scratch optimize of the mirror's tree. Edit values come from
     small pools, scale 1.0 included, so the script revisits trees it
     has seen. *)
  let module T = Rctree.Tree in
  let o = S.default_options in
  let key tree =
    Digest.string (Marshal.to_string (tree, o.S.algorithm, o.S.lib, o.S.kmax) [])
  in
  let solve tree =
    Option.map
      (fun (r : Bufins.Buffopt.run) ->
        Printf.sprintf "slack_ps=%.3f buffers=%d energy_fj=%.3f"
          (r.Bufins.Buffopt.predicted_slack *. 1e12)
          r.Bufins.Buffopt.count
          (r.Bufins.Buffopt.energy *. 1e15))
      (Bufins.Buffopt.optimize_prepared ~kmax:o.S.kmax o.S.algorithm ~lib:o.S.lib tree)
  in
  let nets = 3 and seed = 23 in
  let trees =
    Workload.trees o.S.process
      (Workload.generate { Workload.default_config with Workload.nets; seed })
    |> List.map (fun (_, t) -> Rctree.Segment.refine t ~max_len:o.S.seg_len)
    |> Array.of_list
  in
  let sinks = Array.map (fun t -> Array.of_list (T.sinks t)) trees in
  let cached = Hashtbl.create 64 in
  Array.iter (fun t -> if solve t <> None then Hashtbl.replace cached (key t) ()) trees;
  let s = S.create () in
  ignore (expect_ok s (Printf.sprintf "load workload %d %d" nets seed));
  let rng = Util.Rng.create 31 in
  let pick pool = pool.(Util.Rng.int rng (Array.length pool)) in
  let hits = ref 0 and computed = ref 0 in
  for _ = 1 to 240 do
    let n = Util.Rng.int rng nets in
    let tree = trees.(n) in
    match Util.Rng.int rng 5 with
    | 0 ->
        let sink = Util.Rng.int rng (Array.length sinks.(n))
        and ps = pick [| "150"; "300"; "4000" |] in
        ignore (expect_ok s (Printf.sprintf "update-rat %d %d %s" n sink ps));
        trees.(n) <- T.with_sink_rat tree sinks.(n).(sink) ~rat:(float_of_string ps *. 1e-12)
    | 1 ->
        let node = 1 + Util.Rng.int rng (T.node_count tree - 1)
        and sc = pick [| "1"; "0.8"; "1.25" |] in
        ignore (expect_ok s (Printf.sprintf "update-wire %d %d %s" n node sc));
        let f = float_of_string sc in
        trees.(n) <-
          T.with_wire tree node (fun w ->
              { w with T.res = w.T.res *. f; T.cap = w.T.cap *. f })
    | 2 ->
        let sc = pick [| "1"; "0.5"; "1.5" |] in
        ignore (expect_ok s (Printf.sprintf "update-noise %d %s" n sc));
        let f = float_of_string sc in
        trees.(n) <- T.map_wires tree (fun _ w -> { w with T.cur = w.T.cur *. f })
    | _ -> (
        let r = S.handle_line s (Printf.sprintf "optimize %d" n) in
        let k = key tree in
        match solve tree with
        | None ->
            Alcotest.(check bool) ("infeasible on both sides: " ^ r.S.line) true
              ((not r.S.ok) && contains "infeasible" r.S.line)
        | Some payload ->
            let hit = Hashtbl.mem cached k in
            if hit then incr hits else incr computed;
            Alcotest.(check bool) ("payload is scratch's: " ^ r.S.line) true
              (r.S.ok && contains (payload ^ " served=") r.S.line);
            Alcotest.(check bool)
              (Printf.sprintf "hit exactly when cached (%b): %s" hit r.S.line)
              hit
              (contains "served=hit" r.S.line);
            Hashtbl.replace cached k ())
  done;
  Alcotest.(check bool) "the script both hits and computes" true (!hits > 5 && !computed > 5)

(* ------------------------------------------------------------------ *)
(* The socket server, end to end                                       *)

let temp_socket () =
  let path = Filename.temp_file "buffopt-serve-test" ".sock" in
  Sys.remove path;
  path

let start_server path =
  let ep = Serve.Unix_path path in
  let server = Domain.spawn (fun () -> Serve.serve ~domains:2 ep) in
  (* wait for the listener; connect errors until bind+listen finish *)
  let deadline = Util.Clock.now () +. 30.0 in
  let rec wait () =
    match Serve.Client.connect ep with
    | c -> Serve.Client.close c
    | exception Unix.Unix_error _ ->
        if Util.Clock.now () > deadline then Alcotest.fail "server never came up";
        Unix.sleepf 0.02;
        wait ()
  in
  wait ();
  (ep, server)

let server_concurrent_sessions_and_shutdown () =
  let path = temp_socket () in
  let ep, server = start_server path in
  let a = Serve.Client.connect ep and b = Serve.Client.connect ep in
  let req c line =
    match Serve.Client.request c line with
    | Some reply -> reply
    | None -> Alcotest.failf "connection closed answering %S" line
  in
  (* A loads 4 nets; B's session must not see them *)
  Alcotest.(check bool) "A loads" true (contains "nets=4" (req a "load workload 4 7"));
  Alcotest.(check bool) "B is isolated from A's load" true
    (contains "no design loaded" (req b "optimize 0"));
  (* B loads its own, smaller design *)
  Alcotest.(check bool) "B loads" true (contains "nets=3" (req b "load workload 3 9"));
  Alcotest.(check bool) "A still has 4 nets" true
    (contains "served=" (req a "optimize 3"));
  Alcotest.(check bool) "B has only 3" true
    (contains "out of range" (req b "optimize 3"));
  (* interleaved edits stay per-session *)
  Alcotest.(check bool) "A edits" true
    (String.length (req a "update-rat 0 0 300") > 0);
  (* B has made exactly 4 requests at this point (the failed optimize,
     the load, the out-of-range optimize, and this stats), 2 of them
     errors; A's traffic must not leak into those counters *)
  let b_stats = req b "stats" in
  Alcotest.(check bool) "B's stats count only B's traffic" true
    (contains "requests=4" b_stats && contains "errors=2" b_stats);
  (* a parse error is answered, not dropped *)
  Alcotest.(check bool) "parse errors answered" true
    (contains "unknown verb" (req a "warp-speed"));
  (* one client's shutdown stops the daemon after the reply *)
  Alcotest.(check bool) "bye" true (contains "bye" (req b "shutdown"));
  Domain.join server;
  Serve.Client.close a;
  Serve.Client.close b;
  Alcotest.(check bool) "socket path unlinked" false (Sys.file_exists path);
  (* and the endpoint is really gone *)
  match Serve.Client.connect ep with
  | c ->
      Serve.Client.close c;
      Alcotest.fail "connected to a stopped server"
  | exception Unix.Unix_error _ -> ()

let server_cuts_oversized_streams () =
  let path = temp_socket () in
  let ep, server = start_server path in
  (* a complete but oversized line: err reply, connection survives *)
  let c = Serve.Client.connect ep in
  let big = "optimize " ^ String.make (P.max_line + 10) '1' in
  (match Serve.Client.request c big with
  | Some reply -> Alcotest.(check bool) "oversized line refused" true (contains "oversized" reply)
  | None -> Alcotest.fail "server closed on a complete oversized line");
  (match Serve.Client.request c "stats" with
  | Some reply -> Alcotest.(check bool) "connection still serves" true (contains "requests=" reply)
  | None -> Alcotest.fail "connection did not survive the oversized line");
  Serve.Client.close c;
  (* an unterminated stream past the cap: the server answers err and
     hangs up rather than buffering without bound *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let junk = String.make (P.max_line + 200) 'x' in
  let sent = ref 0 in
  while !sent < String.length junk do
    sent := !sent + Unix.write_substring fd junk !sent (String.length junk - !sent)
  done;
  let buf = Bytes.create 4096 in
  let got = Buffer.create 128 in
  (let rec read_all () =
     match Unix.read fd buf 0 (Bytes.length buf) with
     | 0 -> ()
     | n ->
         Buffer.add_subbytes got buf 0 n;
         read_all ()
   in
   read_all ());
  Unix.close fd;
  Alcotest.(check bool) "err then EOF on an unbounded line" true
    (contains "oversized" (Buffer.contents got));
  (* the daemon is still alive for well-behaved clients *)
  let e = Serve.Client.connect ep in
  (match Serve.Client.request e "shutdown" with
  | Some reply -> Alcotest.(check bool) "still serving, shuts down" true (contains "bye" reply)
  | None -> Alcotest.fail "daemon died on the oversized stream");
  Serve.Client.close e;
  Domain.join server

let server_script_helper () =
  let path = temp_socket () in
  let ep, server = start_server path in
  let replies =
    Serve.Client.script ep
      [ "load workload 2 5"; "optimize 0"; "optimize 1"; "stats"; "shutdown" ]
  in
  Domain.join server;
  Alcotest.(check int) "one reply per request" 5 (List.length replies);
  List.iter
    (fun r -> Alcotest.(check bool) ("ok: " ^ r) true (contains "ok" r))
    replies

let suites =
  [
    ( "serve.protocol",
      [
        case "render/parse round-trip" parse_roundtrip;
        case "padding and CR tolerated" parse_tolerates_padding;
        case "malformed, truncated and oversized lines rejected" parse_rejects_garbage;
        case "error text names the problem" parse_error_is_specific;
      ] );
    ( "serve.session",
      [
        case "range checks: unloaded, out-of-range, root wire" session_range_checks;
        case "served classes: hit, incr, full" session_served_classes;
        case "edit/revert reproduces the pinned payload" session_edit_revert_is_deterministic;
        case "random edit script: hits and payloads match a scratch mirror"
          session_matches_a_scratch_mirror;
        case "stats: memo entries and arena nodes, reset by update-noise" session_memory_stats;
        case "stats: latency percentiles over the last 4,096 optimizes"
          latency_window_keeps_the_last_samples;
      ] );
    (* 18 characters, the longest suite name: alcotest pads its report to
       the longest name and truncates test names to fit the line *)
    ( "serve.content_keys",
      [ case "a no-op edit, then optimize, is a hit" session_noop_edit_is_a_hit ] );
    ( "serve.server",
      [
        case "concurrent clients: isolated sessions, clean shutdown"
          server_concurrent_sessions_and_shutdown;
        case "oversized input: refused, connection policy enforced"
          server_cuts_oversized_streams;
        case "client script helper" server_script_helper;
      ] );
  ]
