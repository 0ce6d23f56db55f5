(* The ingest front end (lib/ingest): BLIF and Liberty parsing, design
   elaboration, write->read round-trips, malformed-input behavior, and
   the batch golden signature on the committed example netlists. *)

open Helpers

(* the committed BLIF corpus, staged into _build by the dune deps *)
let blif_dir = "../examples/blif"

let blif file = Filename.concat blif_dir file

let located loc m = String.starts_with ~prefix:loc m

(* ------------------------------------------------------------------ *)
(* Located errors: every malformed input names file and line           *)

let expect_blif ~loc text =
  match Ingest.Blif.of_string ~path:"f.blif" text with
  | _ -> Alcotest.failf "expected Blif.Parse at %s" loc
  | exception Ingest.Blif.Parse m ->
      Alcotest.(check bool) (Printf.sprintf "located %s: %s" loc m) true (located loc m)

let expect_elab ~loc text =
  match Ingest.Elab.design_of_blif (Ingest.Blif.of_string ~path:"f.blif" text) with
  | _ -> Alcotest.failf "expected Elab.Error at %s" loc
  | exception Ingest.Elab.Error m ->
      Alcotest.(check bool) (Printf.sprintf "located %s: %s" loc m) true (located loc m)

let expect_liberty ~loc text =
  match Ingest.Liberty.of_string ~path:"f.lib" text with
  | _ -> Alcotest.failf "expected Liberty.Parse at %s" loc
  | exception Ingest.Liberty.Parse m ->
      Alcotest.(check bool) (Printf.sprintf "located %s: %s" loc m) true (located loc m)

let blif_syntax_errors () =
  expect_blif ~loc:"f.blif:1:" ".inputs a\n";
  expect_blif ~loc:"f.blif:3:" ".model a\n.inputs x\n.model b\n";
  expect_blif ~loc:"f.blif:2:" ".model m\n.inputs a a\n";
  expect_blif ~loc:"f.blif:2:" ".model m\n.outputs y y\n";
  expect_blif ~loc:"f.blif:2:" ".model m\n.foo bar\n";
  expect_blif ~loc:"f.blif:2:" ".model m\n.names a a y\n";
  expect_blif ~loc:"f.blif:3:" ".model m\n.names a y\n11 1\n";
  expect_blif ~loc:"f.blif:3:" ".model m\n.names a y\n2 1\n";
  expect_blif ~loc:"f.blif:3:" ".model m\n.names a y\n1 x\n";
  expect_blif ~loc:"f.blif:2:" ".model m\n1 1\n";
  expect_blif ~loc:"f.blif:2:" ".model m\n.latch a b xx c 0\n";
  expect_blif ~loc:"f.blif:2:" ".model m\n.latch a b re c 7\n";
  expect_blif ~loc:"f.blif:2:" ".model m\n.subckt inv_x1\n";
  expect_blif ~loc:"f.blif:2:" ".model m\n.subckt inv_x1 a y=y\n";
  expect_blif ~loc:"f.blif:2:" ".model m\n.subckt inv_x1 y=a y=b\n";
  expect_blif ~loc:"f.blif:3:" ".model m\n.end\n.inputs a\n";
  (* missing .model reported one line past the end of the file *)
  expect_blif ~loc:"f.blif:4:" "# a comment\n# and another\n"

let elab_structure_errors () =
  expect_elab ~loc:"f.blif:4:"
    ".model m\n.inputs a\n.outputs y\n.subckt nosuch a=a y=y\n.end\n";
  expect_elab ~loc:"f.blif:4:"
    ".model m\n.inputs a b c d\n.outputs y\n.names a b c d y\n1111 1\n.end\n";
  expect_elab ~loc:"f.blif:4:" ".model m\n.inputs a\n.outputs y\n.names y\n1\n.end\n";
  (* arity mismatch on a .subckt instantiation *)
  expect_elab ~loc:"f.blif:4:"
    ".model m\n.inputs a b\n.outputs y\n.subckt inv_x1 a=a b=b y=y\n.end\n";
  (* y driven by both gates; reported at the second driver *)
  expect_elab ~loc:"f.blif:6:"
    ".model m\n.inputs a b\n.outputs y\n.names a y\n1 1\n.names b y\n1 1\n.end\n";
  (* x never driven *)
  expect_elab ~loc:"f.blif:4:" ".model m\n.inputs a\n.outputs y\n.names x y\n1 1\n.end\n";
  (* one signal on both inputs of one gate *)
  expect_elab ~loc:"f.blif:4:"
    ".model m\n.inputs x\n.outputs y\n.subckt nand2_x1 a=x b=x y=y\n.end\n";
  (* a combinational cycle survives to Design.validate *)
  expect_elab ~loc:"f.blif:1:"
    ".model m\n.outputs y\n.names a b\n1 1\n.names b a\n1 1\n.names a y\n1 1\n.end\n"

let liberty_syntax_errors () =
  expect_liberty ~loc:"f.lib:1:" "foo (x) { }\n";
  expect_liberty ~loc:"f.lib:2:" "library (l) { cell (c) {\n";
  expect_liberty ~loc:"f.lib:2:" "library (l) {\n/* no end\n";
  expect_liberty ~loc:"f.lib:2:" "library (l) {\ntime_unit : \"1ps\n}\n";
  expect_liberty ~loc:"f.lib:3:" "library (l) {\ncell (c) { }\ncell (c) { }\n}\n";
  expect_liberty ~loc:"f.lib:2:" "library (l) { }\nlibrary (m) { }\n";
  expect_liberty ~loc:"f.lib:2:" "library (l) {\ntime_unit : \"1furlong\";\n}\n"

(* a pathological input must come back as a located error fast — one
   10 MB line, no terminator *)
let huge_single_line () =
  let junk = String.make 10_000_000 'x' in
  expect_blif ~loc:"f.blif:2:" (".model m\n" ^ junk);
  expect_liberty ~loc:"f.lib:1:" junk

(* the crash class the parser fuzz oracle caught: a syntactically valid
   1-input cell whose function says "buffer" but whose electricals are
   garbage (zero driving resistance) must be skipped with a warning, not
   die in Tech.Buffer.make's assertion *)
let liberty_unusable_buffer_is_skipped () =
  let text =
    "library (l) {\n\
    \  time_unit : \"1ps\";\n\
    \  capacitive_load_unit (1, ff);\n\
    \  cell (b) {\n\
    \    pin (a) { direction : input; capacitance : 1; }\n\
    \    pin (y) {\n\
    \      direction : output;\n\
    \      function : \"a\";\n\
    \      timing () {\n\
    \        related_pin : \"a\";\n\
    \        intrinsic_rise : 1;\n\
    \        intrinsic_fall : 1;\n\
    \        rise_resistance : 0;\n\
    \        fall_resistance : 0;\n\
    \      }\n\
    \    }\n\
    \  }\n\
     }\n"
  in
  let lib = Ingest.Liberty.of_string text in
  Alcotest.(check int) "no buffer modeled" 0 (List.length lib.Ingest.Liberty.buffers);
  Alcotest.(check int) "no gate cell either" 0 (List.length lib.Ingest.Liberty.cells);
  Alcotest.(check bool) "warned" true (lib.Ingest.Liberty.warnings > 0)

(* a gate cell with a negative input load, no drive or no noise margin
   is skipped with a warning, as such a buffer cell is; a 2-input cell
   with no function is a gate only *)
let liberty_nonphysical_gate_is_skipped () =
  let read ~cap ~res ~nm =
    Ingest.Liberty.of_string
      (Printf.sprintf
         "library (l) {\n\
         \  time_unit : \"1ps\";\n\
         \  capacitive_load_unit (1, ff);\n\
         \  cell (g) {\n\
         \    pin (a) { direction : input; capacitance : %s; noise_margin : %s; }\n\
         \    pin (b) { direction : input; capacitance : 1; }\n\
         \    pin (y) {\n\
         \      direction : output;\n\
         \      timing () {\n\
         \        related_pin : \"a\";\n\
         \        intrinsic_rise : 1;\n\
         \        intrinsic_fall : 1;\n\
         \        rise_resistance : %s;\n\
         \        fall_resistance : %s;\n\
         \      }\n\
         \    }\n\
         \  }\n\
          }\n"
         cap nm res res)
  in
  let lib = read ~cap:"2" ~res:"0.5" ~nm:"0.8" in
  Alcotest.(check int) "physical: kept" 1 (List.length lib.Ingest.Liberty.cells);
  Alcotest.(check int) "physical: no warning" 0 lib.Ingest.Liberty.warnings;
  List.iter
    (fun (what, cap, res, nm) ->
      let lib = read ~cap ~res ~nm in
      Alcotest.(check int) (what ^ ": skipped") 0 (List.length lib.Ingest.Liberty.cells);
      Alcotest.(check int) (what ^ ": warned") 1 lib.Ingest.Liberty.warnings)
    [
      ("negative input load", "-1", "0.5", "0.8");
      ("zero drive resistance", "2", "0", "0.8");
      ("negative drive resistance", "2", "-0.5", "0.8");
      ("zero noise margin", "2", "0.5", "0");
      ("negative noise margin", "2", "0.5", "-0.1");
    ]

(* ------------------------------------------------------------------ *)
(* Error messages name the identifier and the candidate-set size       *)

let netfmt_errors_name_candidates () =
  let expect ~msg text =
    match Sta.Netfmt.of_string ~path:"f.net" text with
    | _ -> Alcotest.failf "expected Netfmt.Parse %s" msg
    | exception Sta.Netfmt.Parse m -> Alcotest.(check string) "message" msg m
  in
  expect ~msg:"f.net:1: unknown cell nosuch (8 in library)" "inst g1 nosuch 0 0\n";
  (* sinks resolve before the source, so give the source tests a
     legal sink *)
  expect ~msg:"f.net:3: unknown PI b as net source (1 declared)"
    "pi a 0 0 0 50 10\npo q 0 0 100 30 0.8\nnet n pi:b po:q\n";
  expect ~msg:"f.net:2: unknown PO q as net sink (0 declared)"
    "pi a 0 0 0 50 10\nnet n pi:a po:q\n";
  expect ~msg:"f.net:3: unknown instance g2 as net sink (1 declared)"
    "pi a 0 0 0 50 10\ninst g1 inv_x1 1 1\nnet n pi:a g2:0\n";
  expect ~msg:"f.net:2: unknown instance g9 as net source (0 declared)"
    "po q 0 0 100 30 0.8\nnet n g9 po:q\n"

(* ------------------------------------------------------------------ *)
(* Write -> read round-trips on random inputs                          *)

let netfmt_roundtrip_fixpoint () =
  List.iter
    (fun seed ->
      let d = Check.Gen.random_design (Util.Rng.create seed) in
      let text = Sta.Netfmt.to_string d in
      let d2 = Sta.Netfmt.of_string ~path:"r.net" text in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: rendering is a fixpoint" seed)
        text (Sta.Netfmt.to_string d2))
    (seeds 10)

let liberty_roundtrip_exact () =
  List.iter
    (fun seed ->
      let rng = Util.Rng.create seed in
      let cells = Check.Gen.random_cells rng in
      let buffers = Check.Gen.random_buffers rng in
      let lib = Ingest.Liberty.of_string (Ingest.Liberty.to_string ~buffers cells) in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: buffers bit-identical" seed)
        true
        (lib.Ingest.Liberty.buffers = buffers);
      let prefix =
        List.filteri (fun i _ -> i < List.length cells) lib.Ingest.Liberty.cells
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: cells bit-identical" seed)
        true (prefix = cells);
      Alcotest.(check int) (Printf.sprintf "seed %d: no warnings" seed) 0
        lib.Ingest.Liberty.warnings)
    (seeds 20)

(* ten small random designs plus one 480-gate Sta.Gen design *)
let blif_roundtrip_deterministic () =
  let big = Sta.Gen.random { Sta.Gen.default_config with Sta.Gen.gates = 480; seed = 2026 } in
  List.iter
    (fun (name, d) ->
      let b = Ingest.Elab.blif_of_design d in
      let text = Ingest.Blif.to_string b in
      let b2 = Ingest.Blif.of_string text in
      Alcotest.(check string) (name ^ ": rendering is a fixpoint") text (Ingest.Blif.to_string b2);
      let elab x = Sta.Netfmt.to_string (fst (Ingest.Elab.design_of_blif x)) in
      Alcotest.(check string) (name ^ ": elaboration is reproducible") (elab b) (elab b2))
    (("480 gates", big)
    :: List.map
         (fun seed ->
           (Printf.sprintf "seed %d" seed, Check.Gen.random_design (Util.Rng.create seed)))
         (seeds 10))

(* ------------------------------------------------------------------ *)
(* The committed example corpus                                        *)

let fulladder_loads () =
  let design, buffers, warnings =
    Ingest.Elab.load ~liberty:(blif "cells.lib") (blif "fulladder.blif")
  in
  Alcotest.(check int) "instances" 5 (Array.length design.Sta.Design.instances);
  Alcotest.(check int) "nets" 8 (Array.length design.Sta.Design.nets);
  Alcotest.(check int) "PIs" 3 (Array.length design.Sta.Design.pis);
  Alcotest.(check int) "POs" 2 (Array.length design.Sta.Design.pos);
  Alcotest.(check int) "no warnings" 0 warnings;
  Alcotest.(check int) "buffer library from liberty" 11 (List.length buffers)

let carryripple_latch_cuts_the_graph () =
  let design, _, warnings = Ingest.Elab.load (blif "carryripple.blif") in
  Alcotest.(check int) "no warnings" 0 warnings;
  (* 8 model inputs + clk dropped... clk feeds only the latch control,
     so it is dropped with a warning-free pseudo-PI for the latch output *)
  Alcotest.(check int) "instances" 14 (Array.length design.Sta.Design.instances);
  Alcotest.(check int) "nets" 24 (Array.length design.Sta.Design.nets);
  Alcotest.(check int) "PIs (incl. latch output)" 10 (Array.length design.Sta.Design.pis);
  Alcotest.(check int) "POs (incl. latch input)" 6 (Array.length design.Sta.Design.pos)

(* the committed cells.lib is the writer's own output: reading it back
   must reproduce the built-in libraries exactly *)
let committed_liberty_matches_builtin () =
  let lib = Ingest.Liberty.read (blif "cells.lib") in
  Alcotest.(check int) "no warnings" 0 lib.Ingest.Liberty.warnings;
  Alcotest.(check bool) "buffers = Tech.Lib.default_library" true
    (lib.Ingest.Liberty.buffers = Tech.Lib.default_library);
  let prefix =
    List.filteri
      (fun i _ -> i < List.length Sta.Cell.library)
      lib.Ingest.Liberty.cells
  in
  Alcotest.(check bool) "cells prefix = Sta.Cell.library" true
    (prefix = Sta.Cell.library)

(* same seed, same file -> byte-identical designs (placement synthesis
   is deterministic) *)
let elaboration_is_deterministic () =
  let once () =
    let design, _, _ = Ingest.Elab.load (blif "carryripple.blif") in
    Sta.Netfmt.to_string design
  in
  Alcotest.(check string) "byte-identical designs" (once ()) (once ())

(* ------------------------------------------------------------------ *)
(* Batch golden signature: the full DP stack over the BLIF corpus       *)

let batch_signature_domain_invariant () =
  List.iter
    (fun file ->
      let design, lib, _ =
        Ingest.Elab.load ~liberty:(blif "cells.lib") (blif file)
      in
      let jobs = Sta.Engine.batch_jobs process design in
      let r1 = Engine.optimize ~domains:1 ~algorithm:Bufins.Buffopt.Buffopt ~lib jobs in
      Alcotest.(check int)
        (file ^ ": every net optimized")
        (List.length jobs) r1.Engine.ok;
      Alcotest.(check bool) (file ^ ": buffers inserted") true (r1.Engine.buffers > 0);
      let s = r1.Engine.dp in
      Alcotest.(check int)
        (file ^ ": dp stats conservation")
        (Bufins.Dp.considered s)
        (Bufins.Dp.survivors s + s.Bufins.Dp.pruned + s.Bufins.Dp.count_pruned
       + s.Bufins.Dp.pred_pruned);
      List.iter
        (fun domains ->
          let rd =
            Engine.optimize ~domains ~chunk:1 ~algorithm:Bufins.Buffopt.Buffopt ~lib jobs
          in
          Alcotest.(check string)
            (Printf.sprintf "%s: signature at %d domains" file domains)
            (Engine.signature r1) (Engine.signature rd))
        [ 2; 4 ])
    [ "fulladder.blif"; "carryripple.blif"; "block200.blif" ]

(* ------------------------------------------------------------------ *)
(* The parser fuzz oracle                                              *)

let parser_oracle_campaign_is_clean () =
  let r =
    Check.Fuzz.campaign ~oracle:Check.Instance.Parser_roundtrip ~jobs:2 ~seed:5
      ~count:150 ()
  in
  Alcotest.(check int) "tested" 150 r.Check.Fuzz.tested;
  Alcotest.(check int) "passed" 150 r.Check.Fuzz.passed;
  Alcotest.(check int) "skipped" 0 r.Check.Fuzz.skipped;
  Alcotest.(check int) "failed" 0 (List.length r.Check.Fuzz.failures)

(* DP mutations have no parser side: the oracle must skip, not vacuously
   pass, so mutation campaigns keep their catch-everything contract *)
let parser_oracle_skips_dp_mutations () =
  let inst =
    Check.Gen.instance_for Check.Instance.Parser_roundtrip (Util.Rng.create 1)
  in
  List.iter
    (fun mutation ->
      match Check.Diff.run ~mutation inst with
      | Check.Diff.Skip _ -> ()
      | Check.Diff.Pass -> Alcotest.fail "mutation run must skip, not pass"
      | Check.Diff.Fail m -> Alcotest.failf "mutation run must skip, not fail: %s" m)
    [ Check.Diff.Cq_noise_prune; Check.Diff.Stale_memo ]

let parser_corpus_replays () =
  let entries =
    Sys.readdir "corpus" |> Array.to_list
    |> List.filter (String.starts_with ~prefix:"parser-")
    |> List.sort compare
  in
  Alcotest.(check bool)
    (Printf.sprintf "at least 6 committed entries (got %d)" (List.length entries))
    true
    (List.length entries >= 6);
  List.iter
    (fun f ->
      match Check.Fuzz.replay (Filename.concat "corpus" f) with
      | [ (_, Check.Diff.Pass) ] -> ()
      | [ (_, Check.Diff.Skip m) ] | [ (_, Check.Diff.Fail m) ] ->
          Alcotest.failf "%s: %s" f m
      | _ -> Alcotest.failf "%s: expected exactly one entry" f)
    entries

let suites =
  [
    ( "ingest.parse",
      [
        case "blif: malformed inputs raise located Parse" blif_syntax_errors;
        case "blif: structural nonsense raises located Error" elab_structure_errors;
        case "liberty: malformed inputs raise located Parse" liberty_syntax_errors;
        case "10 MB single line: located error, no hang" huge_single_line;
        case "liberty: garbage buffer electricals skipped, not crashed"
          liberty_unusable_buffer_is_skipped;
        case "liberty: non-physical gate cells skipped with a warning"
          liberty_nonphysical_gate_is_skipped;
        case "netfmt: errors name identifier and candidate count"
          netfmt_errors_name_candidates;
      ] );
    ( "ingest.roundtrip",
      [
        case "netfmt: random designs render to a fixpoint" netfmt_roundtrip_fixpoint;
        case "liberty: random libraries round-trip bit-identically"
          liberty_roundtrip_exact;
        case "blif: random designs round-trip deterministically"
          blif_roundtrip_deterministic;
      ] );
    ( "ingest.examples",
      [
        case "fulladder elaborates with the committed liberty" fulladder_loads;
        case "carryripple: latches cut the combinational graph"
          carryripple_latch_cuts_the_graph;
        case "committed cells.lib reproduces the built-in libraries"
          committed_liberty_matches_builtin;
        case "elaboration is deterministic" elaboration_is_deterministic;
        case "batch signature byte-identical across domain counts"
          batch_signature_domain_invariant;
      ] );
    ( "ingest.fuzz",
      [
        case "parser oracle: 150-instance campaign is clean"
          parser_oracle_campaign_is_clean;
        case "parser oracle: DP mutations skip" parser_oracle_skips_dp_mutations;
        case "committed parser corpus replays clean" parser_corpus_replays;
      ] );
  ]
