open Helpers

let tmp_write content =
  let path = Filename.temp_file "buffopt_test" ".design" in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  path

(* [text] must be refused with exactly [msg] *)
let expect_parse ~msg text =
  match Sta.Netfmt.of_string ~path:"f.net" text with
  | _ -> Alcotest.failf "expected Netfmt.Parse %s" msg
  | exception Sta.Netfmt.Parse m -> Alcotest.(check string) "message" msg m

(* one PI driving one PO *)
let one_net ~pi ~po = Printf.sprintf "%s\n%s\nnet n pi:s po:a\n" pi po

let tests =
  [
    case "round trip preserves the design" (fun () ->
        let d = Sta.Gen.random { Sta.Gen.default_config with Sta.Gen.gates = 30; seed = 5 } in
        let path = tmp_write (Sta.Netfmt.to_string d) in
        let d' = Sta.Netfmt.read path in
        Sys.remove path;
        Alcotest.(check string) "stats" (Sta.Design.stats d) (Sta.Design.stats d');
        (* identical STA results prove electrical equivalence *)
        let a = Sta.Engine.analyze process d and b = Sta.Engine.analyze process d' in
        feq_rel "wns" ~eps:1e-6 a.Sta.Engine.wns b.Sta.Engine.wns;
        feq_rel "tns" ~eps:1e-6 (a.Sta.Engine.tns +. 1e-15) (b.Sta.Engine.tns +. 1e-15);
        Alcotest.(check int) "noisy" a.Sta.Engine.noisy_nets b.Sta.Engine.noisy_nets);
    case "small design parses" (fun () ->
        let path =
          tmp_write
            "# tiny\n\
             pi in 0 0 0 100 20\n\
             po out 4000 0 2000 30 0.8\n\
             inst g0 inv_x4 2000 0\n\
             net n0 pi:in g0:0\n\
             net n1 g0 po:out\n"
        in
        let d = Sta.Netfmt.read path in
        Sys.remove path;
        Alcotest.(check (result unit string)) "valid" (Ok ()) (Sta.Design.validate d);
        Alcotest.(check int) "one gate" 1 (Array.length d.Sta.Design.instances));
    case "unknown cell rejected" (fun () ->
        let path =
          tmp_write "pi in 0 0 0 100 20\npo out 1 1 2000 30 0.8\ninst g0 bogus 2 2\n"
        in
        let r = match Sta.Netfmt.read path with exception Sta.Netfmt.Parse _ -> true | _ -> false in
        Sys.remove path;
        Alcotest.(check bool) "raises" true r);
    case "unknown reference rejected" (fun () ->
        let path = tmp_write "pi in 0 0 0 100 20\nnet n0 pi:in g9:0\n" in
        let r = match Sta.Netfmt.read path with exception Sta.Netfmt.Parse _ -> true | _ -> false in
        Sys.remove path;
        Alcotest.(check bool) "raises" true r);
    case "invalid design rejected with location" (fun () ->
        (* a PI that drives nothing *)
        let path = tmp_write "pi in 0 0 0 100 20\npo out 1 1 2000 30 0.8\n" in
        let r =
          match Sta.Netfmt.read path with
          | exception Sta.Netfmt.Parse msg -> String.length msg > 0
          | _ -> false
        in
        Sys.remove path;
        Alcotest.(check bool) "raises parse" true r);
    case "duplicate names rejected" (fun () ->
        let path = tmp_write "pi in 0 0 0 100 20\npi in 1 1 0 100 20\n" in
        let r = match Sta.Netfmt.read path with exception Sta.Netfmt.Parse _ -> true | _ -> false in
        Sys.remove path;
        Alcotest.(check bool) "raises" true r);
    case "design file resolves against a custom library" (fun () ->
        (* one gate cell, no function: a gate, not a buffer *)
        let lpath =
          tmp_write
            "library (custom) {\n\
            \  time_unit : \"1ps\";\n\
            \  capacitive_load_unit (1, ff);\n\
            \  cell (myinv) {\n\
            \    pin (a) { direction : input; capacitance : 5; noise_margin : 0.75; }\n\
            \    pin (y) {\n\
            \      direction : output;\n\
            \      timing () {\n\
            \        related_pin : \"a\";\n\
            \        intrinsic_rise : 20;\n\
            \        intrinsic_fall : 20;\n\
            \        rise_resistance : 300e-3;\n\
            \        fall_resistance : 300e-3;\n\
            \      }\n\
            \    }\n\
            \  }\n\
             }\n"
        in
        let dpath =
          tmp_write
            "pi in 0 0 0 100 20\n\
             po out 4000 0 2000 30 0.8\n\
             inst g0 myinv 2000 0\n\
             net n0 pi:in g0:0\n\
             net n1 g0 po:out\n"
        in
        let d, buffers, warnings = Ingest.Elab.load ~liberty:lpath dpath in
        Sys.remove lpath;
        Sys.remove dpath;
        Alcotest.(check int) "no warnings" 0 warnings;
        Alcotest.(check bool) "built-in buffers" true (buffers = Tech.Lib.default_library);
        let cell = d.Sta.Design.instances.(0).Sta.Design.cell in
        Alcotest.(check string) "cell used" "myinv" cell.Sta.Cell.cname;
        feq "margin carried" 0.75 cell.Sta.Cell.nm;
        feq_rel "drive carried" ~eps:1e-12 300.0 cell.Sta.Cell.r_out);
    case "sample parses" (fun () ->
        (* [buffopt sample]'s output, rendered by a test/dune rule *)
        let d = Sta.Netfmt.read "sample.net" in
        Alcotest.(check int) "one net" 1 (Array.length d.Sta.Design.nets);
        let net = d.Sta.Design.nets.(0) in
        Alcotest.(check string) "name" "sample" net.Sta.Design.nname;
        Alcotest.(check int) "three sinks" 3 (Array.length net.Sta.Design.sinks));
    case "bad numbers carry a location" (fun () ->
        expect_parse ~msg:"f.net:2: bad number oops" "# pads\npi s 0 0 0 oops 30\n");
    case "unknown directive rejected" (fun () ->
        expect_parse ~msg:"f.net:2: unknown directive frobnicate"
          "pi s 0 0 0 100 30\nfrobnicate\n");
    case "coincident pins rejected" (fun () ->
        expect_parse ~msg:"f.net: invalid design: net n: coincident pin placements"
          (one_net ~pi:"pi s 5 5 0 100 30" ~po:"po a 5 5 1200 20 0.8"));
    case "non-finite and negative electricals rejected" (fun () ->
        let pi = "pi s 0 0 0 120 30" and po = "po a 8000 2000 1200 20 0.8" in
        let invalid e = "f.net: invalid design: " ^ e in
        expect_parse ~msg:(invalid "PI s: non-finite electricals")
          (one_net ~pi:"pi s 0 0 0 nan 30" ~po);
        expect_parse ~msg:(invalid "PI s: non-finite electricals")
          (one_net ~pi:"pi s 0 0 0 inf 30" ~po);
        expect_parse ~msg:(invalid "PI s: negative pad resistance")
          (one_net ~pi:"pi s 0 0 0 -120 30" ~po);
        expect_parse ~msg:(invalid "PO a: non-finite electricals")
          (one_net ~pi ~po:"po a 8000 2000 1200 20 nan");
        expect_parse ~msg:(invalid "PO a: negative pad load")
          (one_net ~pi ~po:"po a 8000 2000 1200 -20 0.8");
        (* ps and fF fields are read exactly, so a non-finite one is no number *)
        expect_parse ~msg:"f.net:2: bad number inf"
          (one_net ~pi ~po:"po a 8000 2000 inf 20 0.8"));
    case "out-of-range coordinates rejected" (fun () ->
        let po = "po a 8000 2000 1200 20 0.8" in
        List.iter
          (fun (pi, x) ->
            expect_parse ~msg:(Printf.sprintf "f.net:1: coordinate %s outside +-1e6 um" x)
              (one_net ~pi ~po))
          [
            ("pi s 1e30 0 0 120 30", "1e30");
            ("pi s -1e13 0 0 120 30", "-1e13");
            ("pi s 0 nan 0 120 30", "nan");
            ("pi s 0 -inf 0 120 30", "-inf");
            ("pi s 1000000.5 0 0 120 30", "1000000.5");
          ];
        expect_parse ~msg:"f.net:3: coordinate 2e6 outside +-1e6 um"
          "pi s 0 0 0 120 30\npo a 8000 2000 1200 20 0.8\ninst g0 inv_x4 2e6 0\n";
        (* the bound itself is a legal placement *)
        let d = Sta.Netfmt.of_string (one_net ~pi:"pi s -1e6 1e6 0 120 30" ~po) in
        Alcotest.(check int) "one net" 1 (Array.length d.Sta.Design.nets));
    case "undriven PO rejected by name" (fun () ->
        expect_parse ~msg:"f.net: invalid design: PO b driven 0 times"
          (one_net ~pi:"pi s 0 0 0 120 30"
             ~po:"po a 8000 2000 1200 20 0.8\npo b 4000 2000 1200 20 0.8"));
  ]

(* junk input must fail cleanly: a parse or a located [Parse], nothing
   else *)
let fuzz_tests =
  let junk_gen =
    QCheck2.Gen.(
      list_size (int_range 0 12)
        (oneof
           [
             string_size ~gen:printable (int_range 0 40);
             return "pi a 0 0 0 100 30";
             return "po q 1 2 1200 10 0.8";
             return "po q nope 2 1200 10 0.8";
             return "net x pi:a po:q";
             return "# comment";
           ]))
  in
  [
    qcase ~count:150 "design parser never crashes on junk" junk_gen (fun lines ->
        match Sta.Netfmt.of_string (String.concat "\n" lines) with
        | _ -> true
        | exception Sta.Netfmt.Parse _ -> true
        | exception _ -> false);
  ]

let suites = [ ("sta.netfmt", tests); ("parsers.fuzz", fuzz_tests) ]
