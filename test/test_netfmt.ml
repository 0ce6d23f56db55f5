open Helpers

let tmp_write content =
  let path = Filename.temp_file "buffopt_test" ".design" in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  path

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
  ]

let suites = [ ("sta.netfmt", tests) ]
