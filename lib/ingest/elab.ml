module D = Sta.Design
module P = Geometry.Point

exception Error of string

type options = { cells : Sta.Cell.t list; die : int; seed : int; period : float }

let default_options =
  {
    cells = Sta.Cell.library;
    die = Sta.Gen.default_config.Sta.Gen.die;
    seed = Sta.Gen.default_config.Sta.Gen.seed;
    period = Sta.Gen.default_config.Sta.Gen.period;
  }

(* an elaborated gate, before placement *)
type gate = { gname : string; cell : Sta.Cell.t; out_sig : string; in_sigs : string list }

type driver = Pi of int | Gate of int

let output_formals = [ "y"; "z"; "o"; "out"; "q" ]

let design_of_blif ?(options = default_options) (b : Blif.t) =
  let err line fmt =
    Printf.ksprintf (fun m -> raise (Error (Printf.sprintf "%s:%d: %s" b.Blif.path line m))) fmt
  in
  let n_cells = List.length options.cells in
  (* ---- gates from .names and .subckt ---- *)
  let gate_of_names (n : Blif.names) =
    let k = List.length n.Blif.n_inputs in
    if k = 0 then err n.Blif.n_line "constant .names %s not supported" n.Blif.n_output;
    match List.find_opt (fun (c : Sta.Cell.t) -> c.Sta.Cell.n_inputs = k) options.cells with
    | Some cell ->
        { gname = n.Blif.n_output; cell; out_sig = n.Blif.n_output; in_sigs = n.Blif.n_inputs }
    | None ->
        err n.Blif.n_line "no %d-input cell for .names %s (library has %d cells)" k
          n.Blif.n_output n_cells
  in
  let gate_of_subckt (s : Blif.subckt) =
    let cell =
      match
        List.find_opt (fun (c : Sta.Cell.t) -> c.Sta.Cell.cname = s.Blif.s_model) options.cells
      with
      | Some c -> c
      | None ->
          err s.Blif.s_line "unknown cell %s on .subckt (library has %d cells)" s.Blif.s_model
            n_cells
    in
    let is_out (f, _) = List.mem (String.lowercase_ascii f) output_formals in
    let out_binding =
      match List.filter is_out s.Blif.s_bindings with
      | o :: _ -> o
      | [] -> List.nth s.Blif.s_bindings (List.length s.Blif.s_bindings - 1)
    in
    let ins = List.filter (fun bnd -> bnd != out_binding) s.Blif.s_bindings in
    if List.length ins <> cell.Sta.Cell.n_inputs then
      err s.Blif.s_line "cell %s wants %d inputs, .subckt binds %d" s.Blif.s_model
        cell.Sta.Cell.n_inputs (List.length ins);
    let out_sig = snd out_binding in
    { gname = out_sig; cell; out_sig; in_sigs = List.map snd ins }
  in
  let gates =
    Array.of_list
      (List.map gate_of_names b.Blif.names @ List.map gate_of_subckt b.Blif.subckts)
  in
  let gate_lines =
    Array.of_list
      (List.map (fun (n : Blif.names) -> n.Blif.n_line) b.Blif.names
      @ List.map (fun (s : Blif.subckt) -> s.Blif.s_line) b.Blif.subckts)
  in
  let gate_line gi = gate_lines.(gi) in
  (* ---- single-driver check; PI signals are inputs and latch outputs ---- *)
  let pi_sigs = b.Blif.inputs @ List.map (fun (l : Blif.latch) -> l.Blif.l_output) b.Blif.latches in
  let drivers = Hashtbl.create 64 in
  List.iteri
    (fun p s ->
      if Hashtbl.mem drivers s then err 1 "signal %s driven twice (input/latch output)" s;
      Hashtbl.replace drivers s (Pi p))
    pi_sigs;
  Array.iteri
    (fun gi g ->
      if Hashtbl.mem drivers g.out_sig then
        err (gate_line gi) "signal %s driven twice" g.out_sig;
      Hashtbl.replace drivers g.out_sig (Gate gi))
    gates;
  (* ---- uses: gate pins, model outputs, latch inputs ---- *)
  let sinks_of = Hashtbl.create 64 in
  let add_sink s sink =
    Hashtbl.replace sinks_of s (sink :: Option.value ~default:[] (Hashtbl.find_opt sinks_of s))
  in
  let require_driver line s what =
    if not (Hashtbl.mem drivers s) then
      err line "signal %s is undriven (feeds %s)" s what
  in
  Array.iteri
    (fun gi g ->
      let seen = Hashtbl.create 4 in
      List.iteri
        (fun k s ->
          if Hashtbl.mem seen s then
            err (gate_line gi) "signal %s feeds gate %s twice" s g.gname;
          Hashtbl.replace seen s ();
          require_driver (gate_line gi) s ("gate " ^ g.gname);
          add_sink s (D.To_inst (gi, k)))
        g.in_sigs)
    gates;
  (* POs: model outputs, latch inputs, then synthesized ones for
     dangling gate outputs *)
  let po_sigs = ref [] and n_po = ref 0 in
  let new_po line s what =
    require_driver line s what;
    let p = !n_po in
    incr n_po;
    po_sigs := s :: !po_sigs;
    add_sink s (D.To_po p)
  in
  List.iter (fun s -> new_po 1 s "model output") b.Blif.outputs;
  List.iter
    (fun (l : Blif.latch) -> new_po l.Blif.l_line l.Blif.l_input ("latch " ^ l.Blif.l_output))
    b.Blif.latches;
  Array.iteri
    (fun gi g ->
      if not (Hashtbl.mem sinks_of g.out_sig) then
        new_po (gate_line gi) g.out_sig ("dangling output of gate " ^ g.gname))
    gates;
  let po_sigs = Array.of_list (List.rev !po_sigs) in
  (* unused PI signals are dropped (a warning each), so every remaining
     driver has at least one sink *)
  let warnings = ref 0 in
  let pi_sigs =
    List.filter
      (fun s ->
        let used = Hashtbl.mem sinks_of s in
        if not used then begin
          incr warnings;
          Hashtbl.remove drivers s
        end;
        used)
      pi_sigs
  in
  List.iteri (fun p s -> Hashtbl.replace drivers s (Pi p)) pi_sigs;
  let pi_sigs = Array.of_list pi_sigs in
  (* ---- deterministic placement and pad electricals (Gen.random's idiom) ---- *)
  let rng = Util.Rng.create options.seed in
  let seen = Hashtbl.create 64 in
  let rec place () =
    let p = P.make (Util.Rng.int rng options.die) (Util.Rng.int rng options.die) in
    if Hashtbl.mem seen p then place ()
    else begin
      Hashtbl.replace seen p ();
      p
    end
  in
  let pis =
    Array.map
      (fun s ->
        {
          D.pname = s;
          pat = place ();
          arrival = Util.Rng.range rng 0.0 100e-12;
          r_pad = Util.Rng.range rng 40.0 150.0;
          d_pad = Util.Rng.range rng 20e-12 50e-12;
        })
      pi_sigs
  in
  let instances =
    Array.map (fun g -> { D.iname = g.gname; cell = g.cell; at = place () }) gates
  in
  let pos =
    Array.map
      (fun s ->
        {
          D.oname = s;
          oat = place ();
          required = options.period;
          c_pad = Util.Rng.range rng 20e-15 60e-15;
          po_nm = 0.8;
        })
      po_sigs
  in
  (* ---- nets: PI-driven first, then gate-driven, named by signal ---- *)
  let net_of_signal s source =
    let sinks = Array.of_list (List.rev (Hashtbl.find sinks_of s)) in
    { D.nname = s; source; sinks }
  in
  let nets =
    Array.append
      (Array.mapi (fun p s -> net_of_signal s (D.From_pi p)) pi_sigs)
      (Array.mapi (fun gi g -> net_of_signal g.out_sig (D.From_inst gi)) gates)
  in
  let design = { D.instances; nets; pis; pos } in
  (match D.validate design with
  | Ok () -> ()
  | Error e -> err 1 "elaborated design invalid: %s" e);
  (design, !warnings)

let blif_of_design (d : D.t) =
  let sig_of_net nid = d.D.nets.(nid).D.nname in
  let net_of = D.source_nets d in
  let sig_of_source src = sig_of_net (net_of src) in
  let pin_sig = Hashtbl.create 64 and po_sig = Hashtbl.create 16 in
  Array.iteri
    (fun nid (n : D.net) ->
      Array.iter
        (fun s ->
          match s with
          | D.To_po p -> Hashtbl.replace po_sig p (sig_of_net nid)
          | D.To_inst (i, k) -> Hashtbl.replace pin_sig (i, k) (sig_of_net nid))
        n.D.sinks)
    d.D.nets;
  let inputs =
    Array.to_list (Array.mapi (fun p _ -> sig_of_source (D.From_pi p)) d.D.pis)
  in
  let outputs = Array.to_list (Array.mapi (fun p _ -> Hashtbl.find po_sig p) d.D.pos) in
  let subckts =
    Array.to_list
      (Array.mapi
         (fun i (inst : D.instance) ->
           let cell = inst.D.cell in
           let ins =
             List.init cell.Sta.Cell.n_inputs (fun k ->
                 (Printf.sprintf "a%d" k, Hashtbl.find pin_sig (i, k)))
           in
           {
             Blif.s_model = cell.Sta.Cell.cname;
             s_bindings = ins @ [ ("y", sig_of_source (D.From_inst i)) ];
             s_line = 0;
           })
         d.D.instances)
  in
  {
    Blif.path = "<design>";
    model = "design";
    inputs;
    outputs;
    names = [];
    latches = [];
    subckts;
  }

let load ?(options = default_options) ?liberty path =
  let cells, buffers, lib_warnings =
    match liberty with
    | None -> (options.cells, Tech.Lib.default_library, 0)
    | Some lib_path ->
        let l = Liberty.read lib_path in
        let cells = if l.Liberty.cells = [] then options.cells else l.Liberty.cells in
        let buffers =
          if l.Liberty.buffers = [] then Tech.Lib.default_library else l.Liberty.buffers
        in
        (cells, buffers, l.Liberty.warnings)
  in
  if Filename.check_suffix (String.lowercase_ascii path) ".blif" then begin
    let design, w = design_of_blif ~options:{ options with cells } (Blif.read path) in
    (design, buffers, lib_warnings + w)
  end
  else (Sta.Netfmt.read ~cells path, buffers, lib_warnings)
