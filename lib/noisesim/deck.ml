module T = Rctree.Tree
module N = Circuit.Netlist

type config = { n_seg : int; vdd : float; t_rise : float; l_per_m : float }

let default_config (p : Tech.Process.t) =
  { n_seg = 8; vdd = p.Tech.Process.vdd; t_rise = p.Tech.Process.t_rise; l_per_m = 0.0 }

type t = {
  netlist : N.t;
  probes : (int * N.node) list;
  sources : (N.node * float) list;
  tau : float;
}

let gate_resistance t g =
  match T.kind t g with
  | T.Source d -> d.T.r_drv
  | T.Buffered b -> b.Tech.Buffer.r_b
  | T.Sink _ | T.Internal -> invalid_arg "Deck.of_stage: not a gate"

let pin_cap t v =
  match T.kind t v with
  | T.Sink s -> s.T.c_sink
  | T.Buffered b -> b.Tech.Buffer.c_in
  | T.Internal | T.Source _ -> 0.0

(* the run's [(dt, t_end)] for a deck of time constant [tau] *)
let span cfg tau =
  let t_end = cfg.t_rise +. Float.max (6.0 *. tau) (0.5 *. cfg.t_rise) in
  let dt = Float.max (t_end /. 6000.0) (Float.min (cfg.t_rise /. 40.0) (t_end /. 400.0)) in
  (dt, t_end)

(* Per-wire sections (DESIGN §4.1): enough that each section's own time
   constant [RC_w / n^2] is at most [dt / k^2], capped at [n_seg]; 0 lumps
   a wire whose [RC_w] is below [lump_frac] of the step at its upper node. *)
let k = 1.5
let lump_frac = 1e-4

let sections cfg ~dt (w : T.wire) =
  let rc = w.T.res *. w.T.cap in
  if rc < lump_frac *. dt then 0
  else
    let n = Float.ceil (k *. sqrt (rc /. dt)) in
    if n >= float_of_int cfg.n_seg then cfg.n_seg else int_of_float n

let of_stage ?density cfg tree ~gate =
  if cfg.n_seg < 1 then invalid_arg "Deck.of_stage: n_seg must be >= 1";
  let r_g = gate_resistance tree gate in
  let default_slope = cfg.vdd /. cfg.t_rise in
  let nl = N.create () in
  (* one ramp source per distinct aggressor slope *)
  let aggressors = Hashtbl.create 4 in
  let aggressor_for slope =
    match Hashtbl.find_opt aggressors slope with
    | Some n -> n
    | None ->
        let n = N.fresh ~label:"aggressor" nl in
        N.drive nl n
          (Circuit.Waveform.ramp ~t0:0.0 ~t_rise:(cfg.vdd /. slope) ~v0:0.0 ~v1:cfg.vdd);
        Hashtbl.replace aggressors slope n;
        n
  in
  (* coupling caps of a wire: per-aggressor totals plus the ground rest *)
  let wire_coupling (w : T.wire) v =
    let couples =
      match density with
      | Some d -> (
          match d v with
          | [] -> if w.T.cur > 0.0 then [ (w.T.cur /. default_slope, default_slope) ] else []
          | dens -> List.map (fun (lambda, slope) -> (lambda *. w.T.cap, slope)) dens)
      | None -> if w.T.cur > 0.0 then [ (w.T.cur /. default_slope, default_slope) ] else []
    in
    let total = List.fold_left (fun a (c, _) -> a +. c) 0.0 couples in
    (couples, Float.max 0.0 (w.T.cap -. total))
  in
  let members = T.stage_members tree gate in
  let total_res, total_cap =
    List.fold_left
      (fun (r, c) v ->
        let w = T.wire_to tree v in
        (r +. w.T.res, c +. w.T.cap +. pin_cap tree v))
      (0.0, 0.0) members
  in
  let tau = (r_g +. total_res) *. total_cap in
  let dt, _ = span cfg tau in
  let circuit_of = Hashtbl.create 16 in
  let root_node = N.fresh ~label:"stage-root" nl in
  Hashtbl.replace circuit_of gate root_node;
  (* the victim's driving gate holds the net quiet through its resistance *)
  N.resistor nl root_node N.ground r_g;
  List.iter
    (fun v ->
      let w = T.wire_to tree v in
      let couples, c_ground = wire_coupling w v in
      let up = Hashtbl.find circuit_of (T.parent tree v) in
      let n = sections cfg ~dt w in
      let down =
        if n = 0 then begin
          (* a wire too short for the step: lump everything at the shared node *)
          N.capacitor nl up N.ground c_ground;
          List.iter (fun (c, slope) -> N.capacitor nl up (aggressor_for slope) c) couples;
          up
        end
        else begin
          (* discretize: n series resistances, section capacitances split
             half to each end (pi model) *)
          let fn = float_of_int n in
          let seg_r = w.T.res /. fn in
          let half_cg = c_ground /. fn /. 2.0 in
          let halves = List.map (fun (c, slope) -> (c /. fn /. 2.0, aggressor_for slope)) couples in
          let attach node =
            N.capacitor nl node N.ground half_cg;
            List.iter (fun (c, agg) -> N.capacitor nl node agg c) halves
          in
          let seg_l = cfg.l_per_m *. w.T.length /. fn in
          let cursor = ref up in
          for _ = 1 to n do
            let next = N.fresh nl in
            attach !cursor;
            if seg_l > 0.0 then begin
              let mid = N.fresh nl in
              N.resistor nl !cursor mid seg_r;
              N.inductor nl mid next seg_l
            end
            else N.resistor nl !cursor next seg_r;
            attach next;
            cursor := next
          done;
          !cursor
        end
      in
      Hashtbl.replace circuit_of v down;
      (* stage leaves add their pin capacitance *)
      match T.kind tree v with
      | T.Sink _ | T.Buffered _ -> N.capacitor nl down N.ground (pin_cap tree v)
      | T.Internal | T.Source _ -> ())
    members;
  let probes =
    List.filter_map
      (fun v -> if T.is_stage_leaf tree v then Some (v, Hashtbl.find circuit_of v) else None)
      members
  in
  let sources = Hashtbl.fold (fun slope node acc -> (node, slope) :: acc) aggressors [] in
  { netlist = nl; probes; sources; tau }

let window cfg deck = span cfg deck.tau

let peak_noise cfg deck =
  let dt, t_end = window cfg deck in
  let res =
    Circuit.Transient.simulate_peaks deck.netlist ~dt ~t_end ~probes:(List.map snd deck.probes)
  in
  List.mapi (fun i (v, _) -> (v, res.Circuit.Transient.peaks.(i))) deck.probes
