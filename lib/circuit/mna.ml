type edge = { i : int; j : int; v : float }

type rhs = { row : int; coeff : float; src : int }

type t = {
  nf : int;
  nl : int;
  index : int array;
  g_diag : float array;
  c_diag : float array;
  g_off : edge list;
  c_off : edge list;
  g_drv : rhs array;
  c_drv : rhs array;
  sources : int array;
  waves : Waveform.t array;
}

(* One entry per (row, source), in row then source order, from the
   couplings [(row, coeff, node id)], newest first. A pair's couplings add
   up newest first, as the RHS always summed them; the sum starts from
   -0.0, which adds to any first term exactly. *)
let resolve couplings ~src_of ~dim =
  (* each row's couplings, newest first *)
  let rows = Array.make dim [] in
  List.iter (fun ((row, _, _) as e) -> rows.(row) <- e :: rows.(row)) (List.rev couplings);
  let out = ref [] in
  for row = dim - 1 downto 0 do
    if rows.(row) <> [] then
      List.iter
        (fun src ->
          let coeff = ref (-0.0) in
          List.iter
            (fun (_, c, node) -> if src_of.(node) = src then coeff := !coeff +. c)
            rows.(row);
          out := { row; coeff = !coeff; src } :: !out)
        (List.sort_uniq (fun a b -> Int.compare b a)
           (List.map (fun (_, _, node) -> src_of.(node)) rows.(row)))
  done;
  Array.of_list !out

let build nl =
  let n = Netlist.node_count nl in
  let index = Array.make n (-1) in
  let nf = ref 0 in
  for id = 0 to n - 1 do
    if not (Netlist.is_driven nl (Netlist.of_id id)) then begin
      index.(id) <- !nf;
      incr nf
    end
  done;
  let nf = !nf in
  let elements = Netlist.elements nl in
  let g_diag = Array.make nf 0.0 and c_diag = Array.make nf 0.0 in
  let g_off = ref [] and c_off = ref [] and henries = ref [] and n_ind = ref 0 in
  (* driven couplings as (row, coeff, node id); node ids become source
     indices once every source is known *)
  let g_drv = ref [] and c_drv = ref [] in
  (* a node's free index, -1 when driven, -2 for ground: an int test, not [=] on nodes *)
  let place n = if Netlist.node_id n < 0 then -2 else index.(Netlist.node_id n) in
  let stamp diag off drv a b v =
    (* Stamp a two-terminal admittance between nodes [a] and [b]. Ground
       contributes nothing off-diagonal; driven nodes go to the RHS lists. *)
    let i = place a and j = place b in
    if i >= 0 then diag.(i) <- diag.(i) +. v;
    if j >= 0 then diag.(j) <- diag.(j) +. v;
    if i >= 0 && j >= 0 then off := { i; j; v = -.v } :: !off
    else if i >= 0 && j = -1 then drv := (i, -.v, Netlist.node_id b) :: !drv
    else if j >= 0 && i = -1 then drv := (j, -.v, Netlist.node_id a) :: !drv
  in
  List.iter
    (fun e ->
      match e with
      | Netlist.R (a, b, ohms) -> stamp g_diag g_off g_drv a b (1.0 /. ohms)
      | Netlist.C (a, b, farads) -> stamp c_diag c_off c_drv a b farads
      | Netlist.L (a, b, henry) ->
          (* branch current i flows a -> b: KCL rows get +/- i; the branch
             row enforces v_a - v_b - L di/dt = 0 *)
          let k = nf + !n_ind in
          incr n_ind;
          let endpoint node sign =
            match place node with
            | -2 -> ()
            | -1 ->
                (* known voltage moves to the RHS of the branch row *)
                g_drv := (k, sign, Netlist.node_id node) :: !g_drv
            | i -> g_off := { i; j = k; v = sign } :: !g_off
          in
          endpoint a 1.0;
          endpoint b (-1.0);
          henries := -.henry :: !henries)
    elements;
  (* the branch rows: no conductance on the diagonal, -L in C *)
  let g_diag = Array.append g_diag (Array.make !n_ind 0.0) in
  let c_diag = Array.append c_diag (Array.of_list (List.rev !henries)) in
  (* number the driven nodes the RHS refers to, in ascending id order *)
  let src_of = Array.make n (-1) in
  List.iter (fun (_, _, d) -> src_of.(d) <- 0) !g_drv;
  List.iter (fun (_, _, d) -> src_of.(d) <- 0) !c_drv;
  let sources = ref [] in
  for d = n - 1 downto 0 do
    if src_of.(d) = 0 then sources := d :: !sources
  done;
  let sources = Array.of_list !sources in
  Array.iteri (fun s d -> src_of.(d) <- s) sources;
  let dim = nf + !n_ind in
  let waves =
    Array.map
      (fun d ->
        match Netlist.driven_waveform nl (Netlist.of_id d) with
        | Some w -> w
        | None -> assert false)
      sources
  in
  {
    nf;
    nl = !n_ind;
    index;
    g_diag;
    c_diag;
    g_off = List.rev !g_off;
    c_off = List.rev !c_off;
    g_drv = resolve !g_drv ~src_of ~dim;
    c_drv = resolve !c_drv ~src_of ~dim;
    sources;
    waves;
  }

let dim t = Array.length t.g_diag

let dense diag off =
  let m = Linalg.Mat.create (Array.length diag) in
  Array.iteri (fun i v -> Linalg.Mat.add m i i v) diag;
  List.iter
    (fun { i; j; v } ->
      Linalg.Mat.add m i j v;
      Linalg.Mat.add m j i v)
    off;
  m

let g t = dense t.g_diag t.g_off

let c t = dense t.c_diag t.c_off

let free_index t n =
  let id = Netlist.node_id n in
  if id < 0 then -1 else t.index.(id)
