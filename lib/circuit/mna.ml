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
  let n_ind =
    List.length
      (List.filter (function Netlist.L _ -> true | Netlist.R _ | Netlist.C _ -> false) elements)
  in
  let dim = nf + n_ind in
  let g_diag = Array.make dim 0.0 and c_diag = Array.make dim 0.0 in
  let g_off = ref [] and c_off = ref [] in
  (* driven couplings as (row, coeff, node id); node ids become source
     indices once every source is known *)
  let g_drv = ref [] and c_drv = ref [] in
  (* a node's free index, -1 when driven, -2 for ground *)
  let place n = if n = Netlist.ground then -2 else index.(Netlist.node_id n) in
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
  let next_branch = ref nf in
  List.iter
    (fun e ->
      match e with
      | Netlist.R (a, b, ohms) -> stamp g_diag g_off g_drv a b (1.0 /. ohms)
      | Netlist.C (a, b, farads) -> stamp c_diag c_off c_drv a b farads
      | Netlist.L (a, b, henry) ->
          (* branch current i flows a -> b: KCL rows get +/- i; the branch
             row enforces v_a - v_b - L di/dt = 0 *)
          let k = !next_branch in
          incr next_branch;
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
          c_diag.(k) <- -.henry)
    elements;
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
  (* one entry per (row, source), in row order; a pair's couplings add up
     in list order, so each sum rounds as it would accumulate in a RHS *)
  let resolve lst =
    let by_key a b =
      let c = Int.compare a.row b.row in
      if c <> 0 then c else Int.compare a.src b.src
    in
    List.map (fun (row, coeff, d) -> { row; coeff; src = src_of.(d) }) lst
    |> List.stable_sort by_key
    |> List.fold_left
         (fun acc e ->
           match acc with
           | p :: rest when by_key p e = 0 -> { p with coeff = p.coeff +. e.coeff } :: rest
           | _ -> e :: acc)
         []
    |> List.rev |> Array.of_list
  in
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
    nl = n_ind;
    index;
    g_diag;
    c_diag;
    g_off = List.rev !g_off;
    c_off = List.rev !c_off;
    g_drv = resolve !g_drv;
    c_drv = resolve !c_drv;
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
