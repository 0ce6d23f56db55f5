type t = { slot : int array; order : int array; par : int array; off : float array }

(* Peel leaves of the conductance graph: [Some (order, parent_edge)] with
   every free node in elimination order and the edge to its parent (-1
   for a component's root, the last node of its component to go), or
   [None] on a cycle. A node's incident edge ids are kept XOR-summed, so
   once its degree is 1 the sum is its remaining edge. *)
let peel n (ei : int array) (ej : int array) =
  let degree = Array.make n 0 and incident = Array.make n 0 in
  Array.iteri
    (fun e i ->
      let j = ej.(e) in
      degree.(i) <- degree.(i) + 1;
      degree.(j) <- degree.(j) + 1;
      incident.(i) <- incident.(i) lxor e;
      incident.(j) <- incident.(j) lxor e)
    ei;
  let order = Array.make n 0 and parent_edge = Array.make n (-1) in
  let stack = Array.make n 0 and top = ref 0 and next = ref 0 in
  let push v =
    stack.(!top) <- v;
    incr top
  in
  for v = n - 1 downto 0 do
    if degree.(v) <= 1 then push v
  done;
  (* popping the newest leaf first keeps each chain contiguous in the order *)
  while !top > 0 do
    decr top;
    let v = stack.(!top) in
    order.(!next) <- v;
    incr next;
    if degree.(v) = 1 then begin
      let e = incident.(v) in
      let p = ei.(e) + ej.(e) - v in
      parent_edge.(v) <- e;
      degree.(v) <- 0;
      degree.(p) <- degree.(p) - 1;
      incident.(p) <- incident.(p) lxor e;
      if degree.(p) = 1 then push p
    end
  done;
  if !next = n then Some (order, parent_edge) else None

let plan (sys : Mna.t) =
  let n = sys.Mna.nf in
  let edges = Array.of_list sys.Mna.g_off in
  if sys.Mna.nl > 0 || Array.length edges >= max n 1 then None
  else begin
    let ei = Array.map (fun (e : Mna.edge) -> e.Mna.i) edges in
    let ej = Array.map (fun (e : Mna.edge) -> e.Mna.j) edges in
    match peel n ei ej with
    | None -> None
    | Some (order, parent_edge) ->
        (* renumber unknowns into elimination order: slot k's parent
           slot [par.(k)] is above k, so both sweeps run over slots *)
        let slot = Array.make n 0 in
        Array.iteri (fun k v -> slot.(v) <- k) order;
        let par = Array.make n (-1) and off = Array.make n 0.0 in
        Array.iteri
          (fun k v ->
            let e = parent_edge.(v) in
            if e >= 0 then begin
              par.(k) <- slot.(ei.(e) + ej.(e) - v);
              off.(k) <- edges.(e).Mna.v
            end)
          order;
        Some { slot; order; par; off }
  end

let gather t v = Array.map (fun i -> v.(i)) t.order

type factor = { dinv : float array; l : float array }

let factor t diag =
  let n = Array.length t.order in
  let d = Array.copy diag and l = Array.make n 0.0 in
  for k = 0 to n - 1 do
    if Float.abs d.(k) < 1e-300 then raise (Linalg.Mat.Singular k);
    let p = t.par.(k) in
    if p >= 0 then begin
      l.(k) <- t.off.(k) /. d.(k);
      d.(p) <- d.(p) -. (l.(k) *. t.off.(k))
    end
  done;
  { dinv = Array.map (fun d -> 1.0 /. d) d; l }

let forward t f b =
  let par = t.par and l = f.l in
  for k = 0 to Array.length par - 1 do
    let p = par.(k) in
    if p >= 0 then b.(p) <- b.(p) -. (l.(k) *. b.(k))
  done

let backward t f y x =
  let par = t.par and l = f.l and dinv = f.dinv in
  for k = Array.length par - 1 downto 0 do
    let p = par.(k) in
    x.(k) <- (if p >= 0 then (y.(k) *. dinv.(k)) -. (l.(k) *. x.(p)) else y.(k) *. dinv.(k))
  done
