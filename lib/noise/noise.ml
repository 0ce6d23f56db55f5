module T = Rctree.Tree

let cur_at t =
  let curs = Array.make (T.node_count t) 0.0 in
  List.iter
    (fun v ->
      curs.(v) <-
        (match T.kind t v with
        | T.Sink _ | T.Buffered _ -> 0.0
        | T.Internal | T.Source _ ->
            List.fold_left
              (fun acc c -> acc +. (T.wire_to t c).T.cur +. curs.(c))
              0.0 (T.children t v)))
    (T.postorder t);
  curs

let drive_current t curs g =
  List.fold_left (fun acc c -> acc +. (T.wire_to t c).T.cur +. curs.(c)) 0.0 (T.children t g)

let wire_noise (w : T.wire) ~downstream = w.T.res *. (downstream +. (w.T.cur /. 2.0))

let margin t v =
  match T.kind t v with
  | T.Sink s -> s.T.nm
  | T.Buffered b -> b.Tech.Buffer.nm
  | T.Source _ | T.Internal -> invalid_arg "Noise.margin: not a stage leaf"

let gate_resistance t g =
  match T.kind t g with
  | T.Source d -> d.T.r_drv
  | T.Buffered b -> b.Tech.Buffer.r_b
  | T.Sink _ | T.Internal -> invalid_arg "Noise.gate_resistance: not a gate"

(* Accumulated path noise from each node's stage root down to the node,
   including the stage driver's R_g * I(g) term at the stage root. *)
let accumulated t =
  let curs = cur_at t in
  let acc = Array.make (T.node_count t) 0.0 in
  List.iter
    (fun v ->
      if T.is_gate t v then acc.(v) <- gate_resistance t v *. drive_current t curs v
      else begin
        let u = T.parent t v in
        acc.(v) <- acc.(u) +. wire_noise (T.wire_to t v) ~downstream:curs.(v)
      end)
    (List.rev (T.postorder t));
  acc

let leaf_noise t =
  let curs = cur_at t in
  let acc = accumulated t in
  List.filter_map
    (fun v ->
      (* Noise at the input pin of stage leaf [v]: the upstream stage's
         accumulation at the parent plus the parent wire's contribution.
         (For a Buffered [v], acc.(v) itself restarts at [v]'s output.) *)
      let input_noise () =
        acc.(T.parent t v) +. wire_noise (T.wire_to t v) ~downstream:curs.(v)
      in
      match T.kind t v with
      | T.Sink s -> Some (v, input_noise (), s.T.nm)
      | T.Buffered b -> Some (v, input_noise (), b.Tech.Buffer.nm)
      | T.Source _ | T.Internal -> None)
    (T.postorder t)

type contribution = { element : [ `Driver of int | `Wire of int ]; amount : float }

let attribute t ~leaf =
  (match T.kind t leaf with
  | T.Sink _ | T.Buffered _ -> ()
  | T.Source _ | T.Internal -> invalid_arg "Noise.attribute: not a stage leaf");
  let curs = cur_at t in
  (* walk up to the stage's driving gate, collecting per-wire terms *)
  let rec up v acc =
    let u = T.parent t v in
    let acc = { element = `Wire v; amount = wire_noise (T.wire_to t v) ~downstream:curs.(v) } :: acc in
    if T.is_gate t u then
      { element = `Driver u; amount = gate_resistance t u *. drive_current t curs u } :: acc
    else up u acc
  in
  up leaf [] |> List.sort (fun a b -> compare b.amount a.amount)

let margin_eps = 1e-9

let exceeds ~noise ~margin = noise > margin +. margin_eps

let violations t =
  List.filter (fun (_, noise, margin) -> exceeds ~noise ~margin) (leaf_noise t)

let noise_slack t =
  let curs = cur_at t in
  let ns = Array.make (T.node_count t) infinity in
  List.iter
    (fun v ->
      match T.kind t v with
      | T.Sink s -> ns.(v) <- s.T.nm
      | T.Buffered b -> ns.(v) <- b.Tech.Buffer.nm
      | T.Internal | T.Source _ ->
          ns.(v) <-
            List.fold_left
              (fun acc c ->
                let w = T.wire_to t c in
                Float.min acc (ns.(c) -. wire_noise w ~downstream:curs.(c)))
              infinity (T.children t v))
    (T.postorder t);
  ns

let max_safe_length ~r_b ~i_down ~ns ~r_per_m ~i_per_m =
  assert (r_b >= 0.0 && i_down >= 0.0 && r_per_m >= 0.0 && i_per_m >= 0.0);
  let c = (r_b *. i_down) -. ns in
  if c > 0.0 then None
  else begin
    let a = r_per_m *. i_per_m /. 2.0 in
    let b = (r_per_m *. i_down) +. (r_b *. i_per_m) in
    if a = 0.0 then if b = 0.0 then Some infinity else Some (-.c /. b)
    else begin
      let disc = (b *. b) -. (4.0 *. a *. c) in
      assert (disc >= 0.0);
      Some ((-.b +. sqrt disc) /. (2.0 *. a))
    end
  end

let lambda_bound ~r_b ~i_down ~ns ~r_per_m ~c_per_m ~slope ~length =
  assert (length > 0.0 && c_per_m > 0.0 && slope > 0.0);
  let wire_res_term = (r_per_m *. length) +. r_b in
  let numer = ns -. (wire_res_term *. i_down) in
  let denom = slope *. c_per_m *. length *. ((r_per_m *. length /. 2.0) +. r_b) in
  if denom = 0.0 then infinity else numer /. denom
