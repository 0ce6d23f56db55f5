type t = { value : float -> float; deriv : float -> float; settle : float }

let value t x = t.value x

let deriv t x = t.deriv x

let settle t = t.settle

let dc v = { value = (fun _ -> v); deriv = (fun _ -> 0.0); settle = neg_infinity }

let ramp ~t0 ~t_rise ~v0 ~v1 =
  if not (t_rise > 0.0) then invalid_arg "Waveform.ramp: t_rise must be > 0";
  let slope = (v1 -. v0) /. t_rise in
  {
    value =
      (fun t ->
        if t <= t0 then v0 else if t >= t0 +. t_rise then v1 else v0 +. (slope *. (t -. t0)));
    deriv = (fun t -> if t <= t0 || t >= t0 +. t_rise then 0.0 else slope);
    settle = t0 +. t_rise;
  }

let pwl points =
  let rec increasing = function
    | (t1, _) :: ((t2, _) :: _ as rest) -> t1 < t2 && increasing rest
    | [ (t, _) ] -> not (Float.is_nan t)
    | [] -> false
  in
  if not (increasing points) then
    invalid_arg "Waveform.pwl: need points with strictly increasing times";
  let pts = Array.of_list points in
  let n = Array.length pts in
  let segment t =
    (* index of the segment containing t, or boundary sentinels *)
    if t <= fst pts.(0) then `Before
    else if t >= fst pts.(n - 1) then `After
    else begin
      let i = ref 0 in
      while fst pts.(!i + 1) < t do
        incr i
      done;
      `Inside !i
    end
  in
  {
    value =
      (fun t ->
        match segment t with
        | `Before -> snd pts.(0)
        | `After -> snd pts.(n - 1)
        | `Inside i ->
            let t1, v1 = pts.(i) and t2, v2 = pts.(i + 1) in
            v1 +. ((v2 -. v1) *. (t -. t1) /. (t2 -. t1)));
    deriv =
      (fun t ->
        match segment t with
        | `Before | `After -> 0.0
        | `Inside i ->
            let t1, v1 = pts.(i) and t2, v2 = pts.(i + 1) in
            (v2 -. v1) /. (t2 -. t1));
    settle = fst pts.(n - 1);
  }
