let buf name ~inverting ~c_in ~r_b ~d_b =
  Buffer.make ~name ~inverting ~c_in ~r_b ~d_b ~nm:0.8 ()

let default_library =
  [
    buf "bufx1" ~inverting:false ~c_in:3e-15 ~r_b:850.0 ~d_b:45e-12;
    buf "bufx2" ~inverting:false ~c_in:5e-15 ~r_b:440.0 ~d_b:42e-12;
    buf "bufx4" ~inverting:false ~c_in:9e-15 ~r_b:230.0 ~d_b:40e-12;
    buf "bufx8" ~inverting:false ~c_in:16e-15 ~r_b:120.0 ~d_b:38e-12;
    buf "bufx16" ~inverting:false ~c_in:28e-15 ~r_b:65.0 ~d_b:36e-12;
    buf "bufx32" ~inverting:false ~c_in:48e-15 ~r_b:36.0 ~d_b:35e-12;
    buf "invx1" ~inverting:true ~c_in:2.2e-15 ~r_b:780.0 ~d_b:24e-12;
    buf "invx2" ~inverting:true ~c_in:3.8e-15 ~r_b:400.0 ~d_b:22e-12;
    buf "invx4" ~inverting:true ~c_in:7e-15 ~r_b:210.0 ~d_b:21e-12;
    buf "invx8" ~inverting:true ~c_in:13e-15 ~r_b:110.0 ~d_b:20e-12;
    buf "invx16" ~inverting:true ~c_in:23e-15 ~r_b:58.0 ~d_b:19e-12;
  ]

let non_inverting lib = List.filter (fun (b : Buffer.t) -> not b.inverting) lib

let inverting lib = List.filter (fun (b : Buffer.t) -> b.inverting) lib

let min_resistance = function
  | [] -> invalid_arg "Lib.min_resistance: empty library"
  | b :: bs ->
      List.fold_left (fun (best : Buffer.t) (x : Buffer.t) -> if x.r_b < best.r_b then x else best) b bs

let find lib name = List.find_opt (fun (b : Buffer.t) -> b.name = name) lib

type prepared = {
  bufs : Buffer.t array;
  by_r : Buffer.t array;
  r_min : float;
  c_in : float array;
  r_b : float array;
  d_b : float array;
  nm : float array;
  inverting : bool array;
  energy : float array;
}

let prepare lib =
  if lib = [] then invalid_arg "Lib.prepare: empty library";
  let bufs = Array.of_list lib in
  let by_r = Array.copy bufs in
  Array.sort (fun (a : Buffer.t) (b : Buffer.t) -> Float.compare a.r_b b.r_b) by_r;
  {
    bufs;
    by_r;
    r_min = by_r.(0).r_b;
    c_in = Array.map (fun (b : Buffer.t) -> b.c_in) bufs;
    r_b = Array.map (fun (b : Buffer.t) -> b.r_b) bufs;
    d_b = Array.map (fun (b : Buffer.t) -> b.d_b) bufs;
    nm = Array.map (fun (b : Buffer.t) -> b.nm) bufs;
    inverting = Array.map (fun (b : Buffer.t) -> b.inverting) bufs;
    energy = Array.map (fun (b : Buffer.t) -> b.energy) bufs;
  }
