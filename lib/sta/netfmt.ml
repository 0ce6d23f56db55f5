module P = Geometry.Point

exception Parse of string

let of_string ?(cells = Cell.library) ?(path = "<string>") text =
  let pis = ref [] and pos = ref [] and insts = ref [] and nets = ref [] in
  let pi_ids = Hashtbl.create 16
  and po_ids = Hashtbl.create 16
  and inst_ids = Hashtbl.create 16 in
  let lineno = ref 0 in
  let fail fmt =
    Printf.ksprintf (fun m -> raise (Parse (Printf.sprintf "%s:%d: %s" path !lineno m))) fmt
  in
  let num s = match float_of_string_opt s with Some x -> x | None -> fail "bad number %s" s in
  (* a coordinate past a metre cannot be on a die, and one past the int
     range would wrap: both are refused before the grid sees them *)
  let um_to_nm s =
    let x = num s in
    if not (Float.abs x <= 1e6) then fail "coordinate %s outside +-1e6 um" s;
    int_of_float (Float.round (x *. 1000.0))
  in
  (* human-unit fields (ps, fF) are decimal-shifted in string space so
     the writer's output reads back bit-identical (Util.Fx) *)
  let scaled exp10 s =
    match Util.Fx.of_scaled ~exp10 s with Some x -> x | None -> fail "bad number %s" s
  in
  let fresh tbl store name v =
    if Hashtbl.mem tbl name then fail "duplicate name %s" name;
    Hashtbl.replace tbl name (List.length !store);
    store := v :: !store
  in
  let source_of s =
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "pi" -> (
        let n = String.sub s (i + 1) (String.length s - i - 1) in
        match Hashtbl.find_opt pi_ids n with
        | Some id -> Design.From_pi id
        | None -> fail "unknown PI %s as net source (%d declared)" n (Hashtbl.length pi_ids))
    | Some _ | None -> (
        match Hashtbl.find_opt inst_ids s with
        | Some id -> Design.From_inst id
        | None ->
            fail "unknown instance %s as net source (%d declared)" s (Hashtbl.length inst_ids))
  in
  let sink_of s =
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "po" -> (
        let n = String.sub s (i + 1) (String.length s - i - 1) in
        match Hashtbl.find_opt po_ids n with
        | Some id -> Design.To_po id
        | None -> fail "unknown PO %s as net sink (%d declared)" n (Hashtbl.length po_ids))
    | Some i -> (
        let inst = String.sub s 0 i in
        let idx = String.sub s (i + 1) (String.length s - i - 1) in
        match (Hashtbl.find_opt inst_ids inst, int_of_string_opt idx) with
        | Some id, Some k -> Design.To_inst (id, k)
        | None, _ ->
            fail "unknown instance %s as net sink (%d declared)" inst (Hashtbl.length inst_ids)
        | _, None -> fail "bad input index %s" idx)
    | None -> fail "sink %s needs po:<name> or <inst>:<index>" s
  in
  List.iter
    (fun line ->
      incr lineno;
      let words = String.split_on_char ' ' (String.trim line) |> List.filter (fun w -> w <> "") in
      match words with
      | [] -> ()
      | w :: _ when w.[0] = '#' -> ()
      | [ "pi"; name; x; y; arrival; r_pad; d_pad ] ->
          fresh pi_ids pis name
            {
              Design.pname = name;
              pat = P.make (um_to_nm x) (um_to_nm y);
              arrival = scaled (-12) arrival;
              r_pad = num r_pad;
              d_pad = scaled (-12) d_pad;
            }
      | [ "po"; name; x; y; required; c_pad; nm ] ->
          fresh po_ids pos name
            {
              Design.oname = name;
              oat = P.make (um_to_nm x) (um_to_nm y);
              required = scaled (-12) required;
              c_pad = scaled (-15) c_pad;
              po_nm = num nm;
            }
      | [ "inst"; name; cell; x; y ] ->
          let cell =
            match List.find_opt (fun (c : Cell.t) -> c.Cell.cname = cell) cells with
            | Some c -> c
            | None -> fail "unknown cell %s (%d in library)" cell (List.length cells)
          in
          fresh inst_ids insts name
            { Design.iname = name; cell; at = P.make (um_to_nm x) (um_to_nm y) }
      | "net" :: name :: src :: sinks ->
          if sinks = [] then fail "net %s has no sinks" name;
          nets :=
            {
              Design.nname = name;
              source = source_of src;
              sinks = Array.of_list (List.map sink_of sinks);
            }
            :: !nets
      | w :: _ -> fail "unknown directive %s" w)
    (String.split_on_char '\n' text);
  let design =
    {
      Design.instances = Array.of_list (List.rev !insts);
      nets = Array.of_list (List.rev !nets);
      pis = Array.of_list (List.rev !pis);
      pos = Array.of_list (List.rev !pos);
    }
  in
  match Design.validate design with
  | Ok () -> design
  | Error e -> raise (Parse (path ^ ": invalid design: " ^ e))

let read ?cells path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string ?cells ~path (really_input_string ic (in_channel_length ic)))

let to_string (d : Design.t) =
  let buf = Buffer.create 1024 in
  let um p = (float_of_int p.P.x /. 1000.0, float_of_int p.P.y /. 1000.0) in
  let ps = Util.Fx.to_scaled ~exp10:(-12) and ff = Util.Fx.to_scaled ~exp10:(-15) in
  Array.iter
    (fun (p : Design.pi) ->
      let x, y = um p.Design.pat in
      Buffer.add_string buf
        (Printf.sprintf "pi %s %.3f %.3f %s %s %s\n" p.Design.pname x y (ps p.Design.arrival)
           (Util.Fx.repr p.Design.r_pad) (ps p.Design.d_pad)))
    d.Design.pis;
  Array.iter
    (fun (p : Design.po) ->
      let x, y = um p.Design.oat in
      Buffer.add_string buf
        (Printf.sprintf "po %s %.3f %.3f %s %s %s\n" p.Design.oname x y (ps p.Design.required)
           (ff p.Design.c_pad) (Util.Fx.repr p.Design.po_nm)))
    d.Design.pos;
  Array.iter
    (fun (i : Design.instance) ->
      let x, y = um i.Design.at in
      Buffer.add_string buf
        (Printf.sprintf "inst %s %s %.3f %.3f\n" i.Design.iname i.Design.cell.Cell.cname x y))
    d.Design.instances;
  Array.iter
    (fun (n : Design.net) ->
      let src =
        match n.Design.source with
        | Design.From_pi p -> "pi:" ^ d.Design.pis.(p).Design.pname
        | Design.From_inst i -> d.Design.instances.(i).Design.iname
      in
      let sink = function
        | Design.To_po p -> "po:" ^ d.Design.pos.(p).Design.oname
        | Design.To_inst (i, k) ->
            Printf.sprintf "%s:%d" d.Design.instances.(i).Design.iname k
      in
      Buffer.add_string buf
        (Printf.sprintf "net %s %s %s\n" n.Design.nname src
           (String.concat " " (Array.to_list (Array.map sink n.Design.sinks)))))
    d.Design.nets;
  Buffer.contents buf

let write path d =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string d))
