(* In-memory trace spans recorded around calls into the program's
   layers. A span has a name, a start, an end, a parent and the id of
   the op it belongs to; spans stay in memory until [chrome_json]
   writes them out. When [on] is false, [with_] is a bare call. *)

type t = { id : int; name : string; op : int; parent : int; t0 : float; t1 : float }

let on = ref false
let spans : t list ref = ref []
let next_id = ref 0
let open_ids : int list ref = ref []
let op = ref (-1)

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let record ~id ~name ~parent ~t0 ~t1 = spans := { id; name; op = !op; parent; t0; t1 } :: !spans

let parent () = match !open_ids with p :: _ -> p | [] -> -1

let with_ name f =
  if not !on then f ()
  else begin
    let id = fresh_id () in
    let parent = parent () in
    open_ids := id :: !open_ids;
    let t0 = Util.Clock.now () in
    let close () =
      open_ids := List.tl !open_ids;
      record ~id ~name ~parent ~t0 ~t1:(Util.Clock.now ())
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

(* A child of the innermost open span known only by its duration, as
   measured by the callee itself (the engine's per-job time, the
   daemon's [t=] field). It is placed at the end of the interval that
   has elapsed so far. *)
let inner name dur =
  if !on then begin
    let t1 = Util.Clock.now () in
    record ~id:(fresh_id ()) ~name ~parent:(parent ()) ~t0:(t1 -. Float.max 0.0 dur) ~t1
  end

(* Self time per span name, seconds: each span's duration minus the
   durations of its direct children. Children never overlap (the
   benchmark is single-threaded), so this is the uncovered time. *)
let self_times spans =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          ((try Hashtbl.find covered s.parent with Not_found -> 0.0) +. (s.t1 -. s.t0)))
    spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 -. (try Hashtbl.find covered s.id with Not_found -> 0.0) in
      Hashtbl.replace self s.name ((try Hashtbl.find self s.name with Not_found -> 0.0) +. d))
    spans;
  self

(* Chrome trace-event JSON: one complete ("X") event per span, times in
   microseconds from the first span, plus the run's per-layer metrics. *)
let chrome_json ~per_layer ~spans oc =
  let all = List.sort (fun a b -> compare a.id b.id) spans in
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity all in
  output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
         \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \"op\": %d}}\n"
        (if i = 0 then "" else ",")
        s.name
        (List.hd (String.split_on_char '.' s.name))
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent s.op)
    all;
  Printf.fprintf oc "], \"otherData\": {\"per_layer\": {%s}}}\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %.6f" k v) per_layer))
