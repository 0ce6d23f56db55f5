exception Parse of string

type names = { n_inputs : string list; n_output : string; cover : string list; n_line : int }

type latch = {
  l_input : string;
  l_output : string;
  l_kind : string option;
  l_control : string option;
  l_init : string option;
  l_line : int;
}

type subckt = { s_model : string; s_bindings : (string * string) list; s_line : int }

type t = {
  path : string;
  model : string;
  inputs : string list;
  outputs : string list;
  names : names list;
  latches : latch list;
  subckts : subckt list;
}

let latch_kinds = [ "fe"; "re"; "ah"; "al"; "as" ]

(* Comment-stripped, continuation-joined lines, each tagged with the
   physical line the construct starts on. All passes are linear in the
   input size — a 10 MB single-line file must reject fast, not crawl. *)
let logical_lines text =
  let strip s =
    let s = match String.index_opt s '#' with Some i -> String.sub s 0 i | None -> s in
    let n = String.length s in
    if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s
  in
  let out = ref [] and pending = ref None in
  let flush () =
    match !pending with
    | Some (ln, buf) ->
        out := (ln, Buffer.contents buf) :: !out;
        pending := None
    | None -> ()
  in
  List.iteri
    (fun i raw ->
      let s = strip raw in
      let n = String.length s in
      let continued = n > 0 && s.[n - 1] = '\\' in
      let body = if continued then String.sub s 0 (n - 1) else s in
      (match !pending with
      | Some (_, buf) ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf body
      | None -> pending := Some (i + 1, Buffer.create (String.length body + 16) |> fun b -> Buffer.add_string b body; b));
      if not continued then flush ())
    (String.split_on_char '\n' text);
  flush ();
  List.rev !out

let tokens s =
  String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) s)
  |> List.filter (fun w -> w <> "")

let of_string ?(path = "<string>") text =
  let fail line fmt =
    Printf.ksprintf (fun m -> raise (Parse (Printf.sprintf "%s:%d: %s" path line m))) fmt
  in
  let model = ref None in
  let inputs = ref [] and outputs = ref [] in
  let seen_in = Hashtbl.create 64 and seen_out = Hashtbl.create 64 in
  let names = ref [] and latches = ref [] and subckts = ref [] in
  (* the [.names] whose cover rows we are collecting, if any *)
  let cur = ref None in
  let ended = ref false in
  let last_line = ref 0 in
  let flush_cur () =
    match !cur with
    | Some (n, cover) ->
        names := { n with cover = List.rev cover } :: !names;
        cur := None
    | None -> ()
  in
  let require_model ln d = if !model = None then fail ln "%s before .model" d in
  let directive ln d args =
    flush_cur ();
    match d with
    | ".model" -> (
        match (!model, args) with
        | Some m, _ -> fail ln "duplicate .model (already inside model %s)" m
        | None, [ name ] -> model := Some name
        | None, _ -> fail ln "usage: .model <name>")
    | ".inputs" ->
        require_model ln d;
        List.iter
          (fun s ->
            if Hashtbl.mem seen_in s then fail ln "duplicate input %s" s;
            Hashtbl.replace seen_in s ())
          args;
        inputs := List.rev_append args !inputs
    | ".outputs" ->
        require_model ln d;
        List.iter
          (fun s ->
            if Hashtbl.mem seen_out s then fail ln "duplicate output %s" s;
            Hashtbl.replace seen_out s ())
          args;
        outputs := List.rev_append args !outputs
    | ".names" -> (
        require_model ln d;
        match List.rev args with
        | [] -> fail ln "usage: .names <input>* <output>"
        | n_output :: rev_ins ->
            let n_inputs = List.rev rev_ins in
            let seen = Hashtbl.create 8 in
            List.iter
              (fun s ->
                if Hashtbl.mem seen s then
                  fail ln "signal %s listed twice on .names %s" s n_output;
                Hashtbl.replace seen s ())
              n_inputs;
            cur := Some ({ n_inputs; n_output; cover = []; n_line = ln }, []))
    | ".latch" ->
        require_model ln d;
        let kind k =
          if List.mem k latch_kinds then k
          else fail ln "bad latch type %s (want fe/re/ah/al/as)" k
        in
        let init v =
          if List.mem v [ "0"; "1"; "2"; "3" ] then v
          else fail ln "bad latch init %s (want 0/1/2/3)" v
        in
        let l =
          match args with
          | [ i; o ] ->
              { l_input = i; l_output = o; l_kind = None; l_control = None; l_init = None; l_line = ln }
          | [ i; o; v ] ->
              { l_input = i; l_output = o; l_kind = None; l_control = None; l_init = Some (init v); l_line = ln }
          | [ i; o; k; c ] ->
              { l_input = i; l_output = o; l_kind = Some (kind k); l_control = Some c; l_init = None; l_line = ln }
          | [ i; o; k; c; v ] ->
              {
                l_input = i;
                l_output = o;
                l_kind = Some (kind k);
                l_control = Some c;
                l_init = Some (init v);
                l_line = ln;
              }
          | _ -> fail ln "usage: .latch <input> <output> [<type> <control>] [<init>]"
        in
        latches := l :: !latches
    | ".subckt" -> (
        require_model ln d;
        match args with
        | [] | [ _ ] -> fail ln "usage: .subckt <model> <formal>=<actual>..."
        | s_model :: binds ->
            let seen = Hashtbl.create 8 in
            let s_bindings =
              List.map
                (fun b ->
                  match String.index_opt b '=' with
                  | None -> fail ln "subckt binding %s is not <formal>=<actual>" b
                  | Some i ->
                      let f = String.sub b 0 i
                      and a = String.sub b (i + 1) (String.length b - i - 1) in
                      if f = "" || a = "" then
                        fail ln "subckt binding %s is not <formal>=<actual>" b;
                      if Hashtbl.mem seen f then
                        fail ln "formal %s bound twice on .subckt %s" f s_model;
                      Hashtbl.replace seen f ();
                      (f, a))
                binds
            in
            subckts := { s_model; s_bindings; s_line = ln } :: !subckts)
    | ".end" ->
        require_model ln d;
        ended := true
    | _ -> fail ln "unknown directive %s" d
  in
  let cover_row ln toks =
    match !cur with
    | None -> fail ln "cover row outside .names"
    | Some (n, cover) ->
        let k = List.length n.n_inputs in
        let plane, value =
          match toks with
          | [ v ] when k = 0 -> ("", v)
          | [ p; v ] when k > 0 -> (p, v)
          | _ -> fail ln "cover row wants %s" (if k = 0 then "<value>" else "<plane> <value>")
        in
        if String.length plane <> k then
          fail ln "cover plane %s has %d columns, .names %s has %d inputs" plane
            (String.length plane) n.n_output k;
        String.iter
          (fun c -> if c <> '0' && c <> '1' && c <> '-' then fail ln "bad cover column %c" c)
          plane;
        if value <> "0" && value <> "1" then fail ln "bad cover value %s" value;
        let row = if k = 0 then value else plane ^ " " ^ value in
        cur := Some (n, row :: cover)
  in
  List.iter
    (fun (ln, line) ->
      last_line := ln;
      match tokens line with
      | [] -> ()
      | d :: args when String.length d > 0 && d.[0] = '.' ->
          if !ended then fail ln "content after .end";
          directive ln d args
      | toks ->
          if !ended then fail ln "content after .end";
          cover_row ln toks)
    (logical_lines text);
  flush_cur ();
  match !model with
  | None -> fail (!last_line + 1) "missing .model"
  | Some model ->
      {
        path;
        model;
        inputs = List.rev !inputs;
        outputs = List.rev !outputs;
        names = List.rev !names;
        latches = List.rev !latches;
        subckts = List.rev !subckts;
      }

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string ~path (really_input_string ic (in_channel_length ic)))

let to_string t =
  let b = Buffer.create 1024 in
  Printf.bprintf b ".model %s\n" t.model;
  if t.inputs <> [] then Printf.bprintf b ".inputs %s\n" (String.concat " " t.inputs);
  if t.outputs <> [] then Printf.bprintf b ".outputs %s\n" (String.concat " " t.outputs);
  List.iter
    (fun n ->
      Printf.bprintf b ".names %s\n" (String.concat " " (n.n_inputs @ [ n.n_output ]));
      List.iter (fun row -> Printf.bprintf b "%s\n" row) n.cover)
    t.names;
  List.iter
    (fun l ->
      Printf.bprintf b ".latch %s %s%s%s\n" l.l_input l.l_output
        (match (l.l_kind, l.l_control) with
        | Some k, Some c -> Printf.sprintf " %s %s" k c
        | _ -> "")
        (match l.l_init with Some v -> " " ^ v | None -> ""))
    t.latches;
  List.iter
    (fun s ->
      Printf.bprintf b ".subckt %s %s\n" s.s_model
        (String.concat " " (List.map (fun (f, a) -> f ^ "=" ^ a) s.s_bindings)))
    t.subckts;
  Buffer.add_string b ".end\n";
  Buffer.contents b

let write path t =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string t))
