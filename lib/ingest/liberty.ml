exception Parse of string

type t = {
  path : string;
  name : string;
  cells : Sta.Cell.t list;
  buffers : Tech.Buffer.t list;
  warnings : int;
}

let located path line fmt =
  Printf.ksprintf (fun m -> raise (Parse (Printf.sprintf "%s:%d: %s" path line m))) fmt

(* ------------------------------------------------------------------ *)
(* Tokenizer                                                           *)

type token = Ident of string | Str of string | Punct of char

let is_punct c = c = '{' || c = '}' || c = '(' || c = ')' || c = ':' || c = ';' || c = ','

let is_space c = c = ' ' || c = '\t' || c = '\r' || c = '\n'

let tokenize ~path text =
  let fail line fmt = located path line fmt in
  let n = String.length text in
  let toks = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  while !i < n do
    let c = text.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if is_space c then incr i
    else if c = '/' && !i + 1 < n && text.[!i + 1] = '/' then begin
      while !i < n && text.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '/' && !i + 1 < n && text.[!i + 1] = '*' then begin
      let start = !line in
      i := !i + 2;
      let closed = ref false in
      while (not !closed) && !i < n do
        if text.[!i] = '\n' then incr line;
        if text.[!i] = '*' && !i + 1 < n && text.[!i + 1] = '/' then begin
          closed := true;
          i := !i + 2
        end
        else incr i
      done;
      if not !closed then fail start "unterminated comment"
    end
    else if c = '"' then begin
      let start = !line in
      let b = Buffer.create 16 in
      incr i;
      let closed = ref false in
      while (not !closed) && !i < n do
        let c = text.[!i] in
        if c = '"' then begin
          closed := true;
          incr i
        end
        else if c = '\n' then fail start "unterminated string"
        else begin
          Buffer.add_char b c;
          incr i
        end
      done;
      if not !closed then fail start "unterminated string";
      toks := (Str (Buffer.contents b), start) :: !toks
    end
    else if is_punct c then begin
      toks := (Punct c, !line) :: !toks;
      incr i
    end
    else begin
      let start = !i in
      while
        !i < n
        && not (is_space text.[!i] || is_punct text.[!i] || text.[!i] = '"' || text.[!i] = '/')
      do
        incr i
      done;
      if !i = start then fail !line "stray character %C" c
      else toks := (Ident (String.sub text start (!i - start)), !line) :: !toks
    end
  done;
  (Array.of_list (List.rev !toks), !line)

(* ------------------------------------------------------------------ *)
(* Generic group AST                                                   *)

type stmt =
  | Attr of string * string * int  (* name : value ; *)
  | Complex of string * string list * int  (* name ( args ) ; *)
  | Group of group

and group = { g_name : string; g_args : string list; g_line : int; g_stmts : stmt list }

let parse_ast ~path text =
  let toks, last_line = tokenize ~path text in
  let fail line fmt = located path line fmt in
  let n = Array.length toks in
  let pos = ref 0 in
  let peek () = if !pos < n then Some toks.(!pos) else None in
  let next what =
    match peek () with
    | Some t ->
        incr pos;
        t
    | None -> fail last_line "unexpected end of file (wanted %s)" what
  in
  let expect_punct c =
    match next (Printf.sprintf "%C" c) with
    | Punct p, _ when p = c -> ()
    | _, l -> fail l "expected %C" c
  in
  let value what =
    match next what with
    | Ident s, _ | Str s, _ -> s
    | Punct p, l -> fail l "expected %s, got %C" what p
  in
  (* ( v , v , ... ) — the opening paren is already consumed *)
  let rec args acc =
    match peek () with
    | Some (Punct ')', _) ->
        incr pos;
        List.rev acc
    | Some _ ->
        let v = value "argument" in
        (match peek () with Some (Punct ',', _) -> incr pos | _ -> ());
        args (v :: acc)
    | None -> fail last_line "unexpected end of file (wanted ')')"
  in
  let rec group_body name g_args g_line =
    (* '{' just consumed *)
    let stmts = ref [] in
    let closed = ref false in
    while not !closed do
      match peek () with
      | Some (Punct '}', _) ->
          incr pos;
          closed := true
      | Some (Punct ';', _) -> incr pos
      | Some (Ident id, l) -> begin
          incr pos;
          match peek () with
          | Some (Punct ':', _) ->
              incr pos;
              let v = value "attribute value" in
              (match peek () with Some (Punct ';', _) -> incr pos | _ -> ());
              stmts := Attr (id, v, l) :: !stmts
          | Some (Punct '(', _) -> begin
              incr pos;
              let a = args [] in
              match peek () with
              | Some (Punct '{', _) ->
                  incr pos;
                  stmts := Group (group_body id a l) :: !stmts
              | Some (Punct ';', _) ->
                  incr pos;
                  stmts := Complex (id, a, l) :: !stmts
              | _ -> stmts := Complex (id, a, l) :: !stmts
            end
          | Some (_, l') -> fail l' "expected ':' or '(' after %s" id
          | None -> fail last_line "unexpected end of file in group %s" name
        end
      | Some (Str _, l) -> fail l "unexpected string literal in group %s" name
      | Some (Punct p, l) -> fail l "unexpected %C in group %s" p name
      | None -> fail last_line "unterminated group %s (missing '}')" name
    done;
    { g_name = name; g_args; g_line; g_stmts = List.rev !stmts }
  in
  let top =
    match next "library group" with
    | Ident "library", l -> begin
        expect_punct '(';
        let a = args [] in
        expect_punct '{';
        group_body "library" a l
      end
    | Ident other, l -> fail l "expected library, got %s" other
    | (Str _ | Punct _), l -> fail l "expected library"
  in
  (match peek () with
  | Some (Punct ';', _) -> incr pos
  | _ -> ());
  (match peek () with
  | Some (_, l) -> fail l "trailing input after library group"
  | None -> ());
  top

(* ------------------------------------------------------------------ *)
(* Unit scaling                                                        *)

(* SI value = file value scaled; [Exact e] shifts the decimal exponent
   (lossless), [Mul m] multiplies (used only for multipliers <> 1). *)
type scale = Exact of int | Mul of float

let exp10_of_time = function
  | "s" -> Some 0
  | "ms" -> Some (-3)
  | "us" -> Some (-6)
  | "ns" -> Some (-9)
  | "ps" -> Some (-12)
  | _ -> None

let exp10_of_cap = function
  | "f" -> Some 0
  | "mf" -> Some (-3)
  | "uf" -> Some (-6)
  | "nf" -> Some (-9)
  | "pf" -> Some (-12)
  | "ff" -> Some (-15)
  | _ -> None

let scale_of ~mult ~exp10 =
  match float_of_string_opt mult with
  | Some 1.0 -> Some (Exact exp10)
  | Some m when Float.is_finite m && m > 0.0 -> Some (Mul (m *. (10.0 ** float_of_int exp10)))
  | Some _ | None -> None

(* time_unit strings look like "1ns" / "10ps": multiplier digits, unit *)
let time_scale s =
  let n = String.length s in
  let i = ref 0 in
  while !i < n && (s.[!i] = '.' || (s.[!i] >= '0' && s.[!i] <= '9')) do
    incr i
  done;
  let mult = if !i = 0 then "1" else String.sub s 0 !i in
  match exp10_of_time (String.sub s !i (n - !i)) with
  | Some e -> scale_of ~mult ~exp10:e
  | None -> None

let apply ~path scale line s =
  let bad () = located path line "bad number %s" s in
  match scale with
  | Exact e -> ( match Util.Fx.of_scaled ~exp10:e s with Some v -> v | None -> bad ())
  | Mul m -> (
      match float_of_string_opt s with
      | Some v when Float.is_finite v -> v *. m
      | Some _ | None -> bad ())

let div_scale a b =
  match (a, b) with
  | Exact x, Exact y -> Exact (x - y)
  | _ ->
      let f = function Exact e -> 10.0 ** float_of_int e | Mul m -> m in
      Mul (f a /. f b)

(* ------------------------------------------------------------------ *)
(* Interpretation                                                      *)

(* a buffer's output function, normalized: drop spaces/parens/quotes *)
let normalize_fn s =
  String.to_seq s
  |> Seq.filter (fun c -> not (is_space c || c = '(' || c = ')' || c = '"'))
  |> String.of_seq

type pin = {
  p_name : string;
  p_dir : string option;
  p_cap : string option;  (* raw text; scaled lazily for exactness *)
  p_nm : string option;
  p_fn : string option;
  p_timing : (string * string * int) list;  (* timing attrs, first group *)
  p_line : int;
}

let of_string ?(path = "<string>") text =
  let lib = parse_ast ~path text in
  let fail line fmt = located path line fmt in
  let warnings = ref 0 in
  let warn () = incr warnings in
  let lib_name = match lib.g_args with name :: _ -> name | [] -> "" in
  (* pass 1: units (position-independent, first occurrence wins) *)
  let t_scale = ref None and c_scale = ref None in
  List.iter
    (fun s ->
      match s with
      | Attr ("time_unit", v, l) ->
          if !t_scale = None then
            t_scale :=
              Some (match time_scale v with Some sc -> sc | None -> fail l "bad time_unit %s" v)
      | Complex ("capacitive_load_unit", [ m; u ], l) ->
          if !c_scale = None then
            c_scale :=
              Some
                (match
                   Option.bind (exp10_of_cap (String.lowercase_ascii u)) (fun e ->
                       scale_of ~mult:m ~exp10:e)
                 with
                | Some sc -> sc
                | None -> fail l "bad capacitive_load_unit (%s, %s)" m u)
      | Complex ("capacitive_load_unit", _, l) -> fail l "capacitive_load_unit wants (mult, unit)"
      | _ -> ())
    lib.g_stmts;
  let t_scale = Option.value !t_scale ~default:(Exact (-9)) in
  let c_scale = Option.value !c_scale ~default:(Exact (-12)) in
  let r_scale = div_scale t_scale c_scale in
  (* pass 2: cells *)
  let seen = Hashtbl.create 32 in
  let cells = ref [] and buffers = ref [] in
  let interp_pin g =
    let p_name = match g.g_args with a :: _ -> a | [] -> fail g.g_line "pin wants a name" in
    let p = ref { p_name; p_dir = None; p_cap = None; p_nm = None; p_fn = None; p_timing = []; p_line = g.g_line } in
    List.iter
      (fun s ->
        match s with
        | Attr ("direction", v, _) -> p := { !p with p_dir = Some v }
        | Attr ("capacitance", v, _) -> p := { !p with p_cap = Some v }
        | Attr ("noise_margin", v, _) -> p := { !p with p_nm = Some v }
        | Attr ("function", v, _) -> p := { !p with p_fn = Some v }
        | Group ({ g_name = "timing"; _ } as tg) ->
            if !p.p_timing = [] then
              p :=
                {
                  !p with
                  p_timing =
                    List.filter_map
                      (function Attr (k, v, l) -> Some (k, v, l) | Complex _ | Group _ -> None)
                      tg.g_stmts;
                }
            else warn ()
        | Attr _ | Complex _ -> warn ()
        | Group _ -> warn ())
      g.g_stmts;
    !p
  in
  let interp_cell g =
    let cname = match g.g_args with a :: _ -> a | [] -> fail g.g_line "cell wants a name" in
    if Hashtbl.mem seen cname then fail g.g_line "duplicate cell %s" cname;
    Hashtbl.replace seen cname ();
    let pins =
      List.filter_map
        (fun s ->
          match s with
          | Group ({ g_name = "pin"; _ } as pg) -> Some (interp_pin pg)
          | Attr ("cell_leakage_power", _, _) -> None (* interpreted below *)
          | Attr _ | Complex _ ->
              warn ();
              None
          | Group _ ->
              warn ();
              None)
        g.g_stmts
    in
    let dir p d =
      match p.p_dir with
      | Some x -> String.lowercase_ascii x = d
      | None ->
          (* no direction: guess from shape, and flag it *)
          warn ();
          if d = "output" then p.p_fn <> None || p.p_timing <> [] else p.p_fn = None && p.p_timing = []
    in
    (* per-cell switching-energy annotation (DESIGN.md §16): the subset
       reads the simple cell-level [cell_leakage_power] attribute in fJ
       (the same decimal scale as capacitance), the writer's canonical
       form. Absent on a buffer cell it is a warning, not fatal — the
       buffer falls back to its drive-class default energy. *)
    let energy_attr =
      List.find_map
        (function Attr ("cell_leakage_power", v, l) -> Some (v, l) | _ -> None)
        g.g_stmts
    in
    let ins = List.filter (fun p -> dir p "input") pins in
    let outs = List.filter (fun p -> dir p "output") pins in
    match (ins, outs) with
    | [], _ | _, [] -> warn () (* not a combinational cell we can model: skip *)
    | first_in :: _, out :: rest_out ->
        if rest_out <> [] then warn ();
        let num scale = function
          | Some (v, l) -> apply ~path scale l v
          | None ->
              warn ();
              0.0
        in
        let cap_of p = Option.map (fun v -> (v, p.p_line)) p.p_cap in
        let c_in = num c_scale (cap_of first_in) in
        let nm =
          match first_in.p_nm with
          | Some v -> apply ~path (Exact 0) first_in.p_line v
          | None -> 0.8
        in
        let tattr k =
          List.find_map (fun (k', v, l) -> if k' = k then Some (v, l) else None) out.p_timing
        in
        if out.p_timing = [] then warn ();
        let rise_d = num t_scale (tattr "intrinsic_rise")
        and fall_d = num t_scale (tattr "intrinsic_fall") in
        let rise_r = num r_scale (tattr "rise_resistance")
        and fall_r = num r_scale (tattr "fall_resistance") in
        let d_intr = (rise_d +. fall_d) /. 2.0 in
        let r_out = (rise_r +. fall_r) /. 2.0 in
        let n_inputs = List.length ins in
        (* a non-physical gate — negative input load, no drive (a
           missing timing group defaults to 0 ohm), no noise margin —
           is skipped, as an unusable buffer is below *)
        let physical = c_in >= 0.0 && r_out > 0.0 && nm > 0.0 in
        if physical then
          cells := Sta.Cell.{ cname; n_inputs; c_in; r_out; d_intr; nm } :: !cells
        else warn ();
        if physical && n_inputs = 1 then
          Option.iter
            (fun fn ->
              let fn = normalize_fn fn and a = first_in.p_name in
              let mk inverting =
                let energy =
                  match energy_attr with
                  | Some (v, l) -> Some (apply ~path (Exact (-15)) l v)
                  | None ->
                      (* unannotated buffer cell: drive-class default *)
                      warn ();
                      None
                in
                (* {!Tech.Buffer.make} also asserts a non-negative
                   delay and energy; a miscaled file can break either,
                   which makes the cell unusable as a buffer — not a
                   crash *)
                if d_intr >= 0.0 && match energy with Some e -> e >= 0.0 | None -> true then
                  buffers :=
                    Tech.Buffer.make ~name:cname ~inverting ~c_in ~r_b:r_out ~d_b:d_intr
                      ~nm ?energy ()
                    :: !buffers
                else warn ()
              in
              if fn = a then mk false
              else if fn = "!" ^ a || fn = a ^ "'" then mk true
              else warn ())
            out.p_fn
  in
  List.iter
    (fun s ->
      match s with
      | Group ({ g_name = "cell"; _ } as cg) -> interp_cell cg
      | Group _ -> warn ()
      | Attr ("time_unit", _, _) | Complex ("capacitive_load_unit", _, _) -> ()
      | Attr _ | Complex _ -> warn ())
    lib.g_stmts;
  {
    path;
    name = lib_name;
    cells = List.rev !cells;
    buffers = List.rev !buffers;
    warnings = !warnings;
  }

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string ~path (really_input_string ic (in_channel_length ic)))

(* ------------------------------------------------------------------ *)
(* Writer (canonical ps/fF form; see .mli for the round-trip contract)  *)

let bpf = Printf.bprintf

let emit_pins b ~inputs ~c_in ~nm ~fn ~r_out ~d_intr =
  let cap = Util.Fx.to_scaled ~exp10:(-15) c_in in
  List.iter
    (fun a ->
      bpf b "    pin (%s) {\n" a;
      bpf b "      direction : input;\n";
      bpf b "      capacitance : %s;\n" cap;
      bpf b "      noise_margin : %s;\n" (Util.Fx.repr nm);
      bpf b "    }\n")
    inputs;
  bpf b "    pin (y) {\n";
  bpf b "      direction : output;\n";
  Option.iter (fun f -> bpf b "      function : \"%s\";\n" f) fn;
  bpf b "      timing () {\n";
  bpf b "        related_pin : \"%s\";\n" (List.hd inputs);
  let d = Util.Fx.to_scaled ~exp10:(-12) d_intr in
  let r = Util.Fx.to_scaled ~exp10:3 r_out in
  bpf b "        intrinsic_rise : %s;\n" d;
  bpf b "        intrinsic_fall : %s;\n" d;
  bpf b "        rise_resistance : %s;\n" r;
  bpf b "        fall_resistance : %s;\n" r;
  bpf b "      }\n";
  bpf b "    }\n"

let to_string ?(name = "buffopt") ?(buffers = []) cells =
  let b = Buffer.create 4096 in
  bpf b "library (%s) {\n" name;
  bpf b "  time_unit : \"1ps\";\n";
  bpf b "  capacitive_load_unit (1, ff);\n";
  List.iter
    (fun (c : Sta.Cell.t) ->
      bpf b "  cell (%s) {\n" c.cname;
      let inputs =
        if c.n_inputs = 1 then [ "a" ] else List.init c.n_inputs (fun i -> Printf.sprintf "a%d" i)
      in
      emit_pins b ~inputs ~c_in:c.c_in ~nm:c.nm ~fn:None ~r_out:c.r_out ~d_intr:c.d_intr;
      bpf b "  }\n")
    cells;
  List.iter
    (fun (bf : Tech.Buffer.t) ->
      bpf b "  cell (%s) {\n" bf.name;
      bpf b "    cell_leakage_power : %s;\n" (Util.Fx.to_scaled ~exp10:(-15) bf.energy);
      let fn = if bf.inverting then "!a" else "a" in
      emit_pins b ~inputs:[ "a" ] ~c_in:bf.c_in ~nm:bf.nm ~fn:(Some fn) ~r_out:bf.r_b
        ~d_intr:bf.d_b;
      bpf b "  }\n")
    buffers;
  bpf b "}\n";
  Buffer.contents b
