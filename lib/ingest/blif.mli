(** Berkeley Logic Interchange Format netlists (the real-design front end).

    The subset every synthesis flow emits: one combinational model per
    file with [.model] / [.inputs] / [.outputs] / [.names] (single-output
    cover) / [.latch] / [.subckt] / [.end]. Comments ([#] to end of
    line) and [\ ] line continuations are handled; [.inputs] and
    [.outputs] may be split over several directives. Unknown dot
    directives, cover lines whose plane does not match the gate's input
    count, content after [.end] and a second [.model] are all rejected
    with a located {!Parse}.

    Parsing builds a plain AST; {!Elab} turns it into a placed
    {!Sta.Design.t}. [to_string] renders the canonical layout, and
    [of_string (to_string m)] reproduces [m] up to source line numbers
    (the round-trip the parser fuzz oracle checks). *)

exception Parse of string
(** Carries ["file:line: message"]. *)

type names = {
  n_inputs : string list;
  n_output : string;
  cover : string list;  (** verbatim cover rows, e.g. ["11 1"]; ["1"] for 0-input *)
  n_line : int;  (** source line of the [.names] directive *)
}

type latch = {
  l_input : string;
  l_output : string;
  l_kind : string option;  (** [re]/[fe]/[ah]/[al]/[as], when given *)
  l_control : string option;
  l_init : string option;  (** 0, 1, 2 (don't care) or 3 (unknown) *)
  l_line : int;
}

type subckt = {
  s_model : string;  (** referenced cell name *)
  s_bindings : (string * string) list;  (** formal=actual, in file order *)
  s_line : int;
}

type t = {
  path : string;  (** origin, for error messages; not rendered *)
  model : string;
  inputs : string list;
  outputs : string list;
  names : names list;  (** in file order *)
  latches : latch list;
  subckts : subckt list;
}

val of_string : ?path:string -> string -> t
(** Parse one model from a string; [path] (default ["<string>"]) labels
    {!Parse} locations. A missing [.end] at end of file is tolerated,
    like every consumer of the format. *)

val read : string -> t
(** Parse a file; raises {!Parse} (and [Sys_error] when unreadable). *)

val to_string : t -> string
(** Canonical rendering: [.model], one [.inputs] line, one [.outputs]
    line, then [.names] / [.latch] / [.subckt] in file order, [.end]. *)

val write : string -> t -> unit
