(** Elaborate a parsed BLIF model into a placed {!Sta.Design.t}.

    Gates come from [.names] (mapped to the first library cell of
    matching arity) and [.subckt] (cell looked up by model name; the
    output formal is the binding named y/z/o/out/q, else the last
    binding). Latches cut the combinational graph: a latch output
    becomes a pseudo-PI and a latch input a pseudo-PO, so the DP stack
    sees the register-to-register paths the paper optimizes. Gate
    outputs that drive nothing get a synthesized PO (a net must sink
    somewhere); unused model inputs are dropped with a warning.

    BLIF carries no placement or electricals, so both are synthesized
    deterministically from [options]: instances, pads and pins land on
    distinct die coordinates drawn from a seeded {!Util.Rng}, with the
    same pad-parameter ranges {!Sta.Gen.random} uses. Equal inputs and
    options give byte-identical designs.

    Structural nonsense — unknown cells, arity mismatches, a signal
    driven twice or feeding one gate twice, undriven uses, constant
    [.names], combinational cycles — raises a located {!Error}. *)

exception Error of string
(** Carries ["file:line: message"]. *)

type options = {
  cells : Sta.Cell.t list;  (** gate library (default {!Sta.Cell.library}) *)
  die : int;  (** placement die side, nm *)
  seed : int;  (** placement / pad-parameter seed *)
  period : float;  (** required time at every PO, s *)
}

val default_options : options
(** {!Sta.Cell.library}, the {!Sta.Gen.default_config} die, seed and
    period. *)

val design_of_blif : ?options:options -> Blif.t -> Sta.Design.t * int
(** The elaborated design and the warning count (dropped unused
    inputs). The result always passes {!Sta.Design.validate}. *)

val blif_of_design : Sta.Design.t -> Blif.t
(** Render a design as a pure-[.subckt] netlist (model [design]) over
    its net names.
    Placement and electricals are dropped; elaborating the result with
    equal options is deterministic, which is the round-trip the
    property tests pin. *)

val load : ?options:options -> ?liberty:string -> string -> Sta.Design.t * Tech.Buffer.t list * int
(** Front-end dispatch on extension: [.blif] goes through {!Blif.read}
    and {!design_of_blif}, anything else through {!Sta.Netfmt.read}.
    [liberty] supplies the cell library and buffer library from a .lib
    file (overriding [options.cells]); without it the built-in
    {!Sta.Cell.library} / {!Tech.Lib.default_library} are used. Returns
    design, buffer library, and total front-end warning count. *)
