(** Plain-text design files.

    Line oriented; blank lines and [#] comments are ignored:

    {v
    pi   <name> <x_um> <y_um> <arrival_ps> <r_pad_ohm> <d_pad_ps>
    po   <name> <x_um> <y_um> <required_ps> <c_pad_fF> <nm_V>
    inst <name> <cell> <x_um> <y_um>
    net  <name> <source> <sink> <sink> ...
    v}

    where a [<source>] is [pi:<name>] or an instance name, and a [<sink>]
    is [po:<name>] or [<inst>:<input-index>]. Cells come from
    {!Cell.library}. Declarations may appear in any order; nets must
    follow the pins and instances they reference. Coordinates must be
    finite and within 1e6 um of the origin. *)

exception Parse of string
(** Carries ["file:line: message"]. *)

val of_string : ?cells:Cell.t list -> ?path:string -> string -> Design.t
(** Parse and validate a design from a string; raises {!Parse} on
    syntax errors and on designs rejected by {!Design.validate}.
    [cells] (default {!Cell.library}, e.g. a Liberty file's cells)
    resolves instance cell names; [path] (default ["<string>"]) labels
    {!Parse} locations. *)

val read : ?cells:Cell.t list -> string -> Design.t
(** [of_string] over a file's contents. *)

val write : string -> Design.t -> unit
(** Render a design back to a file; [read] of the result reproduces the
    design with bit-identical electricals — ps/fF fields go through
    {!Util.Fx.to_scaled}, so no [*. 1e-12] double rounding on either
    side (round-trip tested). *)

val to_string : Design.t -> string
