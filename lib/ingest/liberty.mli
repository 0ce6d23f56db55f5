(** Liberty-subset cell library reader and writer.

    Covers the structural core every .lib file shares: a tokenizer
    ([/* */] and [//] comments, ["..."] strings, [{}():;,] punctuation)
    feeding a recursive group parser, interpreted for
    [library]/[cell]/[pin]/[timing] with [capacitance], [direction],
    [function], [noise_margin] and the linear-model timing attributes
    ([intrinsic_rise]/[intrinsic_fall], [rise_resistance]/
    [fall_resistance]). Units come from [time_unit] and
    [capacitive_load_unit]; when the multiplier is 1 the scaling is a
    decimal-exponent shift ({!Util.Fx.of_scaled}), so values written by
    {!to_string} read back bit-identical. Unknown groups and attributes
    are skipped and counted in [warnings] — real libraries carry far
    more than this subset. Structural damage (unterminated groups or
    strings, junk tokens, duplicate cells) raises a located {!Parse}. *)

exception Parse of string
(** Carries ["file:line: message"]. *)

type t = {
  path : string;
  name : string;  (** the [library (name)] argument *)
  cells : Sta.Cell.t list;  (** every usable cell, in file order *)
  buffers : Tech.Buffer.t list;
      (** the 1-input cells whose output [function] is the input or its
          negation, in file order — the repeater library the DP uses *)
  warnings : int;  (** skipped unknown constructs and salvaged cells *)
}

val of_string : ?path:string -> string -> t
(** Parse one library; [path] (default ["<string>"]) labels {!Parse}
    locations. Cells missing an input pin, an output pin, or timing, and
    cells with non-physical electricals (input capacitance below 0,
    drive resistance or noise margin not above 0), are skipped with a
    warning rather than rejected; duplicate cell names are a
    {!Parse}. *)

val read : string -> t

val to_string : ?name:string -> ?buffers:Tech.Buffer.t list -> Sta.Cell.t list -> string
(** Render a library in canonical form: ps/fF units with multiplier 1,
    the given cells first and then [buffers] (default []) as 1-input
    cells with a [function]. Reading the result back yields exactly the
    given buffers, and cells whose prefix is exactly the given cells
    (each buffer also reappearing as its cell form), with zero
    warnings. *)
