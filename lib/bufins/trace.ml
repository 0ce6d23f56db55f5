type handle = int

(* Node [h] lives in chunk [h lsr bits], at [h land mask] of each of its
   three columns: the kind ([0] leaf, [1] buf, [2] join, [3] resize)
   plus [4 *] the buffer index plus [2^20 *] the tree node; the
   predecessor (or left handle); the right handle (or distance, or
   width). Each is an exact integer in a float (below 2^53). A chunk is
   a Bigarray: its 384 floats lie outside the OCaml heap, so an arena a
   domain keeps from run to run neither is scanned nor raises the heap
   size the major GC paces itself by. *)
let bits = 7
let chunk = 1 lsl bits
let mask = chunk - 1

module A = Bigarray.Array1

type col = (float, Bigarray.float64_elt, Bigarray.c_layout) A.t

let none : col = A.create Bigarray.float64 Bigarray.c_layout 0

(* the first column's packing: 2 bits of kind, 18 of buffer index, then
   the tree node *)
let node_shift = 20
let max_bufs = 1 lsl (node_shift - 2)

type arena = {
  mutable chunks : col array;
  mutable len : int;
  mutable bufs : Tech.Buffer.t array;
  mutable nbufs : int;
  spent : float array;  (* minor words the chunks' headers took *)
}

let leaf = 0

let create () = { chunks = [||]; len = 1; bufs = [||]; nbufs = 0; spent = [| 0.0 |] }

let header_words a = a.spent.(0)

(* the leaf, handle 0, is never written: [head] reads it as kind 0 *)
let reset a =
  a.len <- 1;
  a.nbufs <- 0

let size a = a.len

let intern a (b : Tech.Buffer.t) =
  let rec find k =
    if k = a.nbufs then -1 else if a.bufs.(k) == b then k else find (k + 1)
  in
  let rec same k = if k = a.nbufs then -1 else if a.bufs.(k) = b then k else same (k + 1) in
  match find 0 with
  | -1 -> (
      match same 0 with
      | -1 ->
          if a.nbufs = max_bufs then invalid_arg "Trace.intern: buffer table full";
          if a.nbufs = Array.length a.bufs then begin
            let t = Array.make (max 16 (2 * a.nbufs)) b in
            Array.blit a.bufs 0 t 0 a.nbufs;
            a.bufs <- t
          end;
          a.bufs.(a.nbufs) <- b;
          a.nbufs <- a.nbufs + 1;
          a.nbufs - 1
      | k -> k)
  | k -> k

(* a new node's handle, its chunk allocated; the table starts above 256
   entries, so it too lives in the major heap *)
let push a head x (z : float) =
  let h = a.len in
  let c = h lsr bits in
  if c = Array.length a.chunks then begin
    let t = Array.make (max 257 (2 * c)) none in
    Array.blit a.chunks 0 t 0 c;
    a.chunks <- t
  end;
  if A.dim a.chunks.(c) = 0 then begin
    let w0 = Gc.minor_words () in
    let col = A.create Bigarray.float64 Bigarray.c_layout (3 * chunk) in
    a.spent.(0) <- a.spent.(0) +. (Gc.minor_words () -. w0);
    A.fill col 0.0;
    a.chunks.(c) <- col
  end;
  let col = a.chunks.(c) and o = h land mask in
  A.unsafe_set col o (float_of_int head);
  A.unsafe_set col (chunk + o) (float_of_int x);
  A.unsafe_set col ((2 * chunk) + o) z;
  a.len <- h + 1;
  h

let check_node node =
  if node < 0 || node lsr (52 - node_shift) <> 0 then invalid_arg "Trace: node id out of range"

let buf_ix a ~node ~dist ~ix ~pred =
  if ix < 0 || ix >= a.nbufs then invalid_arg "Trace.buf_ix: unknown buffer";
  check_node node;
  push a (1 + (4 * ix) + (node lsl node_shift)) pred dist

let buf a ~node ~dist ~buffer ~pred = buf_ix a ~node ~dist ~ix:(intern a buffer) ~pred

let join a ~left ~right = push a 2 left (float_of_int right)

let resize a ~node ~width ~pred =
  check_node node;
  push a (3 + (node lsl node_shift)) pred width

let check a h = if h < 0 || h >= a.len then invalid_arg "Trace: dangling handle"

(* node [h]'s columns; the leaf may have no chunk yet *)
let[@inline] col a h f = A.get a.chunks.(h lsr bits) ((f * chunk) + (h land mask))
let[@inline] head a h = if h = 0 then 0 else int_of_float (col a h 0)
let[@inline] kind a h = head a h land 3
let[@inline] bix a h = (head a h lsr 2) land (max_bufs - 1)
let[@inline] node a h = head a h lsr node_shift

(* the predecessor or left handle, the right handle *)
let[@inline] x a h = int_of_float (col a h 1)
let[@inline] y a h = int_of_float (col a h 2)

(* A handle's implicit solution list [sol h] is defined by the
   constructors exactly as the old eager candidate lists were built:

     sol Leaf             = []
     sol (Buf (p, pred))  = p :: sol pred
     sol (Join (l, r))    = List.rev_append (sol l) (sol r)
     sol (Resize (_, p))  = sol p

   and the reported placement list is [List.rev (sol h)], so the arena
   walk reproduces the eager representation's output list for list.
   [walk acc h] returns [List.rev_append acc (sol h)]: Buf/Resize chains
   are consumed tail-recursively and recursion happens only at a Join,
   so the stack depth is the Join nesting depth — bounded by the branch
   depth of the routing tree, not by the solution size. *)
let sol a h =
  let rec walk acc h =
    match kind a h with
    | 1 ->
        let p = { Rctree.Surgery.node = node a h; dist = col a h 2; buffer = a.bufs.(bix a h) } in
        walk (p :: acc) (x a h)
    | 3 -> walk acc (x a h)
    | 0 -> List.rev acc
    | _ -> List.rev_append acc (List.rev_append (walk [] (x a h)) (walk [] (y a h)))
  in
  check a h;
  walk [] h

let placements a h = List.rev (sol a h)

(* Same walk over the Resize nodes: [sizes h] mirrors the old
   [(node, width) :: sizes] / [rev_append] construction, and the DP
   reported that list unreversed. *)
let sizes a h =
  let rec walk acc h =
    match kind a h with
    | 3 -> walk ((node a h, col a h 2) :: acc) (x a h)
    | 1 -> walk acc (x a h)
    | 0 -> List.rev acc
    | _ -> List.rev_append acc (List.rev_append (walk [] (x a h)) (walk [] (y a h)))
  in
  check a h;
  walk [] h

(* Total switching energy of the solution: the sum of every inserted
   buffer's energy annotation. Same shape as the other walks — Buf/Resize
   chains are consumed iteratively, recursion only at a Join. *)
let energy a h =
  let rec walk acc h =
    match kind a h with
    | 1 -> walk (acc +. a.bufs.(bix a h).Tech.Buffer.energy) (x a h)
    | 3 -> walk acc (x a h)
    | 0 -> acc
    | _ -> walk (walk acc (x a h)) (y a h)
  in
  check a h;
  walk 0.0 h
