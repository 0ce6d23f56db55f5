type handle = int

type node =
  | Leaf
  | Buf of { node : int; dist : float; buffer : Tech.Buffer.t; pred : handle }
  | Join of { left : handle; right : handle }
  | Resize of { node : int; width : float; pred : handle }

type arena = { mutable tab : node array; mutable len : int }

let leaf = 0

let create ?(capacity = 256) () =
  { tab = Array.make (max capacity 1) Leaf; len = 1 }

let size a = a.len

let push a n =
  let h = a.len in
  if h = Array.length a.tab then begin
    let tab = Array.make (2 * h) Leaf in
    Array.blit a.tab 0 tab 0 h;
    a.tab <- tab
  end;
  a.tab.(h) <- n;
  a.len <- h + 1;
  h

let buf a ~node ~dist ~buffer ~pred = push a (Buf { node; dist; buffer; pred })

let join a ~left ~right = push a (Join { left; right })

let resize a ~node ~width ~pred = push a (Resize { node; width; pred })

let check a h = if h < 0 || h >= a.len then invalid_arg "Trace: dangling handle"


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
    match a.tab.(h) with
    | Buf { node; dist; buffer; pred } ->
        walk ({ Rctree.Surgery.node; dist; buffer } :: acc) pred
    | Resize { pred; _ } -> walk acc pred
    | Leaf -> List.rev acc
    | Join { left; right } ->
        List.rev_append acc (List.rev_append (walk [] left) (walk [] right))
  in
  check a h;
  walk [] h

let placements a h = List.rev (sol a h)

(* Same walk over the Resize constructors: [sizes h] mirrors the old
   [(node, width) :: sizes] / [rev_append] construction, and the DP
   reported that list unreversed. *)
let sizes a h =
  let rec walk acc h =
    match a.tab.(h) with
    | Resize { node; width; pred } -> walk ((node, width) :: acc) pred
    | Buf { pred; _ } -> walk acc pred
    | Leaf -> List.rev acc
    | Join { left; right } ->
        List.rev_append acc (List.rev_append (walk [] left) (walk [] right))
  in
  check a h;
  walk [] h

(* Total switching energy of the solution: the sum of every inserted
   buffer's energy annotation. Same shape as the other walks — Buf/Resize
   chains are consumed iteratively, recursion only at a Join. *)
let energy a h =
  let rec walk acc h =
    match a.tab.(h) with
    | Buf { buffer; pred; _ } -> walk (acc +. buffer.Tech.Buffer.energy) pred
    | Resize { pred; _ } -> walk acc pred
    | Leaf -> acc
    | Join { left; right } -> walk (walk acc left) right
  in
  check a h;
  walk 0.0 h
