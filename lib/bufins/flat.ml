(* One run's reusable arrays, grown by doubling (flat.mli). *)

type t = {
  mutable xs : float array;  (* pairing coordinates, stride 5: c, q, i, ns, p *)
  mutable js : int array;  (* pairing origins, stride 3: walk, left, right *)
  mutable perm : int array;  (* sort permutation of pairing ids *)
  mutable aux : int array;  (* merge-sort buffer, then the kept stack *)
  mutable sk : float array;  (* staircase keys, strictly ascending *)
  mutable sv : float array;  (* staircase values, strictly descending *)
  mutable si : int array;  (* staircase member ids *)
  mutable sn : int;  (* staircase size *)
}

let create () =
  { xs = [||]; js = [||]; perm = [||]; aux = [||]; sk = [||]; sv = [||]; si = [||]; sn = 0 }

(* room for [n] pairings, keeping the first [used] written *)
let reserve s ~used n =
  if Array.length s.perm < n then begin
    let m = max n (2 * Array.length s.perm) in
    let xs = Array.make (5 * m) 0.0 and js = Array.make (3 * m) 0 and perm = Array.make m 0 in
    Array.blit s.xs 0 xs 0 (5 * used);
    Array.blit s.js 0 js 0 (3 * used);
    Array.blit s.perm 0 perm 0 used;
    s.xs <- xs;
    s.js <- js;
    s.perm <- perm;
    s.aux <- Array.make m 0
  end

(* The 2D staircase every power-mode kernel keeps (DESIGN.md §16): the
   (key, value) points of its members, mutually non-dominated, so
   values strictly fall as keys rise, in sorted parallel arrays.
   [stair_add s k v id] refuses a point that a member with key <= k
   and value <= v dominates — the member just left of [k]'s position
   is the only one to ask — and otherwise evicts the members it
   dominates (key >= k, value >= v: a contiguous run from that
   position) and takes their place with one blit. Returns whether the
   point went in. *)
let stair_add s k v id =
  let n = s.sn and keys = s.sk and vals = s.sv in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if keys.(mid) <= k then lo := mid + 1 else hi := mid
  done;
  let h = !lo in
  if h > 0 && vals.(h - 1) <= v then false
  else begin
    (* an equal-key member has a higher value here: it is evicted too *)
    let lo = if h > 0 && keys.(h - 1) = k then h - 1 else h in
    let j = ref lo in
    while !j < n && vals.(!j) >= v do
      incr j
    done;
    let shift = 1 - (!j - lo) in
    if n + shift > Array.length keys then begin
      let m = max 16 (2 * Array.length keys) in
      let grow a z =
        let b = Array.make m z in
        Array.blit a 0 b 0 n;
        b
      in
      s.sk <- grow keys 0.0;
      s.sv <- grow vals 0.0;
      s.si <- grow s.si 0
    end;
    if shift <> 0 then begin
      Array.blit s.sk !j s.sk (!j + shift) (n - !j);
      Array.blit s.sv !j s.sv (!j + shift) (n - !j);
      Array.blit s.si !j s.si (!j + shift) (n - !j)
    end;
    s.sk.(lo) <- k;
    s.sv.(lo) <- v;
    s.si.(lo) <- id;
    s.sn <- n + shift;
    true
  end

(* [Candidate.cmp_frontier_power] on the coordinates of pairings [a] and [b] *)
let[@inline] cmp_at (xs : float array) a b =
  let a = 5 * a and b = 5 * b in
  match Float.compare xs.(a) xs.(b) with
  | 0 -> (
      match Float.compare xs.(b + 1) xs.(a + 1) with
      | 0 -> (
          match Float.compare xs.(a + 2) xs.(b + 2) with
          | 0 -> (
              match Float.compare xs.(b + 3) xs.(a + 3) with
              | 0 -> Float.compare xs.(a + 4) xs.(b + 4)
              | n -> n)
          | n -> n)
      | n -> n)
  | n -> n

(* the stable merge of the runs [perm.(lo .. mid-1)] and
   [perm.(mid .. hi-1)]: the smaller head goes first, the left one on
   ties *)
let merge s lo mid hi =
  let xs = s.xs and perm = s.perm and aux = s.aux in
  Array.blit perm lo aux lo (mid - lo);
  let i = ref lo and j = ref mid and k = ref lo in
  while !i < mid && !j < hi do
    if cmp_at xs perm.(!j) aux.(!i) < 0 then begin
      perm.(!k) <- perm.(!j);
      incr j
    end
    else begin
      perm.(!k) <- aux.(!i);
      incr i
    end;
    incr k
  done;
  Array.blit aux !i perm !k (mid - !i)

(* stable top-down merge sort of [perm.(lo .. hi-1)]; a half already in
   order relative to the other is left alone, which makes the nearly
   sorted rows of a pairing walk cheap *)
let rec sort_perm s lo hi =
  if hi - lo >= 2 then begin
    let mid = (lo + hi) / 2 in
    sort_perm s lo mid;
    sort_perm s mid hi;
    if cmp_at s.xs s.perm.(mid - 1) s.perm.(mid) > 0 then merge s lo mid hi
  end

(* balanced pairwise merging of runs [lo .. hi-1]; no shortcut, since a
   run need not be sorted and its last element says nothing about the
   rest *)
let rec merge_runs s starts lo hi =
  if hi - lo >= 2 then begin
    let mid = (lo + hi) / 2 in
    merge_runs s starts lo mid;
    merge_runs s starts mid hi;
    merge s starts.(lo) starts.(mid) starts.(hi)
  end
