(* One run's reusable arrays, grown by doubling (flat.mli). *)

type stair = {
  mutable sk : float array;  (* keys, strictly ascending *)
  mutable sv : float array;  (* values, strictly descending *)
  mutable si : int array;  (* member ids *)
  mutable sn : int;  (* size *)
  pt : float array;  (* the point [stair_add] inserts: key, value *)
}

type t = {
  mutable xs : float array;  (* pairing coordinates, stride 5: c, q, i, ns, p *)
  mutable js : int array;  (* pairing origins, stride 2: walk, left lsl 32 lor right *)
  mutable rank : int array;  (* pairing tie ranks *)
  mutable perm : int array;  (* sort permutation of pairing ids *)
  mutable aux : int array;  (* merge-sort buffer, then the kept stack or marks *)
  st : stair;
  mutable walk_st : stair array;  (* two per walk: the left side's, the right side's *)
  mutable cur : int array;
      (* five per walk: left and right cursors, left and right pass counts, next side *)
  mutable next_q : float array;  (* per walk: its next member's slack *)
}

let stair () = { sk = [||]; sv = [||]; si = [||]; sn = 0; pt = [| 0.0; 0.0 |] }

(* origins and ranks pack two fields into one int *)
let create () =
  if Sys.int_size < 63 then invalid_arg "Flat.create: needs 63-bit ints";
  {
    xs = [||];
    js = [||];
    rank = [||];
    perm = [||];
    aux = [||];
    st = stair ();
    walk_st = [||];
    cur = [||];
    next_q = [||];
  }

(* room for [n] pairings, keeping the first [used] written *)
let reserve s ~used n =
  if Array.length s.perm < n then begin
    let m = max n (2 * Array.length s.perm) in
    let grow a stride z =
      let b = Array.make (stride * m) z in
      Array.blit a 0 b 0 (stride * used);
      b
    in
    s.xs <- grow s.xs 5 0.0;
    s.js <- grow s.js 2 0;
    s.rank <- grow s.rank 1 0;
    s.perm <- grow s.perm 1 0;
    s.aux <- Array.make m 0
  end

(* room for [nw] walks, their staircases empty and cursors at 0 *)
let reserve_walks s nw =
  if Array.length s.next_q < nw then begin
    let m = max nw (2 * Array.length s.next_q) in
    let old = s.walk_st in
    s.walk_st <- Array.init (2 * m) (fun k -> if k < Array.length old then old.(k) else stair ());
    s.cur <- Array.make (5 * m) 0;
    s.next_q <- Array.make m 0.0
  end;
  for k = 0 to (2 * nw) - 1 do
    s.walk_st.(k).sn <- 0
  done;
  Array.fill s.cur 0 (5 * nw) 0

(* the number of members with key <= the point's *)
let stair_pos st =
  let k = st.pt.(0) and keys = st.sk in
  let lo = ref 0 and hi = ref st.sn in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if keys.(mid) <= k then lo := mid + 1 else hi := mid
  done;
  !lo

(* [stair_add]'s refusal test alone *)
let stair_covers st =
  let h = stair_pos st in
  h > 0 && st.sv.(h - 1) <= st.pt.(1)

(* The 2D staircase every power-mode kernel keeps (DESIGN.md §16): the
   (key, value) points of its members, mutually non-dominated, so
   values strictly fall as keys rise, in sorted parallel arrays.
   [stair_add st k v id] refuses a point that a member with key <= k
   and value <= v dominates — the member just left of [k]'s position
   is the only one to ask — and otherwise evicts the members it
   dominates (key >= k, value >= v: a contiguous run from that
   position) and takes their place with one blit. Returns whether the
   point went in. The point comes in [st.pt], so that no float is boxed
   on the way in. *)
let stair_add st id =
  let k = st.pt.(0) and v = st.pt.(1) in
  let n = st.sn and keys = st.sk and vals = st.sv in
  let h = stair_pos st in
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
      st.sk <- grow keys 0.0;
      st.sv <- grow vals 0.0;
      st.si <- grow st.si 0
    end;
    if shift <> 0 then begin
      Array.blit st.sk !j st.sk (!j + shift) (n - !j);
      Array.blit st.sv !j st.sv (!j + shift) (n - !j);
      Array.blit st.si !j st.si (!j + shift) (n - !j)
    end;
    st.sk.(lo) <- k;
    st.sv.(lo) <- v;
    st.si.(lo) <- id;
    st.sn <- n + shift;
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

type order = Plain | Load | Slack | Energy

let[@inline] by_load s a b =
  match cmp_at s.xs a b with 0 -> Int.compare s.rank.(a) s.rank.(b) | n -> n

(* the order [o] on pairings [a] and [b]; every order but [Plain] ends
   on a key no two pairings share. On equal slack, [Load] is [Slack]'s
   tail. *)
let[@inline] cmp s o a b =
  let xs = s.xs in
  match o with
  | Plain -> cmp_at xs a b
  | Load -> by_load s a b
  | Slack -> (
      match Float.compare xs.((5 * b) + 1) xs.((5 * a) + 1) with 0 -> by_load s a b | n -> n)
  | Energy -> (
      match Float.compare xs.((5 * a) + 4) xs.((5 * b) + 4) with
      | 0 -> Int.compare a b
      | n -> n)

(* the stable merge, by [o], of the runs [perm.(lo .. mid-1)] and
   [perm.(mid .. hi-1)]: the smaller head goes first, the left one on
   ties *)
let merge s o lo mid hi =
  let perm = s.perm and aux = s.aux in
  Array.blit perm lo aux lo (mid - lo);
  let i = ref lo and j = ref mid and k = ref lo in
  while !i < mid && !j < hi do
    if cmp s o perm.(!j) aux.(!i) < 0 then begin
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

(* stable top-down merge sort of [perm.(lo .. hi-1)] by [o]; a half
   already in order relative to the other is left alone, which makes
   the nearly sorted rows of a pairing walk cheap *)
let rec sort_perm s o lo hi =
  if hi - lo >= 2 then begin
    let mid = (lo + hi) / 2 in
    sort_perm s o lo mid;
    sort_perm s o mid hi;
    if cmp s o s.perm.(mid - 1) s.perm.(mid) > 0 then merge s o lo mid hi
  end

(* balanced pairwise merging of runs [lo .. hi-1]; no shortcut, since a
   run need not be sorted and its last element says nothing about the
   rest *)
let rec merge_runs s starts lo hi =
  if hi - lo >= 2 then begin
    let mid = (lo + hi) / 2 in
    merge_runs s starts lo mid;
    merge_runs s starts mid hi;
    merge s Plain starts.(lo) starts.(mid) starts.(hi)
  end

(* pairing [x] onto [st] at (load, energy), if nothing there dominates it *)
let sweep_one s x =
  s.st.pt.(0) <- s.xs.(5 * x);
  s.st.pt.(1) <- s.xs.((5 * x) + 4);
  stair_add s.st x

(* The sweep of pairings [lo .. hi-1], all of one slack: in [Slack]
   order, each goes onto [st] or is dropped; the survivors move down to
   [lo ..], in id order, and their end is returned. *)
let sweep_block s lo hi =
  if hi - lo = 1 then if sweep_one s lo then hi else lo
  else begin
    let xs = s.xs in
    sort_perm s Slack lo hi;
    let keep = s.aux in
    for r = lo to hi - 1 do
      let x = s.perm.(r) in
      keep.(x - lo) <- (if sweep_one s x then 1 else 0)
    done;
    let nk = ref lo in
    for x = lo to hi - 1 do
      if keep.(x - lo) = 1 then begin
        if !nk < x then begin
          for k = 0 to 4 do
            xs.((5 * !nk) + k) <- xs.((5 * x) + k)
          done;
          s.js.(2 * !nk) <- s.js.(2 * x);
          s.js.((2 * !nk) + 1) <- s.js.((2 * x) + 1);
          s.rank.(!nk) <- s.rank.(x)
        end;
        incr nk
      end
    done;
    !nk
  end
