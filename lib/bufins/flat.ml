(* The DP's one candidate representation, the row store and the
   reusable staging arrays, grown by doubling (flat.mli). *)

type group = { mutable a : float array; mutable o : int; mutable n : int }
type table = group array

let empty = { a = [||]; o = 0; n = 0 }

let group () = { a = [||]; o = 0; n = 0 }

(* [g] set to view [n] rows of [a] from [o]; the array is stored only
   when it changes, which spares the write barrier *)
let[@inline] set g a o n =
  if g.a != a then g.a <- a;
  g.o <- o;
  g.n <- n

let view g src = if src.n = 0 then g.n <- 0 else set g src.a src.o src.n

let clear (tbl : table) =
  for t = 0 to Array.length tbl - 1 do
    tbl.(t).n <- 0
  done

let of_array a = if Array.length a = 0 then empty else { a; o = 0; n = Array.length a / 6 }

let[@inline] trace g k = int_of_float g.a.(g.o + (6 * k) + 5)

(* Every array below that grows does so to more than 256 words, so the
   growth is a major-heap allocation: [Gc.minor_words] counts none of
   it, and a run's minor words do not depend on what earlier runs left
   in a reused scratch. *)
let least = 257

type store = { mutable buf : float array; mutable len : int }

let store () = { buf = [||]; len = 0 }

(* room for [n] more rows above [len] *)
let room st n =
  let need = 6 * (st.len + n) in
  if need > Array.length st.buf then begin
    let b = Array.create_float (max need (max (6 * least) (2 * Array.length st.buf))) in
    Array.blit st.buf 0 b 0 (6 * st.len);
    st.buf <- b
  end

let copy_group st g d =
  let n = g.n in
  if n = 0 then d.n <- 0
  else begin
    room st n;
    let o = 6 * st.len in
    Array.blit g.a g.o st.buf o (6 * n);
    st.len <- st.len + n;
    set d st.buf o n
  end

(* Each group moves down to the next free row from [base], in slot
   order. The groups were written in that order above [base], so no
   move overwrites rows a later one still reads. *)
let slide st ~base (tbl : table) =
  let d = ref (6 * base) in
  for t = 0 to Array.length tbl - 1 do
    let g = tbl.(t) in
    if g.n > 0 then begin
      if g.a != st.buf || g.o <> !d then Array.blit g.a g.o st.buf !d (6 * g.n);
      set g st.buf !d g.n;
      d := !d + (6 * g.n)
    end
  done;
  st.len <- !d / 6

let copy_out (tbl : table) =
  let total = Array.fold_left (fun acc g -> acc + g.n) 0 tbl in
  let b = Array.create_float (6 * total) in
  let d = ref 0 in
  Array.map
    (fun g ->
      if g.n = 0 then empty
      else begin
        Array.blit g.a g.o b !d (6 * g.n);
        let g = { a = b; o = !d; n = g.n } in
        d := !d + (6 * g.n);
        g
      end)
    tbl

type stair = {
  mutable sk : float array;  (* keys, strictly ascending *)
  mutable sv : float array;  (* values, strictly descending *)
  mutable si : int array;  (* member ids *)
  mutable sn : int;  (* size *)
  pt : float array;  (* the point [stair_add] inserts: key, value *)
}

type t = {
  mutable xs : float array;  (* staged rows, stride 6: c, q, i, ns, p, trace handle *)
  mutable js : int array;  (* row origins, stride 2: kind, payload *)
  mutable rank : int array;  (* tie ranks *)
  mutable perm : int array;  (* sort permutation of row ids, then the kept stack *)
  mutable aux : int array;  (* merge-sort buffer, then marks *)
  st : stair;
  mutable walk_st : stair array;  (* two per walk: the left side's, the right side's *)
  mutable cur : int array;
      (* five per walk: left and right cursors, left and right pass counts, next side *)
  mutable next_q : float array;  (* per walk: its next member's slack *)
  mutable runs : int array;  (* a branch merge's walks' run starts *)
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
    runs = [||];
  }

(* [a] grown to [m] entries of [z], the first [used] kept; a top-level
   function, since a closure would be a minor allocation on growth only *)
let grow a m z used =
  let b = Array.make m z in
  Array.blit a 0 b 0 used;
  b

(* room for [n] rows, keeping the first [used] written *)
let reserve s ~used n =
  if Array.length s.perm < n then begin
    let m = max n (max least (2 * Array.length s.perm)) in
    s.xs <- grow s.xs (6 * m) 0.0 (6 * used);
    s.js <- grow s.js (2 * m) 0 (2 * used);
    s.rank <- grow s.rank m 0 used;
    s.perm <- grow s.perm m 0 used;
    s.aux <- Array.make m 0
  end

(* row [a] of [xs] copied to row [b] of [ys]; both exist *)
let[@inline] copy (xs : float array) a (ys : float array) b =
  let a = 6 * a and b = 6 * b in
  Array.unsafe_set ys b (Array.unsafe_get xs a);
  Array.unsafe_set ys (b + 1) (Array.unsafe_get xs (a + 1));
  Array.unsafe_set ys (b + 2) (Array.unsafe_get xs (a + 2));
  Array.unsafe_set ys (b + 3) (Array.unsafe_get xs (a + 3));
  Array.unsafe_set ys (b + 4) (Array.unsafe_get xs (a + 4));
  Array.unsafe_set ys (b + 5) (Array.unsafe_get xs (a + 5))

(* the rows of [g] staged from row 0, in order; returns their count *)
let stage s g =
  let m = g.n in
  reserve s ~used:0 m;
  Array.blit g.a g.o s.xs 0 (6 * m);
  for k = 0 to m - 1 do
    s.js.(2 * k) <- 0;
    s.perm.(k) <- k
  done;
  m

(* one past the highest row among [perm.(0 .. n-1)] *)
let top s n =
  let t = ref 0 in
  for k = 0 to n - 1 do
    let x = s.perm.(k) in
    if x >= !t then t := x + 1
  done;
  !t

(* The survivors [perm.(0 .. nk-1)], in that order, as [d]'s rows on
   top of [st], each row's trace handle from its origin, which then
   names that handle (flat.mli) *)
let write s ~arena ~at ~(bufs : int array) st nk d =
  if nk = 0 then d.n <- 0
  else begin
    room st nk;
    let g = st.buf and base = st.len in
    let rows = Array.length s.perm in
    for k = 0 to nk - 1 do
      let x = s.perm.(k) in
      if x < 0 || x >= rows then invalid_arg "Flat.write";
      let o = s.js.((2 * x) + 1) in
      (match s.js.(2 * x) with
      | 0 -> ()
      | 1 ->
          s.xs.((6 * x) + 5) <-
            float_of_int (Trace.join arena ~left:(o lsr 32) ~right:(o land 0xffffffff))
      | kind ->
          s.xs.((6 * x) + 5) <-
            float_of_int (Trace.buf_ix arena ~node:at ~dist:0.0 ~ix:bufs.(kind - 2) ~pred:o));
      s.js.(2 * x) <- 0;
      copy s.xs x g (base + k)
    done;
    st.len <- base + nk;
    set d g (6 * base) nk
  end

(* room for [nw] walks, their staircases empty and cursors at 0 *)
let reserve_walks s nw =
  if Array.length s.next_q < nw then begin
    let m = max nw (max least (2 * Array.length s.next_q)) in
    let old = s.walk_st in
    s.walk_st <-
      Array.init (2 * m) (fun k -> if k < Array.length old then old.(k) else stair ());
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

(* Only the member just left of the point's position can dominate it;
   the members it dominates are a contiguous run from there, replaced
   in one move of the tail (flat.mli). *)
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
      let m = max least (2 * Array.length keys) in
      st.sk <- grow keys m 0.0 n;
      st.sv <- grow vals m 0.0 n;
      st.si <- grow st.si m 0 n
    end;
    (* the tail moves by [shift]: a few members, cheaper than blits *)
    let sk = st.sk and sv = st.sv and si = st.si in
    for r = 0 to (if shift = 0 then -1 else n - !j - 1) do
      let m = if shift > 0 then n - 1 - r else !j + r in
      sk.(m + shift) <- sk.(m);
      sv.(m + shift) <- sv.(m);
      si.(m + shift) <- si.(m)
    done;
    st.sk.(lo) <- k;
    st.sv.(lo) <- v;
    st.si.(lo) <- id;
    st.sn <- n + shift;
    true
  end

(* rows [y ..] of [g] no heavier than [s]'s row [x] onto [st] at
   (-slack, energy) *)
let stair_fold st g y s x =
  let y = ref y and a = g.a and o = g.o and c = s.xs.(6 * x) in
  while !y < g.n && a.(o + (6 * !y)) <= c do
    st.pt.(0) <- -.a.(o + (6 * !y) + 1);
    st.pt.(1) <- a.(o + (6 * !y) + 4);
    ignore (stair_add st 0);
    incr y
  done;
  !y

(* the frontier order on the coordinates of rows [a] and [b], energy
   last with [power] *)
let[@inline] cmp_at ~power (xs : float array) a b =
  let a = 6 * a and b = 6 * b in
  match Float.compare xs.(a) xs.(b) with
  | 0 -> (
      match Float.compare xs.(b + 1) xs.(a + 1) with
      | 0 -> (
          match Float.compare xs.(a + 2) xs.(b + 2) with
          | 0 -> (
              match Float.compare xs.(b + 3) xs.(a + 3) with
              | 0 -> if power then Float.compare xs.(a + 4) xs.(b + 4) else 0
              | n -> n)
          | n -> n)
      | n -> n)
  | n -> n

type order = Plain | Power | Load | Slack | Energy

let[@inline] by_load s a b =
  match cmp_at ~power:true s.xs a b with 0 -> Int.compare s.rank.(a) s.rank.(b) | n -> n

(* the order [o] on rows [a] and [b]; [Load], [Slack] and [Energy] end
   on a key no two rows share. On equal slack, [Load] is [Slack]'s
   tail. *)
let[@inline] cmp s o a b =
  let xs = s.xs in
  match o with
  | Plain -> cmp_at ~power:false xs a b
  | Power -> cmp_at ~power:true xs a b
  | Load -> by_load s a b
  | Slack -> (
      match Float.compare xs.((6 * b) + 1) xs.((6 * a) + 1) with 0 -> by_load s a b | n -> n)
  | Energy -> (
      match Float.compare xs.((6 * a) + 4) xs.((6 * b) + 4) with
      | 0 -> Int.compare a b
      | n -> n)

(* the stable merge, by [o], of the runs [perm.(lo .. mid-1)] and
   [perm.(mid .. hi-1)]: the smaller head goes first, the left one on
   ties *)
let merge s o lo mid hi =
  let perm = s.perm and aux = s.aux in
  for k = lo to mid - 1 do
    aux.(k) <- perm.(k)
  done;
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
  for d = 0 to mid - !i - 1 do
    perm.(!k + d) <- aux.(!i + d)
  done

(* stable top-down merge sort of [perm.(lo .. hi-1)] by [o]; a half
   already in order relative to the other is left alone, which makes
   the nearly sorted rows of a pairing walk cheap. Short ranges are
   insertion-sorted, which is as stable. *)
let rec sort_perm s o lo hi =
  if hi - lo <= 8 then
    for k = lo + 1 to hi - 1 do
      let x = s.perm.(k) and j = ref k in
      while !j > lo && cmp s o s.perm.(!j - 1) x > 0 do
        s.perm.(!j) <- s.perm.(!j - 1);
        decr j
      done;
      s.perm.(!j) <- x
    done
  else begin
    let mid = (lo + hi) / 2 in
    sort_perm s o lo mid;
    sort_perm s o mid hi;
    if cmp s o s.perm.(mid - 1) s.perm.(mid) > 0 then merge s o lo mid hi
  end

(* the stand-ins [perm.(nb .. nb+ne-1)] sorted and merged after the
   rows [perm.(0 .. nb-1)], those first on ties *)
let splice s o nb ne =
  sort_perm s o nb (nb + ne);
  merge s o 0 nb (nb + ne);
  nb + ne

(* balanced pairwise merging of runs [lo .. hi-1]; no shortcut, since a
   run need not be sorted and its last element says nothing about the
   rest *)
let rec merge_runs s o starts lo hi =
  if hi - lo >= 2 then begin
    let mid = (lo + hi) / 2 in
    merge_runs s o starts lo mid;
    merge_runs s o starts mid hi;
    merge s o starts.(lo) starts.(mid) starts.(hi)
  end

(* row [x] onto [st] at (load, energy), if nothing there dominates it *)
let sweep_one s x =
  s.st.pt.(0) <- s.xs.(6 * x);
  s.st.pt.(1) <- s.xs.((6 * x) + 4);
  stair_add s.st x

(* The sweep of rows [lo .. hi-1], all of one slack: in [Slack] order,
   each goes onto [st] or is dropped; the survivors move down to
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
          for f = 0 to 4 do
            xs.((6 * !nk) + f) <- xs.((6 * x) + f)
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
