module T = Rctree.Tree

(* [Flat.width] and [Flat.trace], inlined in the hot loops *)
let[@inline] rows (g : Flat.group) = g.Flat.n
let[@inline] trace (g : Flat.group) k = int_of_float g.Flat.a.(g.Flat.o + (6 * k) + 5)
let[@inline] get (g : Flat.group) k f = g.Flat.a.(g.Flat.o + (6 * k) + f)

let noise_tol = 1e-12

(* The (load, slack) rule and its 4D noise-mode form (candidate.mli,
   DESIGN.md §12). Every kill compares against survivors of the same
   (parity, bucket) group, which keeps every outcome byte-identical to
   the sweep-only engine's: the witness either still dominates at the
   source or plainly kills the victim at the next sweep. *)
let[@inline] kills ~bound kc kq c q = kq >= q || (c > kc && q -. kq < bound *. (c -. kc))

let[@inline] kills_full ~bound kc kq (ki : float) (kns : float) c q (i : float) (ns : float) =
  kc <= c && ki <= i && kns >= ns && kills ~bound kc kq c q

(* The would-be row's coordinates are read here, not passed in: a
   float argument to another module's function is boxed at every call,
   and this runs once per stand-in. *)
let covered (s : Flat.t) m ~bound ~noise (lib : Tech.Lib.prepared) k (g : Flat.group) =
  let c = lib.Tech.Lib.c_in.(k) and q = s.xs.((6 * m) + 1) in
  let i = if noise then 0.0 else infinity in
  let ns = if noise then lib.Tech.Lib.nm.(k) else neg_infinity in
  let n = rows g and r = ref 0 and hit = ref false in
  let ga = g.Flat.a and go = g.Flat.o in
  while (not !hit) && !r < n && ga.(go + (6 * !r)) <= c do
    let a = go + (6 * !r) in
    hit := kills_full ~bound ga.(a) ga.(a + 1) ga.(a + 2) ga.(a + 3) c q i ns;
    incr r
  done;
  !hit

let climb (s : Flat.t) ~arena ~at ~width ~pred ~bound ~noise ~drop (w : T.wire)
    (g : Flat.group) n0 =
  let m = rows g in
  Flat.reserve s ~used:n0 (n0 + m);
  let xs = s.xs and ga = g.Flat.a and go = g.Flat.o in
  let n = ref n0 and emitted = ref 0 and killed = ref 0 and noisy = ref 0 in
  (* the previously emitted row, all-NaN before the first: it kills
     nothing *)
  let pc = ref nan and pq = ref nan and pi = ref nan and pns = ref nan in
  for k = 0 to m - 1 do
    let a = go + (6 * k) in
    let ac = ga.(a) and ai = ga.(a + 2) in
    (* eqs. 2 and 8 *)
    let c = ac +. w.T.cap in
    let q = ga.(a + 1) -. (w.T.res *. ((w.T.cap /. 2.0) +. ac)) in
    let i = ai +. w.T.cur in
    let ns = ga.(a + 3) -. (w.T.res *. (ai +. (w.T.cur /. 2.0))) in
    if
      pred
      &&
      if noise then kills_full ~bound !pc !pq !pi !pns c q i ns else kills ~bound !pc !pq c q
    then incr killed
    else begin
      incr emitted;
      pc := c;
      pq := q;
      pi := i;
      pns := ns;
      let tr =
        if width = 1.0 then ga.(a + 5)
        else float_of_int (Trace.resize arena ~node:at ~width ~pred:(trace g k))
      in
      if drop && not (ns >= -.noise_tol) then incr noisy
      else begin
        let x = 6 * !n in
        xs.(x) <- c;
        xs.(x + 1) <- q;
        xs.(x + 2) <- i;
        xs.(x + 3) <- ns;
        xs.(x + 4) <- ga.(a + 4);
        xs.(x + 5) <- tr;
        s.js.(2 * !n) <- 0;
        s.perm.(!n) <- !n;
        incr n
      end
    end
  done;
  (!n, !emitted, !killed, !noisy)

(* {1 The three relations' sweeps}

   Each sweeps the staged rows [perm.(0 .. n-1)] in that order and
   keeps the survivors, in order, on a stack in [perm.(0 .. nk-1)]
   (never ahead of the row being read). *)

(* The (load, slack) staircase (candidate.mli), the kept stack in
   place. *)
let sweep_delay (s : Flat.t) ~bound n =
  let xs = s.xs and perm = s.perm in
  let nk = ref 0 and killed = ref 0 in
  (* the newest survivor's load and slack *)
  let tc = ref nan and tq = ref nan in
  for r = 0 to n - 1 do
    let x = perm.(r) in
    let c = xs.(6 * x) and q = xs.((6 * x) + 1) in
    if !nk > 0 && !tc = c && !tq <= q then begin
      decr nk;
      if !nk > 0 then begin
        tc := xs.(6 * perm.(!nk - 1));
        tq := xs.((6 * perm.(!nk - 1)) + 1)
      end
    end;
    if !nk > 0 && kills ~bound !tc !tq c q then incr killed
    else begin
      perm.(!nk) <- x;
      incr nk;
      tc := c;
      tq := q
    end
  done;
  (!nk, !killed)

(* The 4D sweep, the noise DP's innermost loop, with the relation
   written out. With the rows sorted by load, the survivors of equal
   load — the only ones an arrival may retro-dominate — are the top of
   the stack; at equal load the slope term is void, so the retro-kill
   is plain dominance. *)
let sweep_full (s : Flat.t) ~bound n =
  let xs = s.xs and kept = s.perm in
  if n > Array.length kept || Array.length xs < 6 * Array.length kept then
    invalid_arg "Candidate.sweep_full";
  let nk = ref 0 and slope = ref 0 in
  for r = 0 to n - 1 do
    let x = kept.(r) in
    let c = xs.(6 * x) and q = xs.((6 * x) + 1) in
    let i = xs.((6 * x) + 2) and ns = xs.((6 * x) + 3) in
    (* 0: not killed, 1: plain dominance, 2: slope term only. The stack
       holds rows already read, so its reads need no bounds check. *)
    let verdict = ref 0 and j = ref (!nk - 1) in
    while !verdict <> 1 && !j >= 0 do
      let k = 6 * Array.unsafe_get kept !j in
      let kc = Array.unsafe_get xs k and kq = Array.unsafe_get xs (k + 1) in
      if kc <= c && Array.unsafe_get xs (k + 2) <= i && Array.unsafe_get xs (k + 3) >= ns then
        if kq >= q then verdict := 1
        else if c > kc && q -. kq < bound *. (c -. kc) then verdict := 2;
      decr j
    done;
    match !verdict with
    | 1 -> ()
    | 2 -> incr slope
    | _ ->
        let lo = ref !nk in
        while !lo > 0 && xs.(6 * kept.(!lo - 1)) = c do
          decr lo
        done;
        let w = ref !lo in
        for j = !lo to !nk - 1 do
          let k = 6 * kept.(j) in
          if not (q >= xs.(k + 1) && i <= xs.(k + 2) && ns >= xs.(k + 3)) then begin
            kept.(!w) <- kept.(j);
            incr w
          end
        done;
        kept.(!w) <- x;
        nk := !w + 1
  done;
  (!nk, !slope)

(* [Flat.stair_add] of the point (k, v) *)
let[@inline] stair_add (st : Flat.stair) k v id =
  st.pt.(0) <- k;
  st.pt.(1) <- v;
  Flat.stair_add st id

(* The 3-axis sweep: in [Flat.Power] order every earlier survivor has
   load <= the current row's, so only (q, p) remain, as a staircase
   keyed by [-q] to fit [stair_add]'s orientation. *)
let sweep_power (s : Flat.t) n =
  s.st.sn <- 0;
  let nk = ref 0 in
  for r = 0 to n - 1 do
    let x = s.perm.(r) in
    if stair_add s.st (-.s.xs.((6 * x) + 1)) s.xs.((6 * x) + 4) 0 then begin
      s.perm.(!nk) <- x;
      incr nk
    end
  done;
  !nk

(* {1 Count dominance} (DESIGN.md §17) *)

type front = {
  mutable cq : Flat.stair;  (* delay and noise modes: the survivors at (load, -slack) *)
  mutable spare : Flat.stair;  (* the next [cq] is merged into it *)
  mutable gs : Flat.group list;  (* noise and power modes: the survivors' groups *)
}

let front () = { cq = Flat.stair (); spare = Flat.stair (); gs = [] }

let front_clear f =
  f.cq.sn <- 0;
  f.gs <- []

(* [g]'s rows and [cq]'s members merged by load, then slack, into the
   spare, keeping each point whose -slack falls below all before it *)
let front_add f ~noise ~power (g : Flat.group) =
  let st = f.cq and t = f.spare and m = rows g in
  if m > 0 && not power then begin
    if Array.length t.sk < st.sn + m then begin
      let size = max Flat.least (2 * (st.sn + m)) in
      t.sk <- Array.make size 0.0;
      t.sv <- Array.make size 0.0
    end;
    let ga = g.Flat.a and go = g.Flat.o in
    let a = ref 0 and r = ref 0 and n = ref 0 in
    while !a < st.sn || !r < m do
      let x = go + (6 * if !r < m then !r else 0) in
      let old =
        !r = m
        || (!a < st.sn
           && (st.sk.(!a) < ga.(x) || (st.sk.(!a) = ga.(x) && st.sv.(!a) <= -.ga.(x + 1))))
      in
      let k = if old then st.sk.(!a) else ga.(x) in
      let v = if old then st.sv.(!a) else -.ga.(x + 1) in
      if old then incr a else incr r;
      if !n = 0 || v < t.sv.(!n - 1) then begin
        t.sk.(!n) <- k;
        t.sv.(!n) <- v;
        incr n
      end
    done;
    t.sn <- !n;
    f.cq <- t;
    f.spare <- st
  end;
  if (noise || power) && m > 0 then f.gs <- g :: f.gs

(* In delay and noise modes the member asked first is the heaviest no
   heavier than the row ([h], walked as the load grows) *)
let front_drop (s : Flat.t) f ~noise ~power ~from n =
  let xs = s.xs and perm = s.perm and st = f.cq and fold = s.st in
  fold.sn <- 0;
  (* power mode: each group's first row not yet folded *)
  let gs = Array.of_list f.gs in
  let next = if Array.length gs = 0 then [||] else Array.make (Array.length gs) 0 in
  let nk = ref 0 and h = ref 0 in
  for r = 0 to n - 1 do
    let x = perm.(r) in
    let a = 6 * x in
    let c = xs.(a) and q = xs.(a + 1) in
    let d = ref (x >= from) in
    if !d && not power then begin
      while !h < st.sn && st.sk.(!h) <= c do
        incr h
      done;
      d := !h > 0 && st.sv.(!h - 1) <= -.q
    end;
    if !d && power then begin
      (* the groups' rows no heavier than the row, folded into a
         (-q, p) staircase: what it covers does not depend on the
         order they came in *)
      for t = 0 to Array.length gs - 1 do
        let g = gs.(t) and y = next.(t) in
        if y < rows g && g.Flat.a.(g.Flat.o + (6 * y)) <= c then
          next.(t) <- Flat.stair_fold fold g y c
      done;
      fold.pt.(0) <- -.q;
      fold.pt.(1) <- xs.(a + 4);
      d := Flat.stair_covers fold
    end
    else if !d && noise then begin
      let i = xs.(a + 2) and ns = xs.(a + 3) in
      d := false;
      for t = 0 to Array.length gs - 1 do
        let g = gs.(t) and y = ref 0 in
        let ga = g.Flat.a and go = g.Flat.o in
        while (not !d) && !y < rows g && ga.(go + (6 * !y)) <= c do
          let b = go + (6 * !y) in
          d := kills_full ~bound:0.0 ga.(b) ga.(b + 1) ga.(b + 2) ga.(b + 3) c q i ns;
          incr y
        done
      done
    end;
    if not !d then begin
      perm.(!nk) <- x;
      incr nk
    end
  done;
  !nk

(* {1 Coordinates-first branch merges}: the pairings are staged with
   their children's handles as origin and decided on their
   coordinates; only the survivors the caller writes get their [Join]
   node. *)

(* pairing row [n]: member [il] of [l] and [ir] of [r] *)
let[@inline] put (s : Flat.t) n (l : Flat.group) il (r : Flat.group) ir =
  let la = l.Flat.a and ra = r.Flat.a in
  let x = 6 * n and a = l.Flat.o + (6 * il) and b = r.Flat.o + (6 * ir) in
  s.xs.(x) <- la.(a) +. ra.(b);
  s.xs.(x + 1) <- Float.min la.(a + 1) ra.(b + 1);
  s.xs.(x + 2) <- la.(a + 2) +. ra.(b + 2);
  s.xs.(x + 3) <- Float.min la.(a + 3) ra.(b + 3);
  s.xs.(x + 4) <- la.(a + 4) +. ra.(b + 4);
  s.js.(2 * n) <- 1;
  s.js.((2 * n) + 1) <- (trace l il lsl 32) lor trace r ir

(* Each walk is Van Ginneken's: join the heads, then advance the side
   with the smaller slack, both on a tie. The walks are merged as runs,
   never re-sorted: where rounding ties two loads a run can be out of
   frontier order, and its order decides which of two equal pairings
   survives. *)
let merge_delay (s : Flat.t) ~bound ~prune (lt : Flat.table) (rt : Flat.table) walks nw =
  if Array.length s.runs <= nw then s.runs <- Array.make (max Flat.least (2 * (nw + 1))) 0;
  let starts = s.runs in
  starts.(0) <- 0;
  for w = 0 to nw - 1 do
    let l = lt.(walks.(2 * w)) and r = rt.(walks.((2 * w) + 1)) in
    let n = ref starts.(w) and il = ref 0 and ir = ref 0 in
    let nl = rows l and nr = rows r in
    let la = l.Flat.a and lo = l.Flat.o + 1 and ra = r.Flat.a and ro = r.Flat.o + 1 in
    Flat.reserve s ~used:!n (!n + nl + nr - 1);
    while !il < nl && !ir < nr do
      put s !n l !il r !ir;
      s.perm.(!n) <- !n;
      incr n;
      let aq = la.(lo + (6 * !il)) and bq = ra.(ro + (6 * !ir)) in
      if aq < bq then incr il
      else if bq < aq then incr ir
      else begin
        incr il;
        incr ir
      end
    done;
    starts.(w + 1) <- !n
  done;
  let n = starts.(nw) in
  Flat.merge_runs s Flat.Plain starts 0 nw;
  let nk, killed = if prune then sweep_delay s ~bound n else (n, 0) in
  (nk, n - killed, n - killed - nk, killed)

let merge_noise (s : Flat.t) ~bound (lt : Flat.table) (rt : Flat.table) walks nw =
  let n = ref 0 in
  for w = 0 to nw - 1 do
    n := !n + (rows lt.(walks.(2 * w)) * rows rt.(walks.((2 * w) + 1)))
  done;
  let n = !n in
  Flat.reserve s ~used:0 n;
  let id = ref 0 in
  for w = 0 to nw - 1 do
    let l = lt.(walks.(2 * w)) and r = rt.(walks.((2 * w) + 1)) in
    for il = 0 to rows l - 1 do
      for ir = 0 to rows r - 1 do
        put s !id l il r ir;
        s.perm.(!id) <- !id;
        incr id
      done
    done
  done;
  Flat.sort_perm s Flat.Plain 0 n;
  let nk, slope = sweep_full s ~bound n in
  (nk, n - slope, n - slope - nk, slope)

(* The group's indices ascending by energy, or with [slack] by falling
   slack, ties by index: [Flat.Energy] on what column 4 is given *)
let by_key (s : Flat.t) ~slack (g : Flat.group) =
  let n = rows g in
  Flat.reserve s ~used:0 n;
  let ga = g.Flat.a and go = g.Flat.o in
  for k = 0 to n - 1 do
    s.xs.((6 * k) + 4) <- (if slack then -.ga.(go + (6 * k) + 1) else ga.(go + (6 * k) + 4));
    s.perm.(k) <- k
  done;
  Flat.sort_perm s Flat.Energy 0 n;
  s.perm

let by_slack s g = (g, Array.sub (by_key s ~slack:true g) 0 (rows g))

let by_energy s g = by_key s ~slack:false g

(* Buffer insertion's source choice (Figs. 5 and 11; candidate.mli).
   The slack is the attach guard's and [Tech.Buffer.gate_delay]'s very
   expression on the prepared arrays: no call, no boxed float. *)
let sources (s : Flat.t) ~power ~guard (lib : Tech.Lib.prepared) (g : Flat.group) =
  let r_b = lib.Tech.Lib.r_b and d_b = lib.Tech.Lib.d_b in
  let ntypes = Array.length r_b and n = rows g in
  let ga = g.Flat.a and go = g.Flat.o in
  let m = ref 0 in
  if not power then begin
    (* one pass for every type, the running best in entry [k] *)
    Flat.reserve s ~used:0 ntypes;
    let xs = s.xs and js = s.js in
    for k = 0 to ntypes - 1 do
      xs.((6 * k) + 1) <- neg_infinity
    done;
    for j = 0 to n - 1 do
      let a = go + (6 * j) in
      let room = ga.(a + 3) +. noise_tol in
      for k = 0 to ntypes - 1 do
        let r = r_b.(k) in
        if (not guard) || r *. ga.(a + 2) <= room then begin
          let q = ga.(a + 1) -. (d_b.(k) +. (r *. ga.(a))) in
          if q > xs.((6 * k) + 1) then begin
            xs.((6 * k) + 1) <- q;
            js.((2 * k) + 1) <- j
          end
        end
      done
    done;
    (* the types some source reached, moved down *)
    for k = 0 to ntypes - 1 do
      if xs.((6 * k) + 1) > neg_infinity then begin
        xs.((6 * !m) + 1) <- xs.((6 * k) + 1);
        js.(2 * !m) <- k;
        js.((2 * !m) + 1) <- js.((2 * k) + 1);
        incr m
      end
    done
  end
  else begin
    (* One pass in energy order per type: a run of equal insertion
       energy yields its best-slack source, the first in group order on
       ties, when that slack beats every cheaper run's. At most every
       source is on every type's staircase; the energy order lives in
       [perm], clear of the entries. *)
    Flat.reserve s ~used:0 (ntypes * n);
    let order = by_energy s g in
    for k = 0 to ntypes - 1 do
      let e = lib.Tech.Lib.energy.(k) and d = d_b.(k) and r = r_b.(k) in
      (* [best]: the best slack of the cheaper runs, NaN until the first
         member, so that member beats it whatever its slack *)
      let best = ref nan and members = ref [] and x = ref 0 in
      while !x < n do
        let pw = ga.(go + (6 * order.(!x)) + 4) +. e in
        let rep = ref (-1) and rep_q = ref neg_infinity in
        while !x < n && ga.(go + (6 * order.(!x)) + 4) +. e = pw do
          let j = order.(!x) in
          let a = go + (6 * j) in
          if (not guard) || r *. ga.(a + 2) <= ga.(a + 3) +. noise_tol then begin
            let q = ga.(a + 1) -. (d +. (r *. ga.(a))) in
            if !rep < 0 || q > !rep_q || (q = !rep_q && j < !rep) then begin
              rep := j;
              rep_q := q
            end
          end;
          incr x
        done;
        if !rep >= 0 && not (!rep_q <= !best) then begin
          best := !rep_q;
          members := !rep :: !members
        end
      done;
      (* found in rising slack, listed in falling slack *)
      List.iter
        (fun j ->
          let a = go + (6 * j) in
          s.xs.((6 * !m) + 1) <- ga.(a + 1) -. (d +. (r *. ga.(a)));
          s.js.(2 * !m) <- k;
          s.js.((2 * !m) + 1) <- j;
          incr m)
        !members
    done
  end;
  !m

let stand_in (s : Flat.t) n (lib : Tech.Lib.prepared) k (g : Flat.group) j q =
  let b = lib.Tech.Lib.bufs.(k) in
  let x = 6 * n in
  s.xs.(x) <- b.Tech.Buffer.c_in;
  s.xs.(x + 1) <- q;
  s.xs.(x + 2) <- 0.0;
  s.xs.(x + 3) <- b.Tech.Buffer.nm;
  s.xs.(x + 4) <- get g j 4 +. b.Tech.Buffer.energy;
  s.js.(2 * n) <- 2 + k;
  s.js.((2 * n) + 1) <- trace g j;
  s.perm.(n) <- n

(* The delay-power branch merge; DESIGN.md §16 argues its exactness.
   Each walk runs two passes — left against the right side's (c, p)
   staircase of equal-or-better slack, right against the left side's
   strictly-better one — interleaved in falling slack, the right member
   first on ties, and all walks of the slot advance together, so the
   pairings arrive in falling slack. Each block of equal slack is
   sorted and swept on a (c, p) staircase as it closes; only the
   survivors are sorted into [Flat.Load] order. A pairing's
   rank is its place in the order the walks define the pairings: the
   walks as given, each newest pairing first, its left pass first. *)
let merge_delay_power (s : Flat.t) ~budget ~prune ls rs walks nw =
  Flat.reserve_walks s nw;
  s.st.sn <- 0;
  let cur = s.cur and next_q = s.next_q in
  (* pairing ids [bs .. n-1] form the open block; the survivors of the
     closed ones are stored below it *)
  let n = ref 0 and bs = ref 0 and generated = ref 0 and over = ref 0 in
  (* member [ia] of walk [w]'s left side (with [left]) or right side,
     against [st], the other side's staircase: one pairing per
     in-budget member, in rising load. [cur.(k)] counts the pass's
     pairings. *)
  let visit (st : Flat.stair) w ((l : Flat.group), lord) ((r : Flat.group), rord) ~left ia k =
    let ap = if left then get l lord.(ia) 4 else get r rord.(ia) 4 in
    let lo = ref 0 and hi = ref st.sn in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if ap +. st.sv.(mid) > budget then lo := mid + 1 else hi := mid
    done;
    over := !over + !lo;
    Flat.reserve s ~used:!n (!n + st.sn - !lo);
    generated := !generated + st.sn - !lo;
    (* newest first, the right pass before the left one, walk by walk *)
    let base = ((2 * w) + if left then 1 else 0) lsl 40 in
    for m = !lo to st.sn - 1 do
      let ib = st.si.(m) in
      if left then put s !n l lord.(ia) r rord.(ib) else put s !n l lord.(ib) r rord.(ia);
      s.rank.(!n) <- base - 1 - cur.(k);
      s.perm.(!n) <- !n;
      cur.(k) <- cur.(k) + 1;
      incr n
    done
  in
  (* walk [w]'s next member: the right one on equal slack *)
  let next w =
    let ((l : Flat.group), lord) = ls.(walks.(2 * w))
    and ((r : Flat.group), rord) = rs.(walks.((2 * w) + 1)) in
    let il = cur.(5 * w) and ir = cur.((5 * w) + 1) in
    if ir < rows r && (il = rows l || get r rord.(ir) 1 >= get l lord.(il) 1) then begin
      cur.((5 * w) + 4) <- 2;
      next_q.(w) <- get r rord.(ir) 1
    end
    else if il < rows l then begin
      cur.((5 * w) + 4) <- 1;
      next_q.(w) <- get l lord.(il) 1
    end
    else cur.((5 * w) + 4) <- 0
  in
  for w = 0 to nw - 1 do
    next w
  done;
  let live = ref true in
  while !live do
    (* the walk whose next member has the highest slack *)
    let w = ref (-1) in
    for v = 0 to nw - 1 do
      if cur.((5 * v) + 4) > 0 && (!w < 0 || Float.compare next_q.(v) next_q.(!w) > 0) then
        w := v
    done;
    if !w < 0 then live := false
    else begin
      let w = !w in
      (* a lower slack closes the open block *)
      if !n > !bs && Float.compare next_q.(w) s.xs.((6 * !bs) + 1) < 0 then begin
        if prune then n := Flat.sweep_block s !bs !n;
        bs := !n
      end;
      let ((l, lord) as left) = ls.(walks.(2 * w))
      and ((r, rord) as right) = rs.(walks.((2 * w) + 1)) in
      let il = cur.(5 * w) and ir = cur.((5 * w) + 1) in
      (* a side's staircase serves only the other side's members still
         to come: none left, nothing to add *)
      if cur.((5 * w) + 4) = 2 then begin
        visit s.walk_st.(2 * w) w left right ~left:false ir ((5 * w) + 3);
        let b = r.Flat.o + (6 * rord.(ir)) in
        if il < rows l then
          ignore (stair_add s.walk_st.((2 * w) + 1) r.Flat.a.(b) r.Flat.a.(b + 4) ir);
        cur.((5 * w) + 1) <- ir + 1
      end
      else begin
        visit s.walk_st.((2 * w) + 1) w left right ~left:true il ((5 * w) + 2);
        let a = l.Flat.o + (6 * lord.(il)) in
        if ir < rows r then
          ignore (stair_add s.walk_st.(2 * w) l.Flat.a.(a) l.Flat.a.(a + 4) il);
        cur.(5 * w) <- il + 1
      end;
      next w
    end
  done;
  if prune && !n > !bs then n := Flat.sweep_block s !bs !n;
  let nk = !n in
  for x = 0 to nk - 1 do
    s.perm.(x) <- x
  done;
  Flat.sort_perm s Flat.Load 0 nk;
  (nk, !generated, !generated - nk, !over)
