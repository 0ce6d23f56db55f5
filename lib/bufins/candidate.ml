module T = Rctree.Tree

(* All seven fields are floats so the record is stored flat (one header
   plus seven unboxed doubles); adding any immediate field would box every
   float behind a pointer and triple the allocation per candidate. meta
   and tr hold small non-negative ints exactly: meta = 2*count + parity,
   tr = the solution's Trace.handle. p is the solution's accumulated
   buffer energy (J); it rides along for free in every mode and becomes a
   pruning axis only in power mode (DESIGN.md §16). tr is mutable for
   one writer only: [materialize] gives a surviving insertion stand-in
   (whose tr is negative until then) its Trace node, before the group
   leaves the node it was built at. *)
type t = {
  c : float;
  q : float;
  i : float;
  ns : float;
  p : float;
  meta : float;
  mutable tr : float;
}

let parity a = int_of_float a.meta land 1
let count a = int_of_float a.meta asr 1
let trace a = int_of_float a.tr

let of_sink (s : T.sink) =
  {
    c = s.T.c_sink;
    q = s.T.rat;
    i = 0.0;
    ns = s.T.nm;
    p = 0.0;
    meta = 0.0;
    tr = float_of_int Trace.leaf;
  }

let add_wire (w : T.wire) a =
  {
    a with
    c = a.c +. w.T.cap;
    q = a.q -. (w.T.res *. ((w.T.cap /. 2.0) +. a.c));
    i = a.i +. w.T.cur;
    ns = a.ns -. (w.T.res *. (a.i +. (w.T.cur /. 2.0)));
  }

(* [b] inserted on top of [a] at slack [q], with solution handle [tr]
   (an int, so that no boxed float is passed) *)
let buffered (b : Tech.Buffer.t) a q tr =
  (* meta + 2 bumps the count; the xor flips the parity bit only *)
  let m = int_of_float a.meta + 2 in
  let m = if b.Tech.Buffer.inverting then m lxor 1 else m in
  {
    c = b.Tech.Buffer.c_in;
    q;
    i = 0.0;
    ns = b.Tech.Buffer.nm;
    p = a.p +. b.Tech.Buffer.energy;
    meta = float_of_int m;
    tr = float_of_int tr;
  }

let add_buffer ~arena ~at b a =
  buffered b a
    (a.q -. Tech.Buffer.gate_delay b ~load:a.c)
    (Trace.buf arena ~node:at ~dist:0.0 ~buffer:b ~pred:(trace a))

(* A stand-in's [tr] is [-(1 + k + ntypes * trace a)] for type [k] on
   source [a]: negative, so it names no arena node, and exact, so
   [materialize] reads the type and the source's handle back. *)
let stand_in ~ntypes k b a q = buffered b a q (-(1 + k + (ntypes * trace a)))

let materialize ~arena ~at (bufs : Tech.Buffer.t array) ~c_max group =
  let ntypes = Array.length bufs in
  (* a stand-in's load is its type's c_in <= c_max, and the group is
     sorted by load: past the first heavier member there is none left
     (a NaN load sorts first and does not end the walk) *)
  let rec go = function
    | x :: tl when not (x.c > c_max) ->
        if x.tr < 0.0 then begin
          let e = -int_of_float x.tr - 1 in
          x.tr <-
            float_of_int
              (Trace.buf arena ~node:at ~dist:0.0 ~buffer:bufs.(e mod ntypes)
                 ~pred:(e / ntypes))
        end;
        go tl
    | _ -> ()
  in
  go group

let add_driver (d : T.driver) a = { a with q = a.q -. (d.T.d_drv +. (d.T.r_drv *. a.c)) }

(* One tolerance for every noise-attach and noise-slack test of the
   buffer-insertion algorithms: far below any real margin, it absorbs only
   the rounding of the accumulated noise slack. *)
let noise_tol = 1e-12

let noise_ok ~r_gate a = r_gate *. a.i <= a.ns +. noise_tol

let merge ~arena a b =
  assert (parity a = parity b);
  {
    c = a.c +. b.c;
    q = Float.min a.q b.q;
    i = a.i +. b.i;
    ns = Float.min a.ns b.ns;
    p = a.p +. b.p;
    (* counts add, the shared parity must not be counted twice *)
    meta = a.meta +. b.meta -. float_of_int (parity a);
    tr = float_of_int (Trace.join arena ~left:(trace a) ~right:(trace b));
  }

let dominates a b = a.c <= b.c && a.q >= b.q

let[@inline] dominates_full a b = a.c <= b.c && a.q >= b.q && a.i <= b.i && a.ns >= b.ns

let cmp_frontier a b =
  match Float.compare a.c b.c with
  | 0 -> (
      match Float.compare b.q a.q with
      | 0 -> (
          match Float.compare a.i b.i with 0 -> Float.compare b.ns a.ns | n -> n)
      | n -> n)
  | n -> n

(* the power-mode group order (DESIGN.md §16): it lives beside — never
   instead of — the classic one, so power-off runs sort exactly as
   before *)
let cmp_frontier_power a b =
  match cmp_frontier a b with 0 -> Float.compare a.p b.p | n -> n

(* The (load, slack) staircase, shared by every delay-mode sweep, splice
   and predictive kill site (Li & Shi; DESIGN.md §12). [bound] is the
   node's {!Rctree.Upbound} value: every upstream operation costs a
   candidate at least [bound] seconds of slack per farad of extra load,
   so a would-be candidate at (c, q) whose slack lead over a lighter
   same-group survivor at (kc, kq) is below [bound *. dc] can never
   strictly win at the source. With [bound = 0] the rule is plain
   dominance ([kq >= q]). Every kill compares against survivors of the
   same (parity, bucket) group, which keeps every optimizer outcome
   byte-identical to the sweep-only engine's: the witness either still
   dominates at the source or plainly kills the victim at the next
   sweep. *)

let[@inline] kills ~bound kc kq c q = kq >= q || (c > kc && q -. kq < bound *. (c -. kc))

(* The noise-mode (4D) form of the same rule: the witness must also be
   no heavier, carry no more current and keep at least the noise slack.
   Upstream wires charge noise in proportion to [i], merges add [i] and
   take the min of [ns], and every attach guard [r * i <= ns + tol] is
   monotone in both, so whatever suffix keeps the victim noise-feasible
   keeps the witness feasible too, and the slope term then bounds the
   slack exactly as in delay mode. With [bound = 0] it is
   [dominates_full]. *)
let[@inline] kills_full ~bound (k : t) c q i ns =
  k.c <= c && k.i <= i && k.ns >= ns && kills ~bound k.c k.q c q

(* The staircase push of a candidate arriving in [cmp_frontier] order
   onto the newest-first staircase [kept]: it first retro-dominates the
   newest survivor if that one has its load and no better slack (the
   survivor is dropped), then either the survivor now newest kills it or
   it lands on top. [merge_delay] runs the same two steps, with the
   slope rule, on pairing coordinates. *)
let push dropped kept x =
  let kept =
    match kept with
    | k :: tl when k.c = x.c && k.q <= x.q ->
        incr dropped;
        tl
    | _ -> kept
  in
  match kept with
  | k :: _ when kills ~bound:0.0 k.c k.q x.c x.q ->
      incr dropped;
      kept
  | _ -> x :: kept

let sweep_delay l =
  let dropped = ref 0 in
  let kept = List.fold_left (push dropped) [] l in
  (List.rev kept, !dropped)

let splice_delay group cands =
  (* = sweep_delay (List.merge cmp_frontier group cands) when [group] is
     already a swept staircase (strictly increasing c and q — every
     group between sweeps is). Once [cands] is exhausted and the newest
     survivor can neither be retro-killed by nor kill the next group
     element, the rest of the staircase is final and is returned as-is:
     the common case (a few buffer insertions near the front of a wide
     frontier) shares almost the whole group tail instead of re-consing
     it. Drop counting is identical to the unfused composition. *)
  let dropped = ref 0 in
  let rec go kept g c =
    match c with
    | [] -> finish kept g
    | x :: ctl -> (
        match g with
        | [] -> go (push dropped kept x) [] ctl
        | y :: gtl ->
            if cmp_frontier y x <= 0 then go (push dropped kept y) gtl c
            else go (push dropped kept x) g ctl)
  and finish kept g =
    match (kept, g) with
    | _, [] -> (List.rev kept, !dropped)
    | k :: _, y :: gtl when k.c = y.c || k.q >= y.q -> finish (push dropped kept y) gtl
    | _ ->
        (* the next element survives and, by the staircase invariant, so
           does the rest of the group: share the tail *)
        (List.rev_append kept g, !dropped)
  in
  go [] group cands

let covered ~bound ~c ~q ~i ~ns group =
  let rec go = function
    | (k : t) :: tl when k.c <= c -> kills_full ~bound k c q i ns || go tl
    | _ -> false
  in
  go group

(* an all-NaN candidate: every comparison with it is false, so it
   kills nothing — the "no candidate emitted yet" of [climb] *)
let nothing = { c = nan; q = nan; i = nan; ns = nan; p = nan; meta = nan; tr = nan }

let climb ?bound ?resize ~noise w group =
  (* [add_wire] over a sorted group; with [bound], a climbed candidate
     the previously emitted one kills (under the 4D rule in noise mode)
     is never materialized, and with [resize] the survivors alone record
     their Resize arena node (the kill reads only the coordinates).
     Tail-mod-cons, so the climbed list is built in place, without a
     reversed copy. *)
  let emitted = ref 0 and prekilled = ref 0 in
  let[@tail_mod_cons] rec go prev = function
    | [] -> []
    | a :: tl -> (
        let x = add_wire w a in
        match bound with
        | Some bound
          when if noise then kills_full ~bound prev x.c x.q x.i x.ns
               else kills ~bound prev.c prev.q x.c x.q ->
            incr prekilled;
            go prev tl
        | _ -> (
            incr emitted;
            match resize with
            | None -> x :: go x tl
            | Some (arena, node, width) ->
                let tr = Trace.resize arena ~node ~width ~pred:(trace x) in
                let x = { x with tr = float_of_int tr } in
                x :: go x tl))
  in
  let climbed = go nothing group in
  (climbed, !emitted, !prekilled)

(* [Frontier.sweep_dom ~cost:c] under [kills_full ~bound] — with
   [bound = 0], [dominates_full]: the noise-mode sweep, quadratic per
   group. It is the noise DP's innermost loop, so the relation is
   written out here instead of being called through a closure. With the
   input sorted by load, the survivors of equal load — the only ones [x]
   may retro-dominate — are the front of [kept]; at equal load the slope
   term is void, so the retro-kill is plain dominance. *)
let sweep_noise ~bound l =
  let dropped = ref 0 in
  let rec dominated x = function
    | [] -> false
    | k :: tl -> kills_full ~bound k x.c x.q x.i x.ns || dominated x tl
  in
  let rec strip x = function
    | k :: tl when k.c = x.c ->
        let tl = strip x tl in
        if dominates_full x k then begin
          incr dropped;
          tl
        end
        else k :: tl
    | kept -> kept
  in
  let push kept x =
    if dominated x kept then begin
      incr dropped;
      kept
    end
    else x :: strip x kept
  in
  let kept = List.fold_left push [] l in
  (List.rev kept, !dropped)

type scratch = Flat.t

let scratch = Flat.create

(* [Flat.stair_add] of the point (k, v) *)
let[@inline] stair_add (st : Flat.stair) k v id =
  st.pt.(0) <- k;
  st.pt.(1) <- v;
  Flat.stair_add st id

(* The 3-axis delay-power sweep is O(n log n), not quadratic: the input
   is sorted by [cmp_frontier_power], so every already-kept candidate
   has load <= the current one and only the (q, p) axes remain. The
   survivors' (q, p) points form a staircase, kept with key [-q] so
   that [stair_add]'s orientation fits: a candidate is dominated
   iff the member with the smallest q >= its own carries p <= its own,
   and a kept candidate evicts the members it (q, p)-dominates.
   Dominated-but-kept duplicates in (c, q) with off-order p (possible
   when the i / ns tie-breaks interleave) are retained — harmless for
   exactness, they are weakly dominated and never extend the frontier. *)
let sweep_delay_power ~scratch:(s : Flat.t) l =
  s.st.sn <- 0;
  let dropped = ref 0 in
  let kept =
    List.filter
      (fun (x : t) ->
        stair_add s.st (-.x.q) x.p 0
        ||
        (incr dropped;
         false))
      l
  in
  (kept, !dropped)

(* Count dominance (DESIGN.md §17): [group] loses every member that a
   member of [front], the survivors of the same parity's lower counts,
   dominates. Both are sorted by load, so the witnesses no heavier than
   a member are a prefix of [front]. In delay mode [front] is a (load,
   slack) staircase, so the heaviest of them is the one to ask
   ([kills] at bound 0), and once [front] is passed, the rest of the
   group's staircase climbs clear of it and is shared; noise mode asks
   each of them [dominates_full]; power mode folds them into the
   scratch staircase, keyed by [-q] and valued by [p], and asks it
   [Flat.stair_covers]. *)
let rec dominated_full x = function
  | (y : t) :: tl when y.c <= x.c -> dominates_full y x || dominated_full x tl
  | _ -> false

let count_sweep ~scratch:(s : Flat.t) ~noise ~power front group =
  let dropped = ref 0 in
  let drop () =
    incr dropped;
    false
  in
  let kept =
    match front with
    | [] -> group
    | _ when noise -> List.filter (fun x -> (not (dominated_full x front)) || drop ()) group
    | _ when power ->
        let st = s.st in
        st.sn <- 0;
        let rest = ref front in
        let rec feed (x : t) = function
          | (y : t) :: tl when y.c <= x.c ->
              ignore (stair_add st (-.y.q) y.p 0);
              feed x tl
          | l -> rest := l
        in
        List.filter
          (fun (x : t) ->
            feed x !rest;
            st.pt.(0) <- -.x.q;
            st.pt.(1) <- x.p;
            (not (Flat.stair_covers st)) || drop ())
          group
    | _ ->
        (* [w]: the heaviest front member passed, [nothing] before the
           first *)
        let[@tail_mod_cons] rec go w front group =
          match (group, front) with
          | [], _ -> []
          | x :: _, (y : t) :: ftl when y.c <= x.c -> go y ftl group
          | x :: tl, _ ->
              if kills ~bound:0.0 w.c w.q x.c x.q then begin
                incr dropped;
                go w front tl
              end
              else match front with [] -> group | _ -> x :: go w front tl
        in
        go nothing front group
  in
  (kept, !dropped)

(* {1 Coordinates-first branch merges}

   A branch merge weighs many more pairings than survive its sweep. So
   the pairings are decided on their coordinates alone. Each walk — a
   left and a right child group, as arrays built once per branch node,
   feeding one target group — writes its pairings into the scratch:
   (c, q, i, ns, p) at stride 5 and the (walk, left, right) origin at
   stride 2, the two indices packed in one int. An index permutation
   orders them for the sweep, which runs on the coordinates, and
   [merge] — record plus Join node — is called for the survivors only,
   through their origins, in the order the materializing merge would
   list them. *)

(* pairing [n]: members [il] of [l] and [ir] of [r] of walk [w], with
   the very expressions [merge] evaluates and energy [p] *)
let[@inline] put (s : Flat.t) n w il ir (a : t) (b : t) p =
  let x = 5 * n and y = 2 * n in
  s.xs.(x) <- a.c +. b.c;
  s.xs.(x + 1) <- Float.min a.q b.q;
  s.xs.(x + 2) <- a.i +. b.i;
  s.xs.(x + 3) <- Float.min a.ns b.ns;
  s.xs.(x + 4) <- p;
  s.js.(y) <- w;
  s.js.(y + 1) <- (il lsl 32) lor ir

(* the survivors — pairing ids [ids.(0 .. nk-1)], in sort order — joined *)
let joined (s : Flat.t) ~arena walks ids nk =
  let survivors = ref [] in
  for k = nk - 1 downto 0 do
    let y = 2 * ids.(k) in
    let (l : t array), (r : t array) = walks.(s.js.(y)) in
    let o = s.js.(y + 1) in
    survivors := merge ~arena l.(o lsr 32) r.(o land 0xffffffff) :: !survivors
  done;
  !survivors

(* The delay-mode merge. Each walk is Van Ginneken's: join the heads,
   then advance the side with the smaller slack, both on a tie. The
   walks are merged as runs, in the order given, ties to the earlier
   walk, as the sweep-only engine's [Frontier.merge_sorted] merges
   them; a run is never re-sorted, because where rounding ties two
   loads it can be out of [cmp_frontier] order, and its order decides
   which of two equal pairings survives. [push] then runs with the
   slope rule on the coordinates. The kept stack doubles as the witness
   index: a pairing from one walk is killed by a lighter pairing from
   any other walk of the slot, exactly the population the sweep-only
   engine sweeps after materializing everything; the slope rule fires
   only on strictly heavier pairings, never on ties. *)
let merge_delay ~scratch:(s : Flat.t) ~arena ~bound walks =
  let walks = Array.of_list walks in
  let nw = Array.length walks in
  let starts = Array.make (nw + 1) 0 in
  Array.iteri
    (fun w ((l : t array), (r : t array)) ->
      let n = ref starts.(w) and il = ref 0 and ir = ref 0 in
      Flat.reserve s ~used:!n (!n + Array.length l + Array.length r - 1);
      while !il < Array.length l && !ir < Array.length r do
        let a = l.(!il) and b = r.(!ir) in
        put s !n w !il !ir a b 0.0;
        s.perm.(!n) <- !n;
        incr n;
        if a.q < b.q then incr il
        else if b.q < a.q then incr ir
        else begin
          incr il;
          incr ir
        end
      done;
      starts.(w + 1) <- !n)
    walks;
  let n = starts.(nw) in
  Flat.merge_runs s starts 0 nw;
  let xs = s.xs and kept = s.aux in
  let nk = ref 0 and dropped = ref 0 and prekilled = ref 0 in
  let top () = 5 * kept.(!nk - 1) in
  for r = 0 to n - 1 do
    let x = s.perm.(r) in
    let c = xs.(5 * x) and q = xs.((5 * x) + 1) in
    if !nk > 0 && xs.(top ()) = c && xs.(top () + 1) <= q then begin
      incr dropped;
      decr nk
    end;
    if !nk > 0 && kills ~bound xs.(top ()) xs.(top () + 1) c q then incr prekilled
    else begin
      kept.(!nk) <- x;
      incr nk
    end
  done;
  (joined s ~arena walks kept !nk, n - !prekilled, !dropped, !prekilled)

let merge_noise ~scratch:(s : Flat.t) ~arena ~bound walks =
  let walks = Array.of_list walks in
  let n =
    Array.fold_left
      (fun n ((l : t array), (r : t array)) -> n + (Array.length l * Array.length r))
      0 walks
  in
  Flat.reserve s ~used:0 n;
  let id = ref 0 in
  Array.iteri
    (fun w ((l : t array), (r : t array)) ->
      for il = 0 to Array.length l - 1 do
        for ir = 0 to Array.length r - 1 do
          (* energy is no axis of the noise order: every pairing ties on it *)
          put s !id w il ir l.(il) r.(ir) 0.0;
          s.perm.(!id) <- !id;
          incr id
        done
      done)
    walks;
  Flat.sort_perm s Flat.Plain 0 n;
  let xs = s.xs and perm = s.perm and kept = s.aux in
  (* the sweep on coordinates: [kills_full ~bound] against every kept
     pairing, newest first. A pairing plain dominance kills is one the
     sweep-only engine also drops ([dropped]); one only the slope term
     kills is [prekilled]. [kept] is a stack of pairing ids in sort
     order. *)
  let nk = ref 0 and dropped = ref 0 and prekilled = ref 0 in
  for r = 0 to n - 1 do
    let x = perm.(r) in
    let c = xs.(5 * x) and q = xs.((5 * x) + 1) in
    let i = xs.((5 * x) + 2) and ns = xs.((5 * x) + 3) in
    (* 0: not killed, 1: plain dominance, 2: slope term only *)
    let verdict = ref 0 and j = ref (!nk - 1) in
    while !verdict <> 1 && !j >= 0 do
      let k = 5 * kept.(!j) in
      let kc = xs.(k) and kq = xs.(k + 1) in
      if kc <= c && xs.(k + 2) <= i && xs.(k + 3) >= ns then
        if kq >= q then verdict := 1
        else if c > kc && q -. kq < bound *. (c -. kc) then verdict := 2;
      decr j
    done;
    match !verdict with
    | 1 -> incr dropped
    | 2 -> incr prekilled
    | _ ->
        (* retro-dominance over the equal-load top of the stack *)
        let lo = ref !nk in
        while !lo > 0 && xs.(5 * kept.(!lo - 1)) = c do
          decr lo
        done;
        let w = ref !lo in
        for j = !lo to !nk - 1 do
          let k = 5 * kept.(j) in
          if q >= xs.(k + 1) && i <= xs.(k + 2) && ns >= xs.(k + 3) then incr dropped
          else begin
            kept.(!w) <- kept.(j);
            incr w
          end
        done;
        kept.(!w) <- x;
        nk := !w + 1
  done;
  (joined s ~arena walks kept !nk, n - !prekilled, !dropped, !prekilled)

let by_slack group =
  let a = Array.of_list group in
  Array.stable_sort (fun (x : t) (y : t) -> Float.compare y.q x.q) a;
  a

(* The group's indices by energy, ascending, ties by index: the
   insertion-energy order of every buffer type *)
let by_energy ~scratch:(s : Flat.t) (group : t array) =
  let n = Array.length group in
  Flat.reserve s ~used:0 n;
  for k = 0 to n - 1 do
    s.xs.((5 * k) + 4) <- group.(k).p;
    s.perm.(k) <- k
  done;
  Flat.sort_perm s Flat.Energy 0 n;
  s.perm

(* Buffer insertion's source choice (Figs. 5 and 11; candidate.mli).
   The slack is [noise_ok]'s and [Tech.Buffer.gate_delay]'s very
   expression on the prepared arrays: no call, no boxed float. *)
let sources ~scratch:(s : Flat.t) ~power ~guard (lib : Tech.Lib.prepared) (group : t array) =
  let r_b = lib.Tech.Lib.r_b and d_b = lib.Tech.Lib.d_b in
  let ntypes = Array.length r_b and n = Array.length group in
  let m = ref 0 in
  if not power then begin
    (* one pass for every type, the running best in entry [k] *)
    Flat.reserve s ~used:0 ntypes;
    let xs = s.xs and js = s.js in
    for k = 0 to ntypes - 1 do
      xs.((5 * k) + 1) <- neg_infinity
    done;
    for j = 0 to n - 1 do
      let a = group.(j) in
      let room = a.ns +. noise_tol in
      for k = 0 to ntypes - 1 do
        let r = r_b.(k) in
        if (not guard) || r *. a.i <= room then begin
          let q = a.q -. (d_b.(k) +. (r *. a.c)) in
          if q > xs.((5 * k) + 1) then begin
            xs.((5 * k) + 1) <- q;
            js.((2 * k) + 1) <- j
          end
        end
      done
    done;
    (* the types some source reached, moved down *)
    for k = 0 to ntypes - 1 do
      if xs.((5 * k) + 1) > neg_infinity then begin
        xs.((5 * !m) + 1) <- xs.((5 * k) + 1);
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
    let order = by_energy ~scratch:s group in
    for k = 0 to ntypes - 1 do
      let e = lib.Tech.Lib.energy.(k) and d = d_b.(k) and r = r_b.(k) in
      (* [best]: the best slack of the cheaper runs, NaN until the first
         member, so that member beats it whatever its slack *)
      let best = ref nan and members = ref [] and x = ref 0 in
      while !x < n do
        let pw = group.(order.(!x)).p +. e in
        let rep = ref (-1) and rep_q = ref neg_infinity in
        while !x < n && group.(order.(!x)).p +. e = pw do
          let j = order.(!x) in
          let a = group.(j) in
          if (not guard) || r *. a.i <= a.ns +. noise_tol then begin
            let q = a.q -. (d +. (r *. a.c)) in
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
          let a = group.(j) in
          s.xs.((5 * !m) + 1) <- a.q -. (d +. (r *. a.c));
          s.js.(2 * !m) <- k;
          s.js.((2 * !m) + 1) <- j;
          incr m)
        !members
    done
  end;
  !m

(* The delay-power branch merge (DESIGN.md §16). The merged slack is
   [min qa qb], so walking one side in descending q while the other
   side's already-passed (q >=) members are folded into a (c, p)
   staircase enumerates a superset of the merged frontier: a pairing
   with an off-staircase partner is weakly dominated by the same
   pairing through the staircase member that (c, p)-covers it, at equal
   or better merged q. Each walk runs two passes — left against the
   right side's staircase (q ties included), right against the left
   side's strictly-above staircase — that see every pairing that can
   matter exactly once. They run interleaved, in descending q with the
   right member first on equal q, each member visiting the other side's
   staircase and then joining its own; every pairing takes its walking
   member's slack. A staircase member's energy falls as its load rises,
   so the over-budget members for one walking candidate are a prefix,
   found by binary search and never emitted.

   All walks of the slot advance together, the member of highest slack
   next, so the pairings arrive in falling slack, and the sweep runs as
   they come: each block of equal slack is sorted by load, current,
   noise slack, energy and rank, then swept on a (c, p) staircase, and
   only its survivors stay in the scratch. A pairing survives iff no
   earlier one has load <= and energy <= its own. Earlier means slack
   >=, and a pairing that weakly dominates another on all three axes
   precedes it in this order iff it does in [cmp_frontier_power]-then-
   rank order, so the survivors are those of the load-order (q, p)
   sweep; only they are sorted into that order and joined. A pairing's
   rank is its place in the order the materializing merge concatenated
   the pairings in: the walks as given, each walk newest pairing first,
   its left pass emitted before its right one. *)
let merge_delay_power ~scratch:(s : Flat.t) ~arena ~budget ~prune walks =
  let walks = Array.of_list walks in
  let nw = Array.length walks in
  Flat.reserve_walks s nw;
  s.st.sn <- 0;
  let cur = s.cur and next_q = s.next_q in
  (* pairing ids [bs .. n-1] form the open block; the survivors of the
     closed ones are stored below it *)
  let n = ref 0 and bs = ref 0 and generated = ref 0 and over = ref 0 in
  (* [a], member [ia] of walk [w]'s left side (with [left]) or right
     side, against [st], the other side's staircase: one pairing per
     in-budget member, in rising load. [cur.(k)] counts the pass's
     pairings. *)
  let visit (st : Flat.stair) w (l : t array) (r : t array) ~left ia (a : t) k =
    let lo = ref 0 and hi = ref st.sn in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if a.p +. st.sv.(mid) > budget then lo := mid + 1 else hi := mid
    done;
    over := !over + !lo;
    Flat.reserve s ~used:!n (!n + st.sn - !lo);
    generated := !generated + st.sn - !lo;
    (* newest first, the right pass before the left one, walk by walk *)
    let base = ((2 * w) + if left then 1 else 0) lsl 40 in
    for m = !lo to st.sn - 1 do
      let ib = st.si.(m) in
      if left then begin
        let b = r.(ib) in
        put s !n w ia ib a b (a.p +. b.p)
      end
      else begin
        let b = l.(ib) in
        put s !n w ib ia b a (b.p +. a.p)
      end;
      s.rank.(!n) <- base - 1 - cur.(k);
      s.perm.(!n) <- !n;
      cur.(k) <- cur.(k) + 1;
      incr n
    done
  in
  (* walk [w]'s next member: the right one on equal slack *)
  let next w =
    let (l : t array), (r : t array) = walks.(w) in
    let il = cur.(5 * w) and ir = cur.((5 * w) + 1) in
    if ir < Array.length r && (il = Array.length l || r.(ir).q >= l.(il).q) then begin
      cur.((5 * w) + 4) <- 2;
      next_q.(w) <- r.(ir).q
    end
    else if il < Array.length l then begin
      cur.((5 * w) + 4) <- 1;
      next_q.(w) <- l.(il).q
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
      if !n > !bs && Float.compare next_q.(w) s.xs.((5 * !bs) + 1) < 0 then begin
        if prune then n := Flat.sweep_block s !bs !n;
        bs := !n
      end;
      let (l : t array), (r : t array) = walks.(w) in
      let il = cur.(5 * w) and ir = cur.((5 * w) + 1) in
      (* a side's staircase serves only the other side's members still
         to come: none left, nothing to add *)
      if cur.((5 * w) + 4) = 2 then begin
        let b = r.(ir) in
        visit s.walk_st.(2 * w) w l r ~left:false ir b ((5 * w) + 3);
        if il < Array.length l then ignore (stair_add s.walk_st.((2 * w) + 1) b.c b.p ir);
        cur.((5 * w) + 1) <- ir + 1
      end
      else begin
        let a = l.(il) in
        visit s.walk_st.((2 * w) + 1) w l r ~left:true il a ((5 * w) + 2);
        if ir < Array.length r then ignore (stair_add s.walk_st.(2 * w) a.c a.p il);
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
  (joined s ~arena walks s.perm nk, !generated, !generated - nk, !over)
