module T = Rctree.Tree
module C = Candidate

type mode =
  | Single
  | Per_count of int
  | Up_to of int
  | Power_bounded of { budget : float; kmax : int }

type mutation = Cq_noise_prune | No_attach_guard | Loose_pred_bound

type stats = {
  generated : int;
  pruned : int;
  pred_pruned : int;
  power_pruned : int;
  count_pruned : int;
  peak_width : int;
  arena : int;
  minor_words : float;
}

let considered s = s.generated + s.pred_pruned + s.power_pruned

let survivors s = s.generated - s.pruned - s.count_pruned

type result = {
  slack : float;
  placements : Rctree.Surgery.placement list;
  sizes : (int * float) list;
  count : int;
  energy : float;
  stats : stats;
}

type outcome = { best : result option; by_count : result option array; stats : stats }

(* A node's table holds one {!Flat.group} per slot [2*bucket + parity]
   (bucket 0 in Single mode), sorted by load from sink to root; no row
   changes once written (DESIGN.md §8). The tables live on the domain's
   row stack: a node's table is written above its children's and slid
   down over them. Solutions live in a Trace arena; only the winning
   root rows are reconstructed, at the very end.

   The memo (DESIGN.md §14.4, dp.mli) caches each node's [above] table —
   the DP summary of its subtree — copied out of the row stack, stamped
   with the climb bound it was built under and, memo-wide, with the
   configuration. The rows' trace handles point into the memo's
   resident, append-only arena, which only [clear] replaces. *)

module Memo = struct
  type entry = {
    kept : Flat.table;  (** the above-table, pre-insertion *)
    bound : float;  (** climb bound the entry was built under *)
  }

  type t = {
    mutable entries : entry option array;  (* indexed by node id *)
    mutable stamp : string;  (* config fingerprint; "" = never stamped *)
    mutable arena : Trace.arena;
    mutable hits : int;
    mutable misses : int;
  }

  let create () =
    { entries = [||]; stamp = ""; arena = Trace.create (); hits = 0; misses = 0 }

  let clear t =
    t.entries <- [||];
    t.stamp <- "";
    t.arena <- Trace.create ()

  let dirty t tree v =
    if Array.length t.entries > 0 then
      List.iter
        (fun u -> if u < Array.length t.entries then t.entries.(u) <- None)
        (T.path_up tree v)

  let stored t =
    Array.fold_left (fun a e -> if e = None then a else a + 1) 0 t.entries

  let arena_nodes t = Trace.size t.arena - 1

  let hits t = t.hits

  let misses t = t.misses

  (* RATs and wire values are deliberately absent: edits to them are the
     caller's dirty-marking duty (plus the per-entry bound stamp), and
     hashing them here would turn every edit into a full cache drop. *)
  let stamp ~pruning ~widths ~mutation ~noise ~mode ~lib tree =
    let topo = ref 0 in
    for v = 0 to T.node_count tree - 1 do
      let tag =
        match T.kind tree v with
        | T.Source _ -> 0
        | T.Sink _ -> 1
        | T.Internal -> 2
        | T.Buffered _ -> 3
      in
      topo := Hashtbl.hash (!topo, T.parent tree v, tag, T.feasible tree v)
    done;
    Marshal.to_string
      (pruning, widths, mutation, noise, mode, lib, T.node_count tree, !topo)
      []
end

(* What a domain's runs reuse (DESIGN.md §8): the memo-less runs'
   arena, reset by each, the staging areas, the row stack and the
   count fronts. Everything here grows past 256 words when it grows, so
   a run's minor words do not depend on the runs before it. *)
type scratch = {
  arena : Trace.arena;
  areas : Flat.t array;  (* each parity's staging area *)
  src : Flat.t;
  rows : Flat.store;
  fronts : C.front array;
  mutable busy : bool;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      let areas = [| Flat.create (); Flat.create () |] in
      (* the walk staircases, created now rather than in a run *)
      Array.iter (fun a -> Flat.reserve_walks a 1) areas;
      {
        arena = Trace.create ();
        areas;
        src = Flat.create ();
        rows = Flat.store ();
        fronts = [| C.front (); C.front () |];
        busy = false;
      })

(* the library's indices in [arena]'s buffer table, in list order *)
let intern arena lib = Array.of_list (List.map (Trace.intern arena) lib)

(* the Loose_pred_bound mutation inflates the upstream-resistance bound
   by this factor: the slope rule then over-prunes and the predictive
   engine's outcomes drift from the sweep-only reference *)
let loose_bound_factor = 1.25

let solve sc ~pruning ~widths ~mutation ~memo ~noise ~mode ~lib tree =
  (* a memo-less run's nodes go into the domain's arena, emptied; its
     buffers are interned before the count starts, since the table
     grows only on a domain's first runs *)
  let own = match memo with None -> true | Some _ -> false in
  if own then Trace.reset sc.arena;
  let own_bufs = if own then intern sc.arena lib else [||] in
  (* Domain-local allocation accounting: Gc.minor_words reads the calling
     domain's own counter, so concurrent domains in a batch never
     contaminate a run's delta, and on this runtime its in-progress
     region term is exact, so deltas are word-precise across minor
     collections. *)
  let minor0 = Gc.minor_words () in
  (* with a memo, candidates go into its resident arena so cached trace
     handles from earlier runs stay reconstructible; a mismatched config
     stamp drops the cache before any entry could be misread *)
  let arena =
    match memo with
    | None -> sc.arena
    | Some (m : Memo.t) ->
        let stamp = Memo.stamp ~pruning ~widths ~mutation ~noise ~mode ~lib tree in
        if m.Memo.stamp <> stamp then begin
          Memo.clear m;
          m.Memo.stamp <- stamp
        end;
        if Array.length m.Memo.entries <> T.node_count tree then
          m.Memo.entries <- Array.make (T.node_count tree) None;
        m.Memo.arena
  in
  let bufs = if own then own_bufs else intern arena lib in
  let arena0 = Trace.size arena and headers0 = Trace.header_words arena in
  (* mutation smoke (DESIGN.md §10): deliberately broken variants used
     only to prove the Check subsystem catches them *)
  let cq_prune = mutation = Some Cq_noise_prune in
  let attach_guard = mutation <> Some No_attach_guard in
  let counted, kmax, budget =
    match mode with
    | Single -> (false, max_int, infinity)
    | Per_count k | Up_to k -> (true, k, infinity)
    | Power_bounded { budget; kmax } -> (true, kmax, budget)
  in
  (* Count dominance (DESIGN.md §17): every counted mode but Per_count
     wants only the count-slack front, so a candidate that a
     same-parity one with fewer buffers dominates is dropped; Per_count
     keeps every bucket exact. *)
  let front_only =
    match mode with Up_to _ | Power_bounded _ -> true | Single | Per_count _ -> false
  in
  let nbuckets = if counted then kmax + 1 else 1 in
  (* Power mode (DESIGN.md §16): the energy coordinate becomes a pruning
     axis and an insertion budget. *)
  let power =
    match mode with Power_bounded _ -> true | Single | Per_count _ | Up_to _ -> false
  in
  if power && not (budget >= 0.0) then invalid_arg "Dp.run: negative power budget";
  if power && noise then invalid_arg "Dp.run: power mode is delay-only";
  (* ulp-scale headroom: candidate energy accumulates in tree-merge order,
     so at an exact-boundary budget (the sum of k buffer energies) the
     optimum can land one rounding step above the nominal budget. The
     slack is far below any real energy difference, and the reported
     winner still satisfies the budget under the same relative
     tolerance. *)
  let eff_budget = budget +. (Float.abs budget *. 1e-12) in
  let nslots = 2 * nbuckets in
  let plib = Tech.Lib.prepare lib in
  (* Predictive pruning (Li & Shi; DESIGN.md §12). The slope rule bounds
     how a load difference erodes a slack difference; in noise mode the
     witness must also carry no more current and keep at least the noise
     slack (Candidate.kills_full), since upstream wire noise grows with
     [i], merges add [i] and take the min of [ns], and the attach guard
     is monotone in both. It stays off in power mode — the slope says
     nothing about the energy axis a budget must preserve (the witness
     may be the costlier candidate) — and under [`Off] (Ablation B wants
     the full population). *)
  let prune = pruning <> `Off in
  let pred = (not power) && pruning = `Predictive in
  let bounds =
    if not pred then [||]
    else begin
      let max_width = List.fold_left Float.max 1.0 widths in
      let b = Rctree.Upbound.compute tree ~r_gate_min:plib.Tech.Lib.r_min ~max_width in
      if mutation = Some Loose_pred_bound then
        Array.iteri (fun i x -> b.(i) <- x *. loose_bound_factor) b;
      b
    end
  in
  let generated = ref 0 and pruned = ref 0 and pred_pruned = ref 0 in
  let power_pruned = ref 0 and count_pruned = ref 0 in
  let peak_width = ref 0 in
  (* (c, q) staircase in delay mode ((c, q, p) in power mode), full
     (c, q, i, ns) dominance in noise mode; the Cq_noise_prune mutation
     sweeps noise mode on (c, q) *)
  let staircase = (not noise) || cq_prune in
  let order = if power then Flat.Power else Flat.Plain in
  (* each parity's staging area, a scratch, and the row stack *)
  let areas = sc.areas and src = sc.src and rows = sc.rows in
  rows.Flat.len <- 0;
  let write a ~at nk = Flat.write a ~arena ~at ~bufs rows nk in
  (* The sweep of the staged rows [perm.(0 .. n-1)], every drop counted
     in [pruned]; returns the survivors' count. [bound] is the site's
     predictive bound (0 when predictive pruning is off), read by the
     noise sweep only: the delay staircases kill before staging. *)
  let sweep a ~bound n =
    if not prune then n
    else begin
      let nk =
        if not staircase then fst (C.sweep_full a ~bound n)
        else if power then C.sweep_power a n
        else fst (C.sweep_delay a ~bound:0.0 n)
      in
      pruned := !pruned + n - nk;
      nk
    end
  in
  (* in noise mode a gate never drives a candidate it would make noisy *)
  let guard = noise && attach_guard in
  let note_width (tbl : Flat.table) =
    for t = 0 to nslots - 1 do
      let w = tbl.(t).Flat.n in
      if w > !peak_width then peak_width := w
    done
  in
  (* The highest bucket with a row, -1 for none. *)
  let live (tbl : Flat.table) =
    let t = ref (nslots - 1) in
    while !t >= 0 && tbl.(!t).Flat.n = 0 do
      decr t
    done;
    if !t < 0 then -1 else !t asr 1
  in
  (* [held.(p)]: the node whose climbed table's slot [held_slot.(p)]
     parity [p]'s area still holds staged, survivors in [perm] as the
     climb's sweep left them; -1 for none *)
  let held = [| -1; -1 |] and held_slot = [| -1; -1 |] in
  (* A table through the wire below node [at], at every width
     (simultaneous wire sizing, Lillis et al. [18]): each width's climb
     is one run, and the runs are merged, ties to the earlier width.
     [bound] is the Upbound value of the wire's upper end, where the
     climbed table lives. Slot [t] is climbed in parity [t]'s area,
     where its survivors stay staged until the area's next use. *)
  let starts = Array.make (List.length widths + 2) 0 in
  (* the climbs of [g] at widths [f ..], run after run *)
  let rec climbs s ~at ~bound w g f = function
    | [] -> ()
    | width :: rest ->
        let w' = if width = 1.0 then w else T.resize_wire w ~width in
        let n, emitted, killed, noisy =
          C.climb s ~arena ~at ~width ~pred ~bound ~noise:(not staircase) ~drop:noise w' g
            starts.(f)
        in
        generated := !generated + emitted;
        pred_pruned := !pred_pruned + killed;
        pruned := !pruned + noisy;
        starts.(f + 1) <- n;
        climbs s ~at ~bound w g (f + 1) rest
  in
  let apply_wire ~at ~bound w (tbl : Flat.table) =
    let widths = if w.T.length <= 0.0 then [ 1.0 ] else widths in
    let nfam = List.length widths in
    let out = Array.make nslots Flat.empty in
    for t = 0 to nslots - 1 do
      let g = tbl.(t) and p = t land 1 in
      if g.Flat.n > 0 then begin
        let s = areas.(p) in
        climbs s ~at ~bound w g 0 widths;
        Flat.merge_runs s order starts 0 nfam;
        out.(t) <- write s ~at (sweep s ~bound starts.(nfam));
        held.(p) <- at;
        held_slot.(p) <- t
      end
    done;
    out
  in
  (* Every (left slot, right slot) pairing of a branch node's two child
     tables that may merge — equal parity, bucket sum within kmax, both
     groups non-empty — listed by the slot the pairing lands in, the
     children's live buckets only: pairing [i] is [(wsl.(i), wsr.(i))],
     slot [t]'s list starts at [whead.(t)] (-1: none) and goes on at
     [wnext.(i)], the last one found first. *)
  let whead = Array.make nslots (-1) in
  let wsl = Array.make (nslots * nbuckets) 0 in
  let wsr = Array.make (nslots * nbuckets) 0 and wnext = Array.make (nslots * nbuckets) 0 in
  let pairings lt rt ~hl ~hr =
    Array.fill whead 0 nslots (-1);
    let i = ref 0 in
    for sl = 0 to (2 * hl) + 1 do
      let p = sl land 1 and kl = sl asr 1 in
      if lt.(sl).Flat.n > 0 then
        for kr = 0 to min hr (kmax - kl) do
          let sr = (2 * kr) + p and t = (if counted then 2 * (kl + kr) else 0) + p in
          if rt.(sr).Flat.n > 0 then begin
            wsl.(!i) <- sl;
            wsr.(!i) <- sr;
            wnext.(!i) <- whead.(t);
            whead.(t) <- !i;
            incr i
          end
        done
    done
  in
  (* slot [t]'s walks, as the merges take them *)
  let walks = Array.make (2 * nslots * nbuckets) 0 in
  let walks_to t =
    let nw = ref 0 and i = ref whead.(t) in
    while !i >= 0 do
      walks.(2 * !nw) <- wsl.(!i);
      walks.((2 * !nw) + 1) <- wsr.(!i);
      incr nw;
      i := wnext.(!i)
    done;
    !nw
  in
  (* count dominance (DESIGN.md §17): a parity's front drops what it dominates *)
  let outcount = prune && front_only in
  let fronts = sc.fronts in
  let front_drop a p ~from n =
    let nk = C.front_drop a fronts.(p) ~noise:(not staircase) ~power ~from n in
    count_pruned := !count_pruned + n - nk;
    nk
  in
  (* The walks feeding one slot of a branch node, staged in [a] and
     decided together (DESIGN.md §12): Van Ginneken's walk, every pairing
     in noise mode, the staircase pairings of the slack-ordered [ls] and
     [rs] in power mode; without [prune], all of Van Ginneken's but in
     power mode. Outside the predictive and power engines a pairing
     killed on arrival counts as generated and pruned. *)
  let merge_slot a ~bound (lt, rt, ls, rs) nw =
    let nk, considered, dropped, skipped =
      if power then C.merge_delay_power a ~budget:eff_budget ~prune ls rs walks nw
      else if staircase || not prune then C.merge_delay a ~bound ~prune lt rt walks nw
      else C.merge_noise a ~bound lt rt walks nw
    in
    if pred || power then begin
      generated := !generated + considered;
      pruned := !pruned + dropped;
      let skips = if power then power_pruned else pred_pruned in
      skips := !skips + skipped
    end
    else begin
      generated := !generated + considered + skipped;
      pruned := !pruned + dropped + skipped
    end;
    nk
  in
  (* A branch or feasible node's table, bucket by bucket in rising
     count (DESIGN.md §17). A slot's base — the branch's pairings or the
     climbed rows, less what the front drops — is written as the next
     bucket's insertion sources (Figs. 5 and 11). Stand-ins past the
     budget ([power_pruned]) and pre-checks ([pred_pruned]) are staged
     after their target's base, newest first, then sorted and merged in,
     tested and swept: only survivors get a node. *)
  let bases = Array.make nslots Flat.empty in
  let nb = [| 0; 0 |] and top = [| 0; 0 |] and ne = [| 0; 0 |] in
  (* slot [t] of child [c]'s climbed table [g], staged in parity [p]'s
     area: where the climb left it, if the area still holds it *)
  let stage_climbed a p c t g =
    if held.(p) = c && held_slot.(p) = t then begin
      held.(p) <- -1;
      Flat.top a g.Flat.n
    end
    else begin
      held.(p) <- -1;
      Flat.stage a g
    end
  in
  let node ~bound v ~feasible input =
    let hi, sides =
      match input with
      | `Climbed (_, c) -> (live c, ([||], [||], [||], [||]))
      | `Branch (lt, rt) ->
          let ls, rs =
            if power then (Array.map (C.by_slack src) lt, Array.map (C.by_slack src) rt)
            else ([||], [||])
          in
          let hl = live lt and hr = live rt in
          pairings lt rt ~hl ~hr;
          (hl + hr, (lt, rt, ls, rs))
    in
    (* merges land at [kl + kr], stand-ins a bucket above their source *)
    let kt = min (nbuckets - 1) (hi + 1) in
    Array.iter C.front_clear fronts;
    let tbl = Array.make nslots Flat.empty in
    (* Slots are final in slot order; one written behind the previous
       one, or a child's group passed through, is copied to the top, so
       the table lies above its children in slot order for the slide. *)
    let last = ref (-1) in
    let final t (g : Flat.group) ~own =
      let g = if own && g.Flat.o > !last then g else Flat.copy_group rows g in
      if g.Flat.n > 0 then last := g.Flat.o;
      tbl.(t) <- g
    in
    for k = 0 to kt do
      for p = 0 to 1 do
        let t = (2 * k) + p and a = areas.(p) in
        (* climbed rows are staged for the front, else at their slot's
           first stand-in ([top.(p) = -1] until then) *)
        let staged = match input with `Climbed _ -> outcount && k > 0 | `Branch _ -> true in
        let n =
          match input with
          | `Climbed (c, ct) ->
              if staged then ignore (stage_climbed a p c t ct.(t));
              ct.(t).Flat.n
          | `Branch _ -> if whead.(t) < 0 then 0 else merge_slot a ~bound sides (walks_to t)
        in
        let n = if outcount && k > 0 && n > 0 then front_drop a p ~from:0 n else n in
        nb.(p) <- n;
        top.(p) <- (if staged then Flat.top a n else -1);
        ne.(p) <- 0;
        bases.(t) <-
          (match input with
          | `Climbed (_, c) when n = c.(t).Flat.n -> c.(t)
          | `Climbed _ | `Branch _ -> write a ~at:v n)
      done;
      (* the sources: the bucket below's bases, or this one's in Single mode *)
      let lo = if counted then 2 * (k - 1) else 0 in
      if feasible && lo >= 0 then
        for sl = lo to lo + 1 do
          let g = bases.(sl) in
          let n = if g.Flat.n = 0 then 0 else C.sources src ~power ~guard plib g in
          for m = 0 to n - 1 do
            let ti = src.js.(2 * m) and j = src.js.((2 * m) + 1) in
            let q = src.xs.((6 * m) + 1) in
            let p = if plib.Tech.Lib.inverting.(ti) then 1 - (sl land 1) else sl land 1 in
            let t = (2 * k) + p in
            if g.Flat.a.(g.Flat.o + (6 * j) + 4) +. plib.Tech.Lib.energy.(ti) > eff_budget then
              incr power_pruned
            else if
              pred
              && C.covered src m ~bound ~noise:(not staircase) plib ti bases.(t)
            then incr pred_pruned
            else begin
              incr generated;
              if top.(p) < 0 then
                top.(p) <-
                  (match input with
                  | `Climbed (c, _) -> stage_climbed areas.(p) p c t bases.(t)
                  | `Branch _ -> Flat.stage areas.(p) bases.(t));
              let a = areas.(p) and x = top.(p) + ne.(p) in
              Flat.reserve a ~used:x (x + 1);
              C.stand_in a x plib ti g j q;
              ne.(p) <- ne.(p) + 1
            end
          done
        done;
      for p = 0 to 1 do
        let t = (2 * k) + p and a = areas.(p) in
        if ne.(p) = 0 then
          final t bases.(t)
            ~own:(match input with `Climbed (_, c) -> bases.(t) != c.(t) | `Branch _ -> true)
        else begin
          for e = 0 to ne.(p) - 1 do
            a.Flat.perm.(nb.(p) + e) <- top.(p) + ne.(p) - 1 - e
          done;
          let n = Flat.splice a order nb.(p) ne.(p) in
          let n = if outcount && k > 0 then front_drop a p ~from:top.(p) n else n in
          final t (write a ~at:v (sweep a ~bound n)) ~own:true
        end;
        if outcount then C.front_add fronts.(p) ~noise:(not staircase) ~power tbl.(t)
      done
    done;
    held.(0) <- -1;
    held.(1) <- -1;
    tbl
  in
  let site_bound v = if pred then bounds.(v) else 0.0 in
  (* Memo plumbing for [above]: a store copies the table out of the row
     stack, and a hit serves that copy in place — no row changes once
     written. *)
  let memo_get c ~bound =
    match memo with
    | None -> None
    | Some (m : Memo.t) -> (
        match m.Memo.entries.(c) with
        | Some e when e.Memo.bound = bound ->
            m.Memo.hits <- m.Memo.hits + 1;
            Some e.Memo.kept
        | Some _ | None -> None)
  in
  let memo_set c ~bound tbl =
    match memo with
    | None -> ()
    | Some (m : Memo.t) ->
        m.Memo.misses <- m.Memo.misses + 1;
        m.Memo.entries.(c) <- Some { Memo.kept = Flat.copy_out tbl; bound }
  in
  (* Each table is built above the row stack's top at entry and slid
     down to it; a child's table is dead once its parent's is built. *)
  let rec at v =
    match T.kind tree v with
    | T.Sink sk ->
        let tbl = Array.make nslots Flat.empty in
        incr generated;
        Flat.reserve src ~used:0 1;
        let xs = src.Flat.xs in
        xs.(0) <- sk.T.c_sink;
        xs.(1) <- sk.T.rat;
        xs.(2) <- 0.0;
        xs.(3) <- sk.T.nm;
        xs.(4) <- 0.0;
        xs.(5) <- float_of_int Trace.leaf;
        src.Flat.js.(0) <- 0;
        src.Flat.perm.(0) <- 0;
        tbl.(0) <- write src ~at:v 1;
        tbl
    | T.Buffered _ | T.Source _ -> assert false
    | T.Internal ->
        let bound = site_bound v and feasible = T.feasible tree v in
        let base = rows.Flat.len in
        let tbl =
          match T.children tree v with
          | [ c ] when not feasible -> above c
          | [ c ] -> built ~base (node ~bound v ~feasible (`Climbed (c, above c)))
          | [ cl; cr ] -> built ~base (node ~bound v ~feasible (`Branch (above cl, above cr)))
          | _ -> assert false
        in
        note_width tbl;
        tbl
  and above c =
    let bound = site_bound (T.parent tree c) in
    match memo_get c ~bound with
    | Some tbl -> tbl
    | None ->
        let base = rows.Flat.len in
        let tbl = built ~base (apply_wire ~at:c ~bound (T.wire_to tree c) (at c)) in
        note_width tbl;
        memo_set c ~bound tbl;
        tbl
  and built ~base tbl =
    Flat.slide rows ~base tbl;
    tbl
  in
  let root = T.root tree in
  let d =
    match T.kind tree root with
    | T.Source d -> d
    | T.Sink _ | T.Internal | T.Buffered _ -> assert false
  in
  let top : Flat.table =
    match T.children tree root with
    | [ c ] -> above c
    | [ cl; cr ] ->
        node ~bound:(site_bound root) root ~feasible:false (`Branch (above cl, above cr))
    | _ -> assert false
  in
  (* Winners first, reconstruction after: only the per-bucket best root
     row pays the arena walk. The rows are visited last slot and last row
     first, and a later row takes a bucket only with a strictly higher
     slack. The driver adds no energy, and every insertion and merge
     enforced the budget, so every root row is within it. *)
  let winners = Array.make nbuckets None in
  for sl = nslots - 1 downto 0 do
    let g = top.(sl) in
    let ga = g.Flat.a and go = g.Flat.o in
    if sl land 1 = 0 then
      for k = g.Flat.n - 1 downto 0 do
        let x = go + (6 * k) in
        let c = ga.(x) and i = ga.(x + 2) and ns = ga.(x + 3) in
        if (not guard) || d.T.r_drv *. i <= ns +. C.noise_tol then begin
          let q = ga.(x + 1) -. (d.T.d_drv +. (d.T.r_drv *. c)) in
          let idx = if counted then sl asr 1 else 0 in
          match winners.(idx) with
          | Some (best, _) when best >= q -> ()
          | Some _ | None -> winners.(idx) <- Some (q, Flat.trace g k)
        end
      done
  done;
  (* the count-slack front: a count's winner stays only where its slack
     beats every lower count's *)
  if front_only then begin
    let top = ref neg_infinity in
    Array.iteri
      (fun k -> function
        | Some (q, _) when q > !top -> top := q
        | Some _ -> winners.(k) <- None
        | None -> ())
      winners
  end;
  let reconstructed =
    Array.map
      (Option.map (fun (q, h) ->
           let placements = Trace.placements arena h in
           (q, placements, Trace.sizes arena h, List.length placements, Trace.energy arena h)))
      winners
  in
  let stats =
    {
      generated = !generated;
      pruned = !pruned;
      pred_pruned = !pred_pruned;
      power_pruned = !power_pruned;
      count_pruned = !count_pruned;
      peak_width = !peak_width;
      (* per-run delta: under a memo the arena is resident and carries
         every previous run's traces *)
      arena = Trace.size arena - arena0;
      minor_words = Gc.minor_words () -. minor0 -. (Trace.header_words arena -. headers0);
    }
  in
  let by_count =
    Array.map
      (Option.map (fun (slack, placements, sizes, count, energy) ->
           { slack; placements; sizes; count; energy; stats }))
      reconstructed
  in
  let best =
    Array.fold_left
      (fun acc r ->
        match (acc, r) with
        | None, x -> x
        | Some _, None -> acc
        | Some a, Some b -> if b.slack > a.slack then r else acc)
      None by_count
  in
  { best; by_count; stats }

(* One run at a time per domain: the scratch is the domain's. *)
let run ?(pruning = `Predictive) ?(widths = [ 1.0 ]) ?mutation ?memo ~noise ~mode ~lib tree =
  if widths = [] || List.exists (fun w -> w < 1.0) widths then
    invalid_arg "Dp.run: widths must be >= 1";
  if lib = [] then invalid_arg "Dp.run: empty buffer library";
  if T.buffer_count tree > 0 then invalid_arg "Dp.run: tree already contains buffers";
  let sc = Domain.DLS.get scratch_key in
  if sc.busy then invalid_arg "Dp.run: re-entered on a domain already running it";
  sc.busy <- true;
  match solve sc ~pruning ~widths ~mutation ~memo ~noise ~mode ~lib tree with
  | o ->
      sc.busy <- false;
      o
  | exception e ->
      sc.busy <- false;
      raise e
