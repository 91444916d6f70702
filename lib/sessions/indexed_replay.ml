(* Indexed phase-2 replay: per-session counting variables computed by
   binary-searched range counts over a Write_index instead of rescanning
   the trace. Bit-identical to Replay.replay_shard (the scan engine) by
   construction — see the .mli for the counting identities and the
   semantics quirks deliberately preserved.

   The central structure is the SEGMENT: a maximal run of words (pages)
   of the session's monitored ranges that share the same covering
   install/remove events, hence the same live windows. A local variable
   installed on every one of 46k calls contributes one segment with 46k
   windows — not 46k hashtable entries — and a monitored megabyte-sized
   array contributes one segment whose counting loop visits only the
   words the trace ever wrote (the posting keys), not every word. *)

module Trace = Ebp_trace.Trace
module W = Ebp_trace.Write_index
module Metrics = Ebp_obs.Metrics
module Obs_span = Ebp_obs.Span

(* [replay.sessions] / [replay.shards] are the same metrics Replay
   registers (registration is idempotent by name), so the totals hold
   whichever engine ran. The indexed-only counters are accumulated in
   shard-local refs and published once per shard — the counting loops
   themselves stay metrics-free. *)
let m_sessions = Metrics.counter "replay.sessions"
let m_shards = Metrics.counter "replay.shards"
let m_segments = Metrics.counter "replay.indexed.segments"
let m_range_queries = Metrics.counter "replay.indexed.range_queries"

module Vec = Ebp_util.Int_vec

(* Live windows are open event-index intervals (a, b): a session is live
   for writes at positions t with a < t < b. Stored flattened as
   [a0; b0; a1; b1; ...], sorted and disjoint. *)

(* Is event [t] inside some window? Binary search on window starts. *)
let window_contains windows t =
  let n = Array.length windows / 2 in
  (* Largest i with windows.(2i) < t. *)
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if windows.(2 * mid) < t then lo := mid + 1 else hi := mid
  done;
  !lo > 0 && t < windows.((2 * (!lo - 1)) + 1)

(* --- grouping timeline entries by identical range --- *)

(* One group = all install/remove events of the session whose range maps
   to exactly the words (pages) [g_lo, g_hi], as packed
   ((ev lsl 1) lor tag) values. Keyed by g_lo in the table; distinct
   g_hi under one g_lo are rare (address reuse at different sizes).
   [runs] records where a pushed value broke ascending order: the Vec is
   then a concatenation of sorted runs (per-object timelines are
   chronological), merged without a comparison-closure sort later. *)
type group = {
  g_lo : int;
  g_hi : int;
  evs : Vec.t;
  runs : Vec.t;
  mutable last : int;
}

(* A session's timeline revisits the same range consecutively (every
   install/remove of one object, and of stack-slot reuse) — memoize the
   last group per granularity so the common case is one push. *)
type grouping = {
  tbl : (int, group list ref) Hashtbl.t;
  mutable memo_lo : int;
  mutable memo_hi : int;
  mutable memo : group option;
  mutable count : int;
}

let make_grouping n =
  { tbl = Hashtbl.create n; memo_lo = -1; memo_hi = -1; memo = None; count = 0 }

let push_group g packed =
  if packed < g.last then Vec.push g.runs g.evs.Vec.len;
  g.last <- packed;
  Vec.push g.evs packed

let add_item gr ~lo ~hi packed =
  match gr.memo with
  | Some g when gr.memo_lo = lo && gr.memo_hi = hi -> push_group g packed
  | _ ->
      let gs =
        match Hashtbl.find_opt gr.tbl lo with
        | Some gs -> gs
        | None ->
            let gs = ref [] in
            Hashtbl.add gr.tbl lo gs;
            gs
      in
      let g =
        match List.find_opt (fun g -> g.g_hi = hi) !gs with
        | Some g -> g
        | None ->
            let g =
              { g_lo = lo; g_hi = hi; evs = Vec.create (); runs = Vec.create ();
                last = min_int }
            in
            gs := g :: !gs;
            gr.count <- gr.count + 1;
            g
      in
      gr.memo_lo <- lo;
      gr.memo_hi <- hi;
      gr.memo <- Some g;
      push_group g packed

let groups_of_grouping gr =
  match gr.count, gr.memo with
  | 0, _ -> [||]
  | 1, Some g -> [| g |] (* single-range sessions: no collect, no sort *)
  | _ ->
      let acc = ref [] in
      Hashtbl.iter (fun _ gs -> acc := List.rev_append !gs !acc) gr.tbl;
      let arr = Array.of_list !acc in
      Array.sort
        (fun a b ->
          if a.g_lo <> b.g_lo then compare a.g_lo b.g_lo
          else compare a.g_hi b.g_hi)
        arr;
      arr

(* A group's events as one ascending run: already sorted when fed by a
   single object (the common case — runs is empty); otherwise merge its
   recorded runs (per-object timelines are chronological, so the Vec is a
   concatenation of sorted runs; event positions are distinct). *)
let sorted_events g =
  if g.runs.Vec.len = 0 then Vec.to_array g.evs
  else begin
    let nruns = g.runs.Vec.len + 1 in
    (* Run r occupies [starts.(r), starts.(r+1)). *)
    let starts = Array.make (nruns + 1) 0 in
    Array.blit g.runs.Vec.data 0 starts 1 g.runs.Vec.len;
    starts.(nruns) <- g.evs.Vec.len;
    Vec.merge_runs (Vec.to_array g.evs) starts nruns
  end

(* A group prepared for segment building: its range plus its events as
   one sorted array. The page-granularity pgroups of a view are derived
   from the word pgroups by shifting the range — a word's bytes share a
   page, so page range = word range lsr (page shift - 2). The event
   array is shared, not copied, and ranges that collide after shifting
   merge in the cluster sweep below. *)
type pgroup = { p_lo : int; p_hi : int; p_evs : int array }

let pgroups_of_grouping gr =
  Array.map
    (fun g -> { p_lo = g.g_lo; p_hi = g.g_hi; p_evs = sorted_events g })
    (groups_of_grouping gr)

let shift_pgroups sh wpg =
  let arr =
    Array.map (fun g -> { g with p_lo = g.p_lo lsr sh; p_hi = g.p_hi lsr sh }) wpg
  in
  Array.sort
    (fun a b ->
      if a.p_lo <> b.p_lo then compare a.p_lo b.p_lo
      else compare a.p_hi b.p_hi)
    arr;
  arr

(* --- liveness automatons (windows from a sorted event run) --- *)

(* Word-granularity liveness follows the scan engine's id_set semantics:
   idempotent install (a second covering install while live is a no-op)
   and absolute remove (any covering remove kills the word, even if
   another matching object still covers it). *)
let word_windows ~events packed =
  let wins = Vec.create () in
  let live = ref false and start = ref 0 in
  Array.iter
    (fun p ->
      let ev = p lsr 1 in
      if p land 1 = 0 then begin
        if not !live then begin
          live := true;
          start := ev
        end
      end
      else if !live then begin
        live := false;
        Vec.push wins !start;
        Vec.push wins ev
      end)
    packed;
  if !live then begin
    Vec.push wins !start;
    Vec.push wins events
  end;
  (Vec.to_array wins, 0, 0)

(* Page-granularity liveness is refcounted (the scan engine's
   (session, page) -> count table): protect on 0 -> 1, unprotect on
   1 -> 0, removes without a matching install are no-ops. Also returns
   the per-page transition counts. *)
let page_windows ~events packed =
  let wins = Vec.create () in
  let protects = ref 0 and unprotects = ref 0 in
  let count = ref 0 and start = ref 0 in
  Array.iter
    (fun p ->
      let ev = p lsr 1 in
      if p land 1 = 0 then begin
        incr count;
        if !count = 1 then begin
          incr protects;
          start := ev
        end
      end
      else if !count > 0 then begin
        decr count;
        if !count = 0 then begin
          incr unprotects;
          Vec.push wins !start;
          Vec.push wins ev
        end
      end)
    packed;
  if !count > 0 then begin
    Vec.push wins !start;
    Vec.push wins events
  end;
  (Vec.to_array wins, !protects, !unprotects)

(* --- segments --- *)

(* Sorted disjoint word (page) runs, each with its windows; [prot] and
   [unprot] accumulate the per-key protection transitions times the run
   width (every page of a segment undergoes the same transitions). *)
type segs = {
  s_lo : int array;
  s_hi : int array;
  s_wins : int array array;
  prot : int;
  unprot : int;
}

(* Decompose the session's (sorted) pgroups into segments. Groups whose
   ranges don't overlap any other — the overwhelmingly common case — map
   1:1 to segments. Transitively overlapping groups (address reuse at
   different extents, objects sharing a page) form a cluster, swept at
   its range breakpoints; the covering groups' events are merged per
   sub-segment. *)
let build_segments ~events ~windows_of groups =
  let n = Array.length groups in
  let lo = Vec.create () and hi = Vec.create () in
  let wins = ref [] and nsegs = ref 0 in
  let prot = ref 0 and unprot = ref 0 in
  let emit s_lo s_hi w p u =
    (* A protect always opens a window, so a windowless segment (e.g. all
       removes) carries no transitions and no live time: skip it. *)
    if Array.length w > 0 then begin
      Vec.push lo s_lo;
      Vec.push hi s_hi;
      wins := w :: !wins;
      incr nsegs;
      prot := !prot + (p * (s_hi - s_lo + 1));
      unprot := !unprot + (u * (s_hi - s_lo + 1))
    end
  in
  let i = ref 0 in
  while !i < n do
    let j = ref (!i + 1) in
    let max_hi = ref groups.(!i).p_hi in
    while !j < n && groups.(!j).p_lo <= !max_hi do
      if groups.(!j).p_hi > !max_hi then max_hi := groups.(!j).p_hi;
      incr j
    done;
    (if !j = !i + 1 then begin
       let g = groups.(!i) in
       let w, p, u = windows_of ~events g.p_evs in
       emit g.p_lo g.p_hi w p u
     end
     else begin
       let k = !j - !i in
       let cluster = Array.sub groups !i k in
       let bounds = Array.make (2 * k) 0 in
       Array.iteri
         (fun x g ->
           bounds.(2 * x) <- g.p_lo;
           bounds.((2 * x) + 1) <- g.p_hi + 1)
         cluster;
       Array.sort Int.compare bounds;
       (* Sweep the breakpoints keeping the set of groups overlapping the
          current sub-segment. Breakpoints include every g_lo and
          g_hi + 1, so an overlapping group covers the whole sub-segment
          — the active set IS the covering set, no per-segment rescan of
          the cluster. *)
       let active = ref [] and next = ref 0 in
       for b = 0 to (2 * k) - 2 do
         let s_lo = bounds.(b) and s_next = bounds.(b + 1) in
         if s_lo < s_next && s_lo <= !max_hi then begin
           let s_hi = s_next - 1 in
           while !next < k && cluster.(!next).p_lo <= s_lo do
             active := !next :: !active;
             incr next
           done;
           active := List.filter (fun x -> cluster.(x).p_hi >= s_lo) !active;
           (* The covering groups' events are sorted runs: merge them,
              no closure sort. *)
           let merged =
             Vec.merge_sorted (List.map (fun x -> cluster.(x).p_evs) !active)
           in
           if Array.length merged > 0 then begin
             let w, p, u = windows_of ~events merged in
             emit s_lo s_hi w p u
           end
         end
       done
     end);
    i := !j
  done;
  {
    s_lo = Vec.to_array lo;
    s_hi = Vec.to_array hi;
    s_wins = Array.of_list (List.rev !wins);
    prot = !prot;
    unprot = !unprot;
  }

(* Windows of key [x], or [||]: binary search for the segment holding x. *)
let windows_at segs x =
  let n = Array.length segs.s_lo in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if segs.s_lo.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  if !lo > 0 && x <= segs.s_hi.(!lo - 1) then segs.s_wins.(!lo - 1) else [||]

(* --- counting --- *)

(* Writes of posting key [ki] inside any of [wins]. *)
let count_over p ki wins = W.count_within p ki ~windows:wins

(* Same, over the intersection of two sorted disjoint window runs. *)
let count_over_intersection p ki wa wb =
  let acc = ref 0 in
  let na = Array.length wa / 2 and nb = Array.length wb / 2 in
  let i = ref 0 and j = ref 0 in
  while !i < na && !j < nb do
    let a_lo = wa.(2 * !i) and a_hi = wa.((2 * !i) + 1) in
    let b_lo = wb.(2 * !j) and b_hi = wb.((2 * !j) + 1) in
    let lo = max a_lo b_lo and hi = min a_hi b_hi in
    if lo < hi then acc := !acc + W.count_at p ki ~after:lo ~before:hi;
    if a_hi < b_hi then incr i else incr j
  done;
  !acc

(* touched = Σ per-key window counts − Σ boundary-span counts where both
   sides were live (they were counted at both keys). Exact because a
   narrow write touches at most 2 adjacent keys (the index keeps wider
   writes out of the postings at word level; at page level a write's
   first/last pages are the only keys by construction). *)
let count_union ~queries writes spans segs =
  let acc = ref 0 in
  let nsegs = Array.length segs.s_lo in
  for si = 0 to nsegs - 1 do
    let lo = segs.s_lo.(si) and hi = segs.s_hi.(si) in
    let wins = segs.s_wins.(si) in
    let k0, k1 = W.key_range writes ~lo ~hi in
    for ki = k0 to k1 - 1 do
      acc := !acc + count_over writes ki wins
    done;
    let s0, s1 = W.key_range spans ~lo ~hi in
    queries := !queries + (k1 - k0) + (s1 - s0);
    for ki = s0 to s1 - 1 do
      let k = W.key_at spans ki in
      if k < hi then acc := !acc - count_over spans ki wins
      else if si + 1 < nsegs && segs.s_lo.(si + 1) = hi + 1 then
        (* Span (hi, hi+1) into the next segment: subtract only where
           both sides were live. *)
        acc :=
          !acc - count_over_intersection spans ki wins segs.s_wins.(si + 1)
    done
  done;
  !acc

let replay_shard ~index ~page_sizes trace sessions =
  Obs_span.with_span "replay.indexed.shard" @@ fun () ->
  let sessions_arr = Array.of_list sessions in
  let nsessions = Array.length sessions_arr in
  (* Shard-local accumulators, published as metrics once at the end. *)
  let queries = ref 0 and segments = ref 0 in
  let views =
    List.map
      (fun ps ->
        match W.page_view index ~page_size:ps with
        | Some v -> (ps, v, W.page_shift v)
        | None ->
            invalid_arg
              (Printf.sprintf
                 "Indexed_replay: index holds no page view for size %d" ps))
      page_sizes
  in
  let events = W.events index in
  let total_writes = W.total_writes index in
  (* Invert object matching once — via the candidate index, O(objects),
     not the scan engine's objects x sessions test matrix. Descending oid
     iteration leaves each list ascending, so group events arrive nearly
     chronological (fewer runs to merge). *)
  let lookup = Session.index sessions in
  let session_objs = Array.make nsessions [] in
  let objs = Trace.objects trace in
  for oid = Array.length objs - 1 downto 0 do
    List.iter
      (fun s -> session_objs.(s) <- oid :: session_objs.(s))
      (lookup objs.(oid))
  done;
  let word_writes = W.word_writes index and word_spans = W.word_spans index in
  let counts_for s =
    let installs = ref 0 and removes = ref 0 in
    (* One timeline pass fills the word-granularity range groups; page
       granularities are derived from them below by range shifting. *)
    let word_tbl = make_grouping 16 in
    List.iter
      (fun oid ->
        W.iter_object_timeline index oid (fun ~ev ~is_install ~lo ~hi ->
            if is_install then incr installs else incr removes;
            let packed = (ev lsl 1) lor if is_install then 0 else 1 in
            add_item word_tbl ~lo:(lo lsr 2) ~hi:(hi lsr 2) packed))
      session_objs.(s);
    let wgroups = pgroups_of_grouping word_tbl in
    let wsegs = build_segments ~events ~windows_of:word_windows wgroups in
    segments := !segments + Array.length wsegs.s_lo;
    let hits = ref (count_union ~queries word_writes word_spans wsegs) in
    (* Writes covering 3+ words are absent from the postings; a hit iff
       any covered word is live. Empty for machine-recorded traces. *)
    W.iter_wide_word_writes index (fun ~ev ~first ~last ->
        let rec any w =
          w <= last && (window_contains (windows_at wsegs w) ev || any (w + 1))
        in
        if any first then incr hits);
    let vm =
      List.map
        (fun (page_size, view, shift) ->
          let psegs =
            build_segments ~events ~windows_of:page_windows
              (shift_pgroups (shift - 2) wgroups)
          in
          segments := !segments + Array.length psegs.s_lo;
          let touches =
            ref
              (count_union ~queries (W.page_writes view) (W.page_spans view)
                 psegs)
          in
          (* A write spanning non-adjacent pages is in the postings at
             both its first and last page; drop the double count when
             both were live. *)
          W.iter_wide_page_writes view (fun ~ev ~first ~last ->
              if
                window_contains (windows_at psegs first) ev
                && window_contains (windows_at psegs last) ev
              then decr touches);
          {
            Counts.page_size;
            protects = psegs.prot;
            unprotects = psegs.unprot;
            (* Every hit lands on an active page: misses-on-active-pages
               = touches - hits, as in the scan engine. *)
            active_page_misses = !touches - !hits;
          })
        views
    in
    {
      Counts.installs = !installs;
      removes = !removes;
      hits = !hits;
      misses = total_writes - !hits;
      vm;
    }
  in
  let rows = List.mapi (fun s session -> (session, counts_for s)) sessions in
  Metrics.incr m_shards;
  Metrics.add m_sessions nsessions;
  Metrics.add m_segments !segments;
  Metrics.add m_range_queries !queries;
  rows
