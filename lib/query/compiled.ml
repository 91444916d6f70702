(* The compiled engine: predicates lower onto Write_index posting-list
   operations, producing the sorted position set of matching writes
   without scanning the trace. Boolean connectives become Pos_set
   union/intersection/difference; [live] joins the per-object install
   timelines against the word postings; [time in] reads the write
   positions off the trace's tags over just its window, and the
   universe that negation and complements are taken against is the same
   read over the whole trace; aggregations walk only the matched
   positions (fetching attributes through Trace.get_raw).

   The one subtlety is granularity: word postings are word-granular, so
   for a byte range whose endpoints fall mid-word, candidates found under
   the two BOUNDARY words are re-checked against the exact byte range
   (interior words are fully covered, so their candidates pass as-is).
   Wide (3+ word) writes are absent from the word posting and handled
   individually, as everywhere else in the codebase.

   A top-level [time in [a, b]] conjunct (Ast.window) confines the whole
   evaluation to the open event window (a - 1, b + 1): the universe is
   the window's writes, and postings and live windows are sliced to it.
   Union, intersection and difference all commute with intersecting by
   a fixed set, so each subterm's result is its unbounded result cut to
   the window, and the conjunct makes the final result exactly that. *)

module Trace = Ebp_trace.Trace
module W = Ebp_trace.Write_index
module P = W.Pos_set

let p_compile = Ebp_util.Fault.point "query.compile"

(* First index in [arr] holding a value >= x. *)
let lower_bound arr x =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Array.unsafe_get arr mid < x then lo := mid + 1 else hi := mid
  done;
  !lo

let run ~objects_of trace index (q : Ast.query) : Qresult.raw =
  Ebp_util.Fault.check p_compile;
  let events = W.events index in
  (* The open event window every atom is evaluated in. *)
  let after, before =
    match Ast.window q.Ast.pred with
    | None -> (-1, events)
    | Some (a, b) -> (max (-1) (a - 1), min events (b + 1))
  in
  let writes_between a b =
    let a = max a (after + 1) and b = min b (before - 1) in
    if a > b then P.empty else Trace.write_positions trace ~start:a ~stop:(b + 1)
  in
  let universe = lazy (writes_between 0 (events - 1)) in
  let write_attrs i =
    Trace.get_raw trace i (fun ~tag:_ ~obj:_ ~lo ~hi ~pc -> (lo, hi, pc))
  in
  let filter_overlap a b ps =
    let out = Array.make (Array.length ps) 0 in
    let w = ref 0 in
    Array.iter
      (fun i ->
        let lo, hi, _ = write_attrs i in
        if lo <= b && hi >= a then begin
          out.(!w) <- i;
          incr w
        end)
      ps;
    Array.sub out 0 !w
  in
  (* Positions of writes inside the open window (after, before) whose
     byte range intersects [a, b]. *)
  let writes_in_range ~after ~before a b =
    let ww = W.word_writes index in
    let fw = a lsr 2 and lw = b lsr 2 in
    let ki = W.key_lower_bound ww fw and kj = W.key_upper_bound ww lw in
    let sets = ref [] in
    for k = ki to kj - 1 do
      let key = W.key_at ww k in
      let ps = W.positions_at ww k ~after ~before in
      let ps = if key > fw && key < lw then ps else filter_overlap a b ps in
      sets := ps :: !sets
    done;
    let wide = ref [] in
    W.iter_wide_word_writes index (fun ~ev ~first ~last ->
        if first <= lw && last >= fw && ev > after && ev < before then begin
          let lo, hi, _ = write_attrs ev in
          if lo <= b && hi >= a then wide := ev :: !wide
        end);
    P.union (Array.of_list (List.rev !wide) :: !sets)
  in
  let pcs = W.pc_writes index in
  let pc_keys ki kj =
    let sets = ref [] in
    for k = ki to kj - 1 do
      sets := W.positions_at pcs k ~after ~before :: !sets
    done;
    P.union !sets
  in
  (* Live windows with the scan table's semantics: a window opens at
     install, closes at remove OR at a re-install (which replaces the
     range), and runs to the end of the trace if never closed; each is
     cut to the evaluation window. *)
  let iter_live_windows o f =
    let opened = ref (-1) and rlo = ref 0 and rhi = ref 0 in
    let close b =
      if !opened >= 0 then begin
        let a = max !opened after and b = min b before in
        if b - a > 1 then f ~after:a ~before:b ~rlo:!rlo ~rhi:!rhi;
        opened := -1
      end
    in
    W.iter_object_timeline index o (fun ~ev ~is_install ~lo ~hi ->
        close ev;
        if is_install then begin
          opened := ev;
          rlo := lo;
          rhi := hi
        end);
    close events
  in
  let nobjs = Trace.object_count trace in
  let rec eval (p : Ast.pred) : int array =
    match p with
    | Ast.All -> Lazy.force universe
    | Ast.Pc_cmp (c, n) -> (
        match c with
        | Ast.Eq -> W.positions pcs n ~after ~before
        | Ast.Ne -> P.diff (Lazy.force universe) (W.positions pcs n ~after ~before)
        | Ast.Lt -> pc_keys 0 (W.key_lower_bound pcs n)
        | Ast.Le -> pc_keys 0 (W.key_upper_bound pcs n)
        | Ast.Gt -> pc_keys (W.key_upper_bound pcs n) (W.key_count pcs)
        | Ast.Ge -> pc_keys (W.key_lower_bound pcs n) (W.key_count pcs))
    | Ast.Pc_in (a, b) -> pc_keys (W.key_lower_bound pcs a) (W.key_upper_bound pcs b)
    | Ast.Addr_in (a, b) -> writes_in_range ~after ~before a b
    | Ast.Time_in (a, b) -> writes_between a b
    | Ast.Live s ->
        let sets = ref [] in
        Array.iter
          (fun o ->
            iter_live_windows o (fun ~after ~before ~rlo ~rhi ->
                sets := writes_in_range ~after ~before rlo rhi :: !sets))
          (objects_of s);
        P.union !sets
    | Ast.And (a, b) -> P.inter (eval a) (eval b)
    | Ast.Or (a, b) -> P.union [ eval a; eval b ]
    | Ast.Not a -> P.diff (Lazy.force universe) (eval a)
  in
  match (q.Ast.agg, q.Ast.group, q.Ast.bucket) with
  (* Count-all never needs positions at all. *)
  | Ast.Count, None, None when q.Ast.pred = Ast.All ->
      Qresult.Count (W.total_writes index)
  | agg, group, bucket -> (
      let positions =
        if before - after <= 1 then P.empty else eval q.Ast.pred
      in
      match (agg, group, bucket) with
      | Ast.Count, None, None -> Qresult.Count (Array.length positions)
      | Ast.Count_distinct field, _, _ ->
          let seen = Tally.create () in
          Array.iter
            (fun i ->
              let lo, hi, pc = write_attrs i in
              match field with
              | Ast.D_pc -> Tally.bump seen pc
              | Ast.D_word ->
                  for w = lo lsr 2 to hi lsr 2 do
                    Tally.bump seen w
                  done)
            positions;
          Qresult.Count (Tally.length seen)
      | Ast.Count, Some Ast.G_pc, _ ->
          let tbl = Tally.create () in
          Array.iter
            (fun i ->
              let _, _, pc = write_attrs i in
              Tally.bump tbl pc)
            positions;
          Qresult.Groups (Tally.to_sorted tbl)
      | Ast.Count, Some Ast.G_object, _ ->
          (* Join the matched set against every object's live windows:
             binary-search the window's slice of [positions], then check
             each candidate against the installed byte range. *)
          let rows = ref [] in
          for o = nobjs - 1 downto 0 do
            let total = ref 0 in
            iter_live_windows o (fun ~after ~before ~rlo ~rhi ->
                let j = ref (lower_bound positions (after + 1)) in
                while
                  !j < Array.length positions && positions.(!j) < before
                do
                  let lo, hi, _ = write_attrs positions.(!j) in
                  if lo <= rhi && hi >= rlo then incr total;
                  incr j
                done);
            if !total > 0 then rows := (o, !total) :: !rows
          done;
          Qresult.Groups !rows
      | Ast.Count, None, Some width ->
          let rows = ref [] in
          let n = Array.length positions in
          let i = ref 0 in
          while !i < n do
            let start = positions.(!i) / width * width in
            let c = ref 0 in
            while !i < n && positions.(!i) < start + width do
              incr c;
              incr i
            done;
            rows := (start, !c) :: !rows
          done;
          Qresult.Buckets (List.rev !rows))
