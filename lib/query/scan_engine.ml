(* The streaming scan engine: one pass over the trace, evaluating the
   predicate directly against each write while maintaining the active
   install windows the [live] atoms and [group by object] need. It is
   deliberately the simplest possible executor — the differential oracle
   the compiled engine is asserted against, the same role the scan
   replay engine plays for indexed replay.

   A top-level [time in [a, b]] conjunct (Ast.window) bounds the pass:
   it stops after event [b], and writes before [a] are skipped without
   evaluating the predicate. Installs and removes before [a] are still
   applied, so the live windows at [a] are exact; blocks of writes alone
   that end before [a] are not visited at all. *)

module Trace = Ebp_trace.Trace

(* The predicate with [live] atoms numbered, so the pass keeps one
   active-window table per atom. *)
type ipred =
  | I_all
  | I_pc_cmp of Ast.cmp * int
  | I_pc_in of int * int
  | I_addr_in of int * int
  | I_time_in of int * int
  | I_live of int
  | I_and of ipred * ipred
  | I_or of ipred * ipred
  | I_not of ipred

let number_atoms pred =
  let atoms = ref [] in
  let n = ref 0 in
  let rec conv (p : Ast.pred) =
    match p with
    | Ast.All -> I_all
    | Ast.Pc_cmp (c, v) -> I_pc_cmp (c, v)
    | Ast.Pc_in (a, b) -> I_pc_in (a, b)
    | Ast.Addr_in (a, b) -> I_addr_in (a, b)
    | Ast.Time_in (a, b) -> I_time_in (a, b)
    | Ast.Live s ->
        atoms := s :: !atoms;
        incr n;
        I_live (!n - 1)
    | Ast.And (a, b) ->
        let a = conv a in
        I_and (a, conv b)
    | Ast.Or (a, b) ->
        let a = conv a in
        I_or (a, conv b)
    | Ast.Not a -> I_not (conv a)
  in
  let ip = conv pred in
  (ip, Array.of_list (List.rev !atoms))

let cmp_holds (c : Ast.cmp) x n =
  match c with
  | Ast.Eq -> x = n
  | Ast.Ne -> x <> n
  | Ast.Lt -> x < n
  | Ast.Le -> x <= n
  | Ast.Gt -> x > n
  | Ast.Ge -> x >= n

(* The objects a [live] atom, or [group by object], currently sees
   installed, with their ranges. Members sit densely in three parallel
   arrays and [slot] maps an object id to its index there, so install,
   re-install (which replaces the range) and remove are O(1), and a
   write is checked against the members only. *)
module Live_set = struct
  type t = {
    slot : int array;  (* per object id: its member index, or -1 *)
    mutable ids : int array;
    mutable los : int array;
    mutable his : int array;
    mutable n : int;
  }

  let create nobjs =
    { slot = Array.make nobjs (-1); ids = Array.make 16 0;
      los = Array.make 16 0; his = Array.make 16 0; n = 0 }

  let grow a = Array.append a (Array.make (Array.length a) 0)

  let install s o ~lo ~hi =
    let k = s.slot.(o) in
    if k >= 0 then begin
      s.los.(k) <- lo;
      s.his.(k) <- hi
    end
    else begin
      if s.n = Array.length s.ids then begin
        s.ids <- grow s.ids;
        s.los <- grow s.los;
        s.his <- grow s.his
      end;
      s.ids.(s.n) <- o;
      s.los.(s.n) <- lo;
      s.his.(s.n) <- hi;
      s.slot.(o) <- s.n;
      s.n <- s.n + 1
    end

  (* The last member moves into the freed slot. *)
  let remove s o =
    let k = s.slot.(o) in
    if k >= 0 then begin
      let last = s.n - 1 in
      let moved = s.ids.(last) in
      s.ids.(k) <- moved;
      s.los.(k) <- s.los.(last);
      s.his.(k) <- s.his.(last);
      s.slot.(moved) <- k;
      s.slot.(o) <- -1;
      s.n <- last
    end

  let overlaps s lo hi =
    let k = ref 0 in
    while !k < s.n && not (lo <= s.his.(!k) && hi >= s.los.(!k)) do
      incr k
    done;
    !k < s.n

  let iter_overlapping s lo hi f =
    for k = 0 to s.n - 1 do
      if lo <= s.his.(k) && hi >= s.los.(k) then f s.ids.(k)
    done
end

let run ~objects_of trace (q : Ast.query) : Qresult.raw =
  let ipred, atom_sessions = number_atoms q.Ast.pred in
  let natoms = Array.length atom_sessions in
  let nobjs = Trace.object_count trace in
  (* Which atoms each object id matches, in ascending atom order. *)
  let obj_atoms = Array.make nobjs [] in
  for a = natoms - 1 downto 0 do
    Array.iter
      (fun o -> obj_atoms.(o) <- a :: obj_atoms.(o))
      (objects_of atom_sessions.(a))
  done;
  let active = Array.init natoms (fun _ -> Live_set.create nobjs) in
  let group_objects = q.Ast.group = Some Ast.G_object in
  let group_active = Live_set.create (if group_objects then nobjs else 0) in
  let first, stop =
    match Ast.window q.Ast.pred with
    | None -> (0, Trace.length trace)
    | Some (a, b) -> (a, max 0 (min (Trace.length trace) (b + 1)))
  in
  (* Aggregation state: pcs, words, object ids and bucket numbers are
     counted in a [Tally], which costs what the keys hit, not the size
     of the object table or of the window. *)
  let count = ref 0 in
  let tally = Tally.create () in
  let rec eval p ~i ~lo ~hi ~pc =
    match p with
    | I_all -> true
    | I_pc_cmp (c, n) -> cmp_holds c pc n
    | I_pc_in (a, b) -> pc >= a && pc <= b
    | I_addr_in (a, b) -> lo <= b && hi >= a
    | I_time_in (a, b) -> i >= a && i <= b
    | I_live a -> Live_set.overlaps active.(a) lo hi
    | I_and (a, b) -> eval a ~i ~lo ~hi ~pc && eval b ~i ~lo ~hi ~pc
    | I_or (a, b) -> eval a ~i ~lo ~hi ~pc || eval b ~i ~lo ~hi ~pc
    | I_not a -> not (eval a ~i ~lo ~hi ~pc)
  in
  let bump_object o = Tally.bump tally o in
  let i = ref 0 in
  let visit ~tag ~obj ~lo ~hi ~pc =
    let pos = !i in
    incr i;
    if tag = 2 then begin
      if pos >= first && eval ipred ~i:pos ~lo ~hi ~pc then begin
        match (q.Ast.agg, q.Ast.group, q.Ast.bucket) with
        | Ast.Count_distinct Ast.D_pc, _, _ -> Tally.bump tally pc
        | Ast.Count_distinct Ast.D_word, _, _ ->
            for w = lo lsr 2 to hi lsr 2 do
              Tally.bump tally w
            done
        | Ast.Count, Some Ast.G_pc, _ -> Tally.bump tally pc
        | Ast.Count, Some Ast.G_object, _ ->
            (* A write can land in several live objects; it counts for
               each (documented multi-count semantics). *)
            Live_set.iter_overlapping group_active lo hi bump_object
        | Ast.Count, None, Some width -> Tally.bump tally (pos / width)
        | Ast.Count, None, None -> incr count
      end
    end
    else begin
      (* tag 0 = install, 1 = remove; a re-install replaces the
         window's range, a remove ends it. *)
      List.iter
        (fun a ->
          if tag = 0 then Live_set.install active.(a) obj ~lo ~hi
          else Live_set.remove active.(a) obj)
        obj_atoms.(obj);
      if group_objects then
        if tag = 0 then Live_set.install group_active obj ~lo ~hi
        else Live_set.remove group_active obj
    end
  in
  (* A window that starts past the first block lets whole blocks before
     it go unvisited: a block of writes alone that ends before the
     window cannot match, and moves no live set. Blocks come in order,
     so [!i] is where the offered block starts (a short last block only
     looks longer, and is visited). Without a window every event is
     visited, so a trace scanned once (a live prefix) derives no block
     summaries. *)
  if first >= Trace.block_events then
    Trace.iter_raw_skipping trace ~stop
      ~skip:(fun ~min_lo:_ ~max_hi:_ -> !i + Trace.block_events <= first)
      ~on_skip:(fun ~writes -> i := !i + writes)
      visit
  else Trace.iter_raw_range trace ~start:0 ~stop visit;
  match (q.Ast.agg, q.Ast.group, q.Ast.bucket) with
  | Ast.Count_distinct _, _, _ -> Qresult.Count (Tally.length tally)
  | Ast.Count, Some _, _ -> Qresult.Groups (Tally.to_sorted tally)
  | Ast.Count, None, Some width ->
      Qresult.Buckets
        (List.map (fun (b, c) -> (b * width, c)) (Tally.to_sorted tally))
  | Ast.Count, None, None -> Qresult.Count !count
