(* The query subsystem's front door: parse (with diagnostics, a fault
   point, and query.* metrics), choose an engine (planner-costed under
   Auto, exactly like replay's --engine auto), execute, and render —
   one shared render path, so byte-identical output across engines
   follows from the engines agreeing on the canonical Qresult. *)

module Trace = Ebp_trace.Trace
module W = Ebp_trace.Write_index
module Planner = Ebp_sessions.Planner
module Metrics = Ebp_obs.Metrics
module Span = Ebp_obs.Span
module Json = Ebp_obs.Json

let p_parse = Ebp_util.Fault.point "query.parse"
let m_runs = Metrics.counter "query.runs"
let m_parse_errors = Metrics.counter "query.parse_errors"

(* Same counter names Planner.replay uses — registration is idempotent,
   so query decisions and replay decisions share the cells. *)

type engine = Auto | Indexed | Scan

let engine_of_string = function
  | "auto" -> Ok Auto
  | "indexed" -> Ok Indexed
  | "scan" -> Ok Scan
  | s -> Error (Printf.sprintf "unknown engine %S (expected auto, indexed, or scan)" s)

let parse source : (Ast.query, Parser.error) result =
  Span.with_span "query.parse" @@ fun () ->
  Ebp_util.Fault.check p_parse;
  match Parser.parse source with
  | Ok q -> Ok q
  | Error e ->
      Metrics.incr m_parse_errors;
      Error e

(* --- pricing ---

   [Auto] prices each engine by what it will touch, before either runs,
   from facts the trace and the index already hold: the event, write and
   object counts ([Trace.write_count] is kept, not counted), the query's
   window ([Ast.window]), the posting sizes under the keys an atom names,
   and the object timelines. Nothing here walks the trace. The unit is
   nanoseconds on the reference container; the constants were fitted to
   both engines' times on the five paper programs (docs/QUERY.md has
   the table, docs/PERFORMANCE.md the model beside replay's).

   - Scan: the pass visits events up to the window's end and evaluates
     the predicate on the writes inside the window. A [live] atom checks
     each write against its table of installed objects, and [group by
     object] checks each matched write against every live object.
   - Indexed: each atom costs what it slices — posting keys and the
     positions under them, the window's tags for [time in], or every
     write in the window when it forces the universe ([all], [not],
     [pc !=]) — then set operations over the positions. [group by
     object] walks every object's timeline and checks the matched writes
     against the windows live over them; [group by pc], [distinct] and
     [bucket] walk the matched positions. A bare [count] is O(1). Add a
     load when the index is cached but not resident, and a build when it
     is neither. *)

let k_visit = 10.  (* scan: one event through the pass *)
let k_eval = 8.  (* scan: one atom evaluated on one write *)
let k_entry = 1.5  (* scan: one installed object checked against a write *)
let k_table = 12.  (* scan: one install/remove applied to a live set *)
let k_bump = 65.  (* scan: one matched write into a pc/bucket/distinct table *)
let k_match = 10.  (* both: one object tested against a live(SPEC) *)
let k_tag = 7.  (* indexed: one event's tag read for [time in] or the universe *)
let k_pos = 3.  (* indexed: one position through a linear set operation *)
let k_sort = 19.  (* indexed: one position per halving of a union's sort *)
let k_key = 100.  (* indexed: one posting key sliced *)
let k_fetch = 100.  (* indexed: one matched write fetched and tallied *)
let k_timeline = 20.  (* indexed: one timeline entry walked by group by object *)
let k_check = 40.  (* indexed: one matched write checked against a live window *)
let k_load = 80.  (* one event's share of a cached index read and checked *)
let k_build = 250.  (* one event through the index build *)

(* The live-set estimate reads the first [live_prefix] object timelines
   exactly (globals and early allocations register first and live
   long), then samples [live_sample] of the rest: microseconds, however
   many objects the trace has. *)
let live_prefix = 1024
let live_sample = 3072

let log2 x = Float.log2 (Float.max 2. x)

(* The object ids each [live(SPEC)] names, ascending: resolved once per
   run, memoized, and shared by the pricing and whichever engine runs,
   so the matching pass over the object table is paid once. *)
let objects_of trace =
  let memo = Hashtbl.create 4 in
  fun s ->
    match Hashtbl.find_opt memo s with
    | Some ids -> ids
    | None ->
        let ids = ref [] in
        for o = Trace.object_count trace - 1 downto 0 do
          if Ebp_sessions.Session.matches s (Trace.object_of_id trace o) then
            ids := o :: !ids
        done;
        let ids = Array.of_list !ids in
        Hashtbl.add memo s ids;
        ids

let price ?reason ?index ~objects_of ~cached trace (q : Ast.query) =
  let fl = float_of_int in
  let events = Trace.length trace and writes = Trace.write_count trace in
  let objects = Trace.object_count trace in
  let first, stop =
    match Ast.window q.Ast.pred with
    | None -> (0, events)
    | Some (a, b) -> (max 0 a, max 0 (min events (b + 1)))
  in
  let width = max 0 (stop - first) in
  (* Writes per event, and the writes inside the window. *)
  let density = if events = 0 then 0. else fl writes /. fl events in
  let in_window = density *. fl width in
  let scope = if events = 0 then 0. else fl width /. fl events in
  (* Live objects mid-window, from the timelines; without an index, a
     guess of one object in a hundred. *)
  let live =
    lazy
      (match index with
      | None -> objects / 100
      | Some ix ->
          let ev = first + (width / 2) in
          let prefix = min objects live_prefix in
          let step = max 1 ((objects - prefix) / live_sample) in
          let exact = ref 0 and sampled = ref 0 in
          for o = 0 to prefix - 1 do
            if W.installed_at ix o ev then incr exact
          done;
          let o = ref prefix in
          while !o < objects do
            if W.installed_at ix !o ev then incr sampled;
            o := !o + step
          done;
          !exact + (!sampled * step))
  in
  let universe = (k_tag *. fl width) +. (k_pos *. in_window) in
  (* Resolving a live(SPEC) to its objects is shared by both engines;
     keeping the matching objects' live sets is the scan's alone. *)
  let resolve = ref 0. and scan_sets = ref 0. in
  (* Positions under keys [ki, kj) of a posting, cut to the window. *)
  let posting_positions p ki kj = fl (W.span_count p ki kj) *. scope in
  let keyed p ki kj =
    let n = posting_positions p ki kj in
    (n, (k_key *. fl (kj - ki)) +. (k_sort *. n *. log2 n))
  in
  (* Per node: matched writes, the indexed engine's cost, and the scan's
     cost per write it evaluates. *)
  let rec node (p : Ast.pred) =
    match (p, index) with
    | Ast.All, _ -> (in_window, universe, 0.)
    | Ast.Time_in (a, b), _ ->
        let w = fl (max 0 (min b (stop - 1) - max a first + 1)) in
        (density *. w, (k_tag *. w) +. (k_pos *. density *. w), k_eval)
    | Ast.Pc_cmp (c, n), Some ix -> (
        let pcs = W.pc_writes ix in
        let lb = W.key_lower_bound pcs n and ub = W.key_upper_bound pcs n in
        let m, ic =
          match c with
          | Ast.Eq | Ast.Ne ->
              let m = posting_positions pcs lb ub in
              (m, k_key +. (k_pos *. m))
          | Ast.Lt -> keyed pcs 0 lb
          | Ast.Le -> keyed pcs 0 ub
          | Ast.Gt -> keyed pcs ub (W.key_count pcs)
          | Ast.Ge -> keyed pcs lb (W.key_count pcs)
        in
        match c with
        | Ast.Ne ->
            (in_window -. m, ic +. universe +. (k_pos *. (in_window +. m)), k_eval)
        | _ -> (m, ic, k_eval))
    | Ast.Pc_in (a, b), Some ix ->
        let pcs = W.pc_writes ix in
        let m, ic = keyed pcs (W.key_lower_bound pcs a) (W.key_upper_bound pcs b) in
        (m, ic, k_eval)
    | Ast.Addr_in (a, b), Some ix ->
        let ww = W.word_writes ix in
        let m, ic =
          keyed ww (W.key_lower_bound ww (a lsr 2)) (W.key_upper_bound ww (b lsr 2))
        in
        (m, ic, k_eval)
    | Ast.Live s, _ ->
        let ids = objects_of s in
        let m = Array.length ids in
        resolve := !resolve +. (k_match *. fl objects);
        scan_sets := !scan_sets +. (k_table *. 2. *. fl m *. fl stop /. Float.max 1. (fl events));
        (* Each live window slices the posting keys under its range; the
           writes there are taken as spread evenly over the trace, so a
           window's share is the keys' whole-trace count scaled by its
           length inside the evaluation window. Without an index, one
           key and one write per object. *)
        let keys = ref 0 and positions = ref 0. in
        (match index with
        | None ->
            keys := m;
            positions := fl m
        | Some ix ->
            let ww = W.word_writes ix in
            Array.iter
              (fun o ->
                let opened = ref (-1) and rlo = ref 0 and rhi = ref 0 in
                let close ev =
                  let len = min ev stop - max !opened first in
                  if !opened >= 0 && len > 0 then begin
                    let ki = W.key_lower_bound ww (!rlo lsr 2) in
                    let kj = W.key_upper_bound ww (!rhi lsr 2) in
                    keys := !keys + (kj - ki);
                    positions :=
                      !positions +. (fl (W.span_count ww ki kj) *. fl len /. fl events)
                  end;
                  opened := -1
                in
                W.iter_object_timeline ix o (fun ~ev ~is_install ~lo ~hi ->
                    close ev;
                    if is_install then begin
                      opened := ev;
                      rlo := lo;
                      rhi := hi
                    end);
                close events)
              ids);
        let positions = Float.min in_window !positions in
        let active = if m <= 1 then fl m else Float.min (fl m) (fl (Lazy.force live)) in
        ( positions,
          (k_key *. fl !keys) +. (k_sort *. positions *. log2 positions),
          k_eval +. (k_entry *. active) )
    | (Ast.Pc_cmp _ | Ast.Pc_in _ | Ast.Addr_in _), None ->
        (* Key ranges are unknown until the index is built; price the
           slice as a tenth of the window. *)
        let m = in_window /. 10. in
        (m, k_sort *. m *. log2 m, k_eval)
    | Ast.And (x, y), _ ->
        let mx, ix, sx = node x and my, iy, sy = node y in
        let m = if in_window = 0. then 0. else mx *. my /. in_window in
        (m, ix +. iy +. (k_pos *. (mx +. my)), sx +. sy)
    | Ast.Or (x, y), _ ->
        let mx, ix, sx = node x and my, iy, sy = node y in
        let m = Float.min in_window (mx +. my) in
        (m, ix +. iy +. (k_sort *. (mx +. my) *. log2 (mx +. my)), sx +. sy)
    | Ast.Not x, _ ->
        let mx, ix, sx = node x in
        (in_window -. mx, ix +. universe +. (k_pos *. (in_window +. mx)), sx)
  in
  let matched, pred_indexed, per_write = node q.Ast.pred in
  let meta = events - writes in
  let scan_agg, indexed_agg =
    match (q.Ast.agg, q.Ast.group, q.Ast.bucket) with
    | Ast.Count, None, None -> (0., 0.)
    | Ast.Count, Some Ast.G_object, _ ->
        (* The scan keeps every installed object in its live set and
           checks each matched write against all of them; the index
           walks every timeline and checks the matched writes under each
           live window. *)
        let l = fl (Lazy.force live) in
        let meta_visited = if events = 0 then 0. else fl meta *. fl stop /. fl events in
        ( (k_table *. meta_visited) +. (k_entry *. matched *. l),
          (k_timeline *. fl (objects + meta)) +. (k_check *. matched *. l) )
    | Ast.Count, None, Some _ -> (k_bump *. matched, k_pos *. matched)
    | (Ast.Count | Ast.Count_distinct _), _, _ ->
        (k_bump *. matched, k_fetch *. matched)
  in
  (* The indexed engine's own work; a bare count reads a kept total. *)
  let indexed_work =
    if q.Ast.pred = Ast.All && q.Ast.agg = Ast.Count && q.Ast.group = None
       && q.Ast.bucket = None
    then 0.
    else !resolve +. pred_indexed +. indexed_agg
  in
  let scan_cost =
    !resolve +. !scan_sets +. (k_visit *. fl stop) +. (per_write *. in_window)
    +. scan_agg
  in
  let facts =
    [
      ("events", events);
      ("writes", writes);
      ("objects", objects);
      ("visit", stop);
      ("window", width);
      ("matched", int_of_float matched);
    ]
    @ if Lazy.is_val live then [ ("live", Lazy.force live) ] else []
  in
  (* Reusing an index that is cached but not resident reads it first. *)
  Planner.choose ?reason ~facts ~cached_index:cached ~scan_cost
    ~reuse_cost:(indexed_work +. if index = None then k_load *. fl events else 0.)
    ~build_cost:(indexed_work +. (k_build *. fl events))
    ()

type execution = {
  raw : Qresult.raw;
  engine_used : string;  (* "indexed" or "scan" *)
  planned : Planner.estimate option;  (* Some under Auto *)
}

let run ?(engine = Auto) ?index ?(index_source = Planner.no_index_cache) ?pool
    ?reason ?log trace (q : Ast.query) : execution =
  Span.with_span "query.run" @@ fun () ->
  Metrics.incr m_runs;
  let objects_of = objects_of trace in
  let run_scan () = Scan_engine.run ~objects_of trace q in
  let run_indexed () =
    let idx =
      match index with
      | Some i -> i
      | None -> (
          match index_source.Planner.load () with
          | Some i -> i
          | None ->
              let i =
                W.build ?pool ~page_sizes:Ebp_sessions.Replay.default_page_sizes
                  trace
              in
              index_source.Planner.store i;
              i)
    in
    Compiled.run ~objects_of trace idx q
  in
  match engine with
  | Scan -> { raw = run_scan (); engine_used = "scan"; planned = None }
  | Indexed -> { raw = run_indexed (); engine_used = "indexed"; planned = None }
  | Auto -> (
      let est =
        price ?reason ?index ~objects_of
          ~cached:(index <> None || index_source.Planner.cached)
          trace q
      in
      Planner.record_decision est;
      Option.iter (fun log -> log (Planner.log_line est)) log;
      match est.choice with
      | Planner.Use_scan ->
          { raw = run_scan (); engine_used = "scan"; planned = Some est }
      | Planner.Build_index | Planner.Reuse_index ->
          { raw = run_indexed (); engine_used = "indexed"; planned = Some est })

(* Run both engines and assert agreement — the differential check the
   fuzzer, tests, and [--check] go through. *)
let check_engines ?index ?pool trace (q : Ast.query) : (execution, string) result
    =
  let indexed = run ~engine:Indexed ?index ?pool trace q in
  let scan = run ~engine:Scan trace q in
  if Qresult.equal indexed.raw scan.raw then Ok indexed
  else
    Error
      (Printf.sprintf "engines disagree on %S: indexed %s, scan %s"
         (Ast.to_string q)
         (Qresult.to_debug_string indexed.raw)
         (Qresult.to_debug_string scan.raw))

(* --- rendering (shared by both engines and all surfaces) --- *)

type format = Table | Ndjson

let format_of_string = function
  | "table" -> Ok Table
  | "ndjson" -> Ok Ndjson
  | s -> Error (Printf.sprintf "unknown format %S (expected table or ndjson)" s)

let group_key_name = function Ast.G_object -> "object" | Ast.G_pc -> "pc"

let group_key_cell trace (q : Ast.query) ordinal =
  match q.group with
  | Some Ast.G_object ->
      Ebp_trace.Object_desc.to_string (Trace.object_of_id trace ordinal)
  | _ -> string_of_int ordinal

let count_header (q : Ast.query) =
  match q.agg with
  | Ast.Count -> "count"
  | Ast.Count_distinct Ast.D_pc -> "distinct_pc"
  | Ast.Count_distinct Ast.D_word -> "distinct_word"

let render ~format trace (q : Ast.query) (raw : Qresult.raw) : string =
  let groups rows = Qresult.sort_groups ?top:q.top rows in
  match format with
  | Table -> (
      let table header rows = Ebp_util.Text_table.render ~header ~rows () in
      match raw with
      | Qresult.Count n -> table [ count_header q ] [ [ string_of_int n ] ]
      | Qresult.Groups rows ->
          table
            [ group_key_name (Option.get q.group); "count" ]
            (List.map
               (fun (k, c) -> [ group_key_cell trace q k; string_of_int c ])
               (groups rows))
      | Qresult.Buckets rows ->
          table [ "bucket"; "count" ]
            (List.map
               (fun (b, c) -> [ string_of_int b; string_of_int c ])
               rows))
  | Ndjson ->
      let lines =
        match raw with
        | Qresult.Count n -> [ Json.Obj [ (count_header q, Json.Int n) ] ]
        | Qresult.Groups rows ->
            let key = group_key_name (Option.get q.group) in
            List.map
              (fun (k, c) ->
                let kv =
                  match q.group with
                  | Some Ast.G_object -> Json.Str (group_key_cell trace q k)
                  | _ -> Json.Int k
                in
                Json.Obj [ (key, kv); ("count", Json.Int c) ])
              (groups rows)
        | Qresult.Buckets rows ->
            List.map
              (fun (b, c) ->
                Json.Obj [ ("bucket", Json.Int b); ("count", Json.Int c) ])
              rows
      in
      String.concat "" (List.map (fun j -> Json.to_string j ^ "\n") lines)
