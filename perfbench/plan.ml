(* The seeded workloads: which requests a run sends, in which order, and
   the reply each must get. The seed draws the generated programs, the
   key order, the query arguments and the live programs; the daemon
   receives only the requests. Expected replies are computed once per
   distinct request, before the daemon starts, through the batch path:
   an in-process recording, then [Render.sessions_report] or
   [Query.render]. *)

module P = Ebp_serve.Protocol
module Fuzz = Ebp_core.Fuzz
module Prng = Ebp_util.Prng
module Trace = Ebp_trace.Trace
module Query = Ebp_query.Query
module Workload = Ebp_workloads.Workload

type fixed = { kind : string; req : P.request; expect : string }

(* A live session: poll the recording until it reports complete. The
   first question advances it; the second profiles the same prefix. *)
type live = {
  l_name : string;
  l_source : string;
  l_seed : int;
  advance_expr : string;
  profile_expr : string;
  advance_final : string;  (* batch replies over the whole trace *)
  profile_final : string;
}

type step = Fixed of fixed | Live of live

type t = {
  setup : step list;
      (* untimed: makes the workload's state resident, then warms up with
         one short pass over the workload's own request kinds *)
  rounds : step list list;  (* the timed phase, in whole rounds *)
  instructions : int;  (* simulated, over the distinct recordings *)
  events : int;  (* trace events, over the distinct recordings *)
  stored_events : int;
      (* events behind the cache artifacts the daemon writes while it is
         measured: cold's timed programs, warm's set-up keys *)
}

let sessions_req ~name ~source ~seed =
  P.Sessions_query { name; source; seed; engine = "auto"; keep_hitless = false }

let query_req ~name ~source ~seed expr =
  P.Query { name; source; seed; expr; engine = "auto"; format = "table" }

let live_req (l : live) ~expr ~min_events =
  P.Live_query
    {
      name = l.l_name;
      source = l.l_source;
      seed = l.l_seed;
      expr;
      format = "table";
      min_events;
    }

(* --- the batch path --- *)

type recording = {
  trace : Trace.t;
  index : Ebp_trace.Write_index.t option;
      (* built once where several queries share it, as a cached index *)
  sessions : (Ebp_sessions.Session.t * Ebp_sessions.Counts.t) list;
  report : string;  (* what a Sessions request must answer *)
  instructions : int;
}

let record ?(queried = false) (source, seed) =
  match Ebp_trace.Recorder.record_source ~seed source with
  | Error msg -> failwith ("batch recording failed: " ^ msg)
  | Ok (result, trace, _debug) ->
      let index =
        if queried then
          Some
            (Ebp_trace.Write_index.build
               ~page_sizes:Ebp_sessions.Replay.default_page_sizes trace)
        else None
      in
      (* Both engines give byte-identical reports; without an index to
         share, one scan pass is the cheapest way to the expected one. *)
      let sessions =
        match index with
        | Some index -> Ebp_sessions.Replay.discover_and_replay ~index trace
        | None ->
            Ebp_sessions.Replay.discover_and_replay
              ~engine:Ebp_sessions.Replay.Scan trace
      in
      {
        trace;
        index;
        sessions;
        report = Ebp_serve.Render.sessions_report sessions;
        instructions = result.Ebp_runtime.Loader.instructions;
      }

let batch_query r expr =
  match Query.parse expr with
  | Error e -> failwith (Ebp_query.Parser.error_line expr e)
  | Ok q ->
      Query.render ~format:Query.Table r.trace q
        (Query.run ?index:r.index r.trace q).Query.raw

(* Expected replies are independent of one another and of the daemon,
   which has not started yet: compute them on both cores. *)
let pool = lazy (Ebp_util.Domain_pool.create ~domains:2 ())
let par f xs = Ebp_util.Domain_pool.map (Lazy.force pool) f xs

(* A monitored global of the recording, as a [live(...)] SPEC. One
   object per SPEC keeps a query's cost from swinging with the draw. *)
let pick_spec g r =
  let globals =
    List.filter_map
      (fun (s, _) ->
        match s with
        | Ebp_sessions.Session.One_global_static _ -> Some s
        | _ -> None)
      r.sessions
  in
  Ebp_query.Ast.spec_of_session (Prng.pick g (Array.of_list globals))

(* A generated program: [gen_events] hot write loops of ~49k events each,
   plus drawn heap churn and extra monitored globals. *)
let generate g ~gen_events =
  let knobs =
    {
      Fuzz.gen_events;
      gen_heap_churn = Prng.int_in g ~lo:10 ~hi:30;
      gen_session_density = Prng.int_in g ~lo:2 ~hi:8;
    }
  in
  let seed = Prng.int g 1_000_000_000 in
  (Fuzz.render (Fuzz.generate_knobbed ~knobs ~seed), seed)

let events_of recordings =
  List.fold_left (fun acc r -> acc + Trace.length r.trace) 0 recordings

(* One small fixed program (about 5·10^4 events, a single sealed block)
   for pricing the layers a workload does not reach. *)
let coverage_program = generate (Prng.create 0) ~gen_events:1

let finish ~setup ~rounds ~stored_events recordings =
  {
    setup;
    rounds;
    instructions = List.fold_left (fun acc r -> acc + r.instructions) 0 recordings;
    events = events_of recordings;
    stored_events;
  }

(* --- cold: every request a program the daemon has never seen --- *)

(* Five size strata, one program of each per round, so every round has
   the same mix and p50/p90 sit mid-stratum: about 10^5 to 3.10^5
   events. *)
let cold_strata = [| 2; 3; 4; 5; 6 |]

let cold ~seed ~rounds =
  let g = Prng.create seed in
  let program name gen_events =
    (name, Printf.sprintf "sessions.g%d" gen_events, generate g ~gen_events)
  in
  let warmup = program (Printf.sprintf "cold-%d-warmup" seed) cold_strata.(0) in
  let timed =
    List.init rounds (fun r ->
        let order = Array.copy cold_strata in
        Prng.shuffle g order;
        Array.to_list
          (Array.mapi
             (fun i gen_events ->
               program (Printf.sprintf "cold-%d-%d-%d" seed r i) gen_events)
             order))
  in
  let programs = warmup :: List.concat timed in
  let recordings = par (fun (_, _, program) -> record program) programs in
  let step (name, kind, (source, seed)) r =
    Fixed { kind; req = sessions_req ~name ~source ~seed; expect = r.report }
  in
  match (List.map2 step programs recordings, recordings) with
  | setup :: steps, _ :: timed_recordings ->
      finish ~setup:[ setup ]
        ~rounds:(List.init rounds (fun r -> List.filteri (fun i _ -> i / 5 = r) steps))
        ~stored_events:(events_of timed_recordings) recordings
  | _ -> assert false

(* --- warm: visits to the paper programs through the disk tier --- *)

(* Ten keys (five programs, two runtime seeds each) against the daemon's
   eight resident entries, visited in one cyclic order: every visit's
   first request loads from disk. A round is five visits, one per
   program, so each round holds each of the 15 kinds once. *)
let warm ~seed ~rounds =
  let g = Prng.create seed in
  let programs = Array.of_list Workload.all in
  Prng.shuffle g programs;
  let flips = Array.map (fun _ -> Prng.bool g) programs in
  let half second =
    Array.to_list
      (Array.mapi
         (fun i (w : Workload.t) ->
           (w, w.Workload.seed + if flips.(i) <> second then 1 else 0))
         programs)
  in
  let cycle = half false @ half true in
  let recordings =
    par (fun ((w : Workload.t), rseed) -> record ~queried:true (w.Workload.source, rseed)) cycle
  in
  let queries =
    List.map
      (fun r ->
        let n = Trace.length r.trace in
        let spec = pick_spec g r in
        let width = max 1 (n / Prng.int_in g ~lo:8 ~hi:32) in
        (* A 1% window from the middle tenth of the trace: the indexed
           group-by-object cost grows with the objects registered before
           the window, so a window anywhere would swing with the draw. *)
        let span = max 1 (n / 100) in
        let a = (45 * n / 100) + Prng.int g (max 1 ((n / 10) - span)) in
        let top = Prng.int_in g ~lo:3 ~hi:10 in
        [
          ("load", "count");
          ("live_bucket", Printf.sprintf "count where live(%s) bucket by %d" spec width);
          ( "window_object",
            Printf.sprintf "count where time in [%d,%d] group by object top %d" a
              (a + span - 1) top );
        ])
      recordings
  in
  let replies =
    par
      (fun (r, qs) -> List.map (fun (_, expr) -> batch_query r expr) qs)
      (List.combine recordings queries)
  in
  let keys =
    List.map2
      (fun (((w : Workload.t), rseed), r) (qs, answers) ->
        let name = w.Workload.name and source = w.Workload.source in
        let fixed kind req expect = Fixed { kind = name ^ "." ^ kind; req; expect } in
        let query (kind, expr) expect =
          fixed kind (query_req ~name ~source ~seed:rseed expr) expect
        in
        match List.map2 query qs answers with
        | [ load; live_bucket; window_object ] ->
            (load, [ fixed "sessions" (sessions_req ~name ~source ~seed:rseed) r.report;
                     live_bucket; window_object ])
        | _ -> assert false)
      (List.combine cycle recordings)
      (List.combine queries replies)
  in
  let visits = Array.of_list (List.map snd keys) in
  let rounds =
    List.init rounds (fun r ->
        List.concat (Array.to_list (Array.sub visits (5 * (r mod 2)) 5)))
  in
  finish
    ~setup:(List.map fst keys @ visits.(Array.length visits - 1))
    ~rounds
    ~stored_events:(events_of recordings) recordings

(* --- live: streaming sessions polled to completion --- *)

(* Ten hot loops put every session between 7 and 8 sealed 64Ki-event
   blocks: 8 polls, the first with one question and the other seven
   with two — 15 kinds, so p50/p90 sit mid-step. *)
let live_gen_events = 10

let live ~seed ~rounds =
  let g = Prng.create seed in
  let warmup = (Printf.sprintf "live-%d-warmup" seed, generate g ~gen_events:2) in
  let programs =
    warmup
    :: List.init rounds (fun r ->
           (Printf.sprintf "live-%d-%d" seed r, generate g ~gen_events:live_gen_events))
  in
  let recordings = par (fun (_, program) -> record ~queried:true program) programs in
  let exprs =
    List.map
      (fun r ->
        let advance = Printf.sprintf "count where live(%s)" (pick_spec g r) in
        (advance, Printf.sprintf "count group by pc top %d" (Prng.int_in g ~lo:3 ~hi:8)))
      recordings
  in
  let finals =
    par
      (fun (r, (advance, profile)) -> (batch_query r advance, batch_query r profile))
      (List.combine recordings exprs)
  in
  let sessions =
    List.map2
      (fun ((l_name, (l_source, l_seed)), (advance_expr, profile_expr))
           (advance_final, profile_final) ->
        Live
          {
            l_name;
            l_source;
            l_seed;
            advance_expr;
            profile_expr;
            advance_final;
            profile_final;
          })
      (List.combine programs exprs) finals
  in
  finish ~setup:[ List.hd sessions ]
    ~rounds:(List.map (fun s -> [ s ]) (List.tl sessions))
    ~stored_events:0 recordings

let make ~workload ~seed ~rounds =
  let plan =
    match workload with
    | "cold" -> cold ~seed ~rounds
    | "warm" -> warm ~seed ~rounds
    | "live" -> live ~seed ~rounds
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  if Lazy.is_val pool then Ebp_util.Domain_pool.shutdown (Lazy.force pool);
  plan
