(* An in-process replica of the daemon's request path, for the traced
   run. It calls each layer's public functions in the order
   [Ebp_serve.Server.Core.execute_query] reaches them through
   [Trace_store.fetch] and [Live.fetch], with a ledger span around each
   call, so every layer gets its own self time. The replica answers the
   same requests as the daemon and its replies must be byte-identical to
   the daemon's, which is what keeps it honest when either side changes.

   Only the request shapes the workloads send are replicated: engine
   "auto" and format "table". *)

module P = Ebp_serve.Protocol
module Trace = Ebp_trace.Trace
module Trace_cache = Ebp_trace.Trace_cache
module Write_index = Ebp_trace.Write_index
module Stream = Ebp_trace.Stream
module Recorder = Ebp_trace.Recorder
module Loader = Ebp_runtime.Loader
module Planner = Ebp_sessions.Planner
module Replay = Ebp_sessions.Replay
module Query = Ebp_query.Query

let layer = Ledger.span
let page_sizes = Replay.default_page_sizes

(* The daemon's defaults: [Server.Core.default_config]'s LRU bound, and
   [Live]'s fuel budget and slice. *)
let lru_capacity = 8
let live_total_fuel = 200_000_000
let live_slice = 262_144

type job = {
  writer : Stream.Writer.t;
  buf : Buffer.t;
  loader : Loader.t;
  recorder : Recorder.t;
  inc : Write_index.Incremental.builder;
  mutable fuel_left : int;
  mutable finished : bool;
}

type t = {
  dir : string;  (* the replica's own cache directory *)
  pool : Ebp_util.Domain_pool.t;
  mutable lru : (string * (Trace.t * Write_index.t)) list;  (* newest first *)
  jobs : (string, job) Hashtbl.t;
}

let create ~dir =
  {
    dir;
    pool = Ebp_util.Domain_pool.create ~domains:1 ();
    lru = [];
    jobs = Hashtbl.create 8;
  }

(* Forget resident traces and live jobs, as a fresh daemon would. *)
let forget t =
  t.lru <- [];
  Hashtbl.reset t.jobs

let close t = Ebp_util.Domain_pool.shutdown t.pool

(* Planner decisions, counted against the current request in the ledger. *)
let note_plan (e : Planner.estimate) =
  Ledger.count "planner.decisions" 1;
  if e.Planner.choice = Planner.Use_scan then Ledger.count "planner.scan" 1

(* --- Trace_store.fetch --- *)

let record_cold t ~key ~source ~seed =
  match layer "lang.compile" (fun () -> Ebp_lang.Compiler.compile source) with
  | Error _ as e -> e
  | Ok compiled ->
      let result, trace =
        layer "machine.record" (fun () ->
            Recorder.record (Loader.load ~seed compiled))
      in
      Ledger.count "tier.cold" 1;
      Ledger.count "instructions" result.Loader.instructions;
      let index =
        layer "write_index.build" (fun () ->
            Write_index.build ~pool:t.pool ~page_sizes trace)
      in
      let meta =
        Printf.sprintf "%h"
          (Ebp_machine.Cost_model.ms_of_cycles result.Loader.cycles)
      in
      layer "trace_cache.store" (fun () ->
          ignore (Trace_cache.store ~dir:t.dir ~key ~meta trace : (unit, string) result));
      layer "trace_cache.index_store" (fun () ->
          ignore
            (Trace_cache.store_index ~dir:t.dir ~key ~page_sizes index
              : (unit, string) result));
      Ok (trace, index)

let load t ~key ~source ~seed =
  match layer "trace_cache.lookup" (fun () -> Trace_cache.lookup ~dir:t.dir ~key) with
  | None -> record_cold t ~key ~source ~seed
  | Some (trace, _meta) ->
      Ledger.count "tier.disk" 1;
      let index =
        match
          layer "trace_cache.index_load" (fun () ->
              Trace_cache.lookup_index ~dir:t.dir ~key ~page_sizes)
        with
        | Some index -> index
        | None ->
            let index =
              layer "write_index.build" (fun () ->
                  Write_index.build ~pool:t.pool ~page_sizes trace)
            in
            layer "trace_cache.index_store" (fun () ->
                ignore
                  (Trace_cache.store_index ~dir:t.dir ~key ~page_sizes index
                    : (unit, string) result));
            index
      in
      Ok (trace, index)

let fetch t ~name ~source ~seed =
  layer "serve.store" @@ fun () ->
  let key = Trace_cache.make_key ~name ~source ~seed () in
  match List.assoc_opt key t.lru with
  | Some entry ->
      Ledger.count "tier.warm" 1;
      t.lru <- (key, entry) :: List.remove_assoc key t.lru;
      Ok entry
  | None -> (
      match load t ~key ~source ~seed with
      | Error _ as e -> e
      | Ok entry ->
          let kept = List.filteri (fun i _ -> i < lru_capacity - 1) t.lru in
          t.lru <- (key, entry) :: kept;
          Ok entry)

(* --- Live.fetch --- *)

let start_job ~source ~seed =
  match layer "lang.compile" (fun () -> Ebp_lang.Compiler.compile source) with
  | Error _ as e -> e
  | Ok compiled ->
      layer "stream.record" @@ fun () ->
      let buf = Buffer.create (1 lsl 16) in
      let writer = Stream.Writer.create ~write:(Buffer.add_string buf) () in
      let inc = Write_index.Incremental.create ~page_sizes in
      Stream.Writer.set_on_seal writer (fun ~first:_ ~count ~nobjs iter ->
          Write_index.Incremental.add_block inc ~nobjs ~count iter);
      let loader = Loader.load ~seed compiled in
      let recorder = Recorder.attach_stream writer loader in
      Ok
        {
          writer;
          buf;
          loader;
          recorder;
          inc;
          fuel_left = live_total_fuel;
          finished = false;
        }

let advance job ~min_events =
  layer "stream.record" @@ fun () ->
  while
    (not job.finished) && Stream.Writer.sealed_events job.writer <= min_events
  do
    let fuel = min live_slice job.fuel_left in
    let res = Loader.run ~fuel job.loader in
    job.fuel_left <- job.fuel_left - fuel;
    match res.Loader.status with
    | Ebp_machine.Machine.Out_of_fuel when job.fuel_left > 0 -> ()
    | _ ->
        Recorder.finish_events job.recorder;
        Stream.Writer.finish job.writer;
        job.finished <- true
  done

let live_fetch t ~name ~source ~seed ~min_events =
  let key =
    Printf.sprintf "%s\x00%s\x00%d" name (Digest.to_hex (Digest.string source)) seed
  in
  let job =
    match Hashtbl.find_opt t.jobs key with
    | Some job -> Ok job
    | None ->
        Result.map
          (fun job ->
            Hashtbl.replace t.jobs key job;
            job)
          (start_job ~source ~seed)
  in
  match job with
  | Error _ as e -> e
  | Ok job -> (
      advance job ~min_events;
      match
        layer "stream.prefix_decode" (fun () ->
            Stream.read_prefix (Buffer.contents job.buf))
      with
      | Error _ as e -> e
      | Ok prefix ->
          let index =
            layer "write_index.snapshot" (fun () ->
                Write_index.Incremental.snapshot job.inc)
          in
          Ok (prefix, index))

(* --- Server.Core.execute_query --- *)

let bad message = P.Error_resp { code = P.Bad_request; message }

let parse expr k =
  match layer "query.parse" (fun () -> Query.parse expr) with
  | Error e -> bad (Ebp_query.Parser.error_line expr e)
  | Ok q -> k q

let run_query t ?index ?reason trace q =
  let ex =
    layer "query.run" (fun () -> Query.run ?index ~pool:t.pool ?reason trace q)
  in
  Option.iter note_plan ex.Query.planned;
  layer "query.render" (fun () -> Query.render ~format:Query.Table trace q ex.Query.raw)

let execute t (req : P.request) : P.response =
  match req with
  | P.Sessions_query { name; source; seed; keep_hitless; _ } -> (
      match fetch t ~name ~source ~seed with
      | Error msg -> bad msg
      | Ok (trace, index) ->
          (* Planner.replay with the store's index as a cached source. *)
          let sessions =
            layer "sessions.discover" (fun () ->
                Ebp_sessions.Discovery.discover trace)
          in
          let est =
            layer "sessions.plan" (fun () ->
                let e =
                  Planner.estimate ~events:(Trace.length trace)
                    ~sessions:(List.length sessions)
                    ~domains:(Ebp_util.Domain_pool.domains t.pool)
                    ~cached_index:true ()
                in
                Planner.record_decision e;
                e)
          in
          note_plan est;
          Ledger.count "sessions" (List.length sessions);
          let engine, index =
            match est.Planner.choice with
            | Planner.Use_scan -> (Replay.Scan, None)
            | Planner.Reuse_index -> (Replay.Indexed, Some index)
            | Planner.Build_index ->
                ( Replay.Indexed,
                  Some
                    (layer "write_index.build" (fun () ->
                         Write_index.build ~pool:t.pool ~page_sizes trace)) )
          in
          let results =
            layer "sessions.replay" (fun () ->
                let all =
                  Replay.replay_all ~page_sizes ~pool:t.pool ~engine ?index
                    trace sessions
                in
                if keep_hitless then all
                else
                  List.filter (fun (_, c) -> c.Ebp_sessions.Counts.hits > 0) all)
          in
          P.Report
            (layer "serve.render" (fun () ->
                 Ebp_serve.Render.sessions_report results)))
  | P.Query { name; source; seed; expr; _ } ->
      parse expr @@ fun q ->
      (match fetch t ~name ~source ~seed with
      | Error msg -> bad msg
      | Ok (trace, index) -> P.Report (run_query t ~index trace q))
  | P.Live_query { name; source; seed; expr; min_events; _ } ->
      parse expr @@ fun q ->
      (match live_fetch t ~name ~source ~seed ~min_events with
      | Error msg -> bad msg
      | Ok ({ Stream.trace; high_water; complete }, index) ->
          let reason = if complete then Planner.Full else Planner.Partial_index in
          let report = run_query t ?index ~reason trace q in
          P.Live_report { report; high_water; complete })
  | _ -> invalid_arg "Replica.execute: not a replicated request"

(* One request as the client and daemon exchange it: the request frame
   encoded and decoded, executed, and the reply frame encoded and
   decoded. *)
let send t req =
  let round_trip encode frame_of x =
    layer "serve.wire" @@ fun () ->
    let frame = encode x in
    match frame_of (P.decode ~buf:frame ~pos:0 ~len:(String.length frame)) with
    | Some y -> y
    | None -> failwith "frame does not round-trip"
  in
  let req =
    round_trip P.encode_request
      (function `Frame (P.Request r, _) -> Some r | _ -> None)
      req
  in
  round_trip P.encode_response
    (function `Frame (P.Response r, _) -> Some r | _ -> None)
    (execute t req)
