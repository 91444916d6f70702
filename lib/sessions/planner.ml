module Trace = Ebp_trace.Trace
module Write_index = Ebp_trace.Write_index
module Metrics = Ebp_obs.Metrics

type choice = Use_scan | Build_index | Reuse_index

(* Why the planner was consulted. [Full] is the batch default; the other
   two mark the streaming pipeline's degraded-input plans: answering
   over the sealed prefix of an in-progress recording with an
   incrementally-maintained index ([Partial_index]), or replaying a
   time-travel seek restarted from a machine checkpoint instead of step
   0 ([Checkpoint_restart]). The reason does not change the cost model —
   the same three options are priced over whatever events/sessions are
   visible — but it is logged and counted so live and travel decisions
   are distinguishable in the metrics. *)
type reason = Full | Partial_index | Checkpoint_restart

type estimate = {
  facts : (string * int) list;
  cached_index : bool;
  reason : reason;
  scan_cost : float;
  build_cost : float;
  reuse_cost : float;
  choice : choice;
}

let m_scan = Metrics.counter "planner.decision.scan"
let m_build = Metrics.counter "planner.decision.build"
let m_reuse = Metrics.counter "planner.decision.reuse"
let m_partial = Metrics.counter "planner.decision.partial_index"
let m_restart = Metrics.counter "planner.decision.checkpoint_restart"

(* The one chooser: replay and queries price the same three options in
   their own units and pick here. Reuse is only on the menu when an
   index is cached or resident; ties go to the index. *)
let choose ?(reason = Full) ~facts ~cached_index ~scan_cost ~build_cost
    ~reuse_cost () =
  let choice =
    if cached_index && reuse_cost <= build_cost && reuse_cost <= scan_cost then
      Reuse_index
    else if build_cost <= scan_cost then Build_index
    else Use_scan
  in
  { facts; cached_index; reason; scan_cost; build_cost; reuse_cost; choice }

(* The replay cost model. Unit: "events visited by one domain", calibrated
   against bench/main.ml's engine-comparison section rather than derived
   — the constants only need to rank the three options correctly near
   their crossover points, not predict wall-clock.

   - Scan replays every session in the same single pass, but per-event
     work grows with the sessions sharing the shard; with [d] domains the
     sessions split across shards while every shard still walks the whole
     trace. Empirically one pass costs ~1 plus ~1/32 per co-resident
     session:          scan  = events * (1 + sessions / domains / 32)
   - An indexed session replays by binary-searched range counts over its
     own postings: ~48 probes of log2(events) steps each (word + two page
     granularities, install/remove timeline walks), sessions split across
     domains:          reuse = (sessions / domains) * 48 * log2(events)
   - Building the index is one ~1.25x-weighted pass over the trace (the
     posting tables are hash inserts, heavier than a scan visit), chunked
     across domains, after which replay proceeds as reuse:
                       build = 1.25 * events / domains + reuse

   Reuse is only on the menu when a cached .widx exists; the planner
   never pays a speculative index load just to price it. *)
let estimate ?reason ~events ~sessions ~domains ~cached_index () =
  let ev = float_of_int (max events 1) in
  let se = float_of_int (max sessions 0) in
  let d = float_of_int (max domains 1) in
  let log2_ev = log ev /. log 2. in
  let scan_cost = ev *. (1. +. (se /. d /. 32.)) in
  let reuse_cost = se /. d *. 48. *. log2_ev in
  let build_cost = (1.25 *. ev /. d) +. reuse_cost in
  choose ?reason
    ~facts:[ ("events", events); ("sessions", sessions); ("domains", domains) ]
    ~cached_index ~scan_cost ~build_cost ~reuse_cost ()

let choice_name = function
  | Use_scan -> "scan"
  | Build_index -> "build"
  | Reuse_index -> "reuse"

let reason_name = function
  | Full -> "full"
  | Partial_index -> "partial_index"
  | Checkpoint_restart -> "checkpoint_restart"

let engine_of_choice = function
  | Use_scan -> Replay.Scan
  | Build_index | Reuse_index -> Replay.Indexed

(* The "planner: <choice> (" prefix is parsed by the benchmark's report
   assertions — extend inside the parentheses only. *)
let log_line e =
  Printf.sprintf "planner: %s (%s cached=%b reason=%s cost scan=%.3g build=%.3g \
                  reuse=%.3g)"
    (choice_name e.choice)
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) e.facts))
    e.cached_index (reason_name e.reason) e.scan_cost e.build_cost e.reuse_cost

let record_decision e =
  Metrics.incr
    (match e.choice with
    | Use_scan -> m_scan
    | Build_index -> m_build
    | Reuse_index -> m_reuse);
  match e.reason with
  | Full -> ()
  | Partial_index -> Metrics.incr m_partial
  | Checkpoint_restart -> Metrics.incr m_restart

type source = {
  cached : bool;
  load : unit -> Write_index.t option;
  store : Write_index.t -> unit;
}

let no_index_cache =
  { cached = false; load = (fun () -> None); store = ignore }

let replay ?(page_sizes = Replay.default_page_sizes) ?pool ?domains
    ?(keep_hitless = false) ?(index_source = no_index_cache) ?reason ?log
    trace =
  let go pool =
    let sessions = Discovery.discover trace in
    let ndomains =
      match pool with
      | Some p -> Ebp_util.Domain_pool.domains p
      | None -> 1
    in
    let est =
      estimate ?reason ~events:(Trace.length trace)
        ~sessions:(List.length sessions) ~domains:ndomains
        ~cached_index:index_source.cached ()
    in
    record_decision est;
    (match log with Some f -> f (log_line est) | None -> ());
    let build () =
      let index = Write_index.build ?pool ~page_sizes trace in
      index_source.store index;
      (Replay.Indexed, Some index)
    in
    let engine, index =
      match est.choice with
      | Use_scan -> (Replay.Scan, None)
      | Build_index -> build ()
      | Reuse_index -> (
          (* The probe said an entry exists; if it vanished or fails its
             integrity check between probe and load, degrade to a build —
             same engine, same report, just the amortization lost. *)
          match index_source.load () with
          | Some index -> (Replay.Indexed, Some index)
          | None -> build ())
    in
    let results = Replay.replay_all ~page_sizes ?pool ~engine ?index trace sessions in
    if keep_hitless then results
    else List.filter (fun (_, c) -> c.Counts.hits > 0) results
  in
  match (pool, domains) with
  | Some pool, _ -> go (Some pool)
  | None, (None | Some 1) -> go None
  | None, Some n ->
      Ebp_util.Domain_pool.with_pool ~domains:n (fun pool -> go (Some pool))
