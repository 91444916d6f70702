(* Tests for the cost-based replay planner: the pure cost model must pick
   each branch on the workload shapes it was calibrated for, the chosen
   branch must be observable (planner.decision.* counters, the ?log
   line), and — whatever it picks — the report must be bit-identical to
   both fixed engines. *)

module Interval = Ebp_util.Interval
module Prng = Ebp_util.Prng
module Object_desc = Ebp_trace.Object_desc
module Trace = Ebp_trace.Trace
module Write_index = Ebp_trace.Write_index
module Replay = Ebp_sessions.Replay
module Planner = Ebp_sessions.Planner
module Metrics = Ebp_obs.Metrics

let iv lo hi = Interval.make ~lo ~hi

(* --- the pure model, table-driven ---

   One row per calibration point; the expectation documents the regime
   the model must keep recognizing. Numbers sit well inside each regime,
   not on a crossover, so harmless re-calibrations don't flip them. *)

let model_table =
  [
    (* events, sessions, domains, cached, expected *)
    (2_000, 10, 1, false, Planner.Use_scan);
    (2_000, 10, 1, true, Planner.Use_scan);
    (* a cached index makes indexed replay free of its build cost *)
    (100_000, 500, 1, true, Planner.Reuse_index);
    (100_000, 500, 4, true, Planner.Reuse_index);
    (* no cache: a long, session-heavy trace amortizes a cold build *)
    (1_000_000, 300, 1, false, Planner.Build_index);
    (1_000_000, 300, 4, false, Planner.Build_index);
    (* few sessions never justify touching an index, however long *)
    (1_000_000, 2, 1, false, Planner.Use_scan);
  ]

let test_model_table () =
  List.iter
    (fun (events, sessions, domains, cached_index, expected) ->
      let e = Planner.estimate ~events ~sessions ~domains ~cached_index () in
      Alcotest.(check string)
        (Printf.sprintf "events=%d sessions=%d domains=%d cached=%b" events
           sessions domains cached_index)
        (Planner.choice_name expected)
        (Planner.choice_name e.Planner.choice);
      if e.Planner.choice = Planner.Reuse_index then
        Alcotest.(check bool) "reuse only when cached" true cached_index)
    model_table

let test_model_pure () =
  let e () =
    Planner.estimate ~events:50_000 ~sessions:40 ~domains:2 ~cached_index:true
      ()
  in
  Alcotest.(check bool) "same inputs, same estimate" true (e () = e ())

(* --- end-to-end: each branch forced by a real trace ---

   Synthetic traces shaped to land squarely in one regime each. The
   session count is whatever discovery finds, so each test first checks
   the trace really is in the regime it claims. *)

let make_trace ~objects ~events ~seed =
  let prng = Prng.create seed in
  let b = Trace.Builder.create ~hint:(events + (2 * objects)) () in
  let descs =
    Array.init objects (fun i ->
        let base = 0x1000 + (i * 0x100) in
        (Object_desc.Global { var = Printf.sprintf "g%d" i }, iv base (base + 7)))
  in
  Array.iter (fun (obj, range) -> Trace.Builder.add_install b obj range) descs;
  for i = 0 to events - 1 do
    let lo =
      if Prng.int prng 4 = 0 then
        (* on some monitored object *)
        let _, range = descs.(Prng.int prng objects) in
        Interval.lo range + (4 * Prng.int prng 2)
      else 0x100000 + (4 * Prng.int prng 0x1000)
    in
    Trace.Builder.add_write b (iv lo (lo + 3)) ~pc:(i mod 211)
  done;
  Array.iter (fun (obj, range) -> Trace.Builder.add_remove b obj range) descs;
  Trace.Builder.finish b

let counter_value snap name =
  match
    List.find_opt (fun (n, _, _) -> String.equal n name) snap.Metrics.counters
  with
  | Some (_, total, _) -> total
  | None -> 0

(* Run the planner on [trace], asserting it picks [expected] (visible in
   the counter and the log line) and that its report is bit-identical to
   both fixed engines. *)
let check_branch name ?index_source trace expected =
  let sessions = Ebp_sessions.Discovery.discover trace in
  let e =
    Planner.estimate ~events:(Trace.length trace)
      ~sessions:(List.length sessions) ~domains:1
      ~cached_index:
        (match index_source with Some s -> s.Planner.cached | None -> false)
      ()
  in
  Alcotest.(check string)
    (name ^ ": trace lands in the claimed regime")
    (Planner.choice_name expected)
    (Planner.choice_name e.Planner.choice);
  Metrics.reset ();
  Metrics.set_enabled true;
  let logged = ref [] in
  let planned =
    Fun.protect
      ~finally:(fun () -> Metrics.set_enabled false)
      (fun () ->
        Planner.replay ?index_source ~log:(fun l -> logged := l :: !logged)
          trace)
  in
  let snap = Metrics.snapshot () in
  Metrics.reset ();
  let decision = "planner.decision." ^ Planner.choice_name expected in
  Alcotest.(check int) (name ^ ": " ^ decision ^ " counted") 1
    (counter_value snap decision);
  (match !logged with
  | [ line ] ->
      let prefix = "planner: " ^ Planner.choice_name expected in
      Alcotest.(check string)
        (name ^ ": log line names the decision")
        prefix
        (String.sub line 0 (String.length prefix))
  | lines -> Alcotest.failf "%s: %d log lines" name (List.length lines));
  let scan = Replay.discover_and_replay ~engine:Replay.Scan trace in
  let indexed = Replay.discover_and_replay ~engine:Replay.Indexed trace in
  Alcotest.(check bool) (name ^ ": identical to fixed scan") true
    (planned = scan);
  Alcotest.(check bool) (name ^ ": identical to fixed indexed") true
    (planned = indexed);
  Alcotest.(check string)
    (name ^ ": marshalled bytes match the scan engine")
    (Digest.to_hex (Digest.string (Marshal.to_string scan [])))
    (Digest.to_hex (Digest.string (Marshal.to_string planned [])))

let test_branch_scan () =
  check_branch "short trace" (make_trace ~objects:8 ~events:1_500 ~seed:11)
    Planner.Use_scan

let test_branch_build () =
  check_branch "cold index amortized"
    (make_trace ~objects:48 ~events:60_000 ~seed:12)
    Planner.Build_index

let test_branch_reuse () =
  let trace = make_trace ~objects:48 ~events:60_000 ~seed:13 in
  let index = Write_index.build ~page_sizes:Replay.default_page_sizes trace in
  let stored = ref 0 in
  let source =
    {
      Planner.cached = true;
      load = (fun () -> Some index);
      store = (fun _ -> incr stored);
    }
  in
  check_branch "session-heavy with cached index" ~index_source:source trace
    Planner.Reuse_index;
  Alcotest.(check int) "reuse stores nothing back" 0 !stored

let test_reuse_degrades_to_build () =
  (* A cached probe whose load then misses (entry quarantined between
     probe and load) must degrade to a build — and store the result. *)
  let trace = make_trace ~objects:48 ~events:60_000 ~seed:14 in
  let stored = ref [] in
  let source =
    {
      Planner.cached = true;
      load = (fun () -> None);
      store = (fun ix -> stored := ix :: !stored);
    }
  in
  let planned = Planner.replay ~index_source:source trace in
  Alcotest.(check int) "freshly built index stored" 1 (List.length !stored);
  Alcotest.(check bool) "still identical to fixed scan" true
    (planned = Replay.discover_and_replay ~engine:Replay.Scan trace)

(* --- decision reasons (streaming pipeline observability) --- *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_reason_default_full () =
  let e =
    Planner.estimate ~events:1_000 ~sessions:4 ~domains:1 ~cached_index:false
      ()
  in
  Alcotest.(check string) "default reason" "full"
    (Planner.reason_name e.Planner.reason);
  Alcotest.(check bool) "log line carries it" true
    (contains (Planner.log_line e) "reason=full")

(* A non-Full reason must surface in its counter and the log line while
   leaving the decision — and the report — untouched. *)
let check_reason reason =
  let name = Planner.reason_name reason in
  let trace = make_trace ~objects:8 ~events:1_500 ~seed:15 in
  Metrics.reset ();
  Metrics.set_enabled true;
  let logged = ref [] in
  let planned =
    Fun.protect
      ~finally:(fun () -> Metrics.set_enabled false)
      (fun () ->
        Planner.replay ~reason ~log:(fun l -> logged := l :: !logged) trace)
  in
  let snap = Metrics.snapshot () in
  Metrics.reset ();
  Alcotest.(check int)
    (name ^ ": planner.decision." ^ name ^ " counted")
    1
    (counter_value snap ("planner.decision." ^ name));
  Alcotest.(check int)
    (name ^ ": the choice is still counted")
    1
    (counter_value snap "planner.decision.scan");
  (match !logged with
  | [ line ] ->
      Alcotest.(check bool)
        (name ^ ": log line names the reason")
        true
        (contains line ("reason=" ^ name))
  | lines -> Alcotest.failf "%s: %d log lines" name (List.length lines));
  Alcotest.(check bool)
    (name ^ ": report unchanged by the reason")
    true
    (planned = Replay.discover_and_replay ~engine:Replay.Scan trace)

let test_reason_partial_index () = check_reason Planner.Partial_index
let test_reason_checkpoint_restart () = check_reason Planner.Checkpoint_restart

(* --- query choices on the five paper programs ---

   The query shapes perfbench sends, on each paper program's recorded
   trace with its index resident, under both reasons a served query can
   carry. Each row pins the engine [--engine auto] must pick; the
   expected engine is the faster one by a wide margin in bench/main.ml's
   query section, so a refit that stays honest keeps these rows. *)

let live_spec = function
  | "compiler" -> "global:node_count"
  | "typeset" -> "global:total_lines"
  | "circuit" -> "global:steps_done"
  | "lattice" -> "global:sweep_count"
  | "puzzle" -> "global:expansions"
  | name -> Alcotest.failf "no live spec for %s" name

(* (shape, query over an [n]-event trace, expected choice) *)
let query_shapes name n =
  (* A 1% window from mid-trace, as perfbench draws them. *)
  let a = n / 2 and b = (n / 2) + (n / 100) - 1 in
  [
    ( "window group by object",
      Printf.sprintf "count where time in [%d,%d] group by object top 5" a b,
      Planner.Use_scan );
    ( "window count",
      Printf.sprintf "count where time in [%d,%d]" a b,
      Planner.Reuse_index );
    ("group by pc", "count group by pc top 5", Planner.Use_scan);
    ( "live",
      Printf.sprintf "count where live(%s)" (live_spec name),
      Planner.Reuse_index );
    ( "live bucket",
      Printf.sprintf "count where live(%s) bucket by %d" (live_spec name)
        (max 1 (n / 16)),
      Planner.Reuse_index );
    ("bare count", "count", Planner.Reuse_index);
  ]

let test_query_choices () =
  List.iter
    (fun (w : Ebp_workloads.Workload.t) ->
      let trace =
        match Ebp_workloads.Workload.record w with
        | Ok r -> r.Ebp_workloads.Workload.trace
        | Error msg -> Alcotest.fail msg
      in
      let index =
        Write_index.build ~page_sizes:Replay.default_page_sizes trace
      in
      List.iter
        (fun (shape, expr, expected) ->
          let q =
            match Ebp_query.Query.parse expr with
            | Ok q -> q
            | Error _ -> Alcotest.failf "%s does not parse" expr
          in
          List.iter
            (fun reason ->
              let label =
                Printf.sprintf "%s %s (%s)" w.Ebp_workloads.Workload.name
                  shape (Planner.reason_name reason)
              in
              Metrics.reset ();
              Metrics.set_enabled true;
              let logged = ref [] in
              let run =
                Fun.protect
                  ~finally:(fun () -> Metrics.set_enabled false)
                  (fun () ->
                    Ebp_query.Query.run ~index ~reason
                      ~log:(fun l -> logged := l :: !logged)
                      trace q)
              in
              let snap = Metrics.snapshot () in
              Metrics.reset ();
              let line = String.concat "" !logged in
              (match run.Ebp_query.Query.planned with
              | Some e ->
                  Alcotest.(check string) label
                    (Planner.choice_name expected)
                    (Planner.choice_name e.Planner.choice)
              | None -> Alcotest.failf "%s: auto planned nothing" label);
              Alcotest.(check int)
                (label ^ ": decision counted")
                1
                (counter_value snap ("planner.decision." ^ Planner.choice_name expected));
              Alcotest.(check int)
                (label ^ ": partial_index counted")
                (if reason = Planner.Partial_index then 1 else 0)
                (counter_value snap "planner.decision.partial_index");
              Alcotest.(check bool)
                (label ^ ": log line prices both engines")
                true
                (contains line ("planner: " ^ Planner.choice_name expected ^ " (")
                && contains line "cost scan="
                && contains line "visit="))
            [ Planner.Full; Planner.Partial_index ])
        (query_shapes w.Ebp_workloads.Workload.name (Trace.length trace)))
    Ebp_workloads.Workload.all

let () =
  Alcotest.run "planner"
    [
      ( "model",
        [
          Alcotest.test_case "calibration table" `Quick test_model_table;
          Alcotest.test_case "pure" `Quick test_model_pure;
        ] );
      ( "branches",
        [
          Alcotest.test_case "scan" `Quick test_branch_scan;
          Alcotest.test_case "build" `Quick test_branch_build;
          Alcotest.test_case "reuse" `Quick test_branch_reuse;
          Alcotest.test_case "reuse degrades to build" `Quick
            test_reuse_degrades_to_build;
        ] );
      ( "reasons",
        [
          Alcotest.test_case "default full" `Quick test_reason_default_full;
          Alcotest.test_case "partial_index" `Quick test_reason_partial_index;
          Alcotest.test_case "checkpoint_restart" `Quick
            test_reason_checkpoint_restart;
        ] );
      ( "queries",
        [
          Alcotest.test_case "paper-program choices" `Quick test_query_choices;
        ] );
    ]
