(* ebp — command-line front end for the data-breakpoints experiment.

   Subcommands:
     list                      list the benchmark workloads
     run <workload|file.mc>    compile and run a MiniC program
     trace <workload>          record a program event trace (--cached to
                               reuse the on-disk trace cache, --stream F
                               to save it for --from-trace)
     sessions <workload>       discover monitor sessions and their counts
     experiment [--only T1..]  run the full experiment and print reports
                               (-j N for N domains, --cache-dir for the
                               phase-1 trace cache, --engine scan|indexed
                               for the phase-2 replay engine)
     serve                     run the resident trace service on a Unix
                               socket (LRU of decoded traces, bounded
                               admission queue, per-tenant fairness,
                               batch coalescing; docs/SERVICE.md)
     client <sub>              query a running serve daemon: ping,
                               sessions, experiment, stats, shutdown
     stats <file.ndjson>       render a metrics snapshot as tables
     cache ls|clear|gc|verify  inspect / clear / size-bound / integrity-check
                               the trace cache
     fuzz --seeds N            differential fuzzing with shrinking
     debug <workload>          interactive watchpoint debugger REPL
     disasm <file.mc>          compile a MiniC file and print its assembly

   trace, sessions, query, experiment and travel all accept --metrics
   FILE (NDJSON snapshot of the Ebp_obs counters/histograms),
   --trace-events FILE (Chrome trace-event JSON for Perfetto), and
   --faults SPEC (seeded fault injection at the points cataloged in
   docs/ROBUSTNESS.md). *)

open Cmdliner

let exit_err msg =
  prerr_endline ("ebp: " ^ msg);
  exit 1

(* File errors must surface as one-line messages naming the offending
   path, never as an uncaught Sys_error backtrace (exit 125). *)
let read_file path =
  if Sys.file_exists path && Sys.is_directory path then
    exit_err (Printf.sprintf "%S is a directory" path);
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with Sys_error msg -> exit_err (Printf.sprintf "cannot read %S: %s" path msg)

(* The source and default seed of a workload name or MiniC file. *)
let source_of_arg arg =
  match Ebp_workloads.Workload.by_name arg with
  | Some w -> (w.Ebp_workloads.Workload.source, w.Ebp_workloads.Workload.seed)
  | None ->
      if Sys.file_exists arg then (read_file arg, 42)
      else exit_err (Printf.sprintf "no workload or file named %S" arg)

let write_file path content =
  if path = "-" then print_string content
  else
    try
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc content)
    with Sys_error msg ->
      exit_err (Printf.sprintf "cannot write %S: %s" path msg)

(* --- observability flags --- *)

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Collect metrics while the command runs and write an NDJSON \
           snapshot to $(docv) ($(b,-) for stdout). Render it with \
           $(b,ebp stats).")

let trace_events_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-events" ] ~docv:"FILE"
        ~doc:
          "Collect timing spans while the command runs and write Chrome \
           trace-event JSON to $(docv) ($(b,-) for stdout); load it in \
           Perfetto or chrome://tracing.")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Enable seeded fault injection while the command runs. $(docv) is \
           semicolon-separated clauses, each $(b,seed=N) or \
           $(b,PATTERN:TRIGGER:ACTION): TRIGGER is $(b,always), $(b,nth=N) \
           or $(b,p=F); ACTION is $(b,fail), $(b,bitflip), $(b,truncate) or \
           $(b,kill); PATTERN names a fault point, with $(b,*) globbing a \
           prefix (e.g. $(b,trace_cache.*:p=0.05:fail)). The point catalog \
           is in docs/ROBUSTNESS.md.")

let with_faults faults f =
  match faults with
  | None -> f ()
  | Some spec -> (
      match Ebp_util.Fault.configure_spec spec with
      | Error msg -> exit_err ("bad --faults spec: " ^ msg)
      | Ok () -> Fun.protect ~finally:Ebp_util.Fault.reset f)

(* Run [f] with the observability subsystem enabled when either output
   was requested, then write the requested artifacts. [f] exiting early
   via [exit_err] skips the writes — an error run has no snapshot worth
   keeping. *)
let with_obs ~metrics ~trace_events f =
  if metrics = None && trace_events = None then f ()
  else begin
    Ebp_obs.Metrics.set_enabled true;
    let result = f () in
    Ebp_obs.Metrics.set_enabled false;
    Option.iter
      (fun path ->
        write_file path (Ebp_obs.Export.to_ndjson (Ebp_obs.Metrics.snapshot ())))
      metrics;
    Option.iter
      (fun path -> write_file path (Ebp_obs.Span.to_trace_events ()))
      trace_events;
    result
  end

(* The flags of every command that runs the pipeline (trace, sessions,
   query, experiment, travel), parsed once: the command body runs under
   fault injection and observability. *)
let instrumented : ((unit -> unit) -> unit) Term.t =
  let run faults metrics trace_events f =
    with_faults faults @@ fun () -> with_obs ~metrics ~trace_events f
  in
  Term.(const run $ faults_arg $ metrics_arg $ trace_events_arg)

(* --- trace cache and phase 1 --- *)

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Trace cache directory (default: \\$XDG_CACHE_HOME/ebp or \
           ~/.cache/ebp).")

let cache_dir_of cache_dir =
  Option.value cache_dir ~default:(Ebp_trace.Trace_cache.default_dir ())

let record_trace ~seed source =
  match Ebp_trace.Recorder.record_source ~seed source with
  | Error msg -> exit_err msg
  | Ok (_result, trace, _debug) -> trace

(* Phase 1 through the trace cache ([trace --cached], [query --cached]):
   load the trace without executing anything when it is cached, record
   and store it otherwise, and say which on stderr. The directory and
   key are returned too: they also name the trace's index entries. *)
let cached_trace ~cache_dir ~target ~source ~seed =
  let dir = cache_dir_of cache_dir in
  let key = Ebp_trace.Trace_cache.make_key ~name:target ~source ~seed () in
  let trace =
    match Ebp_trace.Trace_cache.lookup ~dir ~key with
    | Some (trace, _meta) ->
        Printf.eprintf "phase 1: cache hit, no execution (%d events)\n"
          (Ebp_trace.Trace.length trace);
        trace
    | None ->
        let trace = record_trace ~seed source in
        (match Ebp_trace.Trace_cache.store ~dir ~key trace with
        | Ok () ->
            Printf.eprintf "phase 1: traced and cached (%d events)\n"
              (Ebp_trace.Trace.length trace)
        | Error msg ->
            Printf.eprintf "phase 1: traced; cache store failed: %s\n" msg);
        trace
  in
  (trace, dir, key)

(* [sessions] and [query] replay or query a saved trace instead of
   running anything: a stream written by [ebp trace --stream], read
   strictly (fin record present, nothing after it). *)
let from_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "from-trace" ] ~docv:"FILE"
        ~doc:
          "Read the trace from $(docv), a stream saved with $(b,ebp trace \
           --stream), instead of running anything; the positional target \
           is ignored.")

let read_saved_trace path =
  if not (Sys.file_exists path) then
    exit_err (Printf.sprintf "no trace file %S" path);
  match Ebp_trace.Stream.read_file path with
  | Ok trace -> trace
  | Error msg -> exit_err ("bad trace file: " ^ msg)

let target_or_dash =
  Arg.(value & pos 0 string "-" & info [] ~docv:"WORKLOAD|FILE.mc")

(* Arguments shared by a batch command and its [ebp client] twin. *)

let all_arg =
  Arg.(value & flag & info [ "all" ] ~doc:"Include sessions with zero monitor hits.")

let expr_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"EXPR")

let only_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "only" ] ~docv:"ARTIFACT"
        ~doc:
          "Print a single artifact: table1, table2, table3, table4, fig7, \
           fig8, fig9, breakdown, expansion.")

let workloads_arg =
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "workloads" ] ~docv:"NAMES"
        ~doc:"Comma-separated subset of workloads to run.")

(* --- list --- *)

let list_cmd =
  let doc = "List the benchmark workloads." in
  let f () =
    List.iter
      (fun w ->
        Printf.printf "%-10s %s (stands in for %s)\n" w.Ebp_workloads.Workload.name
          w.Ebp_workloads.Workload.description w.Ebp_workloads.Workload.paper_analogue)
      Ebp_workloads.Workload.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const f $ const ())

(* --- run --- *)

let target_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD|FILE.mc")

let seed_arg =
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let run_cmd =
  let doc = "Compile and run a MiniC program or named workload." in
  let f target seed =
    let source, default_seed = source_of_arg target in
    let seed = Option.value ~default:default_seed seed in
    match Ebp_runtime.Loader.run_source ~seed source with
    | Error msg -> exit_err msg
    | Ok r -> (
        print_string r.Ebp_runtime.Loader.output;
        (match r.Ebp_runtime.Loader.runtime_error with
        | Some e -> exit_err ("runtime error: " ^ e)
        | None -> ());
        match r.Ebp_runtime.Loader.status with
        | Ebp_machine.Machine.Halted code ->
            Printf.eprintf "[%d instructions, %d cycles, %.1f ms simulated]\n"
              r.Ebp_runtime.Loader.instructions r.Ebp_runtime.Loader.cycles
              (Ebp_machine.Cost_model.ms_of_cycles r.Ebp_runtime.Loader.cycles);
            exit code
        | Ebp_machine.Machine.Out_of_fuel -> exit_err "out of fuel"
        | Ebp_machine.Machine.Machine_error msg -> exit_err msg)
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const f $ target_arg $ seed_arg)

(* --- trace --- *)

let trace_cmd =
  let doc = "Record a program event trace (phase 1)." in
  let text_arg =
    Arg.(value & flag & info [ "text" ] ~doc:"Dump the trace as text to stdout.")
  in
  let cached_arg =
    Arg.(
      value & flag
      & info [ "cached" ]
          ~doc:
            "Consult the on-disk trace cache: load the trace without \
             executing anything when it is already cached, record and \
             cache it otherwise.")
  in
  let stream_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "stream" ] ~docv:"FILE"
          ~doc:
            "Record through the streaming pipeline instead of the batch \
             builder: sealed, CRC'd blocks are written to $(docv) as the \
             program runs (format EBPB1, docs/STREAMING.md), so peak \
             memory is one block regardless of trace length. The \
             completed stream decodes to a trace equal to the batch \
             recorder's; $(b,sessions) and $(b,query) read it back with \
             $(b,--from-trace).")
  in
  let block_events_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "block-events" ] ~docv:"N"
          ~doc:"Events per sealed block for $(b,--stream) (default 64Ki).")
  in
  let checkpoint_every_arg =
    Arg.(
      value & opt int 0
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "With $(b,--stream), take a machine checkpoint every $(docv) \
             trace events and store the chain in the trace cache; \
             $(b,ebp travel) restarts replay from the nearest one instead \
             of step 0.")
  in
  let stream_record ~target ~source ~seed ~out ~block_events ~every ~cache_dir =
    (match block_events with
    | Some n when n <= 0 -> exit_err "--block-events must be positive"
    | _ -> ());
    if every < 0 then exit_err "--checkpoint-every must be non-negative";
    match Ebp_lang.Compiler.compile source with
    | Error msg -> exit_err msg
    | Ok compiled ->
        let oc =
          try open_out_bin out
          with Sys_error msg ->
            exit_err (Printf.sprintf "cannot write %S: %s" out msg)
        in
        Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
        let writer =
          Ebp_trace.Stream.Writer.create ?block_events
            ~write:(output_string oc) ()
        in
        let loader = Ebp_runtime.Loader.load ~seed compiled in
        let recorder = Ebp_trace.Recorder.attach_stream writer loader in
        if every = 0 then begin
          ignore (Ebp_runtime.Loader.run loader);
          Ebp_trace.Recorder.finish_events recorder;
          Ebp_trace.Stream.Writer.finish writer;
          Printf.eprintf "streamed %d events to %s\n"
            (Ebp_trace.Stream.Writer.events writer)
            out
        end
        else begin
          let chain = Ebp_trace.Checkpoint.create () in
          Ebp_trace.Checkpoint.track loader;
          ignore
            (Ebp_trace.Checkpoint.run_with_checkpoints ~every
               ~events:(fun () -> Ebp_trace.Stream.Writer.events writer)
               ~nobjs:(fun () -> Ebp_trace.Stream.Writer.object_count writer)
               chain loader recorder);
          Ebp_trace.Recorder.finish_events recorder;
          Ebp_trace.Stream.Writer.finish writer;
          let dir = cache_dir_of cache_dir in
          let key =
            Ebp_trace.Trace_cache.make_key ~name:target ~source ~seed ()
          in
          match Ebp_trace.Trace_cache.store_checkpoints ~dir ~key chain with
          | Ok () ->
              Printf.eprintf "streamed %d events to %s; %d checkpoints cached\n"
                (Ebp_trace.Stream.Writer.events writer)
                out
                (Ebp_trace.Checkpoint.count chain)
          | Error msg ->
              Printf.eprintf
                "streamed %d events to %s; checkpoint store failed: %s\n"
                (Ebp_trace.Stream.Writer.events writer)
                out msg
        end
  in
  let f target text cached stream block_events checkpoint_every cache_dir
      instrumented =
    instrumented @@ fun () ->
    let source, seed = source_of_arg target in
    match stream with
    | Some out ->
        if text || cached then
          exit_err "--stream is exclusive with --text and --cached";
        stream_record ~target ~source ~seed ~out ~block_events
          ~every:checkpoint_every ~cache_dir
    | None ->
        let trace =
          if not cached then record_trace ~seed source
          else
            let trace, _dir, _key =
              cached_trace ~cache_dir ~target ~source ~seed
            in
            trace
        in
        if text then print_string (Ebp_trace.Trace.to_text trace)
        else
          Format.printf "%a@." Ebp_trace.Trace.pp_stats
            (Ebp_trace.Trace.stats trace)
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const f $ target_arg $ text_arg $ cached_arg $ stream_arg
      $ block_events_arg $ checkpoint_every_arg $ cache_dir_arg $ instrumented)

let engine_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("auto", None);
             ("indexed", Some Ebp_sessions.Replay.Indexed);
             ("scan", Some Ebp_sessions.Replay.Scan);
           ])
        None
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Phase-2 replay engine: $(b,auto) (default; a cost model picks \
           per trace from its length, session count, domain count, and \
           cached-index availability), $(b,indexed) (preprocesses the \
           trace into a temporal write index and counts each session by \
           binary-searched range counts), or $(b,scan) (one pass over the \
           trace per shard). All three produce bit-identical results.")

(* --- model approaches (sessions --approaches, experiment --approaches) --- *)

let approaches_arg =
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "approaches" ] ~docv:"NAMES"
        ~doc:
          "Comma-separated model approaches: $(b,NH), $(b,TP), $(b,CP), \
           $(b,VM-<size>) or $(b,VB-<size>) (size in bytes or $(i,n)K), \
           each optionally suffixed $(b,-rem) for the remote-debugger \
           variant. Example: $(b,NH,VM-4K,TP,CP,VB-4K).")

let parse_approaches names =
  List.map
    (fun n ->
      match Ebp_model.Strategy_model.of_name n with
      | Ok a -> a
      | Error msg -> exit_err msg)
    names

let rec approach_page_sizes a =
  match a with
  | Ebp_model.Strategy_model.VM ps | Ebp_model.Strategy_model.VB ps -> [ ps ]
  | Ebp_model.Strategy_model.Remote b -> approach_page_sizes b
  | Ebp_model.Strategy_model.NH | Ebp_model.Strategy_model.TP
  | Ebp_model.Strategy_model.CP ->
      []

(* --- sessions --- *)

let sessions_cmd =
  let doc =
    "Discover monitor sessions and replay a trace against them (phase 2). \
     The trace comes from running the program, or from a stream file \
     saved with $(b,ebp trace --stream)."
  in
  let f target all from engine approaches instrumented =
    instrumented @@ fun () ->
    let approaches = Option.map parse_approaches approaches in
    let page_sizes =
      let defaults = Ebp_sessions.Replay.default_page_sizes in
      match approaches with
      | None -> defaults
      | Some l ->
          defaults
          @ List.filter
              (fun ps -> not (List.mem ps defaults))
              (List.sort_uniq Int.compare
                 (List.concat_map approach_page_sizes l))
    in
    let trace =
      match from with
      | Some path -> read_saved_trace path
      | None ->
          let source, seed = source_of_arg target in
          record_trace ~seed source
    in
    let results =
      match engine with
      | Some engine ->
          Ebp_sessions.Replay.discover_and_replay ~engine ~page_sizes
            ~keep_hitless:all trace
      | None -> Ebp_sessions.Planner.replay ~page_sizes ~keep_hitless:all trace
    in
    (* Render through the one path the serve daemon also uses, so batch
       and served reports stay byte-identical (test/cram/serve.t). *)
    print_string (Ebp_serve.Render.sessions_report results);
    match approaches with
    | None -> ()
    | Some approaches ->
        print_string (Ebp_serve.Render.model_report results ~approaches)
  in
  Cmd.v (Cmd.info "sessions" ~doc)
    Term.(
      const f $ target_or_dash $ all_arg $ from_trace_arg $ engine_arg
      $ approaches_arg $ instrumented)

(* --- query --- *)

let query_cmd =
  let doc =
    "Run a trace query (docs/QUERY.md): predicates on pc, address range, \
     time window, and session liveness, with counts, group-bys, and \
     histograms. Compiled onto the write index or streamed over the trace; \
     both engines produce byte-identical output."
  in
  let qengine_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("auto", Ebp_query.Query.Auto);
               ("indexed", Ebp_query.Query.Indexed);
               ("scan", Ebp_query.Query.Scan);
             ])
          Ebp_query.Query.Auto
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Query engine: $(b,auto) (default; the replay cost model picks \
             from trace length, query shape, and cached-index \
             availability), $(b,indexed) (compiles the predicate onto \
             write-index posting lists), or $(b,scan) (one streaming pass \
             over the trace). All three produce byte-identical output.")
  in
  let format_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("table", Ebp_query.Query.Table); ("ndjson", Ebp_query.Query.Ndjson) ])
          Ebp_query.Query.Table
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:"Output format: $(b,table) (default) or $(b,ndjson).")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Run the query through $(b,both) engines and fail unless they \
             agree (the differential oracle the fuzzer uses).")
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:"Print the planner's cost-model decision to stderr.")
  in
  let cached_arg =
    Arg.(
      value & flag
      & info [ "cached" ]
          ~doc:
            "Consult the on-disk caches: reuse (or record and store) the \
             trace, and reuse (or build and store) its write index, so \
             repeated queries skip both phase 1 and the index build.")
  in
  let f target expr from engine format check explain cached cache_dir
      instrumented =
    instrumented @@ fun () ->
    let q =
      match Ebp_query.Query.parse expr with
      | Ok q -> q
      | Error e ->
          prerr_endline ("ebp: " ^ Ebp_query.Parser.error_line expr e);
          prerr_endline (Ebp_query.Parser.error_caret expr e);
          exit 1
    in
    (* [trace_key] is [Some key] only when the trace came from the cache
       path, which is what guarantees the index entry describes it. *)
    let trace, trace_key =
      match from with
      | Some path -> (read_saved_trace path, None)
      | None ->
          let source, seed = source_of_arg target in
          if not cached then (record_trace ~seed source, None)
          else
            let trace, dir, key =
              cached_trace ~cache_dir ~target ~source ~seed
            in
            (trace, Some (dir, key))
    in
    let page_sizes = Ebp_sessions.Replay.default_page_sizes in
    let index_source =
      match trace_key with
      | None -> Ebp_sessions.Planner.no_index_cache
      | Some (dir, key) ->
          {
            Ebp_sessions.Planner.cached =
              Ebp_trace.Trace_cache.index_cached ~dir ~key ~page_sizes;
            load =
              (fun () ->
                Ebp_trace.Trace_cache.lookup_index ~dir ~key ~page_sizes);
            store =
              (fun index ->
                match
                  Ebp_trace.Trace_cache.store_index ~dir ~key ~page_sizes
                    index
                with
                | Ok () | Error _ -> ());
          }
    in
    let log = if explain then Some prerr_endline else None in
    let execution =
      try
        if check then begin
          match Ebp_query.Query.check_engines trace q with
          | Ok execution ->
              prerr_endline "query: engines agree";
              execution
          | Error msg -> exit_err msg
        end
        else Ebp_query.Query.run ~engine ~index_source ?log trace q
      with Ebp_util.Fault.Injected msg ->
        exit_err ("injected fault: " ^ msg)
    in
    print_string
      (Ebp_query.Query.render ~format trace q execution.Ebp_query.Query.raw)
  in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(
      const f $ target_or_dash $ expr_arg $ from_trace_arg $ qengine_arg
      $ format_arg $ check_arg $ explain_arg $ cached_arg $ cache_dir_arg
      $ instrumented)

(* --- experiment --- *)

let experiment_cmd =
  let doc = "Run the full simulation experiment and print the paper's artifacts." in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Run the experiment engine on $(docv) domains: workloads trace \
             in parallel and each replay is sharded. Output is identical \
             for every $(docv).")
  in
  let f only workloads jobs approaches cache_dir engine instrumented =
    instrumented @@ fun () ->
    let approaches = Option.map parse_approaches approaches in
    let workloads =
      match workloads with
      | None -> Ebp_workloads.Workload.all
      | Some names ->
          List.map
            (fun n ->
              match Ebp_workloads.Workload.by_name n with
              | Some w -> w
              | None -> exit_err (Printf.sprintf "unknown workload %S" n))
            names
    in
    match
      Ebp_core.Experiment.run ~workloads ?approaches ~domains:jobs ?cache_dir
        ?engine ~log:prerr_endline ()
    with
    | Error msg -> exit_err msg
    | Ok t -> (
        let artifact = Option.value only ~default:"full" in
        match Ebp_serve.Render.experiment_report t ~artifact with
        | Ok text -> print_string text
        | Error msg -> exit_err msg)
  in
  Cmd.v (Cmd.info "experiment" ~doc)
    Term.(
      const f $ only_arg $ workloads_arg $ jobs_arg $ approaches_arg
      $ cache_dir_arg $ engine_arg $ instrumented)

(* --- stats --- *)

let stats_cmd =
  let doc =
    "Render a metrics snapshot (the NDJSON written by $(b,--metrics)) as \
     human-readable tables."
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE.ndjson" ~doc:"Snapshot file, or $(b,-) for stdin.")
  in
  let f path =
    let contents =
      if path = "-" then In_channel.input_all stdin
      else if Sys.file_exists path then read_file path
      else exit_err (Printf.sprintf "no snapshot file %S" path)
    in
    match Ebp_obs.Export.of_ndjson contents with
    | Error msg -> exit_err (Printf.sprintf "%s: %s" path msg)
    | Ok snapshot -> print_string (Ebp_util.Obs_report.render snapshot)
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const f $ file_arg)

(* --- cache --- *)

let cache_cmd =
  let kind_name = function
    | Ebp_trace.Trace_cache.Trace_entry -> "trace"
    | Ebp_trace.Trace_cache.Index_entry -> "index"
    | Ebp_trace.Trace_cache.Checkpoint_entry -> "checkpoint"
    | Ebp_trace.Trace_cache.Stale_entry -> "stale"
    | Ebp_trace.Trace_cache.Tmp_entry -> "tmp"
    | Ebp_trace.Trace_cache.Corrupt_entry -> "corrupt"
  in
  let ls_cmd =
    let doc =
      "List the cache entries, a per-artifact-type size breakdown, and the \
       total size."
    in
    let f cache_dir =
      let entries =
        Ebp_trace.Trace_cache.entries ~dir:(cache_dir_of cache_dir)
      in
      (* Name order for stable output; [gc] evicts by age, not name. *)
      let entries =
        List.sort
          (fun a b ->
            compare a.Ebp_trace.Trace_cache.entry_file
              b.Ebp_trace.Trace_cache.entry_file)
          entries
      in
      let rows =
        List.map
          (fun e ->
            [
              kind_name e.Ebp_trace.Trace_cache.entry_kind;
              string_of_int e.Ebp_trace.Trace_cache.entry_bytes;
              e.Ebp_trace.Trace_cache.entry_file;
            ])
          entries
      in
      if rows <> [] then
        print_string
          (Ebp_util.Text_table.render ~header:[ "kind"; "bytes"; "file" ] ~rows
             ());
      (* Per-kind breakdown in a fixed order (skipping absent kinds), so
         the disk cost of each artifact type is visible at a glance. *)
      List.iter
        (fun kind ->
          let n, bytes =
            List.fold_left
              (fun (n, b) e ->
                if e.Ebp_trace.Trace_cache.entry_kind = kind then
                  (n + 1, b + e.Ebp_trace.Trace_cache.entry_bytes)
                else (n, b))
              (0, 0) entries
          in
          if n > 0 then
            Printf.printf "%-8s %d entries, %d bytes\n" (kind_name kind) n
              bytes)
        [
          Ebp_trace.Trace_cache.Trace_entry;
          Ebp_trace.Trace_cache.Index_entry;
          Ebp_trace.Trace_cache.Checkpoint_entry;
          Ebp_trace.Trace_cache.Stale_entry;
          Ebp_trace.Trace_cache.Tmp_entry;
          Ebp_trace.Trace_cache.Corrupt_entry;
        ];
      let total =
        List.fold_left
          (fun acc e -> acc + e.Ebp_trace.Trace_cache.entry_bytes)
          0 entries
      in
      Printf.printf "%d entries, %d bytes\n" (List.length entries) total
    in
    Cmd.v (Cmd.info "ls" ~doc) Term.(const f $ cache_dir_arg)
  in
  let report (removed, reclaimed) =
    Printf.printf "removed %d entries, reclaimed %d bytes\n" removed reclaimed
  in
  let clear_cmd =
    let doc = "Remove every cache entry (temp files included)." in
    let f cache_dir metrics =
      with_obs ~metrics ~trace_events:None @@ fun () ->
      report (Ebp_trace.Trace_cache.clear ~dir:(cache_dir_of cache_dir))
    in
    Cmd.v (Cmd.info "clear" ~doc) Term.(const f $ cache_dir_arg $ metrics_arg)
  in
  let gc_cmd =
    let doc =
      "Garbage-collect the cache: drop orphaned temp files, then evict \
       oldest entries until the cache fits in $(b,--max-bytes)."
    in
    let max_bytes_arg =
      Arg.(
        required
        & opt (some int) None
        & info [ "max-bytes" ] ~docv:"N"
            ~doc:"Target size for the cache directory, in bytes.")
    in
    let f cache_dir max_bytes metrics =
      if max_bytes < 0 then exit_err "--max-bytes must be non-negative";
      with_obs ~metrics ~trace_events:None @@ fun () ->
      report (Ebp_trace.Trace_cache.gc ~dir:(cache_dir_of cache_dir) ~max_bytes)
    in
    Cmd.v (Cmd.info "gc" ~doc)
      Term.(const f $ cache_dir_arg $ max_bytes_arg $ metrics_arg)
  in
  let verify_cmd =
    let doc =
      "Check the integrity (checksum trailer and full decode) of every \
       cache entry, quarantining the corrupt ones as $(b,*.corrupt). Exits \
       1 when corruption was found."
    in
    let no_quarantine_arg =
      Arg.(
        value & flag
        & info [ "no-quarantine" ]
            ~doc:"Only report corrupt entries, do not rename them.")
    in
    let f cache_dir no_quarantine metrics =
      (* verify prints its own report; silence the stderr hook. *)
      Ebp_trace.Trace_cache.set_quarantine_log (fun ~file:_ ~reason:_ -> ());
      with_obs ~metrics ~trace_events:None @@ fun () ->
      let r =
        Ebp_trace.Trace_cache.verify ~quarantine:(not no_quarantine)
          ~dir:(cache_dir_of cache_dir) ()
      in
      List.iter
        (fun (file, reason) ->
          Printf.printf "corrupt: %s (%s)%s\n" file reason
            (if no_quarantine then "" else " -> quarantined"))
        r.Ebp_trace.Trace_cache.corrupt;
      Printf.printf "%d entries checked: %d intact, %d corrupt, %d temp files\n"
        r.Ebp_trace.Trace_cache.checked r.Ebp_trace.Trace_cache.intact
        (List.length r.Ebp_trace.Trace_cache.corrupt)
        r.Ebp_trace.Trace_cache.tmp_litter;
      if r.Ebp_trace.Trace_cache.corrupt <> [] then exit 1
    in
    Cmd.v (Cmd.info "verify" ~doc)
      Term.(const f $ cache_dir_arg $ no_quarantine_arg $ metrics_arg)
  in
  let doc = "Inspect, garbage-collect, and integrity-check the on-disk trace cache." in
  Cmd.group (Cmd.info "cache" ~doc) [ ls_cmd; clear_cmd; gc_cmd; verify_cmd ]

(* --- fuzz --- *)

let fuzz_cmd =
  let doc =
    "Differential fuzzing: run generated MiniC programs through the \
     record / run-vs-record / step-vs-run / codec round-trip / \
     scan-vs-indexed / query-engines oracles, shrinking any failure to a \
     minimal reproducer. The $(b,--gen-*) knobs turn the generator into \
     a workload synthesizer (more events, heap churn, or monitored \
     globals per program)."
  in
  let seeds_arg =
    Arg.(
      value & opt int 100
      & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeds to check.")
  in
  let start_arg =
    Arg.(
      value & opt int 0
      & info [ "start" ] ~docv:"S"
          ~doc:"First seed; the run covers seeds $(docv) .. $(docv)+N-1.")
  in
  let fuel_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:"Instruction budget per execution (default 2,000,000).")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-failure" ] ~docv:"FILE"
          ~doc:
            "On failure, write the shrunk reproducer source to $(docv) \
             instead of stdout.")
  in
  let no_shrink_arg =
    Arg.(
      value & flag
      & info [ "no-shrink" ]
          ~doc:"Report the original failing program without shrinking it.")
  in
  let gen_events_arg =
    Arg.(
      value & opt int 0
      & info [ "gen-events" ] ~docv:"N"
          ~doc:
            "Append $(docv) hot write loops (~2k writes each) to every \
             generated program; raise $(b,--fuel) accordingly.")
  in
  let gen_heap_churn_arg =
    Arg.(
      value & opt int 0
      & info [ "gen-heap-churn" ] ~docv:"N"
          ~doc:"Append $(docv) malloc / write-loop / free groups.")
  in
  let gen_session_density_arg =
    Arg.(
      value & opt int 0
      & info [ "gen-session-density" ] ~docv:"N"
          ~doc:"Add $(docv) extra monitored globals, each with writes.")
  in
  let f seeds start fuel save no_shrink gen_events gen_heap_churn
      gen_session_density =
    if seeds < 0 then exit_err "--seeds must be non-negative";
    if gen_events < 0 || gen_heap_churn < 0 || gen_session_density < 0 then
      exit_err "--gen-* knobs must be non-negative";
    let knobs =
      { Ebp_core.Fuzz.gen_events; gen_heap_churn; gen_session_density }
    in
    let failure = ref None in
    (try
       for seed = start to start + seeds - 1 do
         match Ebp_core.Fuzz.check_seed ?fuel ~knobs seed with
         | Ok () ->
             let done_ = seed - start + 1 in
             if done_ mod 100 = 0 && done_ < seeds then
               Printf.eprintf "fuzz: %d/%d seeds ok\n%!" done_ seeds
         | Error f ->
             failure := Some f;
             raise Exit
       done
     with Exit -> ());
    match !failure with
    | None -> Printf.printf "fuzz: %d seeds, all oracles held\n" seeds
    | Some f ->
        Printf.eprintf "fuzz: seed %d failed oracle %s (%s)%s\n%!"
          f.Ebp_core.Fuzz.seed f.Ebp_core.Fuzz.oracle f.Ebp_core.Fuzz.detail
          (if no_shrink then "" else "; shrinking");
        let f = if no_shrink then f else Ebp_core.Fuzz.shrink ?fuel f in
        let reproducer =
          Printf.sprintf "// seed %d, oracle %s: %s\n%s%s" f.Ebp_core.Fuzz.seed
            f.Ebp_core.Fuzz.oracle f.Ebp_core.Fuzz.detail
            ((match f.Ebp_core.Fuzz.query with
             | Some q -> Printf.sprintf "// query: %s\n" q
             | None -> "")
            ^
            match f.Ebp_core.Fuzz.monitors with
            | Some ms -> Printf.sprintf "// monitors: %s\n" (String.concat " " ms)
            | None -> "")
            f.Ebp_core.Fuzz.source
        in
        (match save with
        | Some path ->
            write_file path reproducer;
            Printf.eprintf "fuzz: reproducer written to %s\n" path
        | None -> print_string reproducer);
        exit 1
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const f $ seeds_arg $ start_arg $ fuel_arg $ save_arg $ no_shrink_arg
      $ gen_events_arg $ gen_heap_churn_arg $ gen_session_density_arg)

(* --- travel --- *)

let travel_cmd =
  let doc =
    "Time-travel to a trace timestamp: restore the machine from the nearest \
     checkpoint of a recorded run and seek forward, timed against a full \
     step-0 replay of the same prefix. Both paths must reach a bit-identical \
     machine state (docs/STREAMING.md) — the command fails if the state \
     digests differ."
  in
  let event_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "event" ] ~docv:"W"
          ~doc:"Target trace timestamp (event count) to travel to.")
  in
  let every_arg =
    Arg.(
      value & opt int 100_000
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Checkpoint cadence in trace events when recording the run.")
  in
  let cached_arg =
    Arg.(
      value & flag
      & info [ "cached" ]
          ~doc:
            "Consult the trace cache for a stored checkpoint chain; record \
             the run and store one otherwise.")
  in
  let f target event every cached cache_dir instrumented =
    instrumented @@ fun () ->
    if event < 0 then exit_err "--event must be non-negative";
    if every <= 0 then exit_err "--checkpoint-every must be positive";
    let source, seed = source_of_arg target in
    match Ebp_lang.Compiler.compile source with
    | Error msg -> exit_err msg
    | Ok compiled ->
        let module Ckpt = Ebp_trace.Checkpoint in
        let load () = Ebp_runtime.Loader.load ~seed compiled in
        let record_chain () =
          (* The stream bytes are discarded: travel only needs the
             checkpoint chain, and the writer's event counter is the
             checkpoint cadence clock. *)
          let writer =
            Ebp_trace.Stream.Writer.create ~write:(fun _ -> ()) ()
          in
          let loader = load () in
          let recorder = Ebp_trace.Recorder.attach_stream writer loader in
          let chain = Ckpt.create () in
          Ckpt.track loader;
          ignore
            (Ckpt.run_with_checkpoints ~every
               ~events:(fun () -> Ebp_trace.Stream.Writer.events writer)
               ~nobjs:(fun () ->
                 Ebp_trace.Stream.Writer.object_count writer)
               chain loader recorder);
          Ebp_trace.Recorder.finish_events recorder;
          Ebp_trace.Stream.Writer.finish writer;
          chain
        in
        let chain =
          if not cached then record_chain ()
          else begin
            let dir = cache_dir_of cache_dir in
            let key =
              Ebp_trace.Trace_cache.make_key ~name:target ~source ~seed ()
            in
            match Ebp_trace.Trace_cache.lookup_checkpoints ~dir ~key with
            | Some chain ->
                Printf.eprintf "checkpoints: cache hit (%d entries)\n"
                  (Ckpt.count chain);
                chain
            | None ->
                let chain = record_chain () in
                (match
                   Ebp_trace.Trace_cache.store_checkpoints ~dir ~key chain
                 with
                | Ok () ->
                    Printf.eprintf
                      "checkpoints: recorded and cached (%d entries)\n"
                      (Ckpt.count chain)
                | Error msg ->
                    Printf.eprintf
                      "checkpoints: recorded; cache store failed: %s\n" msg);
                chain
          end
        in
        let time f =
          let t0 = Unix.gettimeofday () in
          let r = f () in
          (r, (Unix.gettimeofday () -. t0) *. 1000.)
        in
        let digest0, step0_ms =
          time (fun () ->
              let loader = load () in
              let counters = { Ebp_trace.Recorder.c_events = 0; c_objs = 0 } in
              ignore
                (Ebp_trace.Recorder.attach_sink
                   (Ebp_trace.Recorder.counting_sink counters)
                   loader);
              ignore (Ckpt.seek loader counters ~event);
              Ckpt.state_digest loader counters)
        in
        let restart, restart_ms =
          time (fun () ->
              match Ckpt.restore chain ~event ~load with
              | None -> None
              | Some r ->
                  let from = r.Ckpt.rs_counters.Ebp_trace.Recorder.c_events in
                  ignore
                    (Ckpt.seek r.Ckpt.rs_loader r.Ckpt.rs_counters ~event);
                  Some
                    ( from,
                      Ckpt.state_digest r.Ckpt.rs_loader r.Ckpt.rs_counters
                    ))
        in
        match restart with
        | None ->
            Printf.printf
              "travel to event %d: no checkpoint precedes it (chain of \
               %d); step-0 replay took %.1f ms\n"
              event (Ckpt.count chain) step0_ms
        | Some (from, digest) ->
            Printf.printf
              "travel to event %d: restart from checkpoint at event %d \
               (chain of %d)\n\
              \  checkpoint restart: %8.1f ms\n\
              \  step-0 replay:      %8.1f ms\n\
              \  speedup: %.1fx\n"
              event from (Ckpt.count chain) restart_ms step0_ms
              (step0_ms /. Float.max 1e-6 restart_ms);
            if digest <> digest0 then
              exit_err
                (Printf.sprintf
                   "state digests differ (restart %s, step-0 %s): \
                    checkpoint restore is not equivalent"
                   digest digest0)
            else print_endline "  state digests match"
  in
  Cmd.v (Cmd.info "travel" ~doc)
    Term.(
      const f $ target_arg $ event_arg $ every_arg $ cached_arg $ cache_dir_arg
      $ instrumented)

(* --- serve / client --- *)

module Proto = Ebp_serve.Protocol

let default_socket_path () =
  match Sys.getenv_opt "XDG_RUNTIME_DIR" with
  | Some d when d <> "" -> Filename.concat d "ebp.sock"
  | _ ->
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "ebp-%d.sock" (Unix.getuid ()))

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket the service listens on (default: \
           \\$XDG_RUNTIME_DIR/ebp.sock, else a per-user socket in the \
           temp directory).")

let serve_cmd =
  let doc =
    "Run the resident trace service: a long-running daemon holding an LRU \
     of decoded traces and write indices, answering concurrent \
     $(b,ebp client) queries over a Unix-domain socket with bounded \
     admission, per-tenant fairness, and batch coalescing. The wire \
     protocol and ops runbook are in docs/SERVICE.md."
  in
  let queue_limit_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:
            "Admission-queue bound: at most $(docv) queries wait at once; \
             the rest are refused with an explicit Overloaded response \
             instead of buffering without bound.")
  in
  let lru_arg =
    Arg.(
      value & opt int 8
      & info [ "lru-capacity" ] ~docv:"N"
          ~doc:
            "How many decoded traces (with their write indices) stay \
             resident in memory; least-recently-used entries are evicted \
             past $(docv).")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Domain-pool width: each replay is sharded across $(docv) \
             domains, shared by all requests.")
  in
  let f socket queue_limit lru jobs cache_dir metrics faults =
    if queue_limit < 1 then exit_err "--queue-limit must be at least 1";
    if lru < 1 then exit_err "--lru-capacity must be at least 1";
    if jobs < 1 then exit_err "--jobs must be at least 1";
    let socket_path = Option.value socket ~default:(default_socket_path ()) in
    with_faults faults @@ fun () ->
    (* The daemon always runs with metrics on: the runbook's signals and
       the Stats_query response are served from this registry. *)
    Ebp_obs.Metrics.set_enabled true;
    let config =
      {
        Ebp_serve.Server.Core.queue_limit;
        lru_capacity = lru;
        domains = jobs;
        cache_dir;
        server_name = "ebp serve/1.0.0";
      }
    in
    let on_ready () =
      Printf.eprintf "ebp serve: listening on %s (pid %d)\n%!" socket_path
        (Unix.getpid ())
    in
    match Ebp_serve.Server.serve ~on_ready ~socket_path config () with
    | Error msg -> exit_err msg
    | Ok () ->
        Printf.eprintf "ebp serve: drained and stopped\n%!";
        Option.iter
          (fun path ->
            write_file path
              (Ebp_obs.Export.to_ndjson (Ebp_obs.Metrics.snapshot ())))
          metrics
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const f $ socket_arg $ queue_limit_arg $ lru_arg $ jobs_arg
      $ cache_dir_arg $ metrics_arg $ faults_arg)

let client_cmd =
  let tenant_arg =
    Arg.(
      value & opt string "default"
      & info [ "tenant" ] ~docv:"NAME"
          ~doc:
            "Tenant identity sent in the Hello frame; the server schedules \
             fairly across tenants and keeps per-tenant latency \
             histograms.")
  in
  let run_request socket tenant req on_ok =
    let socket_path = Option.value socket ~default:(default_socket_path ()) in
    match
      Ebp_serve.Client.with_client ~tenant ~socket_path (fun c ->
          Ebp_serve.Client.request c req)
    with
    | Error msg -> exit_err msg
    | Ok (Proto.Error_resp { code; message }) ->
        exit_err
          (Printf.sprintf "server error (%s): %s"
             (Proto.error_code_name code)
             message)
    | Ok (Proto.Overloaded { queued; limit }) ->
        exit_err
          (Printf.sprintf "server overloaded (%d queued, limit %d); retry later"
             queued limit)
    | Ok resp -> on_ok resp
  in
  let unexpected () = exit_err "unexpected response type from server" in
  let print_report = function
    | Proto.Report text -> print_string text
    | _ -> unexpected ()
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("table", "table"); ("ndjson", "ndjson") ]) "table"
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:"Output format: $(b,table) or $(b,ndjson).")
  in
  let ping_cmd =
    let doc = "Round-trip one Ping frame." in
    let f socket tenant =
      run_request socket tenant Proto.Ping (function
        | Proto.Pong -> print_endline "pong"
        | _ -> unexpected ())
    in
    Cmd.v (Cmd.info "ping" ~doc) Term.(const f $ socket_arg $ tenant_arg)
  in
  let sessions_cmd =
    let doc =
      "Run a phase-2 session query on the server and print the report — \
       byte-identical to $(b,ebp sessions) for the same program."
    in
    let f socket tenant target all engine =
      let source, seed = source_of_arg target in
      let engine =
        match engine with
        | None -> "auto"
        | Some Ebp_sessions.Replay.Indexed -> "indexed"
        | Some Ebp_sessions.Replay.Scan -> "scan"
      in
      run_request socket tenant
        (Proto.Sessions_query
           { name = target; source; seed; engine; keep_hitless = all })
        print_report
    in
    Cmd.v (Cmd.info "sessions" ~doc)
      Term.(
        const f $ socket_arg $ tenant_arg $ target_arg $ all_arg $ engine_arg)
  in
  let experiment_cmd =
    let doc =
      "Run the experiment on the server and print one artifact — \
       byte-identical to $(b,ebp experiment)."
    in
    let f socket tenant only workloads =
      let artifact = Option.value only ~default:"full" in
      let workloads = Option.value workloads ~default:[] in
      run_request socket tenant
        (Proto.Experiment_query { workloads; artifact })
        print_report
    in
    Cmd.v (Cmd.info "experiment" ~doc)
      Term.(const f $ socket_arg $ tenant_arg $ only_arg $ workloads_arg)
  in
  let query_cmd =
    let doc =
      "Run a trace query on the server and print the result — \
       byte-identical to $(b,ebp query) for the same program and \
       expression (docs/QUERY.md)."
    in
    let engine_arg =
      Arg.(
        value
        & opt (enum [ ("auto", "auto"); ("indexed", "indexed"); ("scan", "scan") ])
            "auto"
        & info [ "engine" ] ~docv:"ENGINE"
            ~doc:"Query engine: $(b,auto), $(b,indexed), or $(b,scan).")
    in
    let f socket tenant target expr engine format =
      let source, seed = source_of_arg target in
      run_request socket tenant
        (Proto.Query { name = target; source; seed; expr; engine; format })
        print_report
    in
    Cmd.v (Cmd.info "query" ~doc)
      Term.(
        const f $ socket_arg $ tenant_arg $ target_arg $ expr_arg $ engine_arg
        $ format_arg)
  in
  let live_query_cmd =
    let doc =
      "Run a query against the server's $(i,live) streaming recording of a \
       program: the server advances the recording past $(b,--min-events), \
       then answers over the sealed prefix. The report carries an explicit \
       high-water mark (printed to stderr); once the recording completes it \
       is byte-identical to $(b,ebp client query) (docs/STREAMING.md)."
    in
    let min_events_arg =
      Arg.(
        value & opt int 0
        & info [ "min-events" ] ~docv:"N"
            ~doc:
              "Advance the recording until its sealed prefix strictly \
               exceeds $(docv) events (or the run completes). Pass the \
               previous reply's high-water mark to poll for progress.")
    in
    let f socket tenant target expr format min_events =
      let source, seed = source_of_arg target in
      run_request socket tenant
        (Proto.Live_query
           { name = target; source; seed; expr; format; min_events })
        (function
          | Proto.Live_report { report; high_water; complete } ->
              Printf.eprintf "live: high_water=%d complete=%b\n" high_water
                complete;
              print_string report
          | _ -> unexpected ())
    in
    Cmd.v (Cmd.info "live-query" ~doc)
      Term.(
        const f $ socket_arg $ tenant_arg $ target_arg $ expr_arg $ format_arg
        $ min_events_arg)
  in
  let stats_cmd =
    let doc =
      "Fetch the server's live metrics snapshot and render it as tables \
       (or dump the raw NDJSON with $(b,--raw))."
    in
    let raw_arg =
      Arg.(
        value & flag
        & info [ "raw" ]
            ~doc:"Print the NDJSON snapshot instead of rendered tables.")
    in
    let f socket tenant raw =
      run_request socket tenant Proto.Stats_query (function
        | Proto.Stats ndjson -> (
            if raw then print_string ndjson
            else
              match Ebp_obs.Export.of_ndjson ndjson with
              | Error msg -> exit_err ("bad snapshot from server: " ^ msg)
              | Ok snapshot ->
                  print_string (Ebp_util.Obs_report.render snapshot))
        | _ -> unexpected ())
    in
    Cmd.v (Cmd.info "stats" ~doc)
      Term.(const f $ socket_arg $ tenant_arg $ raw_arg)
  in
  let shutdown_cmd =
    let doc =
      "Ask the server to shut down gracefully: it stops accepting, drains \
       queued queries, flushes replies, and exits."
    in
    let f socket tenant =
      run_request socket tenant Proto.Shutdown (function
        | Proto.Shutdown_ack -> print_endline "server shutting down"
        | _ -> unexpected ())
    in
    Cmd.v (Cmd.info "shutdown" ~doc) Term.(const f $ socket_arg $ tenant_arg)
  in
  let doc = "Query a running $(b,ebp serve) daemon over its socket." in
  Cmd.group (Cmd.info "client" ~doc)
    [
      ping_cmd; sessions_cmd; query_cmd; live_query_cmd; experiment_cmd;
      stats_cmd; shutdown_cmd;
    ]

(* --- debug --- *)

let debug_cmd =
  let doc = "Interactive watchpoint debugger (scriptable via a pipe)." in
  let f target seed =
    let source, default_seed = source_of_arg target in
    exit (Debug_repl.run ~source ~seed:(Option.value ~default:default_seed seed))
  in
  Cmd.v (Cmd.info "debug" ~doc) Term.(const f $ target_arg $ seed_arg)

(* --- disasm --- *)

let disasm_cmd =
  let doc = "Compile a MiniC program and print its assembly listing." in
  let patch_arg =
    Arg.(
      value
      & opt (some (enum [ ("tp", `Tp); ("cp", `Cp); ("hcp", `Hcp) ])) None
      & info [ "patch" ] ~docv:"STRATEGY"
          ~doc:
            "Show the program after an instrumentation pass: $(b,tp) \
             (TrapPatch), $(b,cp) (CodePatch), or $(b,hcp) (CodePatch with \
             loop hoisting).")
  in
  let f target patch =
    let source, _seed = source_of_arg target in
    match Ebp_lang.Compiler.compile source with
    | Error msg -> exit_err msg
    | Ok compiled ->
        let base = compiled.Ebp_lang.Compiler.program in
        let program =
          match patch with
          | None -> base
          | Some `Tp -> Ebp_wms.Trap_patch.program (Ebp_wms.Trap_patch.instrument base)
          | Some `Cp -> Ebp_wms.Code_patch.program (Ebp_wms.Code_patch.instrument base)
          | Some `Hcp ->
              let patched = Ebp_wms.Hoisted_code_patch.instrument base in
              Printf.eprintf "; %d stores, %d hoisted, %d loops optimized\n"
                (Ebp_wms.Hoisted_code_patch.patched_stores patched)
                (Ebp_wms.Hoisted_code_patch.hoisted_stores patched)
                (Ebp_wms.Hoisted_code_patch.loops_optimized patched);
              Ebp_wms.Hoisted_code_patch.program patched
        in
        print_string (Ebp_isa.Asm.print program)
  in
  Cmd.v (Cmd.info "disasm" ~doc) Term.(const f $ target_arg $ patch_arg)

let () =
  (* Corruption should be visible wherever a command trips over it. *)
  Ebp_trace.Trace_cache.set_quarantine_log (fun ~file ~reason ->
      Printf.eprintf "ebp: quarantined corrupt cache entry %s (%s)\n%!" file
        reason);
  let doc = "Efficient data breakpoints: write-monitor-service experiment" in
  let info = Cmd.info "ebp" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; run_cmd; trace_cmd; sessions_cmd; query_cmd; travel_cmd;
            experiment_cmd; serve_cmd; client_cmd; stats_cmd; cache_cmd;
            fuzz_cmd; disasm_cmd; debug_cmd;
          ]))
