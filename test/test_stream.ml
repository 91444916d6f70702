(* Tests for the streaming record pipeline: sealed-block traces
   (Stream), the incrementally-maintained write index
   (Write_index.Incremental), and checkpointed time travel (Checkpoint).

   The load-bearing equivalences, each pinned here:
   - a completed stream decodes to a trace equal (under Trace.equal)
     to the batch recorder's, across all five workloads
     and at adversarially small block sizes;
   - the per-block incremental index equals the batch Write_index.build
     of the full trace;
   - any byte prefix of a stream parses to the trace of its sealed
     blocks (prefix consistency), and corruption ends the prefix rather
     than corrupting it;
   - a checkpoint-restored seek reaches a machine state bit-identical
     (Checkpoint.state_digest) to a step-0 replay;
   - the three fault points (stream.seal, stream.index_merge,
     checkpoint.store) degrade exactly as docs/ROBUSTNESS.md says. *)

module Fault = Ebp_util.Fault
module Trace = Ebp_trace.Trace
module Stream = Ebp_trace.Stream
module Recorder = Ebp_trace.Recorder
module Write_index = Ebp_trace.Write_index
module Checkpoint = Ebp_trace.Checkpoint
module Trace_cache = Ebp_trace.Trace_cache
module Loader = Ebp_runtime.Loader
module Workload = Ebp_workloads.Workload
module Fuzz = Ebp_core.Fuzz

let page_sizes = Ebp_sessions.Replay.default_page_sizes

let with_rules ?seed rules f =
  Fault.configure ?seed rules;
  Fun.protect ~finally:Fault.reset f

let rule pattern trigger action = { Fault.pattern; trigger; action }

(* Two deterministic programs from the fuzzer's generator, knobbed for
   guaranteed event counts: [small] (heap churn + monitored globals, a
   few hundred events) crosses many 32-event blocks and keeps the O(n²)
   prefix sweep cheap; [mid] (hot write loops, several thousand events)
   gives checkpoint cadences something to sample. *)
let small_source =
  Fuzz.render
    (Fuzz.generate_knobbed
       ~knobs:{ Fuzz.gen_events = 0; gen_heap_churn = 8; gen_session_density = 4 }
       ~seed:5)

let small_seed = 5

let mid_source =
  Fuzz.render
    (Fuzz.generate_knobbed
       ~knobs:{ Fuzz.gen_events = 2; gen_heap_churn = 2; gen_session_density = 2 }
       ~seed:7)

let mid_seed = 7

let batch_trace ?fuel ~seed source =
  match Recorder.record_source ~seed ?fuel source with
  | Error msg -> Alcotest.failf "batch record failed: %s" msg
  | Ok (_res, trace, _dbg) -> trace

let stream_bytes ?fuel ?block_events ?on_seal ~seed source =
  let buf = Buffer.create 4096 in
  match
    Recorder.record_source_stream ~seed ?fuel ?block_events ?on_seal
      ~write:(Buffer.add_string buf) source
  with
  | Error msg -> Alcotest.failf "stream record failed: %s" msg
  | Ok (_res, events) -> (Buffer.contents buf, events)

(* --- stream vs batch, all five workloads --- *)

let test_workloads_identical () =
  List.iter
    (fun w ->
      let seed = w.Workload.seed and source = w.Workload.source in
      let batch = batch_trace ~seed source in
      let inc = Write_index.Incremental.create ~page_sizes in
      let bytes, events =
        stream_bytes ~seed source
          ~on_seal:(fun ~first:_ ~count ~nobjs iter ->
            Write_index.Incremental.add_block inc ~nobjs ~count iter)
      in
      Alcotest.(check int)
        (w.Workload.name ^ " event count")
        (Trace.length batch) events;
      (match Stream.read bytes with
      | Error msg -> Alcotest.failf "%s: stream read: %s" w.Workload.name msg
      | Ok streamed ->
          Alcotest.(check bool)
            (w.Workload.name ^ " streamed trace identical")
            true
            (Trace.equal streamed batch));
      match Write_index.Incremental.snapshot inc with
      | None -> Alcotest.failf "%s: incremental index degraded" w.Workload.name
      | Some idx ->
          Alcotest.(check bool)
            (w.Workload.name ^ " incremental index equals batch build")
            true
            (Write_index.equal idx (Write_index.build ~page_sizes batch)))
    Workload.all

(* Block size must not matter: tiny blocks exercise every boundary. *)
let test_block_size_irrelevant () =
  let batch = batch_trace ~seed:small_seed small_source in
  List.iter
    (fun block_events ->
      let bytes, _ = stream_bytes ~block_events ~seed:small_seed small_source in
      match Stream.read bytes with
      | Error msg -> Alcotest.failf "block_events=%d: %s" block_events msg
      | Ok streamed ->
          Alcotest.(check bool)
            (Printf.sprintf "block_events=%d identical" block_events)
            true
            (Trace.equal streamed batch))
    [ 1; 7; 32; 1024; 1 lsl 20 ]

(* --- snapshot reuse --- *)

(* The trace a stream's sealed prefix decodes to: the first [stop]
   events of [batch] over its first [nobjs] objects. *)
let prefix_trace batch ~stop ~nobjs =
  let b = Trace.Builder.create () in
  for id = 0 to nobjs - 1 do
    ignore (Trace.Builder.register b (Trace.object_of_id batch id))
  done;
  Trace.iter_raw_range batch ~start:0 ~stop (fun ~tag ~obj ~lo ~hi ~pc ->
      if tag = 0 then Trace.Builder.add_install_id b obj ~lo ~hi
      else if tag = 1 then Trace.Builder.add_remove_id b obj ~lo ~hi
      else Trace.Builder.add_write_raw b ~lo ~hi ~pc);
  Trace.Builder.finish b

(* A snapshot folds the blocks sealed since the last one and is reused
   until the next block: polls that read one prefix twice merge once. *)
let test_snapshot_reuse () =
  let batch = batch_trace ~seed:small_seed small_source in
  let inc = Write_index.Incremental.create ~page_sizes in
  let snap () = Option.get (Write_index.Incremental.snapshot inc) in
  let snaps = ref [] and seals = ref 0 in
  ignore
    (stream_bytes ~block_events:32 ~seed:small_seed small_source
       ~on_seal:(fun ~first:_ ~count ~nobjs iter ->
         Write_index.Incremental.add_block inc ~nobjs ~count iter;
         incr seals;
         if !seals mod 3 = 0 then begin
           let a = snap () in
           Alcotest.(check bool) "no block between: the same index" true (a == snap ());
           snaps := (Write_index.Incremental.events inc, nobjs, a) :: !snaps
         end));
  let final = snap () in
  Alcotest.(check bool) "final snapshot reused" true (final == snap ());
  Alcotest.(check bool) "several folds" true (List.length !snaps > 3);
  Alcotest.(check bool) "final snapshot = batch build" true
    (Write_index.equal final (Write_index.build ~page_sizes batch));
  List.iter
    (fun (stop, nobjs, s) ->
      Alcotest.(check bool)
        (Printf.sprintf "snapshot at %d = build over its prefix" stop)
        true
        (Write_index.equal s
           (Write_index.build ~page_sizes (prefix_trace batch ~stop ~nobjs))))
    !snaps

(* --- prefix consistency --- *)

let test_prefix_consistency () =
  let block_events = 32 in
  let bytes, events = stream_bytes ~block_events ~seed:small_seed small_source in
  Alcotest.(check bool) "several blocks" true (events > 3 * block_events);
  (* The complete image parses with complete=true. *)
  (match Stream.read_prefix bytes with
  | Error msg -> Alcotest.failf "full prefix: %s" msg
  | Ok p ->
      Alcotest.(check bool) "complete" true p.Stream.complete;
      Alcotest.(check int) "full high water" events p.Stream.high_water);
  (* Every truncation past the header parses; high water is monotone in
     the cut, never exceeds the cut's sealed blocks, and each prefix
     trace is a literal event-prefix of the full trace. *)
  let full = Result.get_ok (Stream.read bytes) in
  let prev = ref 0 in
  for cut = String.length Stream.magic + 2 to String.length bytes - 1 do
    match Stream.read_prefix (String.sub bytes 0 cut) with
    | Error msg -> Alcotest.failf "cut %d: %s" cut msg
    | Ok p ->
        if p.Stream.complete then Alcotest.failf "cut %d: claims complete" cut;
        if p.Stream.high_water < !prev then
          Alcotest.failf "cut %d: high water regressed %d -> %d" cut !prev
            p.Stream.high_water;
        prev := p.Stream.high_water;
        Alcotest.(check int)
          (Printf.sprintf "cut %d trace length" cut)
          p.Stream.high_water
          (Trace.length p.Stream.trace);
        (* Prefix-of-trace: re-recording the first [high_water] events
           would be circular; instead check the prefix replays as a
           prefix — its encoded events are a prefix of the full run's
           event sequence. *)
        let n = Trace.length p.Stream.trace in
        let agree = ref true in
        for i = 0 to n - 1 do
          Trace.get_raw p.Stream.trace i
            (fun ~tag ~obj ~lo ~hi ~pc ->
              Trace.get_raw full i (fun ~tag:t' ~obj:o' ~lo:l' ~hi:h' ~pc:p' ->
                  if
                    tag <> t' || obj <> o' || lo <> l' || hi <> h' || pc <> p'
                  then agree := false))
        done;
        if not !agree then Alcotest.failf "cut %d: prefix events diverge" cut
  done;
  (* Strict read of any truncation is an error. *)
  (match Stream.read (String.sub bytes 0 (String.length bytes - 1)) with
  | Ok _ -> Alcotest.fail "strict read accepted a truncated stream"
  | Error _ -> ());
  (* A missing header is a hard error even for the prefix reader. *)
  match Stream.read_prefix "EBPX" with
  | Ok _ -> Alcotest.fail "prefix reader accepted a bad header"
  | Error _ -> ()

let test_corruption_ends_prefix () =
  let block_events = 32 in
  let bytes, _ = stream_bytes ~block_events ~seed:small_seed small_source in
  let full = Result.get_ok (Stream.read_prefix bytes) in
  (* Flip one byte somewhere past the first block: the CRC must end the
     prefix at (or before) the corrupted record — never propagate bad
     events, never hard-error on what looks like a torn tail. *)
  let pos = String.length bytes / 2 in
  let b = Bytes.of_string bytes in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  match Stream.read_prefix (Bytes.to_string b) with
  | Error _ -> () (* semantically-inconsistent corruption: also fine *)
  | Ok p ->
      Alcotest.(check bool) "not complete" false p.Stream.complete;
      Alcotest.(check bool) "prefix shrank" true
        (p.Stream.high_water < full.Stream.high_water)

(* --- checkpointed time travel --- *)

let compiled_of source =
  match Ebp_lang.Compiler.compile source with
  | Error msg -> Alcotest.failf "compile failed: %s" msg
  | Ok c -> c

(* Stream-record [source] while taking a checkpoint roughly every
   [every] events; returns the chain and the stream bytes. *)
let record_with_checkpoints ?(every = 100) ~seed source =
  let compiled = compiled_of source in
  let buf = Buffer.create 4096 in
  let writer = Stream.Writer.create ~write:(Buffer.add_string buf) () in
  let loader = Loader.load ~seed compiled in
  let recorder = Recorder.attach_stream writer loader in
  let chain = Checkpoint.create () in
  Checkpoint.track loader;
  ignore
    (Checkpoint.run_with_checkpoints ~every ~slice:512
       ~events:(fun () -> Stream.Writer.events writer)
       ~nobjs:(fun () -> Stream.Writer.object_count writer)
       chain loader recorder);
  Recorder.finish_events recorder;
  Stream.Writer.finish writer;
  (chain, Buffer.contents buf, fun () -> Loader.load ~seed compiled)

let step0_digest ~load ~event =
  let loader = load () in
  let counters = { Recorder.c_events = 0; c_objs = 0 } in
  ignore (Recorder.attach_sink (Recorder.counting_sink counters) loader);
  ignore (Checkpoint.seek loader counters ~event);
  Checkpoint.state_digest loader counters

let restart_digest chain ~load ~event =
  match Checkpoint.restore chain ~event ~load with
  | None -> None
  | Some r ->
      ignore (Checkpoint.seek r.Checkpoint.rs_loader r.Checkpoint.rs_counters ~event);
      Some (Checkpoint.state_digest r.Checkpoint.rs_loader r.Checkpoint.rs_counters)

let test_checkpoint_restart_equiv () =
  let chain, bytes, load =
    record_with_checkpoints ~every:100 ~seed:mid_seed mid_source
  in
  Alcotest.(check bool) "took checkpoints" true (Checkpoint.count chain >= 2);
  (* Checkpointing must not perturb the recording. *)
  let batch = batch_trace ~seed:mid_seed mid_source in
  let streamed = Result.get_ok (Stream.read bytes) in
  Alcotest.(check bool) "checkpointed stream still identical" true
    (Trace.equal streamed batch);
  let total = Trace.length batch in
  let stamps = Checkpoint.events chain in
  (* Targets straddle checkpoint stamps — including one exactly on the
     second stamp, where restart must come from the entry strictly
     before it. *)
  let targets =
    (List.hd stamps + 1) :: (List.hd stamps + 37)
    :: List.nth stamps 1
    :: [ total / 2; total - 1; total ]
  in
  List.iter
    (fun event ->
      match restart_digest chain ~load ~event with
      | None -> Alcotest.failf "event %d: no checkpoint found" event
      | Some d ->
          Alcotest.(check string)
            (Printf.sprintf "digest at event %d" event)
            (step0_digest ~load ~event) d)
    targets;
  (* At or before the first stamp there is nothing strictly earlier to
     restore from. *)
  Alcotest.(check bool) "no checkpoint strictly before first stamp" true
    (restart_digest chain ~load ~event:(List.hd stamps) = None)

let test_checkpoints_across_workloads () =
  (* The heap-heavy and the static-only shapes, with a realistic
     cadence; the other workloads ride the same code paths. *)
  List.iter
    (fun w ->
      let chain, _bytes, load =
        record_with_checkpoints ~every:50_000 ~seed:w.Workload.seed
          w.Workload.source
      in
      Alcotest.(check bool)
        (w.Workload.name ^ " took checkpoints")
        true
        (Checkpoint.count chain >= 1);
      let event = List.hd (List.rev (Checkpoint.events chain)) + 1_000 in
      match restart_digest chain ~load ~event with
      | None -> Alcotest.failf "%s: restore failed" w.Workload.name
      | Some d ->
          Alcotest.(check string)
            (w.Workload.name ^ " digest")
            (step0_digest ~load ~event) d)
    [ Workload.circuit; Workload.typeset ]

let test_checkpoint_codec () =
  let chain, _bytes, load =
    record_with_checkpoints ~every:100 ~seed:mid_seed mid_source
  in
  let chain' =
    match Checkpoint.decode (Checkpoint.encode chain) with
    | Error msg -> Alcotest.failf "decode: %s" msg
    | Ok c -> c
  in
  Alcotest.(check (list int))
    "stamps survive the codec"
    (Checkpoint.events chain) (Checkpoint.events chain');
  let event = List.hd (List.rev (Checkpoint.events chain)) in
  Alcotest.(check (option string))
    "decoded chain restores identically"
    (restart_digest chain ~load ~event)
    (restart_digest chain' ~load ~event);
  match Checkpoint.decode "not a chain" with
  | Ok _ -> Alcotest.fail "decoded garbage"
  | Error _ -> ()

let test_checkpoint_cache_roundtrip () =
  let dir = Filename.temp_file "ebp-ckpt-cache" "" in
  Sys.remove dir;
  let chain, _bytes, load =
    record_with_checkpoints ~every:100 ~seed:mid_seed mid_source
  in
  let key = Trace_cache.make_key ~name:"mid" ~source:mid_source ~seed:mid_seed () in
  Alcotest.(check bool) "not cached yet" false
    (Trace_cache.checkpoint_cached ~dir ~key);
  (match Trace_cache.store_checkpoints ~dir ~key chain with
  | Error msg -> Alcotest.failf "store: %s" msg
  | Ok () -> ());
  Alcotest.(check bool) "cached" true (Trace_cache.checkpoint_cached ~dir ~key);
  (match Trace_cache.lookup_checkpoints ~dir ~key with
  | None -> Alcotest.fail "lookup missed"
  | Some chain' ->
      let event = List.hd (List.rev (Checkpoint.events chain)) in
      Alcotest.(check (option string))
        "cached chain restores identically"
        (restart_digest chain ~load ~event)
        (restart_digest chain' ~load ~event));
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Sys.rmdir dir

(* --- fault points --- *)

let test_fault_seal_transient () =
  (* One injected seal failure is absorbed by the writer's retries; the
     stream comes out byte-identical to the fault-free one. *)
  let clean, _ = stream_bytes ~block_events:32 ~seed:small_seed small_source in
  let faulted, _ =
    with_rules [ rule "stream.seal" (Fault.Nth 1) Fault.Fail ] (fun () ->
        stream_bytes ~block_events:32 ~seed:small_seed small_source)
  in
  Alcotest.(check bool) "retried seal, identical bytes" true (clean = faulted)

let test_fault_seal_persistent () =
  with_rules [ rule "stream.seal" Fault.Always Fault.Fail ] (fun () ->
      match
        Recorder.record_source_stream ~seed:small_seed ~block_events:32
          ~write:(fun _ -> ())
          small_source
      with
      | exception Fault.Injected _ -> ()
      | Ok _ -> Alcotest.fail "persistent seal fault did not propagate"
      | Error msg -> Alcotest.failf "unexpected error: %s" msg)

let test_fault_index_merge_degrades () =
  (* A merge fault degrades the incremental builder to None — the
     stream itself is untouched and callers replan without an index.
     The snapshot taken before the fault folded the first block: that
     folded index must not outlive the degrade. *)
  let inc = Write_index.Incremental.create ~page_sizes in
  let folded = ref false in
  let clean, _ = stream_bytes ~block_events:32 ~seed:small_seed small_source in
  let bytes, _ =
    with_rules [ rule "stream.index_merge" (Fault.Nth 2) Fault.Fail ] (fun () ->
        stream_bytes ~block_events:32 ~seed:small_seed small_source
          ~on_seal:(fun ~first:_ ~count ~nobjs iter ->
            Write_index.Incremental.add_block inc ~nobjs ~count iter;
            if not !folded then
              folded := Write_index.Incremental.snapshot inc <> None))
  in
  Alcotest.(check bool) "a snapshot folded before the fault" true !folded;
  Alcotest.(check bool) "degraded to None" true
    (Write_index.Incremental.snapshot inc = None);
  Alcotest.(check bool) "still None" true
    (Write_index.Incremental.snapshot inc = None);
  Alcotest.(check bool) "stream unaffected" true (clean = bytes)

let test_fault_checkpoint_store_skips () =
  let clean_chain, _, _ =
    record_with_checkpoints ~every:100 ~seed:mid_seed mid_source
  in
  let chain, bytes, load =
    with_rules [ rule "checkpoint.store" (Fault.Nth 1) Fault.Fail ] (fun () ->
        record_with_checkpoints ~every:100 ~seed:mid_seed mid_source)
  in
  Alcotest.(check int) "one checkpoint skipped" 1 (Checkpoint.skipped chain);
  Alcotest.(check int) "chain is one shorter"
    (Checkpoint.count clean_chain - 1)
    (Checkpoint.count chain);
  (* The skipped entry's dirty pages accumulated into the next one, so
     restores stay exact. *)
  let batch = batch_trace ~seed:mid_seed mid_source in
  let streamed = Result.get_ok (Stream.read bytes) in
  Alcotest.(check bool) "recording unperturbed" true
    (Trace.equal streamed batch);
  let event = List.hd (Checkpoint.events chain) + 13 in
  match restart_digest chain ~load ~event with
  | None -> Alcotest.fail "no checkpoint survived"
  | Some d ->
      Alcotest.(check string) "restore exact despite skip"
        (step0_digest ~load ~event) d

let () =
  Alcotest.run "stream"
    [
      ( "identity",
        [
          Alcotest.test_case "five workloads stream = batch" `Quick
            test_workloads_identical;
          Alcotest.test_case "block size irrelevant" `Quick
            test_block_size_irrelevant;
          Alcotest.test_case "snapshots fold and are reused" `Quick
            test_snapshot_reuse;
        ] );
      ( "prefix",
        [
          Alcotest.test_case "every truncation is a sealed prefix" `Quick
            test_prefix_consistency;
          Alcotest.test_case "corruption ends the prefix" `Quick
            test_corruption_ends_prefix;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "restart = step-0 (digests)" `Quick
            test_checkpoint_restart_equiv;
          Alcotest.test_case "workload shapes" `Quick
            test_checkpoints_across_workloads;
          Alcotest.test_case "codec round-trip" `Quick test_checkpoint_codec;
          Alcotest.test_case "trace-cache round-trip" `Quick
            test_checkpoint_cache_roundtrip;
        ] );
      ( "faults",
        [
          Alcotest.test_case "stream.seal transient is retried" `Quick
            test_fault_seal_transient;
          Alcotest.test_case "stream.seal persistent propagates" `Quick
            test_fault_seal_persistent;
          Alcotest.test_case "stream.index_merge degrades" `Quick
            test_fault_index_merge_degrades;
          Alcotest.test_case "checkpoint.store skips an entry" `Quick
            test_fault_checkpoint_store_skips;
        ] );
    ]
