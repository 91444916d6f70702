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

(* --- the reader against the reference ---

   [Stream_ref] is the reader as it was before the two-pass rewrite.
   Whatever the bytes, [read_prefix] and [read] must return what it
   returns: the same trace (with the same write count), high-water mark
   and completeness, or the same error string. *)

module Varint = Ebp_trace.Varint
module Object_desc = Ebp_trace.Object_desc

let same_as_reference s =
  let same_trace a b =
    Trace.equal a b && Trace.write_count a = Trace.write_count b
  in
  let prefix =
    match (Stream.read_prefix s, Stream_ref.read_prefix s) with
    | Ok a, Ok b ->
        same_trace a.Stream.trace b.Stream.trace
        && a.Stream.high_water = b.Stream.high_water
        && a.Stream.complete = b.Stream.complete
    | Error a, Error b -> a = b
    | _ -> false
  in
  prefix
  &&
  match (Stream.read s, Stream_ref.read s) with
  | Ok a, Ok b -> same_trace a b
  | Error a, Error b -> a = b
  | _ -> false

(* Values at both ends of the int range as well as small ones. *)
let extreme_gen =
  QCheck2.Gen.(
    frequency
      [
        (4, int_range 0 200);
        (1, int_range (max_int - 100) max_int);
        (1, int_range min_int (min_int + 100));
        (2, int);
      ])

(* A random stream: objects registered between events (ids past 32 take
   two-byte words), installs and removes of registered objects, writes
   with extreme addresses, widths and pcs, sealed every 1-64 events, and
   finished or left as a live prefix. *)
let random_stream_gen =
  let open QCheck2.Gen in
  let op =
    frequency
      [
        (2, map (fun n -> `Register n) (int_range 0 3));
        ( 2,
          map3
            (fun k id (lo, w) -> `Meta (k, id, lo, w))
            bool nat (pair extreme_gen (int_range 0 64)) );
        ( 5,
          map3
            (fun lo w pc -> `Write (lo, w, pc))
            extreme_gen
            (frequency [ (5, int_range 0 7); (1, extreme_gen) ])
            extreme_gen );
      ]
  in
  let* block_events = int_range 1 64 in
  let* ops = list_size (int_range 0 60) op in
  let* finish = bool in
  return
    (let buf = Buffer.create 256 in
     let w = Stream.Writer.create ~block_events ~write:(Buffer.add_string buf) () in
     let nobjs = ref 0 in
     List.iter
       (function
         | `Register n ->
             for _ = 0 to n + (!nobjs / 8) do
               let i = !nobjs in
               let obj : Object_desc.t =
                 match i mod 4 with
                 | 0 -> Global { var = Printf.sprintf "g%d" i }
                 | 1 -> Local { func = "f"; var = "x"; inst = i }
                 | 2 -> Local_static { func = "f"; var = Printf.sprintf "s%d" i }
                 | _ -> Heap { context = [ "alloc"; "main" ]; seq = i }
               in
               nobjs := 1 + Stream.Writer.register w obj
             done
         | `Meta (install, id, lo, width) ->
             if !nobjs > 0 then
               let id = id mod !nobjs and hi = lo + width in
               if install then Stream.Writer.add_install_id w id ~lo ~hi
               else Stream.Writer.add_remove_id w id ~lo ~hi
         | `Write (lo, width, pc) ->
             Stream.Writer.add_write_raw w ~lo ~hi:(lo + width) ~pc)
       ops;
     if finish then Stream.Writer.finish w;
     Buffer.contents buf)

(* Records re-sealed with a fresh CRC, so the damage inside them reaches
   the decoder instead of ending the prefix. A payload is written field
   by field; [Long] is a ten-byte varint. *)
type field = U of int | S of int | Raw of string | Long

let encode_fields fields =
  let buf = Buffer.create 64 in
  Array.iter
    (function
      | U v -> Varint.add_uvarint buf v
      | S v -> Varint.add_svarint buf v
      | Raw s -> Buffer.add_string buf s
      | Long -> Buffer.add_string buf "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x00")
    fields;
  Buffer.contents buf

let seal_record tag payload =
  let buf = Buffer.create (String.length payload + 16) in
  Buffer.add_char buf tag;
  Varint.add_uvarint buf (String.length payload);
  Buffer.add_string buf payload;
  Buffer.add_int32_le buf (Int32.of_int (Ebp_util.Crc32.string payload));
  Buffer.contents buf

(* The LEB128 value at [!c], advancing [c]: for intact bytes only. *)
let take_uvarint s c =
  let v = ref 0 and shift = ref 0 and go = ref true in
  while !go do
    let b = Char.code s.[!c] in
    incr c;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    go := b >= 0x80
  done;
  !v

(* The header and each sealed record's tag and payload of an intact
   stream. *)
let split_records s =
  let c = ref (String.length Stream.magic) in
  ignore (take_uvarint s c);
  let header = String.sub s 0 !c in
  let records = ref [] in
  while !c < String.length s do
    let tag = s.[!c] in
    incr c;
    let n = take_uvarint s c in
    records := (tag, String.sub s !c n) :: !records;
    c := !c + n + 4
  done;
  (header, List.rev !records)

(* A block payload as fields, the index of its first w0 field, and its
   events' w0 words. The columns follow: w0, lo, width, then the pcs of
   the writes. *)
let block_fields payload =
  let c = ref 0 in
  let uv () = U (take_uvarint payload c) in
  let sv () = S (Varint.unzigzag (take_uvarint payload c)) in
  let ndescs = take_uvarint payload c in
  let descs =
    List.init ndescs (fun _ ->
        let n = take_uvarint payload c in
        let str = String.sub payload !c n in
        c := !c + n;
        [ U n; Raw str ])
  in
  let count = take_uvarint payload c in
  let w0s = Array.init count (fun _ -> take_uvarint payload c) in
  let los = List.init count (fun _ -> sv ()) in
  let widths = List.init count (fun _ -> uv ()) in
  let pcs = List.filter_map (fun w0 -> if w0 land 3 = 2 then Some (sv ()) else None) (Array.to_list w0s) in
  let head = (U ndescs :: List.concat descs) @ [ U count ] in
  ( Array.of_list
      (head @ List.map (fun v -> U v) (Array.to_list w0s) @ los @ widths @ pcs),
    List.length head,
    w0s )

(* Every kind of damage inside an intact record, one stream each: an
   unknown record tag, trailing bytes, and per event a tag 3, an object id
   out of range, a write word with id bits (or an install turned write),
   ten-byte varints in each column and a negative width; in the fin,
   counts that do not match, a missing field and a ten-byte varint. *)
let damaged_streams s =
  let header, records = split_records s in
  let out = ref [] in
  let rebuild i record =
    out :=
      String.concat ""
        (header
        :: List.mapi
             (fun j (tag, payload) ->
               if i = j then record else seal_record tag payload)
             records)
      :: !out
  in
  List.iteri
    (fun i (tag, payload) ->
      rebuild i (seal_record 'X' payload);
      rebuild i (seal_record tag (payload ^ "\x00"));
      let with_fields fields = rebuild i (seal_record tag (encode_fields fields)) in
      if tag = 'B' then begin
        let fields, base, w0s = block_fields payload in
        let count = Array.length w0s in
        let with_field k f =
          let fields = Array.copy fields in
          fields.(k) <- f;
          with_fields fields
        in
        Array.iteri
          (fun e w0 ->
            with_field (base + e) (U (w0 lor 3));
            with_field (base + e) (U (1 lsl 50));
            with_field (base + e)
              (if w0 land 3 = 2 then U (((e + 1) lsl 2) lor 2) else U 2);
            with_field (base + e) Long;
            with_field (base + count + e) Long;
            with_field (base + (2 * count) + e) (U (-1 - e));
            with_field (base + (2 * count) + e) Long)
          w0s;
        if Array.length fields > base + (3 * count) then
          with_field (Array.length fields - 1) Long
      end
      else begin
        let c = ref 0 in
        let events = take_uvarint payload c in
        let objs = take_uvarint payload c in
        List.iter with_fields
          [ [| U (events + 1); U objs |]; [| U events; U (objs + 1) |];
            [| U events |]; [| Long; U objs |] ]
      end)
    records;
  !out

let prop_reader_matches_reference =
  QCheck2.Test.make ~name:"read_prefix and read = the reference reader" ~count:25
    random_stream_gen (fun s ->
      let fail what = QCheck2.Test.fail_reportf "%s differs from the reference" what in
      if not (same_as_reference s) then fail "the whole stream";
      for cut = 0 to String.length s - 1 do
        if not (same_as_reference (String.sub s 0 cut)) then
          fail (Printf.sprintf "the cut at byte %d" cut)
      done;
      let b = Bytes.of_string s in
      for bit = 0 to (8 * Bytes.length b) - 1 do
        let flip () =
          Bytes.set b (bit / 8)
            (Char.chr (Char.code (Bytes.get b (bit / 8)) lxor (1 lsl (bit mod 8))))
        in
        flip ();
        let ok = same_as_reference (Bytes.to_string b) in
        flip ();
        if not ok then fail (Printf.sprintf "the flip of bit %d" bit)
      done;
      List.iteri
        (fun k d ->
          if not (same_as_reference d) then
            fail (Printf.sprintf "re-sealed damage #%d" k))
        (damaged_streams s);
      true)

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
          QCheck_alcotest.to_alcotest prop_reader_matches_reference;
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
