(* Tests for the parallel experiment engine: the Domain_pool work queue,
   the determinism of sharded replay (domains 1/2/4 must be byte-identical
   to the sequential pass), and the on-disk trace cache (round-trip, and
   zero machine execution on a warm hit). *)

module Interval = Ebp_util.Interval
module Prng = Ebp_util.Prng
module Domain_pool = Ebp_util.Domain_pool
module Object_desc = Ebp_trace.Object_desc
module Trace = Ebp_trace.Trace
module Trace_cache = Ebp_trace.Trace_cache
module Session = Ebp_sessions.Session
module Discovery = Ebp_sessions.Discovery
module Counts = Ebp_sessions.Counts
module Replay = Ebp_sessions.Replay
module Workload = Ebp_workloads.Workload

let iv lo hi = Interval.make ~lo ~hi

(* --- Domain_pool --- *)

let test_pool_map_order () =
  List.iter
    (fun domains ->
      Domain_pool.with_pool ~domains (fun pool ->
          let xs = List.init 257 Fun.id in
          Alcotest.(check (list int))
            (Printf.sprintf "order preserved on %d domains" domains)
            (List.map (fun x -> x * x) xs)
            (Domain_pool.map pool (fun x -> x * x) xs)))
    [ 1; 2; 4 ]

let test_pool_empty_and_single () =
  Domain_pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check (list int)) "empty batch" [] (Domain_pool.run pool []);
      Alcotest.(check (list string)) "single task" [ "one" ]
        (Domain_pool.run pool [ (fun () -> "one") ]))

let test_pool_exception_propagates () =
  Domain_pool.with_pool ~domains:4 (fun pool ->
      (match
         Domain_pool.run pool
           [ (fun () -> 1); (fun () -> failwith "boom"); (fun () -> 3) ]
       with
      | _ -> Alcotest.fail "expected the task exception to re-raise"
      | exception Failure msg -> Alcotest.(check string) "message" "boom" msg);
      (* The pool survives a failed batch. *)
      Alcotest.(check (list int)) "reusable after failure" [ 2; 4 ]
        (Domain_pool.map pool (fun x -> 2 * x) [ 1; 2 ]))

let test_pool_domains_clamped () =
  Domain_pool.with_pool ~domains:0 (fun pool ->
      Alcotest.(check int) "at least one domain" 1 (Domain_pool.domains pool))

(* While fault injection is active, a task dying with [Fault.Injected] is
   retried in place instead of failing the batch — one crashing shard
   must not poison the pool. [Killed] still propagates. *)
let test_pool_contains_injected_faults () =
  let module Fault = Ebp_util.Fault in
  let p = Fault.point "test.pool.body" in
  Fault.configure [ { Fault.pattern = "test.pool.body"; trigger = Fault.Nth 2; action = Fault.Fail } ];
  Fun.protect ~finally:Fault.reset (fun () ->
      List.iter
        (fun domains ->
          Fault.configure
            [ { Fault.pattern = "test.pool.body"; trigger = Fault.Nth 2; action = Fault.Fail } ];
          Domain_pool.with_pool ~domains (fun pool ->
              Alcotest.(check (list int))
                (Printf.sprintf "batch survives a faulted task on %d domains"
                   domains)
                [ 10; 20; 30; 40 ]
                (Domain_pool.run pool
                   (List.map
                      (fun x () ->
                        Fault.check p;
                        10 * x)
                      [ 1; 2; 3; 4 ]))))
        [ 1; 3 ])

let test_pool_kill_propagates () =
  let module Fault = Ebp_util.Fault in
  let p = Fault.point "test.pool.kill" in
  Fault.configure
    [ { Fault.pattern = "test.pool.kill"; trigger = Fault.Nth 1; action = Fault.Kill } ];
  Fun.protect ~finally:Fault.reset (fun () ->
      Domain_pool.with_pool ~domains:2 (fun pool ->
          match
            Domain_pool.run pool
              [ (fun () -> 1); (fun () -> Fault.check p; 2); (fun () -> 3) ]
          with
          | _ -> Alcotest.fail "expected Killed to propagate"
          | exception Fault.Killed "test.pool.kill" -> ()))

(* --- sharded replay determinism --- *)

(* A deterministic synthetic trace big enough to shard interestingly:
   interleaved install/remove lifetimes over dozens of objects of every
   descriptor kind, with writes scattered on and off the monitored words. *)
let synthetic_trace () =
  let prng = Prng.create 0xeb9 in
  let objects =
    Array.init 48 (fun i ->
        let base = 0x1000 + (i * 0x340) in
        let range = iv base (base + 3 + (4 * Prng.int prng 8)) in
        let obj =
          match i mod 4 with
          | 0 -> Object_desc.Global { var = Printf.sprintf "g%d" i }
          | 1 ->
              Object_desc.Local
                { func = Printf.sprintf "f%d" (i mod 6); var = "x"; inst = i }
          | 2 ->
              Object_desc.Heap
                { context = [ Printf.sprintf "alloc%d" (i mod 3); "main" ]; seq = i }
          | _ ->
              Object_desc.Local_static
                { func = Printf.sprintf "f%d" (i mod 6); var = "s" }
        in
        (obj, range))
  in
  let live = Array.make (Array.length objects) false in
  let b = Trace.Builder.create () in
  for _ = 1 to 4000 do
    let i = Prng.int prng (Array.length objects) in
    let obj, range = objects.(i) in
    match Prng.int prng 5 with
    | 0 ->
        if not live.(i) then begin
          Trace.Builder.add_install b obj range;
          live.(i) <- true
        end
    | 1 ->
        if live.(i) then begin
          Trace.Builder.add_remove b obj range;
          live.(i) <- false
        end
    | _ ->
        let lo =
          if Prng.bool prng then Interval.lo range
          else (Interval.lo range + (4 * Prng.int prng 0x200)) land lnot 3
        in
        Trace.Builder.add_write b (iv lo (lo + 3)) ~pc:i
  done;
  Trace.Builder.finish b

let check_bit_identical name expected actual =
  (* Structural equality plus a digest of the marshalled representation:
     the sharded engine must merge to the very same value. (Marshal also
     encodes sharing, so this check is only valid when both values were
     computed from the same in-memory trace.) *)
  Alcotest.(check bool) (name ^ " (structural)") true (expected = actual);
  Alcotest.(check string)
    (name ^ " (marshalled bytes)")
    (Digest.to_hex (Digest.string (Marshal.to_string expected [])))
    (Digest.to_hex (Digest.string (Marshal.to_string actual [])))

let check_same_counts name expected actual =
  (* Across a serialization boundary structural equality is the meaningful
     comparison — equal strings need not be the same string object, so the
     marshalled bytes may legitimately differ in sharing. *)
  Alcotest.(check bool) name true (expected = actual)

let test_replay_determinism_synthetic () =
  let trace = synthetic_trace () in
  let sessions = Discovery.discover trace in
  Alcotest.(check bool) "enough sessions to shard" true
    (List.length sessions > 8);
  let sequential = Replay.replay_all trace sessions in
  List.iter
    (fun domains ->
      check_bit_identical
        (Printf.sprintf "replay_all ~domains:%d" domains)
        sequential
        (Replay.replay_all ~domains trace sessions))
    [ 1; 2; 4 ]

let test_replay_determinism_workload () =
  match Workload.record Workload.circuit with
  | Error msg -> Alcotest.fail msg
  | Ok run ->
      let trace = run.Workload.trace in
      let sequential = Replay.discover_and_replay trace in
      List.iter
        (fun domains ->
          check_bit_identical
            (Printf.sprintf "discover_and_replay ~domains:%d" domains)
            sequential
            (Replay.discover_and_replay ~domains trace))
        [ 1; 2; 4 ]

let test_replay_shared_pool () =
  let trace = synthetic_trace () in
  let sessions = Discovery.discover trace in
  let sequential = Replay.replay_all trace sessions in
  Domain_pool.with_pool ~domains:3 (fun pool ->
      (* Two consecutive replays on the same pool (the experiment's phase-2
         pattern) both match the sequential engine. *)
      check_bit_identical "first replay on shared pool" sequential
        (Replay.replay_all ~pool trace sessions);
      check_bit_identical "second replay on shared pool" sequential
        (Replay.replay_all ~pool trace sessions))

(* --- parallel index build --- *)

let test_parallel_index_build () =
  (* The chunked build must be structurally identical (and therefore
     byte-identical through the codec) to the serial build, on a trace
     comfortably above the parallelism threshold. *)
  let module Write_index = Ebp_trace.Write_index in
  let b = Trace.Builder.create ~hint:30_005 () in
  let prng = Prng.create 0x1d5 in
  let obj = Object_desc.Global { var = "g" } in
  Trace.Builder.add_install b obj (iv 0x1000 0x1fff);
  for i = 0 to 29_999 do
    let lo = 0x800 + (4 * Prng.int prng 0x600) in
    Trace.Builder.add_write b (iv lo (lo + 3)) ~pc:(i mod 97)
  done;
  Trace.Builder.add_remove b obj (iv 0x1000 0x1fff);
  let trace = Trace.Builder.finish b in
  let page_sizes = Replay.default_page_sizes in
  let serial = Write_index.build ~page_sizes trace in
  List.iter
    (fun domains ->
      Domain_pool.with_pool ~domains (fun pool ->
          let parallel = Write_index.build ~pool ~page_sizes trace in
          Alcotest.(check bool)
            (Printf.sprintf "structural identity on %d domains" domains)
            true
            (Write_index.equal serial parallel);
          Alcotest.(check string)
            (Printf.sprintf "byte identity on %d domains" domains)
            (Digest.to_hex (Digest.string (Write_index.encode serial)))
            (Digest.to_hex (Digest.string (Write_index.encode parallel)))))
    [ 1; 2; 4 ]

(* --- trace cache --- *)

let with_temp_cache_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ebp-test-cache-%d-%d" (Unix.getpid ()) (Random.int 100000))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_cache_roundtrip () =
  with_temp_cache_dir (fun dir ->
      let trace = synthetic_trace () in
      let key = Trace_cache.make_key ~name:"t" ~source:"src" ~seed:1 () in
      Alcotest.(check bool) "miss before store" true
        (Trace_cache.lookup ~dir ~key = None);
      (match Trace_cache.store ~dir ~key ~meta:"0x1.8p3" trace with
      | Ok () -> ()
      | Error msg -> Alcotest.fail ("store: " ^ msg));
      match Trace_cache.lookup ~dir ~key with
      | None -> Alcotest.fail "lookup after store"
      | Some (loaded, meta) ->
          Alcotest.(check string) "meta preserved" "0x1.8p3" meta;
          Alcotest.(check int) "event count" (Trace.length trace)
            (Trace.length loaded);
          (* A warm hit maps the entry instead of decoding it. *)
          Alcotest.(check bool) "hit is mapped" true (Trace.is_mapped loaded);
          Alcotest.(check bool) "same trace" true (Trace.equal trace loaded);
          (* The cached trace replays to the very same counting variables. *)
          check_same_counts "replay of cached trace"
            (Replay.discover_and_replay trace)
            (Replay.discover_and_replay loaded))

let test_cache_key_sensitivity () =
  let base = Trace_cache.make_key ~name:"w" ~source:"int x;" ~seed:7 () in
  Alcotest.(check bool) "same inputs, same key" true
    (base = Trace_cache.make_key ~name:"w" ~source:"int x;" ~seed:7 ());
  List.iter
    (fun (what, other) ->
      Alcotest.(check bool) (what ^ " changes the key") false (base = other))
    [
      ("name", Trace_cache.make_key ~name:"v" ~source:"int x;" ~seed:7 ());
      ("source", Trace_cache.make_key ~name:"w" ~source:"int y;" ~seed:7 ());
      ("seed", Trace_cache.make_key ~name:"w" ~source:"int x;" ~seed:8 ());
      ("fuel", Trace_cache.make_key ~name:"w" ~source:"int x;" ~seed:7 ~fuel:10 ());
    ]

let test_cache_corrupt_entry_is_miss () =
  with_temp_cache_dir (fun dir ->
      let key = Trace_cache.make_key ~name:"c" ~source:"s" ~seed:0 () in
      (match Trace_cache.store ~dir ~key (synthetic_trace ()) with
      | Ok () -> ()
      | Error msg -> Alcotest.fail ("store: " ^ msg));
      let path = Filename.concat dir (key ^ ".ebpt3") in
      let oc = open_out_bin path in
      output_string oc "EBPT3garbage";
      close_out oc;
      (* The corrupt entry is a miss, quarantined aside... *)
      Alcotest.(check bool) "corrupt entry reads as a miss" true
        (Trace_cache.lookup ~dir ~key = None);
      Alcotest.(check bool) "entry quarantined" true
        (Sys.file_exists (path ^ ".corrupt") && not (Sys.file_exists path));
      Alcotest.(check bool) "still a miss" true
        (Trace_cache.lookup ~dir ~key = None);
      (* ...and re-recording under the same key recovers. *)
      (match Trace_cache.store ~dir ~key (synthetic_trace ()) with
      | Ok () -> ()
      | Error msg -> Alcotest.fail ("re-store: " ^ msg));
      Alcotest.(check bool) "re-stored entry hits" true
        (Trace_cache.lookup ~dir ~key <> None))

(* A fast private workload so the cache tests do not re-run a benchmark. *)
let tiny_workload =
  {
    Workload.name = "tiny-cache-test";
    description = "cache test";
    paper_analogue = "none";
    source =
      {|
int total;
int main() {
  int i;
  for (i = 0; i < 50; i = i + 1) { total = total + i; }
  print_int(total);
  return 0;
}
|};
    seed = 9;
    expected_output = Some "1225\n";
    event_hint = None;
  }

let test_record_cached_skips_execution () =
  with_temp_cache_dir (fun dir ->
      let cold =
        match Workload.record_cached ~cache_dir:dir tiny_workload with
        | Ok run -> run
        | Error msg -> Alcotest.fail msg
      in
      Alcotest.(check bool) "cold run executed the machine" true
        (cold.Workload.result <> None);
      let warm =
        match Workload.record_cached ~cache_dir:dir tiny_workload with
        | Ok run -> run
        | Error msg -> Alcotest.fail msg
      in
      (* result = None is the proof of zero phase-1 machine execution: only
         Loader.run can produce a run_result. *)
      Alcotest.(check bool) "warm run performed no machine execution" true
        (warm.Workload.result = None);
      Alcotest.(check int) "same events"
        (Trace.length cold.Workload.trace)
        (Trace.length warm.Workload.trace);
      Alcotest.(check (float 0.0)) "same base time" cold.Workload.base_ms
        warm.Workload.base_ms;
      check_same_counts "identical replay from the cached trace"
        (Replay.discover_and_replay cold.Workload.trace)
        (Replay.discover_and_replay warm.Workload.trace))

let test_cache_entries_and_clear () =
  with_temp_cache_dir (fun dir ->
      Alcotest.(check int) "missing dir lists nothing" 0
        (List.length (Trace_cache.entries ~dir:(Filename.concat dir "absent")));
      let trace = synthetic_trace () in
      let key = Trace_cache.make_key ~name:"e" ~source:"s" ~seed:1 () in
      (match Trace_cache.store ~dir ~key trace with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      let index = Ebp_trace.Write_index.build ~page_sizes:[ 4096 ] trace in
      (match Trace_cache.store_index ~dir ~key ~page_sizes:[ 4096 ] index with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      let es = Trace_cache.entries ~dir in
      let kinds = List.map (fun e -> e.Trace_cache.entry_kind) es in
      Alcotest.(check int) "two entries" 2 (List.length es);
      Alcotest.(check bool) "one trace, one index" true
        (List.mem Trace_cache.Trace_entry kinds
        && List.mem Trace_cache.Index_entry kinds);
      Alcotest.(check bool) "sizes recorded" true
        (List.for_all (fun e -> e.Trace_cache.entry_bytes > 0) es);
      let removed, reclaimed = Trace_cache.clear ~dir in
      Alcotest.(check int) "clear removes both" 2 removed;
      Alcotest.(check int) "clear reclaims their bytes"
        (List.fold_left (fun acc e -> acc + e.Trace_cache.entry_bytes) 0 es)
        reclaimed;
      Alcotest.(check int) "empty after clear" 0
        (List.length (Trace_cache.entries ~dir)))

let test_cache_gc_evicts_oldest () =
  with_temp_cache_dir (fun dir ->
      let trace = synthetic_trace () in
      let store name =
        let key = Trace_cache.make_key ~name ~source:"s" ~seed:1 () in
        (match Trace_cache.store ~dir ~key trace with
        | Ok () -> ()
        | Error msg -> Alcotest.fail msg);
        key
      in
      let k1 = store "first" and k2 = store "second" and k3 = store "third" in
      (* The oldest key also owns an index, which must go with it. *)
      (match
         Trace_cache.store_index ~dir ~key:k2 ~page_sizes:[ 4096 ]
           (Ebp_trace.Write_index.build ~page_sizes:[ 4096 ] trace)
       with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      (* An orphaned temp file, as an interrupted store would leave. *)
      let tmp = Filename.concat dir ".deadbeef0000.tmp" in
      let oc = open_out_bin tmp in
      output_string oc "partial";
      close_out oc;
      (* Pin mtimes so age order (k2 oldest) differs from both store and
         name order — gc must follow mtime. *)
      let set_age key age =
        let t = Unix.gettimeofday () -. age in
        Unix.utimes (Filename.concat dir (key ^ ".ebpt3")) t t
      in
      set_age k2 300.0;
      set_age k1 200.0;
      set_age k3 100.0;
      (* gc evicts whole ownership groups: k2's group is its entry plus
         its index. Budget for the two other entries: gc drops the temp
         file and evicts exactly the oldest key's group. *)
      let size f = (Unix.stat (Filename.concat dir f)).Unix.st_size in
      let entry_bytes = size (k1 ^ ".ebpt3") in
      let index_bytes =
        List.fold_left
          (fun acc e ->
            if e.Trace_cache.entry_kind = Trace_cache.Index_entry then
              acc + e.Trace_cache.entry_bytes
            else acc)
          0 (Trace_cache.entries ~dir)
      in
      let removed, reclaimed =
        Trace_cache.gc ~dir ~max_bytes:(2 * entry_bytes)
      in
      Alcotest.(check int) "removed temp file + oldest group" 3 removed;
      Alcotest.(check int) "reclaimed their bytes"
        (entry_bytes + index_bytes + 7) reclaimed;
      Alcotest.(check bool) "temp file gone" true (not (Sys.file_exists tmp));
      Alcotest.(check bool) "oldest entry evicted" true
        (Trace_cache.lookup ~dir ~key:k2 = None);
      Alcotest.(check bool) "no orphaned index left behind" true
        (Trace_cache.lookup_index ~dir ~key:k2 ~page_sizes:[ 4096 ] = None
        && List.for_all
             (fun e -> e.Trace_cache.entry_kind <> Trace_cache.Index_entry)
             (Trace_cache.entries ~dir));
      Alcotest.(check bool) "newer entries survive" true
        (Trace_cache.lookup ~dir ~key:k1 <> None
        && Trace_cache.lookup ~dir ~key:k3 <> None);
      let removed, _ = Trace_cache.gc ~dir ~max_bytes:0 in
      Alcotest.(check int) "gc to zero removes the rest" 2 removed;
      Alcotest.(check (pair int int)) "nothing left to clear" (0, 0)
        (Trace_cache.clear ~dir))

let test_cache_gc_reclaims_orphans () =
  (* An index whose owning trace entry is gone is an orphan:
     unreferenceable through any lookup key path once the entry
     disappears, so gc must reclaim it regardless of the byte budget. A
     checkpoint chain is still served without its trace, so it stays. *)
  with_temp_cache_dir (fun dir ->
      let trace = synthetic_trace () in
      let key = Trace_cache.make_key ~name:"orphan" ~source:"s" ~seed:1 () in
      (match Trace_cache.store ~dir ~key trace with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      let index = Ebp_trace.Write_index.build ~page_sizes:[ 4096 ] trace in
      (match Trace_cache.store_index ~dir ~key ~page_sizes:[ 4096 ] index with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      (match
         Trace_cache.store_checkpoints ~dir ~key (Ebp_trace.Checkpoint.create ())
       with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      Alcotest.(check int) "trace + index + checkpoints" 3
        (List.length (Trace_cache.entries ~dir));
      (* Orphan the index by deleting the trace entry. *)
      Sys.remove (Filename.concat dir (key ^ ".ebpt3"));
      let removed, reclaimed = Trace_cache.gc ~dir ~max_bytes:max_int in
      Alcotest.(check int) "the orphaned index reclaimed" 1 removed;
      Alcotest.(check bool) "its bytes counted" true (reclaimed > 0);
      Alcotest.(check bool) "only the chain left" true
        (List.map (fun e -> e.Trace_cache.entry_kind) (Trace_cache.entries ~dir)
        = [ Trace_cache.Checkpoint_entry ]);
      (* A live key's artifacts are not orphans: re-store and re-index,
         then gc with an unlimited budget must keep everything. *)
      (match Trace_cache.store ~dir ~key trace with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      (match Trace_cache.store_index ~dir ~key ~page_sizes:[ 4096 ] index with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      Alcotest.(check (pair int int)) "live artifacts kept" (0, 0)
        (Trace_cache.gc ~dir ~max_bytes:max_int))

(* [ebp trace --stream F --checkpoint-every N] and [ebp travel --cached]
   store a checkpoint chain with no trace entry. gc must keep such a
   chain while the budget allows, and evict it coldest-first, as a group
   of its own, when it does not. *)
let test_cache_gc_keeps_lone_chains () =
  with_temp_cache_dir (fun dir ->
      let ok = function Ok () -> () | Error msg -> Alcotest.fail msg in
      let trace = synthetic_trace () in
      let key name = Trace_cache.make_key ~name ~source:"s" ~seed:1 () in
      let chain_key = key "streamed" and traced = key "traced" in
      ok (Trace_cache.store_checkpoints ~dir ~key:chain_key
            (Ebp_trace.Checkpoint.create ()));
      ok (Trace_cache.store ~dir ~key:traced trace);
      Alcotest.(check (pair int int)) "a lone chain is not an orphan" (0, 0)
        (Trace_cache.gc ~dir ~max_bytes:max_int);
      Alcotest.(check bool) "the chain is still served" true
        (Trace_cache.lookup_checkpoints ~dir ~key:chain_key <> None);
      (* Make the chain the coldest group; a budget for the trace alone
         evicts exactly the chain. *)
      let chain_file =
        (List.find
           (fun e -> e.Trace_cache.entry_kind = Trace_cache.Checkpoint_entry)
           (Trace_cache.entries ~dir))
          .Trace_cache.entry_file
      in
      let t = Unix.gettimeofday () -. 300.0 in
      Unix.utimes (Filename.concat dir chain_file) t t;
      let trace_bytes =
        (Unix.stat (Filename.concat dir (traced ^ ".ebpt3"))).Unix.st_size
      in
      let removed, _ = Trace_cache.gc ~dir ~max_bytes:trace_bytes in
      Alcotest.(check int) "the coldest group, the chain, evicted" 1 removed;
      Alcotest.(check bool) "the trace survives" true
        (Trace_cache.lookup ~dir ~key:traced <> None);
      Alcotest.(check bool) "the chain is gone" true
        (Trace_cache.lookup_checkpoints ~dir ~key:chain_key = None))

(* A cache directory left by the v4 layout: each key had a varint-coded
   [<key>.trace] entry next to a [<key>.ebpt3] sidecar, plus its indices.
   No v5 key names those keys, so none of their files may be served,
   none is reported corrupt, and gc reclaims all of them on sight. *)
let test_cache_v4_leftovers () =
  with_temp_cache_dir (fun dir ->
      let trace = synthetic_trace () in
      let v4_key name = Digest.to_hex (Digest.string ("v4 key " ^ name)) in
      let paired = v4_key "paired" and lone = v4_key "lone" in
      let write file data =
        Out_channel.with_open_bin (Filename.concat dir file) (fun oc ->
            Out_channel.output_string oc data)
      in
      let leave_v4_files () =
        (* The v4 entry body, sealed; its payload is opaque here. *)
        write (paired ^ ".trace") "EBPC3\x00\x00\x00\x00\x00\x00\x00\x00v4EBPZ";
        write (paired ^ ".ebpt3") (Trace.encode_columnar trace);
        write (lone ^ ".trace") "EBPC3 a v4 entry whose sidecar is gone";
        match
          Trace_cache.store_index ~dir ~key:paired ~page_sizes:[ 4096 ]
            (Ebp_trace.Write_index.build ~page_sizes:[ 4096 ] trace)
        with
        | Ok () -> ()
        | Error msg -> Alcotest.fail msg
      in
      Unix.mkdir dir 0o755;
      leave_v4_files ();
      let key = Trace_cache.make_key ~name:"v5" ~source:"s" ~seed:1 () in
      (match Trace_cache.store ~dir ~key trace with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      let stale =
        List.filter
          (fun e -> e.Trace_cache.entry_kind = Trace_cache.Stale_entry)
          (Trace_cache.entries ~dir)
      in
      Alcotest.(check int) "both .trace files are stale entries" 2
        (List.length stale);
      Alcotest.(check bool) "a v4 .trace is never served" true
        (Trace_cache.lookup ~dir ~key:lone = None);
      Alcotest.(check bool) "nor quarantined" true
        (Sys.file_exists (Filename.concat dir (lone ^ ".trace")));
      let r = Trace_cache.verify ~dir () in
      Alcotest.(check (list string)) "verify reports none corrupt" []
        (List.map fst r.Trace_cache.corrupt);
      Alcotest.(check int) "the v5 entry, the v4 sidecar and index checked" 3
        r.Trace_cache.checked;
      let removed, _ = Trace_cache.gc ~dir ~max_bytes:max_int in
      Alcotest.(check int) "gc reclaims every v4 file" 4 removed;
      Alcotest.(check (list string)) "only the v5 entry is left"
        [ key ^ ".ebpt3" ]
        (List.map (fun e -> e.Trace_cache.entry_file) (Trace_cache.entries ~dir));
      Alcotest.(check bool) "and it still hits" true
        (Trace_cache.lookup ~dir ~key <> None);
      leave_v4_files ();
      let removed, _ = Trace_cache.clear ~dir in
      Alcotest.(check int) "clear reclaims every file" 5 removed;
      Alcotest.(check int) "nothing left" 0
        (Array.length (Sys.readdir dir)))

(* --- crash consistency ---

   Kill the store protocol at each of its injected sites in turn. The
   invariant: whatever litter the simulated crash leaves (an empty, a
   half-written, or a complete-but-unrenamed temp file), a lookup never
   observes a partial entry, [gc] reclaims the litter, and a re-run
   store lands the entry normally. *)
let kill_sites =
  [
    "trace_cache.store.kill_tmp";
    "trace_cache.store.kill_write";
    "trace_cache.store.kill_rename";
  ]

let count_kind ~dir kind =
  List.length
    (List.filter
       (fun e -> e.Trace_cache.entry_kind = kind)
       (Trace_cache.entries ~dir))

let test_store_crash_consistency () =
  let module Fault = Ebp_util.Fault in
  let trace = synthetic_trace () in
  let index = Ebp_trace.Write_index.build ~page_sizes:[ 4096 ] trace in
  List.iter
    (fun site ->
      List.iter
        (fun (what, store) ->
          with_temp_cache_dir (fun dir ->
              let key =
                Trace_cache.make_key ~name:(what ^ site) ~source:"s" ~seed:1 ()
              in
              Fault.configure
                [ { Fault.pattern = site; trigger = Fault.Nth 1; action = Fault.Kill } ];
              Fun.protect ~finally:Fault.reset (fun () ->
                  (match store ~dir ~key with
                  | (_ : (unit, string) result) ->
                      Alcotest.failf "%s: store survived the kill at %s" what
                        site
                  | exception Fault.Killed s ->
                      Alcotest.(check string) "killed at the site" site s);
                  Fault.reset ();
                  (* No partial entry is ever visible... *)
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: no entry after kill at %s" what site)
                    true
                    (Trace_cache.lookup ~dir ~key = None
                    && Trace_cache.lookup_index ~dir ~key ~page_sizes:[ 4096 ]
                       = None);
                  (* ...the crash left at most temp litter, which gc
                     reclaims... *)
                  let tmp_before = count_kind ~dir Trace_cache.Tmp_entry in
                  let removed, _ = Trace_cache.gc ~dir ~max_bytes:max_int in
                  Alcotest.(check int)
                    (Printf.sprintf "%s: gc reclaims the litter of %s" what
                       site)
                    tmp_before removed;
                  Alcotest.(check int) "no litter left" 0
                    (count_kind ~dir Trace_cache.Tmp_entry);
                  (* ...and the next (uninterrupted) store works. *)
                  match store ~dir ~key with
                  | Ok () -> ()
                  | Error msg -> Alcotest.failf "%s: re-store failed: %s" what msg)))
        [
          ("trace", fun ~dir ~key -> Trace_cache.store ~dir ~key trace);
          ( "index",
            fun ~dir ~key ->
              Trace_cache.store_index ~dir ~key ~page_sizes:[ 4096 ] index );
        ])
    kill_sites

let test_experiment_parallel_identical () =
  (* The whole engine end-to-end on one real workload: domains 1 vs 3 and
     cold vs warm cache must produce byte-identical experiment reports. *)
  with_temp_cache_dir (fun dir ->
      let run ?cache_dir ~domains () =
        match
          Ebp_core.Experiment.run ~workloads:[ Workload.circuit ] ~domains
            ?cache_dir ()
        with
        | Ok t -> Ebp_core.Experiment.full_report t
        | Error msg -> Alcotest.fail msg
      in
      let sequential = run ~domains:1 () in
      Alcotest.(check bool) "3-domain report identical" true
        (sequential = run ~domains:3 ());
      Alcotest.(check bool) "cold-cache report identical" true
        (sequential = run ~cache_dir:dir ~domains:2 ());
      Alcotest.(check bool) "warm-cache report identical" true
        (sequential = run ~cache_dir:dir ~domains:2 ()))

(* With seeded faults injected at every cache, codec, pool, and loader
   point, the experiment must still terminate and report bit-identically
   to the fault-free run: injected store failures degrade to re-recording,
   corrupted entries are quarantined and re-recorded, transient task and
   loader faults are retried by the pool. *)
let test_experiment_faulted_identical () =
  let module Fault = Ebp_util.Fault in
  let run ?cache_dir () =
    match
      Ebp_core.Experiment.run ~workloads:[ tiny_workload ] ~domains:2
        ?cache_dir ()
    with
    | Ok t -> Ebp_core.Experiment.full_report t
    | Error msg -> Alcotest.fail msg
  in
  let clean = run () in
  let spec =
    "seed=42;trace_cache.store.data:p=0.3:bitflip;\
     trace_cache.store.io:p=0.2:fail;trace_cache.lookup.data:p=0.2:bitflip;\
     trace.codec.map:p=0.2:fail;write_index.codec.decode:p=0.2:fail;\
     pool.task:p=0.1:fail;loader.run:p=0.1:fail"
  in
  with_temp_cache_dir (fun dir ->
      (match Fault.configure_spec spec with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      Fun.protect ~finally:Fault.reset (fun () ->
          Alcotest.(check bool) "cold-cache faulted report identical" true
            (clean = run ~cache_dir:dir ());
          Alcotest.(check bool) "warm-cache faulted report identical" true
            (clean = run ~cache_dir:dir ());
          Alcotest.(check bool) "cache-free faulted report identical" true
            (clean = run ())))

let () =
  Alcotest.run "parallel"
    [
      ( "domain_pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
          Alcotest.test_case "empty and single batches" `Quick
            test_pool_empty_and_single;
          Alcotest.test_case "exception propagates" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "domain count clamped" `Quick
            test_pool_domains_clamped;
          Alcotest.test_case "contains injected faults" `Quick
            test_pool_contains_injected_faults;
          Alcotest.test_case "kill propagates" `Quick
            test_pool_kill_propagates;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "synthetic trace, domains 1/2/4" `Quick
            test_replay_determinism_synthetic;
          Alcotest.test_case "circuit workload, domains 1/2/4" `Slow
            test_replay_determinism_workload;
          Alcotest.test_case "shared pool across replays" `Quick
            test_replay_shared_pool;
          Alcotest.test_case "parallel index build identical" `Quick
            test_parallel_index_build;
        ] );
      ( "trace_cache",
        [
          Alcotest.test_case "round-trip" `Quick test_cache_roundtrip;
          Alcotest.test_case "key sensitivity" `Quick test_cache_key_sensitivity;
          Alcotest.test_case "corrupt entry is a miss" `Quick
            test_cache_corrupt_entry_is_miss;
          Alcotest.test_case "warm hit skips execution" `Quick
            test_record_cached_skips_execution;
          Alcotest.test_case "entries and clear" `Quick
            test_cache_entries_and_clear;
          Alcotest.test_case "gc evicts oldest first" `Quick
            test_cache_gc_evicts_oldest;
          Alcotest.test_case "gc reclaims orphaned artifacts" `Quick
            test_cache_gc_reclaims_orphans;
          Alcotest.test_case "gc keeps checkpoint chains with no trace" `Quick
            test_cache_gc_keeps_lone_chains;
          Alcotest.test_case "gc reclaims v4 leftovers" `Quick
            test_cache_v4_leftovers;
          Alcotest.test_case "store crash consistency" `Quick
            test_store_crash_consistency;
          Alcotest.test_case "experiment engines agree" `Slow
            test_experiment_parallel_identical;
          Alcotest.test_case "experiment identical under faults" `Quick
            test_experiment_faulted_identical;
        ] );
    ]
