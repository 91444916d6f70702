(* Properties of the indexed replay engine against the scan engine, and
   of the Write_index binary codec. The scan engine is the correctness
   oracle (it is itself property-tested against a naive per-event
   simulation in test_sessions.ml); the indexed engine must agree with
   it bit-for-bit on every Counts field, at every page size, on traces
   that exercise the deliberately-preserved semantic quirks:

   - wide writes (3+ words, non-adjacent pages at small page sizes);
   - unguarded removes (no matching install) and double installs;
   - objects sharing words and pages, address reuse across objects. *)

module Interval = Ebp_util.Interval
module Object_desc = Ebp_trace.Object_desc
module Trace = Ebp_trace.Trace
module Write_index = Ebp_trace.Write_index
module Session = Ebp_sessions.Session
module Counts = Ebp_sessions.Counts
module Replay = Ebp_sessions.Replay
module Indexed_replay = Ebp_sessions.Indexed_replay

let iv lo hi = Interval.make ~lo ~hi
let page_sizes = [ 1024; 4096; 8192 ]

(* --- random traces --- *)

(* A small universe of objects with deliberately overlapping ranges:
   [b] spans a 1K page boundary, [wide] covers 11 words (wide-write
   sized), [x1]/[x2] are two instantiations at the same address (stack
   reuse), and [far] lives beyond 2^32 so 1K page indices exceed the
   old 22-bit packing. *)
let objects =
  [|
    (Object_desc.Global { var = "a" }, iv 0x1000 0x1003);
    (Object_desc.Global { var = "b" }, iv 0x13fc 0x1407);
    (Object_desc.Global { var = "wide" }, iv 0x2000 0x202b);
    (Object_desc.Heap { context = [ "f"; "main" ]; seq = 1 }, iv 0x3000 0x300b);
    (Object_desc.Local { func = "f"; var = "x"; inst = 1 }, iv 0x8000 0x8003);
    (Object_desc.Local { func = "f"; var = "x"; inst = 2 }, iv 0x8000 0x8003);
    (Object_desc.Local { func = "f"; var = "y"; inst = 1 }, iv 0x8004 0x8007);
    (Object_desc.Global { var = "far" }, iv 0x1_0000_1000 0x1_0000_100b);
  |]

let sessions_under_test =
  [
    Session.One_global_static { var = "a" };
    Session.One_global_static { var = "b" };
    Session.One_global_static { var = "wide" };
    Session.One_global_static { var = "far" };
    Session.One_heap { site = "f"; seq = 1 };
    Session.One_local_auto { func = "f"; var = "x" };
    Session.All_local_in_func { func = "f" };
    Session.All_heap_in_func { func = "main" };
  ]

(* Ops are unguarded on purpose: installs may repeat while live and
   removes may lack a matching install — both engines must agree on the
   scan engine's idempotent-word / refcounted-page treatment of them. *)
let trace_gen =
  let open QCheck2.Gen in
  let* ops =
    list_size (int_range 1 120)
      (triple (int_range 0 5) (int_range 0 7) (int_range 0 40))
  in
  return
    (let b = Trace.Builder.create () in
     List.iter
       (fun (kind, idx, jitter) ->
         let idx = idx mod Array.length objects in
         let obj, range = objects.(idx) in
         match kind with
         | 0 | 1 -> Trace.Builder.add_install b obj range
         | 2 -> Trace.Builder.add_remove b obj range
         | 3 ->
             (* Word-aligned 4-byte write near (sometimes on) the object. *)
             let lo = (Interval.lo range + (jitter * 412)) land lnot 3 in
             Trace.Builder.add_write b (iv lo (lo + 3)) ~pc:idx
         | 4 ->
             (* Wide write: 3+ words, crossing pages for small sizes. *)
             let lo = (Interval.lo range + (jitter * 512)) land lnot 3 in
             Trace.Builder.add_write b (iv lo (lo + 19 + (4 * jitter))) ~pc:idx
         | _ ->
             (* Unaligned narrow write spanning a word boundary. *)
             let lo = Interval.lo range + jitter in
             Trace.Builder.add_write b (iv lo (lo + 2)) ~pc:idx)
       ops;
     Trace.Builder.finish b)

(* --- indexed engine vs scan engine --- *)

let counts_equal (a : Counts.t) (b : Counts.t) = a = b

let prop_indexed_matches_scan =
  QCheck2.Test.make ~name:"indexed replay matches scan engine" ~count:300
    trace_gen (fun trace ->
      let scan = Replay.replay_shard ~page_sizes trace sessions_under_test in
      let index = Write_index.build ~page_sizes trace in
      let indexed =
        Indexed_replay.replay_shard ~index ~page_sizes trace
          sessions_under_test
      in
      List.length scan = List.length indexed
      && List.for_all2
           (fun (s1, c1) (s2, c2) -> Session.equal s1 s2 && counts_equal c1 c2)
           scan indexed)

(* The public entry points must agree too (replay_all builds the index
   itself; passing ?index must not change anything). *)
let prop_replay_all_engines_agree =
  QCheck2.Test.make ~name:"replay_all Scan = replay_all Indexed" ~count:60
    trace_gen (fun trace ->
      let scan =
        Replay.replay_all ~page_sizes ~engine:Replay.Scan trace
          sessions_under_test
      in
      let indexed =
        Replay.replay_all ~page_sizes ~engine:Replay.Indexed trace
          sessions_under_test
      in
      scan = indexed)

(* --- Session.index vs Session.matches --- *)

let prop_session_index_matches =
  QCheck2.Test.make ~name:"Session.index agrees with Session.matches"
    ~count:200
    QCheck2.Gen.(int_range 0 ((Array.length objects * 2) - 1))
    (fun i ->
      let obj, _ = objects.(i mod Array.length objects) in
      let lookup = Session.index sessions_under_test in
      let expected =
        List.mapi (fun j s -> (j, s)) sessions_under_test
        |> List.filter_map (fun (j, s) ->
               if Session.matches s obj then Some j else None)
      in
      lookup obj = expected)

(* --- codec round trip --- *)

let prop_codec_round_trip =
  QCheck2.Test.make ~name:"Write_index codec round-trips" ~count:60 trace_gen
    (fun trace ->
      let index = Write_index.build ~page_sizes trace in
      let path = Filename.temp_file "ebp_widx" ".bin" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let oc = open_out_bin path in
          Write_index.write_binary oc index;
          close_out oc;
          let ic = open_in_bin path in
          let back = Write_index.read_binary ic in
          close_in ic;
          match back with
          | Ok back -> Write_index.equal index back
          | Error msg -> QCheck2.Test.fail_reportf "codec: %s" msg))

(* --- pack-guard regression (40-bit page indices) --- *)

(* With 1 KiB pages, addresses beyond 2^32 have page indices beyond the
   22 bits the packed (session, page) key originally reserved; the old
   packing silently aliased page [p] with page [p + 2^22], crediting
   writes on one object's page to an unrelated session. The two objects
   below collide exactly that way. *)
let test_pack_guard_regression () =
  let near = Object_desc.Global { var = "near" } in
  let far = Object_desc.Global { var = "far" } in
  let near_lo = 0x5000 in
  let far_lo = near_lo + (1 lsl (22 + 10)) (* same 1K page mod 2^22 *) in
  let trace =
    let b = Trace.Builder.create () in
    Trace.Builder.add_install b near (iv near_lo (near_lo + 3));
    Trace.Builder.add_install b far (iv far_lo (far_lo + 3));
    (* Miss for "near", lands on "far"'s page. *)
    Trace.Builder.add_write b (iv (far_lo + 16) (far_lo + 19)) ~pc:0;
    Trace.Builder.finish b
  in
  let check engine =
    let results =
      Replay.replay_all ~page_sizes:[ 1024 ] ~engine trace
        [ Session.One_global_static { var = "near" };
          Session.One_global_static { var = "far" } ]
    in
    List.iter
      (fun (s, c) ->
        let vm = Counts.vm_for c ~page_size:1024 in
        match s with
        | Session.One_global_static { var = "near" } ->
            Alcotest.(check int) "near: write is off-page" 0
              vm.Counts.active_page_misses
        | _ ->
            Alcotest.(check int) "far: write is an active-page miss" 1
              vm.Counts.active_page_misses)
      results
  in
  check Replay.Scan;
  check Replay.Indexed

let test_pack_rejects_overflow () =
  (* Page indices past 40 bits cannot be represented; the scan engine
     must refuse rather than alias. *)
  let g = Object_desc.Global { var = "g" } in
  let lo = 1 lsl 51 in
  let trace =
    let b = Trace.Builder.create () in
    Trace.Builder.add_install b g (iv lo (lo + 3));
    Trace.Builder.finish b
  in
  Alcotest.check_raises "overflowing page index"
    (Invalid_argument
       "Replay: page index exceeds 40 bits (page size too small for this \
        address space)") (fun () ->
      ignore
        (Replay.replay_all ~page_sizes:[ 1024 ] ~engine:Replay.Scan trace
           [ Session.One_global_static { var = "g" } ]))

(* --- decoder hardening --- *)

let test_codec_mutation_fuzz () =
  (* A valid index blob under exhaustive single-bit flips and all
     mutated strict prefixes: [decode] must return [Error] or a
     (possibly different) [Ok] without ever raising — every array length
     it reads is clamped against the bytes present. Strict prefixes must
     always be [Error]: the field sequence is deterministic, so a
     truncated blob runs out of bytes mid-read. *)
  let trace =
    let b = Trace.Builder.create () in
    Array.iter
      (fun (o, range) ->
        Trace.Builder.add_install b o range;
        Trace.Builder.add_write b range ~pc:1;
        Trace.Builder.add_remove b o range)
      objects;
    Trace.Builder.finish b
  in
  let valid = Write_index.encode (Write_index.build ~page_sizes trace) in
  let len = String.length valid in
  for cut = 0 to len - 1 do
    match Write_index.decode (String.sub valid 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "strict prefix of length %d/%d decoded" cut len
  done;
  for i = 0 to len - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string valid in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      match Write_index.decode (Bytes.unsafe_to_string b) with
      | Ok _ | Error _ -> ()
      | exception e ->
          Alcotest.failf "decode raised %s on bit %d of byte %d"
            (Printexc.to_string e) bit i
    done
  done

(* --- the counting build against a naive reference ---

   The reference states the index's contents directly, as sorted
   association lists built from the raw events, and shares no code with
   [Write_index]'s counting build. Every build — serial, pooled at 2 and
   4 domains, and incremental over random block sizes — is read back
   through the public accessors only and must equal it. *)

module Domain_pool = Ebp_util.Domain_pool

type view = {
  v_events : int;
  v_writes : int;
  v_word : (int * int list) list;
  v_span : (int * int list) list;
  v_pc : (int * int list) list;
  v_wide : (int * int * int) list;
  (* per page size: writes, spans, wide *)
  v_pages :
    (int * (int * int list) list * (int * int list) list * (int * int * int) list)
    list;
  v_objs : (int * bool * int * int) list list;
}

let view_of index =
  let posting p =
    List.init (Write_index.key_count p) (fun i ->
        let key = Write_index.key_at p i in
        (key, Array.to_list (Write_index.positions p key ~after:(-1) ~before:max_int)))
  in
  let triples iter =
    let acc = ref [] in
    iter (fun ~ev ~first ~last -> acc := (ev, first, last) :: !acc);
    List.rev !acc
  in
  {
    v_events = Write_index.events index;
    v_writes = Write_index.total_writes index;
    v_word = posting (Write_index.word_writes index);
    v_span = posting (Write_index.word_spans index);
    v_pc = posting (Write_index.pc_writes index);
    v_wide = triples (Write_index.iter_wide_word_writes index);
    v_pages =
      List.map
        (fun page_size ->
          match Write_index.page_view index ~page_size with
          | None -> (page_size, [], [], [])
          | Some v ->
              ( page_size,
                posting (Write_index.page_writes v),
                posting (Write_index.page_spans v),
                triples (Write_index.iter_wide_page_writes v) ))
        (Write_index.page_sizes index);
    v_objs =
      List.init (Write_index.object_count index) (fun o ->
          let acc = ref [] in
          Write_index.iter_object_timeline index o (fun ~ev ~is_install ~lo ~hi ->
              acc := (ev, is_install, lo, hi) :: !acc);
          List.rev !acc);
  }

let rec log2 n = if n = 1 then 0 else 1 + log2 (n / 2)

(* [events] are [(t, tag, obj, lo, hi, pc)] in trace order. *)
let reference ~page_sizes ~nobjs ~events:n events =
  let writes = List.filter (fun (_, tag, _, _, _, _) -> tag = 2) events in
  let group pairs =
    List.fold_right
      (fun (k, t) acc ->
        match acc with
        | (k', ts) :: rest when k' = k -> (k, t :: ts) :: rest
        | _ -> (k, [ t ]) :: acc)
      (List.sort compare pairs) []
  in
  (* A write's first and last word (page); it is narrow when they are
     at most one apart. *)
  let span_of shift (t, _, _, lo, hi, _) = (t, lo lsr shift, hi lsr shift) in
  let words = List.map (span_of 2) writes in
  let narrow = List.filter (fun (_, f, l) -> l - f <= 1) words in
  let touched spans =
    group (List.concat_map (fun (t, f, l) -> if f = l then [ (f, t) ] else [ (f, t); (l, t) ]) spans)
  in
  {
    v_events = n;
    v_writes = List.length writes;
    v_word = touched narrow;
    v_span = group (List.filter_map (fun (t, f, l) -> if l <> f then Some (f, t) else None) narrow);
    v_pc = group (List.map (fun (t, _, _, _, _, pc) -> (pc, t)) writes);
    v_wide = List.filter (fun (_, f, l) -> l - f > 1) words;
    v_pages =
      List.map
        (fun page_size ->
          let shift = log2 page_size in
          let pages = List.map (span_of shift) writes in
          ( page_size,
            touched pages,
            group (List.filter_map (fun (t, f, l) -> if l = f + 1 then Some (f, t) else None) pages),
            List.filter (fun (_, f, l) -> l <> f && l <> f + 1) pages ))
        page_sizes;
    v_objs =
      List.init nobjs (fun o ->
          List.filter_map
            (fun (t, tag, obj, lo, hi, _) ->
              if tag <= 1 && obj = o then Some (t, tag = 0, lo, hi) else None)
            events);
  }

let events_of trace =
  let acc = ref [] and t = ref 0 in
  Trace.iter_raw trace (fun ~tag ~obj ~lo ~hi ~pc ->
      acc := (!t, tag, obj, lo, hi, pc) :: !acc;
      incr t);
  List.rev !acc

(* Addresses in a few regions, so keys repeat: low memory, across a 32K
   page boundary, past 2^32, and the two ends of the int range. *)
let regions = [| 0x1000; 0x7ff0; 0x1_0000_0000; max_int - 0x3000; min_int; -0x2000 |]

let random_trace st ~events =
  let b = Trace.Builder.create () in
  let addr () =
    regions.(Random.State.int st (Array.length regions)) + Random.State.int st 0x3000
  in
  let range lo size = (lo, if lo > max_int - size then max_int else lo + size) in
  let objs =
    Array.init 12 (fun i ->
        let lo, hi = range (addr ()) (Random.State.int st 64) in
        (Object_desc.Global { var = "g" ^ string_of_int i }, iv lo hi))
  in
  let pcs = [| 0; 1; 2; 3; 17; -1; max_int; min_int |] in
  for _ = 1 to events do
    let obj, range_ = objs.(Random.State.int st (Array.length objs)) in
    let write (lo, hi) =
      Trace.Builder.add_write_raw b ~lo ~hi
        ~pc:pcs.(Random.State.int st (Array.length pcs))
    in
    match Random.State.int st 10 with
    | 0 -> Trace.Builder.add_install b obj range_
    | 1 -> Trace.Builder.add_remove b obj range_
    | 2 -> write (range (addr () land lnot 3) 3) (* one word *)
    | 3 -> write (range ((addr () land lnot 3) + 2) 3) (* two words *)
    | 4 -> write (range (addr ()) (8 + Random.State.int st 40)) (* 3+ words *)
    | 5 -> write (range (((addr () lsr 10) lsl 10) - 2) 3) (* page edge *)
    | 6 -> write (range (addr ()) (2048 + Random.State.int st 8192)) (* pages apart *)
    | 7 -> write (range (Interval.lo range_) 1) (* on an object *)
    | _ -> write (range (addr ()) (Random.State.int st 8))
  done;
  Trace.Builder.finish b

(* The incremental builder over random block sizes (1 included), with
   snapshots — and so folds — at random seals, each checked against
   the reference over its prefix. *)
let incremental_view st ~page_sizes trace events =
  let n = Trace.length trace in
  let inc = Write_index.Incremental.create ~page_sizes in
  let max_block = if n < 1000 then 4 else 3000 in
  let ev = Array.of_list events in
  let nobjs = ref 0 and start = ref 0 in
  while !start < n do
    let stop = min n (!start + 1 + Random.State.int st max_block) in
    for i = !start to stop - 1 do
      let _, tag, obj, _, _, _ = ev.(i) in
      if tag <= 1 then nobjs := max !nobjs (obj + 1)
    done;
    let first = !start in
    Write_index.Incremental.add_block inc ~nobjs:!nobjs ~count:(stop - first)
      (fun f -> Trace.iter_raw_range trace ~start:first ~stop f);
    start := stop;
    if Random.State.int st 8 = 0 then begin
      let snap = Option.get (Write_index.Incremental.snapshot inc) in
      if view_of snap
         <> reference ~page_sizes ~nobjs:!nobjs ~events:stop
              (List.filteri (fun i _ -> i < stop) events)
      then QCheck2.Test.fail_reportf "snapshot at %d differs" stop
    end
  done;
  view_of (Option.get (Write_index.Incremental.snapshot inc))

let prop_builds_match_reference =
  QCheck2.Test.make ~name:"serial, pooled and incremental builds = reference"
    ~count:40
    QCheck2.Gen.(pair int (oneof [ int_range 0 300; int_range 8192 16384 ]))
    (fun (seed, events) ->
      let st = Random.State.make [| seed |] in
      let trace = random_trace st ~events in
      let evs = events_of trace in
      let expected =
        reference ~page_sizes ~nobjs:(Trace.object_count trace) ~events evs
      in
      let check what v =
        if v <> expected then QCheck2.Test.fail_reportf "%s build differs" what
      in
      check "serial" (view_of (Write_index.build ~page_sizes trace));
      List.iter
        (fun domains ->
          Domain_pool.with_pool ~domains (fun pool ->
              check
                (Printf.sprintf "pooled(%d)" domains)
                (view_of (Write_index.build ~pool ~page_sizes trace))))
        [ 2; 4 ];
      check "incremental" (incremental_view st ~page_sizes trace evs);
      true)

(* The EBPW2 bytes of circuit's index at the default page sizes, taken
   before the counting build replaced the hash-table one: the encoder
   and every build that feeds it must reproduce them exactly. *)
let test_circuit_bytes_pinned () =
  let w = List.find (fun w -> w.Ebp_workloads.Workload.name = "circuit") Ebp_workloads.Workload.all in
  match
    Ebp_trace.Recorder.record_source ~seed:w.Ebp_workloads.Workload.seed
      w.Ebp_workloads.Workload.source
  with
  | Error msg -> Alcotest.failf "record circuit: %s" msg
  | Ok (_, trace, _) ->
      let index =
        Write_index.build ~page_sizes:Replay.default_page_sizes trace
      in
      Alcotest.(check string) "EBPW2 md5" "2be42b236bb73cb1efe68995aee9032f"
        (Digest.to_hex (Digest.string (Write_index.encode index)))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "indexed"
    [
      ( "engine equivalence",
        [ q prop_indexed_matches_scan; q prop_replay_all_engines_agree ] );
      ("session index", [ q prop_session_index_matches ]);
      ( "build",
        [
          q prop_builds_match_reference;
          Alcotest.test_case "circuit EBPW2 bytes pinned" `Quick
            test_circuit_bytes_pinned;
        ] );
      ( "codec",
        [
          q prop_codec_round_trip;
          Alcotest.test_case "mutation fuzz" `Quick test_codec_mutation_fuzz;
        ] );
      ( "pack guard",
        [
          Alcotest.test_case "1K pages past 2^32" `Quick
            test_pack_guard_regression;
          Alcotest.test_case "overflow rejected" `Quick
            test_pack_rejects_overflow;
        ] );
    ]
