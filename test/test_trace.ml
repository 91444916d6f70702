(* Tests for Ebp_trace: object descriptors, trace storage, codecs, and the
   recorder's install/remove/write semantics. *)

module Interval = Ebp_util.Interval
module Object_desc = Ebp_trace.Object_desc
module Trace = Ebp_trace.Trace
module Stream = Ebp_trace.Stream
module Recorder = Ebp_trace.Recorder

let iv lo hi = Interval.make ~lo ~hi

(* --- Object_desc --- *)

let all_desc_examples =
  [
    Object_desc.Local { func = "f"; var = "x"; inst = 3 };
    Object_desc.Local { func = "f"; var = "x.1"; inst = 1 };
    Object_desc.Local_static { func = "g"; var = "counter" };
    Object_desc.Global { var = "table" };
    Object_desc.Heap { context = [ "alloc_vec"; "build"; "main" ]; seq = 17 };
    Object_desc.Heap { context = [ "main" ]; seq = 1 };
  ]

let test_desc_string_roundtrip () =
  List.iter
    (fun d ->
      match Object_desc.of_string (Object_desc.to_string d) with
      | Some d' ->
          if not (Object_desc.equal d d') then
            Alcotest.failf "roundtrip failed for %s" (Object_desc.to_string d)
      | None -> Alcotest.failf "parse failed for %s" (Object_desc.to_string d))
    all_desc_examples

let test_desc_site () =
  Alcotest.(check (option string)) "innermost is the site" (Some "alloc_vec")
    (Object_desc.site
       (Object_desc.Heap { context = [ "alloc_vec"; "main" ]; seq = 1 }));
  Alcotest.(check (option string)) "non-heap has no site" None
    (Object_desc.site (Object_desc.Global { var = "g" }))

let test_desc_bad_strings () =
  List.iter
    (fun s ->
      if Object_desc.of_string s <> None then Alcotest.failf "parsed garbage %S" s)
    [ ""; "nope"; "local:xy"; "heap:zz"; "local:f.x#zz" ]

(* --- Trace storage --- *)

let build_sample () =
  let b = Trace.Builder.create () in
  let obj1 = Object_desc.Global { var = "g" } in
  let obj2 = Object_desc.Heap { context = [ "main" ]; seq = 1 } in
  Trace.Builder.add_install b obj1 (iv 100 103);
  Trace.Builder.add_write b (iv 100 103) ~pc:7;
  Trace.Builder.add_install b obj2 (iv 200 239);
  Trace.Builder.add_write b (iv 300 300) ~pc:9;
  Trace.Builder.add_remove b obj2 (iv 200 239);
  Trace.Builder.add_remove b obj1 (iv 100 103);
  Trace.Builder.finish b

let test_trace_build_and_get () =
  let t = build_sample () in
  Alcotest.(check int) "length" 6 (Trace.length t);
  (match Trace.get t 0 with
  | Trace.Install { obj = Object_desc.Global { var = "g" }; range } ->
      Alcotest.(check int) "range lo" 100 (Interval.lo range)
  | _ -> Alcotest.fail "event 0");
  (match Trace.get t 1 with
  | Trace.Write { range; pc = 7 } -> Alcotest.(check int) "write hi" 103 (Interval.hi range)
  | _ -> Alcotest.fail "event 1");
  match Trace.get t 4 with
  | Trace.Remove { obj = Object_desc.Heap { seq = 1; _ }; _ } -> ()
  | _ -> Alcotest.fail "event 4"

let test_trace_interning () =
  let t = build_sample () in
  Alcotest.(check int) "two distinct objects" 2 (Trace.object_count t);
  match Trace.object_of_id t 0 with
  | Object_desc.Global { var = "g" } -> ()
  | _ -> Alcotest.fail "object 0"

let test_trace_stats () =
  let t = build_sample () in
  let s = Trace.stats t in
  Alcotest.(check int) "installs" 2 s.Trace.installs;
  Alcotest.(check int) "removes" 2 s.Trace.removes;
  Alcotest.(check int) "writes" 2 s.Trace.writes;
  Alcotest.(check int) "write bytes" 5 s.Trace.write_bytes;
  Alcotest.(check int) "objects" 2 s.Trace.distinct_objects

let test_trace_iter_raw () =
  let t = build_sample () in
  let tags = ref [] in
  Trace.iter_raw t (fun ~tag ~obj ~lo:_ ~hi:_ ~pc -> tags := (tag, obj, pc) :: !tags);
  match List.rev !tags with
  | [ (0, 0, -1); (2, -1, 7); (0, 1, -1); (2, -1, 9); (1, 1, -1); (1, 0, -1) ] -> ()
  | _ -> Alcotest.fail "raw iteration mismatch"

(* Builder growth across the initial capacity. *)
let test_trace_many_events () =
  let b = Trace.Builder.create () in
  for i = 0 to 9_999 do
    Trace.Builder.add_write b (iv (4 * i) ((4 * i) + 3)) ~pc:i
  done;
  let t = Trace.Builder.finish b in
  Alcotest.(check int) "length" 10_000 (Trace.length t);
  match Trace.get t 9_999 with
  | Trace.Write { pc = 9_999; _ } -> ()
  | _ -> Alcotest.fail "last event"

(* --- binary codecs: saved streams (EBPB1) and cache entries (EBPT3) --- *)

(* [t] as a saved stream, as [ebp trace --stream] writes one: every
   object registered up front, then the events in order. *)
let stream_of ?block_events t =
  let buf = Buffer.create 256 in
  let w = Stream.Writer.create ?block_events ~write:(Buffer.add_string buf) () in
  Array.iter (fun o -> ignore (Stream.Writer.register w o)) (Trace.objects t);
  Trace.iter_raw t (fun ~tag ~obj ~lo ~hi ~pc ->
      if tag = 0 then Stream.Writer.add_install_id w obj ~lo ~hi
      else if tag = 1 then Stream.Writer.add_remove_id w obj ~lo ~hi
      else Stream.Writer.add_write_raw w ~lo ~hi ~pc);
  Stream.Writer.finish w;
  Buffer.contents buf

(* Both binary codecs reproduce every event and the whole object table. *)
let check_roundtrip t =
  (match Stream.read (stream_of ~block_events:7 t) with
  | Error e -> Alcotest.failf "stream read failed: %s" e
  | Ok t2 -> Trace.equal t t2)
  &&
  match Trace.decode_columnar (Trace.encode_columnar t) with
  | Error e -> Alcotest.failf "columnar decode failed: %s" e
  | Ok (t2, _) -> Trace.equal t t2

let test_trace_binary_roundtrip () =
  (* A saved trace file reads back as the same trace. *)
  let t = build_sample () in
  let path = Filename.temp_file "ebp_trace" ".ebpb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (stream_of t));
      match Stream.read_file path with
      | Error e -> Alcotest.fail e
      | Ok t2 -> Alcotest.(check bool) "same trace" true (Trace.equal t t2))

let test_trace_binary_rejects_garbage () =
  let path = Filename.temp_file "ebp_trace" ".ebpb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "NOTATRACE");
      match Stream.read_file path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "accepted garbage")

let prop_codec_roundtrip =
  (* Random event soup: both codecs must reproduce every row and the
     whole object table. *)
  let open QCheck2.Gen in
  let obj_pool =
    [|
      Object_desc.Global { var = "g0" };
      Object_desc.Global { var = "g1" };
      Object_desc.Local { func = "f"; var = "x"; inst = 1 };
      Object_desc.Local { func = "f"; var = "x"; inst = 2 };
      Object_desc.Local_static { func = "g"; var = "counter" };
      Object_desc.Heap { context = [ "alloc"; "main" ]; seq = 1 };
      Object_desc.Heap { context = [ "main" ]; seq = 2 };
    |]
  in
  let event =
    oneof
      [
        (let* lo = int_range (-1_000_000) 1_000_000 in
         let* width = int_range 0 64 in
         let* pc = int_range 0 100_000 in
         return (`Write (lo, lo + width, pc)));
        (let* idx = int_range 0 (Array.length obj_pool - 1) in
         let* lo = int_range 0 1_000_000 in
         let* width = int_range 0 64 in
         return (`Install (idx, lo, lo + width)));
        (let* idx = int_range 0 (Array.length obj_pool - 1) in
         let* lo = int_range 0 1_000_000 in
         let* width = int_range 0 64 in
         return (`Remove (idx, lo, lo + width)));
      ]
  in
  QCheck2.Test.make ~name:"binary codec roundtrip" ~count:300
    (list_size (int_range 0 200) event)
    (fun events ->
      let b = Trace.Builder.create () in
      List.iter
        (function
          | `Write (lo, hi, pc) -> Trace.Builder.add_write_raw b ~lo ~hi ~pc
          | `Install (idx, lo, hi) ->
              Trace.Builder.add_install b obj_pool.(idx) (iv lo hi)
          | `Remove (idx, lo, hi) ->
              Trace.Builder.add_remove b obj_pool.(idx) (iv lo hi))
        events;
      check_roundtrip (Trace.Builder.finish b))

let test_codec_extreme_values () =
  (* Stream deltas wrap at the 63-bit boundary; the zigzag varint chain
     must round-trip every representable bound anyway, and so must the
     fixed-width columns. *)
  let b = Trace.Builder.create () in
  List.iter
    (fun lo -> Trace.Builder.add_write_raw b ~lo ~hi:lo ~pc:max_int)
    [ 0; -1; 1; max_int; min_int; min_int + 1; 0x3FFFFFFFFFF; -0x3FFFFFFFFFF ];
  let t = Trace.Builder.finish b in
  Alcotest.(check bool) "roundtrip at extremes" true (check_roundtrip t)

let test_codec_malformed () =
  (* The strict stream reader behind [--from-trace]. *)
  let valid = stream_of ~block_events:2 (build_sample ()) in
  let expect_error what s =
    match Stream.read s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" what
  in
  expect_error "empty input" "";
  expect_error "bad magic" ("XXXXX" ^ String.sub valid 5 (String.length valid - 5));
  expect_error "old format version" "EBPB0";
  for cut = 0 to String.length valid - 1 do
    expect_error "truncation" (String.sub valid 0 cut)
  done;
  expect_error "trailing bytes" (valid ^ "\x00");
  expect_error "oversized varint" (Stream.magic ^ String.make 10 '\xff')

let test_codec_mutation_fuzz () =
  (* Exhaustive single-bit mutations of a valid stream: the strict reader
     must always return ([Ok] or [Error] — no exception, no hang, no
     allocation sized by a damaged length), whatever the flip hits. The
     header rides no CRC, so flips there reach the length checks. *)
  let valid = stream_of ~block_events:2 (build_sample ()) in
  let read what s =
    match Stream.read s with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "read raised %s on %s" (Printexc.to_string e) what
  in
  for i = 0 to String.length valid - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string valid in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      read (Printf.sprintf "bit %d of byte %d" bit i) (Bytes.unsafe_to_string b)
    done
  done;
  (* Flip-then-truncate: a mutated length field must never drive an
     unbounded read past the end of the buffer. *)
  for cut = 0 to String.length valid - 1 do
    let b = Bytes.of_string (String.sub valid 0 cut) in
    if cut > 0 then Bytes.set b (cut / 2) '\xff';
    read (Printf.sprintf "mutated prefix %d" cut) (Bytes.unsafe_to_string b)
  done

let test_codec_raw_adders_equivalent () =
  (* add_write_raw / register + add_install_id build the same trace as
     their boxed counterparts. *)
  let obj = Object_desc.Global { var = "g" } in
  let boxed = Trace.Builder.create () in
  Trace.Builder.add_install boxed obj (iv 100 103);
  Trace.Builder.add_write boxed (iv 100 103) ~pc:7;
  Trace.Builder.add_remove boxed obj (iv 100 103);
  let raw = Trace.Builder.create () in
  let id = Trace.Builder.register raw obj in
  Trace.Builder.add_install_id raw id ~lo:100 ~hi:103;
  Trace.Builder.add_write_raw raw ~lo:100 ~hi:103 ~pc:7;
  Trace.Builder.add_remove_id raw id ~lo:100 ~hi:103;
  Alcotest.(check bool) "identical traces" true
    (Trace.equal (Trace.Builder.finish boxed) (Trace.Builder.finish raw))

let test_builder_hint () =
  (* An exact hint means finish can hand the buffer over; a wrong hint
     still yields a correct trace. *)
  List.iter
    (fun hint ->
      let b = Trace.Builder.create ~hint () in
      for i = 0 to 99 do
        Trace.Builder.add_write_raw b ~lo:(4 * i) ~hi:((4 * i) + 3) ~pc:i
      done;
      let t = Trace.Builder.finish b in
      Alcotest.(check int) "length" 100 (Trace.length t);
      match Trace.get t 99 with
      | Trace.Write { pc = 99; _ } -> ()
      | _ -> Alcotest.fail "last event wrong")
    [ 100; 1; 1000 ]

let test_codec_compact () =
  (* A workload-shaped write run (sequential word stores from a handful
     of pcs) saves well under 8 bytes/event. *)
  let b = Trace.Builder.create ~hint:10_000 () in
  for i = 0 to 9_999 do
    let lo = 4096 + (4 * i) in
    Trace.Builder.add_write_raw b ~lo ~hi:(lo + 3) ~pc:(100 + (i mod 7))
  done;
  let t = Trace.Builder.finish b in
  let bytes = String.length (stream_of t) in
  Alcotest.(check bool)
    (Printf.sprintf "%d bytes for 10k events" bytes)
    true
    (bytes < 8 * 10_000)

let test_trace_equal () =
  (* Equality sees every field and the object table, and no storage. *)
  let t = build_sample () in
  Alcotest.(check bool) "reflexive" true (Trace.equal t t);
  let differs what f =
    let b = Trace.Builder.create () in
    f b;
    if Trace.equal t (Trace.Builder.finish b) then
      Alcotest.failf "equal despite %s" what
  in
  let g = Object_desc.Global { var = "g" } in
  let h = Object_desc.Heap { context = [ "main" ]; seq = 1 } in
  let sample ?(pc = 9) ?(hi = 103) ?(second = h) b =
    Trace.Builder.add_install b g (iv 100 103);
    Trace.Builder.add_write b (iv 100 hi) ~pc:7;
    Trace.Builder.add_install b second (iv 200 239);
    Trace.Builder.add_write b (iv 300 300) ~pc;
    Trace.Builder.add_remove b second (iv 200 239);
    Trace.Builder.add_remove b g (iv 100 103)
  in
  Alcotest.(check bool) "same events, fresh builder" true
    (let b = Trace.Builder.create () in
     sample b;
     Trace.equal t (Trace.Builder.finish b));
  differs "a different pc" (sample ~pc:10);
  differs "a different range" (sample ~hi:104);
  differs "a different object"
    (sample ~second:(Object_desc.Heap { context = [ "main" ]; seq = 2 }));
  differs "a missing event" (fun b ->
      Trace.Builder.add_install b g (iv 100 103);
      Trace.Builder.add_write b (iv 100 103) ~pc:7);
  differs "an extra event" (fun b ->
      sample b;
      Trace.Builder.add_write b (iv 1 1) ~pc:1)

(* --- columnar codec (EBPT3) and the mmap load path --- *)

let big_sample ?(events = 10_000) () =
  (* Enough events to span multiple 4096-event summary blocks, with
     installs so a mapped trace has usable install bounds. *)
  let b = Trace.Builder.create ~hint:(events + 2) () in
  let obj = Object_desc.Global { var = "g" } in
  Trace.Builder.add_install b obj (iv 4096 8191);
  for i = 0 to events - 1 do
    let lo = 4096 + (4 * (i mod 1024)) in
    Trace.Builder.add_write b (iv lo (lo + 3)) ~pc:(100 + (i mod 7))
  done;
  Trace.Builder.add_remove b obj (iv 4096 8191);
  Trace.Builder.finish b

let test_columnar_roundtrip () =
  List.iter
    (fun t ->
      let bytes = Trace.encode_columnar ~meta:"m1" t in
      match Trace.decode_columnar bytes with
      | Error e -> Alcotest.failf "decode failed: %s" e
      | Ok (t2, meta) ->
          Alcotest.(check string) "meta" "m1" meta;
          Alcotest.(check bool) "rows and objects" true (Trace.equal t t2))
    [ build_sample (); big_sample (); Trace.Builder.finish (Trace.Builder.create ()) ]

let test_columnar_malformed () =
  let valid = Trace.encode_columnar ~meta:"m" (build_sample ()) in
  let expect_error what s =
    match Trace.decode_columnar s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" what
  in
  expect_error "empty input" "";
  expect_error "bad magic" ("XXXXXXXX" ^ String.sub valid 8 (String.length valid - 8));
  for cut = 0 to String.length valid - 1 do
    expect_error "truncation" (String.sub valid 0 cut)
  done;
  expect_error "trailing bytes" (valid ^ "\x00")

let test_columnar_bitflips_detected () =
  (* Every single-bit flip anywhere in the image must be rejected by the
     fully-checked decoder (CRC over the body, magic over the rest). *)
  let valid = Trace.encode_columnar ~meta:"m" (build_sample ()) in
  for i = 0 to String.length valid - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string valid in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      match Trace.decode_columnar (Bytes.unsafe_to_string b) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bit %d of byte %d flipped" bit i
    done
  done

let with_columnar_file t f =
  let path = Filename.temp_file "ebp_columnar" ".ebpt3" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Trace.encode_columnar ~meta:"mm" t));
      f path)

let test_columnar_map () =
  let t = big_sample () in
  with_columnar_file t (fun path ->
      match Trace.map_columnar path with
      | Error e -> Alcotest.failf "map failed: %s" e
      | Ok (m, meta) ->
          Alcotest.(check string) "meta" "mm" meta;
          Alcotest.(check bool) "mapped storage" true (Trace.is_mapped m);
          Alcotest.(check bool) "heap original" false (Trace.is_mapped t);
          (match Trace.install_bounds m with
          | Some (lo, hi) ->
              Alcotest.(check int) "install lo" 4096 lo;
              Alcotest.(check int) "install hi" 8191 hi
          | None -> Alcotest.fail "mapped trace should expose install bounds");
          Alcotest.(check bool) "rows and objects" true (Trace.equal t m))

let test_columnar_map_verify () =
  (* The fully-checked load of a file ([ebp cache verify], and every
     cache lookup under fault injection) reads back the same trace. *)
  let t = build_sample () in
  with_columnar_file t (fun path ->
      match
        Trace.decode_columnar (In_channel.with_open_bin path In_channel.input_all)
      with
      | Error e -> Alcotest.failf "verified load failed: %s" e
      | Ok (m, meta) ->
          Alcotest.(check string) "meta" "mm" meta;
          Alcotest.(check bool) "rows" true (Trace.equal t m))

let test_columnar_map_rejects_damage () =
  (* Structural damage — truncation, header corruption, bad column tags —
     must be caught even by the unverified (header-checked) mapping. *)
  let t = build_sample () in
  with_columnar_file t (fun path ->
      let valid = In_channel.with_open_bin path In_channel.input_all in
      let write s = Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc s)
      in
      let expect_error what =
        match Trace.map_columnar path with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "mapped %s" what
      in
      write (String.sub valid 0 (String.length valid / 2));
      expect_error "a truncated file";
      write ("ZZZZZZZZ" ^ String.sub valid 8 (String.length valid - 8));
      expect_error "a bad magic";
      (* Flip a bit in the w0 column's first word: the tag/object check
         walks the whole column even without the payload CRC. *)
      let b = Bytes.of_string valid in
      let w0_off = String.length valid - 12 - (8 * 4 * Trace.length t) in
      Bytes.set b (w0_off + 7) '\x40';
      write (Bytes.unsafe_to_string b);
      expect_error "a corrupt w0 column";
      (* Header words the length checks cannot see: the block size, and
         the install bounds. *)
      let flip_header word bit =
        let b = Bytes.of_string valid in
        let pos = 8 + (8 * word) + (bit / 8) in
        Bytes.set b pos
          (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl (bit mod 8))));
        write (Bytes.unsafe_to_string b)
      in
      flip_header 4 0;
      expect_error "a flipped block size";
      (* The header's install bounds are not trusted: they are derived
         from the events, so a flipped copy cannot misdirect skipping. *)
      flip_header 6 3;
      (match Trace.map_columnar path with
      | Error e -> Alcotest.failf "mapped load refused: %s" e
      | Ok (m, _) ->
          Alcotest.(check (option (pair int int))) "bounds from the events"
            (Some (100, 239)) (Trace.install_bounds m));
      write valid;
      match Trace.map_columnar path with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "restored file rejected: %s" e)

let test_columnar_mapped_skipping () =
  (* iter_raw_skipping over a mapped trace must visit exactly the events
     iter_raw visits, minus whole skipped blocks whose write counts are
     reported through on_skip — so visited + skipped = total writes. *)
  let t = big_sample ~events:20_000 () in
  with_columnar_file t (fun path ->
      match Trace.map_columnar path with
      | Error e -> Alcotest.failf "map failed: %s" e
      | Ok (m, _) ->
          (* A window disjoint from every write: everything skippable. *)
          let visited = ref 0 and skipped = ref 0 in
          Trace.iter_raw_skipping m
            ~skip:(fun ~min_lo ~max_hi:_ -> min_lo > 0)
            ~on_skip:(fun ~writes -> skipped := !skipped + writes)
            (fun ~tag ~obj:_ ~lo:_ ~hi:_ ~pc:_ ->
              if tag = 2 then incr visited);
          Alcotest.(check int) "write accounting" 20_000 (!visited + !skipped);
          Alcotest.(check bool) "some blocks skipped" true (!skipped > 0);
          (* A never-skip predicate degenerates to iter_raw. *)
          let n = ref 0 in
          Trace.iter_raw_skipping m
            ~skip:(fun ~min_lo:_ ~max_hi:_ -> false)
            ~on_skip:(fun ~writes:_ -> Alcotest.fail "skipped despite false")
            (fun ~tag:_ ~obj:_ ~lo:_ ~hi:_ ~pc:_ -> incr n);
          Alcotest.(check int) "all events" (Trace.length m) !n)

(* --- one layout: every form of a trace answers alike --- *)

(* A trace of [blocks] whole 4096-event blocks plus a partial one, from
   [seed]. Block 0 installs every object, then mixes installs, removes
   and writes; block 1 holds only writes far outside the install bounds,
   block 2 only writes inside them; later blocks are any of the three. *)
let layout_objects =
  [|
    (Object_desc.Global { var = "a" }, iv 0x1000 0x1003);
    (Object_desc.Global { var = "wide" }, iv 0x2000 0x20ff);
    (Object_desc.Local { func = "f"; var = "x"; inst = 1 }, iv 0x8000 0x8003);
    (Object_desc.Heap { context = [ "main" ]; seq = 1 }, iv 0x8f00 0x8fff);
  |]

let layout_trace ~blocks seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let b = Trace.Builder.create () in
  let write_in () =
    let lo = 0x1000 + (4 * int 0x1f00) in
    Trace.Builder.add_write_raw b ~lo ~hi:(lo + 3) ~pc:(int 500)
  in
  let write_out () =
    let lo = 0x1_0000_0000 + (4 * int 0x10000) in
    Trace.Builder.add_write_raw b ~lo ~hi:(lo + (4 * int 4) + 3) ~pc:(int 500)
  in
  let tail = int 4096 in
  for blk = 0 to blocks do
    let kind = match blk with 0 | 1 | 2 -> blk | _ -> int 3 in
    let n = if blk = blocks then tail else 4096 in
    for i = 0 to n - 1 do
      match kind with
      | 1 -> write_out ()
      | 2 -> write_in ()
      | _ when blk = 0 && i < Array.length layout_objects ->
          let obj, range = layout_objects.(i) in
          Trace.Builder.add_install b obj range
      | _ -> (
          let obj, range = layout_objects.(int (Array.length layout_objects)) in
          match int 6 with
          | 0 -> Trace.Builder.add_install b obj range
          | 1 -> Trace.Builder.add_remove b obj range
          | 2 -> write_out ()
          | _ -> write_in ())
    done
  done;
  Trace.Builder.finish b

let prop_forms_agree =
  QCheck2.Test.make ~name:"built, decoded, streamed and mapped traces agree"
    ~count:12
    QCheck2.Gen.(triple (int_range 3 5) nat nat)
    (fun (blocks, seed, salt) ->
      (* Two builds of one trace: [built] is never encoded, so it derives
         its summaries on its own, as a fresh recording does. *)
      let t = layout_trace ~blocks seed in
      let built = layout_trace ~blocks seed in
      let decoded =
        match Trace.decode_columnar (Trace.encode_columnar t) with
        | Ok (d, _) -> d
        | Error e -> Alcotest.failf "decode: %s" e
      in
      let streamed =
        match Stream.read (stream_of t) with
        | Ok s -> s
        | Error e -> Alcotest.failf "stream read: %s" e
      in
      with_columnar_file t @@ fun path ->
      let mapped =
        match Trace.map_columnar path with
        | Ok (m, _) -> m
        | Error e -> Alcotest.failf "map: %s" e
      in
      let forms = [ built; decoded; streamed; mapped ] in
      let alike name f =
        let want = f mapped in
        List.iter
          (fun form ->
            if f form <> want then Alcotest.failf "%s differs (seed %d)" name seed)
          forms
      in
      let n = Trace.length t in
      let row ~tag ~obj ~lo ~hi ~pc = (tag, obj, lo, hi, pc) in
      let collect iter =
        let acc = ref [] in
        iter (fun ~tag ~obj ~lo ~hi ~pc -> acc := row ~tag ~obj ~lo ~hi ~pc :: !acc);
        List.rev !acc
      in
      alike "get_raw" (fun f -> List.init n (fun i -> Trace.get_raw f i row));
      let rng = Random.State.make [| salt |] in
      for _ = 1 to 8 do
        let a = Random.State.int rng (n + 1) and b = Random.State.int rng (n + 1) in
        let start = min a b and stop = max a b in
        alike "iter_raw_range" (fun f ->
            collect (Trace.iter_raw_range f ~start ~stop));
        alike "write_positions" (fun f -> Trace.write_positions f ~start ~stop)
      done;
      alike "install_bounds" Trace.install_bounds;
      let ilo, ihi =
        match Trace.install_bounds built with
        | Some bounds -> bounds
        | None -> Alcotest.fail "a built trace has no install bounds"
      in
      let skipping skip f =
        let skipped = ref [] in
        let visited =
          collect
            (Trace.iter_raw_skipping f ~skip ~on_skip:(fun ~writes ->
                 skipped := writes :: !skipped))
        in
        (visited, List.rev !skipped)
      in
      let outside ~min_lo ~max_hi = max_hi < ilo || min_lo > ihi in
      let coin ~min_lo ~max_hi = Hashtbl.hash (salt, min_lo, max_hi) land 1 = 0 in
      List.iter
        (fun skip -> alike "iter_raw_skipping" (skipping skip))
        [ outside; coin; (fun ~min_lo:_ ~max_hi:_ -> true) ];
      (* Block 1 lies outside the bounds and block 2 inside: the built
         form skips the one and visits the other. *)
      let visited, skipped = skipping outside built in
      skipped <> [] && List.length visited < n
      && List.length visited >= (2 * 4096))

let test_columnar_byte_counters () =
  let module Metrics = Ebp_obs.Metrics in
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    (fun () ->
      let t = build_sample () in
      let s = Trace.encode_columnar ~meta:"mm" t in
      with_columnar_file t (fun path ->
          match Trace.map_columnar path with
          | Error e -> Alcotest.fail e
          | Ok _ ->
              let counter name =
                let snap = Metrics.snapshot () in
                match
                  List.find_opt
                    (fun (n, _, _) -> String.equal n name)
                    snap.Metrics.counters
                with
                | Some (_, total, _) -> total
                | None -> Alcotest.failf "counter %s not registered" name
              in
              Alcotest.(check int) "columnar_bytes_out"
                (2 * String.length s)
                (counter "trace.codec.columnar_bytes_out");
              Alcotest.(check bool) "mapped_bytes counted" true
                (counter "trace.codec.mapped_bytes" > 0)))

(* --- Recorder semantics --- *)

let record src =
  match Recorder.record_source src with
  | Error e -> Alcotest.failf "compile error: %s" e
  | Ok (result, trace, debug) -> (result, trace, debug)

let count_events trace pred =
  let n = ref 0 in
  Trace.iter trace (fun e -> if pred e then incr n);
  !n

let test_recorder_balanced_installs () =
  let _, trace, _ =
    record
      {|int g;
        int f(int n) { int x; x = n; if (n > 0) { return f(n - 1); } return x; }
        int main() { int* p; p = malloc(8); f(3); free(p); return g; }|}
  in
  let s = Trace.stats trace in
  Alcotest.(check int) "installs = removes" s.Trace.installs s.Trace.removes

let test_recorder_local_instantiations () =
  (* f recurses 4 activations deep: its local x gets 4 distinct Local
     descriptors, all sharing func and var. *)
  let _, trace, _ =
    record
      {|int f(int n) { int x; x = n; if (n > 0) { return f(n - 1); } return x; }
        int main() { return f(3); }|}
  in
  let insts =
    Array.to_list (Trace.objects trace)
    |> List.filter_map (function
         | Object_desc.Local { func = "f"; var = "x"; inst } -> Some inst
         | _ -> None)
    |> List.sort Int.compare
  in
  Alcotest.(check (list int)) "four instantiations" [ 1; 2; 3; 4 ] insts

let test_recorder_heap_context () =
  let _, trace, _ =
    record
      {|int* wrap(int n) { return malloc(n); }
        int main() { int* p; p = wrap(8); free(p); return 0; }|}
  in
  let heaps =
    Array.to_list (Trace.objects trace)
    |> List.filter_map (function
         | Object_desc.Heap { context; seq } -> Some (context, seq)
         | _ -> None)
  in
  match heaps with
  | [ ([ "wrap"; "main" ], 1) ] -> ()
  | _ -> Alcotest.fail "heap context should list wrap then main"

let test_recorder_realloc_same_object () =
  let _, trace, _ =
    record
      {|int main() {
          int* p;
          p = malloc(8);
          p = realloc(p, 64);
          free(p);
          return 0; }|}
  in
  let heap_objs =
    Array.to_list (Trace.objects trace)
    |> List.filter (function Object_desc.Heap _ -> true | _ -> false)
  in
  Alcotest.(check int) "one heap object across realloc" 1 (List.length heap_objs);
  (* Its install count is 2 (original + post-realloc), remove count 2. *)
  let installs =
    count_events trace (function
      | Trace.Install { obj = Object_desc.Heap _; _ } -> true
      | _ -> false)
  in
  Alcotest.(check int) "two installs" 2 installs

let test_recorder_implicit_writes_excluded () =
  (* A function call writes ra/fp/params to the stack; none of those may
     appear as Write events. The only explicit stores here are g = ... *)
  let _, trace, _ =
    record
      {|int g;
        int f(int a, int b) { return a + b; }
        int main() { g = f(1, 2); return 0; }|}
  in
  let s = Trace.stats trace in
  Alcotest.(check int) "only the global store traced" 1 s.Trace.writes

let test_recorder_statics_installed_once () =
  let _, trace, _ =
    record
      {|int f() { static int n; n = n + 1; return n; }
        int main() { f(); f(); f(); return 0; }|}
  in
  let static_installs =
    count_events trace (function
      | Trace.Install { obj = Object_desc.Local_static { func = "f"; var = "n" }; _ } ->
          true
      | _ -> false)
  in
  Alcotest.(check int) "static installed once, not per call" 1 static_installs

let test_recorder_writes_have_pcs () =
  let _, trace, _ = record "int g; int main() { g = 1; g = 2; return 0; }" in
  Trace.iter trace (function
    | Trace.Write { pc; _ } ->
        if pc < 0 then Alcotest.fail "write without a pc"
    | Trace.Install _ | Trace.Remove _ -> ())

let test_recorder_globals_installed () =
  let _, trace, _ = record "int a; int b[5]; int main() { a = 1; return 0; }" in
  let globals =
    Array.to_list (Trace.objects trace)
    |> List.filter_map (function
         | Object_desc.Global { var } -> Some var
         | _ -> None)
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "both globals" [ "a"; "b" ] globals


let test_recorder_exit_mid_chain () =
  (* exit() three frames deep leaves activations live; finish must emit
     their removes so installs and removes still balance. *)
  let _, trace, _ =
    record
      {|int f(int n) {
          int x;
          x = n;
          if (n == 0) { exit(5); }
          return f(n - 1);
        }
        int main() { f(3); print_int(999); return 0; }|}
  in
  let s = Trace.stats trace in
  Alcotest.(check int) "balanced despite exit" s.Trace.installs s.Trace.removes;
  Alcotest.(check bool) "several activations traced" true (s.Trace.installs >= 4)

let test_recorder_leaked_heap_removed_at_finish () =
  let _, trace, _ =
    record "int main() { int* p; p = malloc(16); p[0] = 1; return 0; }"
  in
  let s = Trace.stats trace in
  Alcotest.(check int) "leak still balanced" s.Trace.installs s.Trace.removes

let () =
  Alcotest.run "trace"
    [
      ( "object_desc",
        [
          Alcotest.test_case "string roundtrip" `Quick test_desc_string_roundtrip;
          Alcotest.test_case "site" `Quick test_desc_site;
          Alcotest.test_case "bad strings" `Quick test_desc_bad_strings;
        ] );
      ( "storage",
        [
          Alcotest.test_case "build/get" `Quick test_trace_build_and_get;
          Alcotest.test_case "interning" `Quick test_trace_interning;
          Alcotest.test_case "stats" `Quick test_trace_stats;
          Alcotest.test_case "iter_raw" `Quick test_trace_iter_raw;
          Alcotest.test_case "many events" `Quick test_trace_many_events;
          Alcotest.test_case "equality" `Quick test_trace_equal;
        ] );
      ( "codecs",
        [
          Alcotest.test_case "binary roundtrip" `Quick test_trace_binary_roundtrip;
          Alcotest.test_case "binary garbage" `Quick test_trace_binary_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
          Alcotest.test_case "extreme values" `Quick test_codec_extreme_values;
          Alcotest.test_case "malformed inputs" `Quick test_codec_malformed;
          Alcotest.test_case "mutation fuzz" `Quick test_codec_mutation_fuzz;
          Alcotest.test_case "raw adders equivalent" `Quick
            test_codec_raw_adders_equivalent;
          Alcotest.test_case "builder hint" `Quick test_builder_hint;
          Alcotest.test_case "compactness" `Quick test_codec_compact;
        ] );
      ( "columnar",
        [
          Alcotest.test_case "roundtrip" `Quick test_columnar_roundtrip;
          Alcotest.test_case "malformed inputs" `Quick test_columnar_malformed;
          Alcotest.test_case "bit flips detected" `Quick
            test_columnar_bitflips_detected;
          Alcotest.test_case "mmap load" `Quick test_columnar_map;
          Alcotest.test_case "verified load" `Quick test_columnar_map_verify;
          Alcotest.test_case "map rejects damage" `Quick
            test_columnar_map_rejects_damage;
          Alcotest.test_case "mapped block skipping" `Quick
            test_columnar_mapped_skipping;
          QCheck_alcotest.to_alcotest prop_forms_agree;
          Alcotest.test_case "byte counters" `Quick test_columnar_byte_counters;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "balanced installs" `Quick test_recorder_balanced_installs;
          Alcotest.test_case "local instantiations" `Quick
            test_recorder_local_instantiations;
          Alcotest.test_case "heap context" `Quick test_recorder_heap_context;
          Alcotest.test_case "realloc identity" `Quick test_recorder_realloc_same_object;
          Alcotest.test_case "implicit writes excluded" `Quick
            test_recorder_implicit_writes_excluded;
          Alcotest.test_case "statics once" `Quick test_recorder_statics_installed_once;
          Alcotest.test_case "write pcs" `Quick test_recorder_writes_have_pcs;
          Alcotest.test_case "globals installed" `Quick test_recorder_globals_installed;
          Alcotest.test_case "exit mid-chain" `Quick test_recorder_exit_mid_chain;
          Alcotest.test_case "leaked heap removed" `Quick
            test_recorder_leaked_heap_removed_at_finish;
        ] );
    ]
