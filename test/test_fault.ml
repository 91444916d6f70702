(* Tests for the fault-injection harness (Ebp_util.Fault) and the
   corruption hardening it exercises: CRC-32 sealing of trace-cache
   entries, detection of arbitrary bit flips and truncations, quarantine
   semantics, store retries, and the cache-directory integrity scan. *)

module Fault = Ebp_util.Fault
module Crc32 = Ebp_util.Crc32
module Interval = Ebp_util.Interval
module Object_desc = Ebp_trace.Object_desc
module Trace = Ebp_trace.Trace
module Write_index = Ebp_trace.Write_index
module Trace_cache = Ebp_trace.Trace_cache

let iv lo hi = Interval.make ~lo ~hi

(* Every test leaves the global fault registry disabled. *)
let with_rules ?seed rules f =
  Fault.configure ?seed rules;
  Fun.protect ~finally:Fault.reset f

let rule pattern trigger action = { Fault.pattern; trigger; action }

(* --- Crc32 --- *)

let test_crc32_known_values () =
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  (* The standard CRC-32 check value. *)
  Alcotest.(check int) "123456789" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "sub window agrees" (Crc32.string "456")
    (Crc32.sub "123456789" ~pos:3 ~len:3);
  Alcotest.check_raises "bad window" (Invalid_argument "Crc32.sub") (fun () ->
      ignore (Crc32.sub "abc" ~pos:2 ~len:2))

(* The byte-at-a-time table CRC, kept here as the reference the sliced
   implementation must match bit for bit. *)
let reference_crc s ~pos ~len =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* Every start offset 0-7 crossed with every length 0-64 covers each
   alignment of the eight-byte step and each tail length; one multi-MB
   buffer covers the long steady loop. *)
let test_crc32_matches_reference () =
  let prng = Ebp_util.Prng.create 32 in
  let random n = String.init n (fun _ -> Char.chr (Ebp_util.Prng.int prng 256)) in
  let small = random 80 in
  for pos = 0 to 7 do
    for len = 0 to 64 do
      Alcotest.(check int)
        (Printf.sprintf "pos=%d len=%d" pos len)
        (reference_crc small ~pos ~len)
        (Crc32.sub small ~pos ~len)
    done
  done;
  let big = random (3 * 1024 * 1024 + 5) in
  Alcotest.(check int) "3 MB buffer"
    (reference_crc big ~pos:0 ~len:(String.length big))
    (Crc32.string big);
  Alcotest.(check int) "3 MB buffer, odd window"
    (reference_crc big ~pos:3 ~len:(String.length big - 4))
    (Crc32.sub big ~pos:3 ~len:(String.length big - 4))

let test_crc32_sensitivity () =
  let base = Crc32.string "the quick brown fox" in
  Alcotest.(check bool) "one-byte change detected" false
    (base = Crc32.string "the quick brown foy");
  Alcotest.(check bool) "truncation detected" false
    (base = Crc32.string "the quick brown fo")

(* --- Fault primitives --- *)

let test_fault_disabled_is_noop () =
  let p = Fault.point "t.disabled" in
  Fault.reset ();
  Alcotest.(check bool) "inactive" false (Fault.active ());
  Alcotest.(check bool) "no action" true (Fault.fires p = None);
  Fault.check p;
  Alcotest.(check string) "mangle passes through" "data" (Fault.mangle p "data")

let test_fault_nth_fires_exactly_once () =
  let p = Fault.point "t.nth" in
  with_rules [ rule "t.nth" (Fault.Nth 2) Fault.Fail ] (fun () ->
      Fault.check p;
      Alcotest.check_raises "second evaluation fires"
        (Fault.Injected "t.nth") (fun () -> Fault.check p);
      Fault.check p)

let test_fault_glob_patterns () =
  let inside = Fault.point "t.glob.inner" in
  let outside = Fault.point "t.other" in
  with_rules [ rule "t.glob.*" Fault.Always Fault.Fail ] (fun () ->
      Alcotest.(check bool) "prefix glob matches" true
        (Fault.fires inside <> None);
      Alcotest.(check bool) "non-matching point untouched" true
        (Fault.fires outside = None));
  with_rules [ rule "*" Fault.Always Fault.Fail ] (fun () ->
      Alcotest.(check bool) "bare star matches everything" true
        (Fault.fires outside <> None))

let test_fault_probability_deterministic () =
  let p = Fault.point "t.prob" in
  let count () =
    let n = ref 0 in
    for _ = 1 to 200 do
      if Fault.fires p <> None then incr n
    done;
    !n
  in
  let a =
    with_rules ~seed:11 [ rule "t.prob" (Fault.Probability 0.5) Fault.Fail ] count
  in
  let b =
    with_rules ~seed:11 [ rule "t.prob" (Fault.Probability 0.5) Fault.Fail ] count
  in
  Alcotest.(check int) "same seed, same firings" a b;
  Alcotest.(check bool) "roughly half fire" true (a > 50 && a < 150)

let test_fault_mangle_bitflip () =
  let p = Fault.point "t.flip" in
  with_rules [ rule "t.flip" Fault.Always Fault.Bit_flip ] (fun () ->
      let data = "hello, fault world" in
      let mangled = Fault.mangle p data in
      Alcotest.(check int) "length preserved" (String.length data)
        (String.length mangled);
      let flipped_bits = ref 0 in
      String.iteri
        (fun i c ->
          let x = Char.code c lxor Char.code mangled.[i] in
          for b = 0 to 7 do
            if x land (1 lsl b) <> 0 then incr flipped_bits
          done)
        data;
      Alcotest.(check int) "exactly one bit flipped" 1 !flipped_bits)

let test_fault_mangle_truncate () =
  let p = Fault.point "t.trunc" in
  with_rules [ rule "t.trunc" Fault.Always Fault.Truncate ] (fun () ->
      let data = "0123456789abcdef" in
      let mangled = Fault.mangle p data in
      Alcotest.(check bool) "strictly shorter" true
        (String.length mangled < String.length data);
      Alcotest.(check string) "is a prefix"
        (String.sub data 0 (String.length mangled))
        mangled)

let test_fault_kill_raises_killed () =
  let p = Fault.point "t.kill" in
  with_rules [ rule "t.kill" Fault.Always Fault.Kill ] (fun () ->
      Alcotest.check_raises "check raises Killed" (Fault.Killed "t.kill")
        (fun () -> Fault.check p);
      Alcotest.check_raises "mangle raises Killed" (Fault.Killed "t.kill")
        (fun () -> ignore (Fault.mangle p "data")))

let test_fault_configure_rebinds_and_resets () =
  let p = Fault.point "t.rebind" in
  with_rules [ rule "t.rebind" (Fault.Nth 1) Fault.Fail ] (fun () ->
      Alcotest.check_raises "first eval fires" (Fault.Injected "t.rebind")
        (fun () -> Fault.check p);
      (* Reconfiguring resets evaluation counts: Nth 1 fires again. *)
      Fault.configure [ rule "t.rebind" (Fault.Nth 1) Fault.Fail ];
      Alcotest.check_raises "fires again after reconfigure"
        (Fault.Injected "t.rebind") (fun () -> Fault.check p));
  Alcotest.(check bool) "reset disables" false (Fault.active ())

(* --- spec parsing --- *)

let test_spec_parsing () =
  (match Fault.parse_spec "seed=5; trace_cache.*:p=0.25:bitflip, loader.run:nth=3:kill" with
  | Error msg -> Alcotest.fail msg
  | Ok (seed, rules) ->
      Alcotest.(check int) "seed" 5 seed;
      Alcotest.(check int) "two rules" 2 (List.length rules);
      match rules with
      | [ a; b ] ->
          Alcotest.(check string) "first pattern" "trace_cache.*" a.Fault.pattern;
          Alcotest.(check bool) "first trigger" true
            (a.Fault.trigger = Fault.Probability 0.25);
          Alcotest.(check bool) "first action" true (a.Fault.action = Fault.Bit_flip);
          Alcotest.(check bool) "second rule" true
            (b.Fault.trigger = Fault.Nth 3 && b.Fault.action = Fault.Kill)
      | _ -> Alcotest.fail "rule shape");
  (match Fault.parse_spec "a:always:fail" with
  | Ok (0, [ r ]) ->
      Alcotest.(check bool) "always/fail" true
        (r.Fault.trigger = Fault.Always && r.Fault.action = Fault.Fail)
  | _ -> Alcotest.fail "single clause");
  List.iter
    (fun bad ->
      match Fault.parse_spec bad with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" bad
      | Error _ -> ())
    [
      "nonsense"; "a:b"; "a:nth=0:fail"; "a:nth=x:fail"; "a:p=2:fail";
      "a:p=x:fail"; "a:always:explode"; "seed=abc"; "a:b:c:d";
    ]

(* --- sealed cache entries --- *)

let small_trace () =
  let b = Trace.Builder.create () in
  let g = Object_desc.Global { var = "g" } in
  let h = Object_desc.Heap { context = [ "main" ]; seq = 1 } in
  Trace.Builder.add_install b g (iv 100 103);
  for i = 0 to 19 do
    Trace.Builder.add_write b (iv (100 + (4 * (i mod 3))) (103 + (4 * (i mod 3)))) ~pc:i
  done;
  Trace.Builder.add_install b h (iv 4096 4127);
  Trace.Builder.add_write b (iv 4100 4103) ~pc:77;
  Trace.Builder.add_remove b h (iv 4096 4127);
  Trace.Builder.add_remove b g (iv 100 103);
  Trace.Builder.finish b

let with_temp_cache_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ebp-fault-test-%d-%d" (Unix.getpid ())
         (Random.int 100000))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let store_exn ~dir ~key trace =
  match Trace_cache.store ~dir ~key trace with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("store: " ^ msg)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_raw path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let entry_path dir key = Filename.concat dir (key ^ ".ebpt3")

let flip s i bit =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
  Bytes.unsafe_to_string b

(* Put [data] in place of the entry at [path], run [f], then restore the
   pristine entry (dropping any quarantined corpse). *)
let with_damaged ~path ~original data f =
  write_raw path data;
  Fun.protect f ~finally:(fun () ->
      let corpse = path ^ ".corrupt" in
      if Sys.file_exists corpse then Sys.remove corpse;
      write_raw path original)

(* Fault injection active, nothing firing: every lookup checks the CRC. *)
let with_checked_lookups f =
  with_rules [ rule "test.never.evaluated" Fault.Always Fault.Fail ] f

(* Any single bit flip anywhere in a stored entry — header, meta, object
   table, summaries, columns, trailer — is caught by the full check:
   [verify] reports it, and a lookup under fault injection (which checks
   the CRC) misses instead of decoding different events. The mapped fast
   path checks structure, not the payload CRC, so plain lookups are held
   to what structure covers: every flip in the header and in the
   trailer's magic and zero half, and every flip in the w0 column that
   leaves a word ill-formed. The header's two install-bound words are
   the exception: the mapping does not trust them (it derives the bounds
   from the events), so a flip there that keeps the word in range serves
   the same trace with the same bounds. *)
let test_every_bitflip_detected () =
  with_temp_cache_dir (fun dir ->
      let key = Trace_cache.make_key ~name:"flip" ~source:"s" ~seed:1 () in
      let trace = small_trace () in
      store_exn ~dir ~key trace;
      let path = entry_path dir key in
      let original = read_file path in
      let len = String.length original in
      let damaged i bit f = with_damaged ~path ~original (flip original i bit) f in
      for i = 0 to len - 1 do
        for bit = 0 to 7 do
          damaged i bit (fun () ->
              if (Trace_cache.verify ~quarantine:false ~dir ()).Trace_cache.corrupt
                 = []
              then Alcotest.failf "verify missed bit %d of byte %d/%d" bit i len;
              with_checked_lookups (fun () ->
                  if Trace_cache.lookup ~dir ~key <> None then
                    Alcotest.failf "checked lookup served bit %d of byte %d/%d"
                      bit i len))
        done
      done;
      let plain_miss what i bit =
        damaged i bit (fun () ->
            if Trace_cache.lookup ~dir ~key <> None then
              Alcotest.failf "plain lookup served a flip of bit %d of %s byte %d"
                bit what i)
      in
      let bounds =
        Trace.install_bounds (fst (Option.get (Trace_cache.lookup ~dir ~key)))
      in
      for i = 0 to 71 do
        for bit = 0 to 7 do
          if i < 56 then plain_miss "header" i bit
          else
            damaged i bit (fun () ->
                match Trace_cache.lookup ~dir ~key with
                | None -> ()
                | Some (t, _)
                  when Trace.equal t trace && Trace.install_bounds t = bounds ->
                    ()
                | Some _ ->
                    Alcotest.failf
                      "install-bound flip (bit %d of byte %d) changed the load"
                      bit i)
        done
      done;
      (* The trailer: "EBPZ", then the CRC-32 in the low half of an
         8-byte field whose high half must be zero. *)
      List.iter
        (fun i -> for bit = 0 to 7 do plain_miss "trailer" i bit done)
        [ len - 12; len - 11; len - 10; len - 9; len - 4; len - 3; len - 2; len - 1 ];
      let n = Trace.length trace and nobjs = Trace.object_count trace in
      let w0_off = len - 12 - (8 * 4 * n) in
      for e = 0 to n - 1 do
        let w =
          Trace.get_raw trace e (fun ~tag ~obj ~lo:_ ~hi:_ ~pc:_ ->
              if tag = 2 then 2 else (obj lsl 2) lor tag)
        in
        for bit = 0 to 62 do
          let w' = w lxor (1 lsl bit) in
          (* An install read as a remove, or one in-range object read as
             another, is well-formed: only the CRC sees it. *)
          let well_formed = w <> 2 && w' land 3 <= 1 && w' lsr 2 < nobjs in
          if not well_formed then
            plain_miss "w0" (w0_off + (8 * e) + (bit / 8)) (bit mod 8)
        done
      done;
      Alcotest.(check bool) "pristine entry still hits" true
        (Trace_cache.lookup ~dir ~key <> None))

let test_every_truncation_detected () =
  with_temp_cache_dir (fun dir ->
      let key = Trace_cache.make_key ~name:"cut" ~source:"s" ~seed:2 () in
      store_exn ~dir ~key (small_trace ());
      let path = entry_path dir key in
      let original = read_file path in
      let len = String.length original in
      for cut = 0 to len - 1 do
        with_damaged ~path ~original (String.sub original 0 cut) (fun () ->
            match Trace_cache.lookup ~dir ~key with
            | None -> ()
            | Some _ -> Alcotest.failf "truncation to %d/%d not detected" cut len)
      done)

let test_quarantine_semantics () =
  with_temp_cache_dir (fun dir ->
      let key = Trace_cache.make_key ~name:"q" ~source:"s" ~seed:3 () in
      let trace = small_trace () in
      store_exn ~dir ~key trace;
      let path = entry_path dir key in
      let data = read_file path in
      write_raw path (String.sub data 0 (String.length data - 4));
      let logged = ref [] in
      Trace_cache.set_quarantine_log (fun ~file ~reason ->
          logged := (file, reason) :: !logged);
      Fun.protect
        ~finally:(fun () ->
          Trace_cache.set_quarantine_log (fun ~file:_ ~reason:_ -> ()))
        (fun () ->
          Alcotest.(check bool) "corrupt entry is a miss" true
            (Trace_cache.lookup ~dir ~key = None);
          Alcotest.(check bool) "quarantine hook fired" true
            (List.mem_assoc (key ^ ".ebpt3") !logged);
          Alcotest.(check bool) "renamed aside" true
            (Sys.file_exists (path ^ ".corrupt") && not (Sys.file_exists path));
          let kinds =
            List.map
              (fun e -> e.Trace_cache.entry_kind)
              (Trace_cache.entries ~dir)
          in
          Alcotest.(check bool) "classified as corrupt" true
            (List.mem Trace_cache.Corrupt_entry kinds);
          (* Graceful fallback: re-storing under the same key recovers. *)
          store_exn ~dir ~key trace;
          Alcotest.(check bool) "re-recorded entry hits" true
            (Trace_cache.lookup ~dir ~key <> None);
          (* GC reclaims the corpse before touching live entries. *)
          let removed, _ = Trace_cache.gc ~dir ~max_bytes:max_int in
          Alcotest.(check int) "gc removed the corpse" 1 removed;
          Alcotest.(check bool) "live entry survived gc" true
            (Trace_cache.lookup ~dir ~key <> None)))

let test_store_retries_transient_fault () =
  with_temp_cache_dir (fun dir ->
      let key = Trace_cache.make_key ~name:"retry" ~source:"s" ~seed:4 () in
      with_rules
        [ rule "trace_cache.store.io" (Fault.Nth 1) Fault.Fail ]
        (fun () -> store_exn ~dir ~key (small_trace ()));
      Alcotest.(check bool) "entry landed despite the fault" true
        (Trace_cache.lookup ~dir ~key <> None))

let test_store_gives_up_on_persistent_fault () =
  with_temp_cache_dir (fun dir ->
      let key = Trace_cache.make_key ~name:"give-up" ~source:"s" ~seed:5 () in
      with_rules
        [ rule "trace_cache.store.io" Fault.Always Fault.Fail ]
        (fun () ->
          match Trace_cache.store ~dir ~key (small_trace ()) with
          | Ok () -> Alcotest.fail "store succeeded under a persistent fault"
          | Error msg ->
              Alcotest.(check bool) "error names the point" true
                (String.length msg > 0)))

let test_lookup_transient_fault_is_plain_miss () =
  with_temp_cache_dir (fun dir ->
      let key = Trace_cache.make_key ~name:"transient" ~source:"s" ~seed:6 () in
      store_exn ~dir ~key (small_trace ());
      with_rules
        [ rule "trace_cache.lookup.data" (Fault.Nth 1) Fault.Fail ]
        (fun () ->
          Alcotest.(check bool) "injected read fault is a miss" true
            (Trace_cache.lookup ~dir ~key = None);
          (* A transient fault must not destroy the (intact) entry. *)
          Alcotest.(check bool) "entry not quarantined" true
            (Sys.file_exists (entry_path dir key));
          Alcotest.(check bool) "next lookup hits" true
            (Trace_cache.lookup ~dir ~key <> None));
      (* The mapping's own transient fault point behaves the same: a
         plain miss, no quarantine. *)
      with_rules
        [ rule "trace.codec.map" (Fault.Nth 1) Fault.Fail ]
        (fun () ->
          Alcotest.(check bool) "injected map fault is a miss" true
            (Trace_cache.lookup ~dir ~key = None);
          Alcotest.(check bool) "entry not quarantined" true
            (Sys.file_exists (entry_path dir key));
          match Trace_cache.lookup ~dir ~key with
          | Some (t, _) ->
              Alcotest.(check bool) "next lookup maps the entry" true
                (Trace.is_mapped t)
          | None -> Alcotest.fail "next lookup should hit"))

let test_mangled_store_detected_on_lookup () =
  (* Corruption injected while writing (bit flip after sealing) must land
     on disk and then be caught on the way back in. While fault injection
     is active, lookups check the full payload CRC (the structural-only
     fast path is for production loads, where [ebp cache verify] is the
     backstop), so the lookup quarantines the mangled entry and misses. *)
  with_temp_cache_dir (fun dir ->
      let key = Trace_cache.make_key ~name:"mangled" ~source:"s" ~seed:7 () in
      with_rules
        [ rule "trace_cache.store.data" Fault.Always Fault.Bit_flip ]
        (fun () ->
          store_exn ~dir ~key (small_trace ());
          Alcotest.(check bool) "mangled entry is a miss, not bad data" true
            (Trace_cache.lookup ~dir ~key = None));
      Alcotest.(check bool) "entry quarantined" true
        (Sys.file_exists (entry_path dir key ^ ".corrupt")))

(* --- verify --- *)

let test_verify_scan () =
  with_temp_cache_dir (fun dir ->
      let trace = small_trace () in
      let k1 = Trace_cache.make_key ~name:"v1" ~source:"s" ~seed:8 () in
      let k2 = Trace_cache.make_key ~name:"v2" ~source:"s" ~seed:9 () in
      store_exn ~dir ~key:k1 trace;
      store_exn ~dir ~key:k2 trace;
      (match
         Trace_cache.store_index ~dir ~key:k1 ~page_sizes:[ 4096 ]
           (Write_index.build ~page_sizes:[ 4096 ] trace)
       with
      | Ok () -> ()
      | Error msg -> Alcotest.fail ("store_index: " ^ msg));
      let path = entry_path dir k2 in
      let data = read_file path in
      write_raw path (String.sub data 0 (String.length data / 2));
      (* Two traces and one index. *)
      let r = Trace_cache.verify ~quarantine:false ~dir () in
      Alcotest.(check int) "three entries checked" 3 r.Trace_cache.checked;
      Alcotest.(check int) "two intact" 2 r.Trace_cache.intact;
      Alcotest.(check (list string)) "the corrupt one is named"
        [ k2 ^ ".ebpt3" ]
        (List.map fst r.Trace_cache.corrupt);
      Alcotest.(check bool) "no-quarantine left the file" true
        (Sys.file_exists path);
      let r = Trace_cache.verify ~dir () in
      Alcotest.(check int) "still flagged" 1 (List.length r.Trace_cache.corrupt);
      Alcotest.(check bool) "now quarantined" true
        (Sys.file_exists (path ^ ".corrupt") && not (Sys.file_exists path));
      let r = Trace_cache.verify ~dir () in
      Alcotest.(check int) "corpses skipped on the next scan" 2
        r.Trace_cache.checked;
      Alcotest.(check (list string)) "clean report" []
        (List.map fst r.Trace_cache.corrupt))

let test_index_lookup_corruption_is_miss () =
  with_temp_cache_dir (fun dir ->
      let trace = small_trace () in
      let key = Trace_cache.make_key ~name:"widx" ~source:"s" ~seed:10 () in
      let index = Write_index.build ~page_sizes:[ 4096 ] trace in
      (match Trace_cache.store_index ~dir ~key ~page_sizes:[ 4096 ] index with
      | Ok () -> ()
      | Error msg -> Alcotest.fail ("store_index: " ^ msg));
      (match Trace_cache.lookup_index ~dir ~key ~page_sizes:[ 4096 ] with
      | Some back ->
          Alcotest.(check bool) "round-trips" true (Write_index.equal index back)
      | None -> Alcotest.fail "index lookup after store");
      let file =
        key ^ "." ^ Trace_cache.index_key ~key ~page_sizes:[ 4096 ] ^ ".widx"
      in
      let path = Filename.concat dir file in
      let data = read_file path in
      let b = Bytes.of_string data in
      Bytes.set b (String.length data / 2)
        (Char.chr (Char.code (Bytes.get b (String.length data / 2)) lxor 1));
      write_raw path (Bytes.unsafe_to_string b);
      Alcotest.(check bool) "corrupt index is a miss" true
        (Trace_cache.lookup_index ~dir ~key ~page_sizes:[ 4096 ] = None);
      Alcotest.(check bool) "and quarantined" true
        (Sys.file_exists (path ^ ".corrupt")))

let () =
  Alcotest.run "fault"
    [
      ( "crc32",
        [
          Alcotest.test_case "known values" `Quick test_crc32_known_values;
          Alcotest.test_case "sensitivity" `Quick test_crc32_sensitivity;
          Alcotest.test_case "matches the bytewise reference" `Quick
            test_crc32_matches_reference;
        ] );
      ( "fault points",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            test_fault_disabled_is_noop;
          Alcotest.test_case "nth fires exactly once" `Quick
            test_fault_nth_fires_exactly_once;
          Alcotest.test_case "glob patterns" `Quick test_fault_glob_patterns;
          Alcotest.test_case "probability is seeded" `Quick
            test_fault_probability_deterministic;
          Alcotest.test_case "bitflip flips one bit" `Quick
            test_fault_mangle_bitflip;
          Alcotest.test_case "truncate is a strict prefix" `Quick
            test_fault_mangle_truncate;
          Alcotest.test_case "kill raises Killed" `Quick
            test_fault_kill_raises_killed;
          Alcotest.test_case "configure rebinds and resets" `Quick
            test_fault_configure_rebinds_and_resets;
          Alcotest.test_case "spec parsing" `Quick test_spec_parsing;
        ] );
      ( "sealed entries",
        [
          Alcotest.test_case "every bit flip detected" `Quick
            test_every_bitflip_detected;
          Alcotest.test_case "every truncation detected" `Quick
            test_every_truncation_detected;
          Alcotest.test_case "quarantine semantics" `Quick
            test_quarantine_semantics;
          Alcotest.test_case "store retries transient faults" `Quick
            test_store_retries_transient_fault;
          Alcotest.test_case "store gives up eventually" `Quick
            test_store_gives_up_on_persistent_fault;
          Alcotest.test_case "transient lookup fault is a plain miss" `Quick
            test_lookup_transient_fault_is_plain_miss;
          Alcotest.test_case "mangled store caught on lookup" `Quick
            test_mangled_store_detected_on_lookup;
        ] );
      ( "verify",
        [
          Alcotest.test_case "integrity scan" `Quick test_verify_scan;
          Alcotest.test_case "corrupt index is a miss" `Quick
            test_index_lookup_corruption_is_miss;
        ] );
    ]
