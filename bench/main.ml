(* Benchmark harness: regenerates every table and figure of the paper and
   measures this host's analogues of the Table 2 / Appendix A primitives.

   Layout of the output:

   1. Bechamel micro-benchmarks (host-time analogues):
      - table2/*     SoftwareLookup and SoftwareUpdate on the paper's
                     page-hash-of-bitmaps structure, under the Appendix A.5
                     protocol (100 random monitors in a 2 MiB region,
                     precomputed random probes);
      - appendixA/*  fault-handler round-trips on the simulated machine:
                     VM write fault + emulation, trap dispatch, CodePatch
                     check, NativeHardware monitor-register hit;
      - ablation/*   the monitor-map ablation (DESIGN.md, decision 1):
                     page-hash bitmap vs naive interval list at 10/100/1000
                     active monitors.

   2. The full simulation experiment: Tables 1-4, Figures 7-9, the §8
      overhead breakdown and CodePatch code-expansion estimate.

   3. A live validation run: one debugging scenario executed under all four
      strategies, checking that hit counts agree and showing measured
      cycle overheads. *)

open Bechamel
module Interval = Ebp_util.Interval
module Prng = Ebp_util.Prng
module Machine = Ebp_machine.Machine
module Memory = Ebp_machine.Memory
module Monitor_map = Ebp_wms.Monitor_map
module Interval_map = Ebp_wms.Interval_map

(* --- Appendix A.5 working set: non-overlapping random monitors --- *)

let region_base = 0x100000
let region_size = 2 * 1024 * 1024 (* "a 2 megabyte contiguous memory region" *)

let working_monitor_set ~count ~seed =
  let prng = Prng.create seed in
  (* Partition the region into [count] equal chunks; place one random-size
     monitor in each so they never overlap. *)
  let chunk = region_size / count in
  Array.init count (fun i ->
      let base = region_base + (i * chunk) in
      let size = 4 * Prng.int_in prng ~lo:1 ~hi:(max 2 (chunk / 8)) in
      let off = 4 * Prng.int prng (max 1 ((chunk - size) / 4)) in
      Interval.of_base_size ~base:(base + off) ~size)

let random_probes ~count ~seed =
  let prng = Prng.create seed in
  Array.init count (fun _ ->
      let lo = region_base + (4 * Prng.int prng (region_size / 4)) in
      Interval.of_base_size ~base:lo ~size:4)

(* --- table2 group --- *)

let lookup_test name structure =
  let monitors = working_monitor_set ~count:100 ~seed:1 in
  let probes = random_probes ~count:4096 ~seed:2 in
  let overlaps =
    match structure with
    | `Bitmap ->
        let m = Monitor_map.create () in
        Array.iter (Monitor_map.install m) monitors;
        Monitor_map.overlaps m
    | `Intervals ->
        let m = Interval_map.create () in
        Array.iter (Interval_map.install m) monitors;
        Interval_map.overlaps m
  in
  let i = ref 0 in
  Test.make ~name
    (Staged.stage (fun () ->
         let probe = probes.(!i land 4095) in
         incr i;
         ignore (overlaps probe : bool)))

let update_test name structure =
  let monitors = working_monitor_set ~count:100 ~seed:3 in
  let install, remove =
    match structure with
    | `Bitmap ->
        let m = Monitor_map.create () in
        (Monitor_map.install m, fun r -> Monitor_map.remove m r)
    | `Intervals ->
        let m = Interval_map.create () in
        (Interval_map.install m, fun r -> ignore (Interval_map.remove m r))
  in
  let i = ref 0 in
  (* Alternate install/remove of the same monitor: one "update". *)
  Test.make ~name
    (Staged.stage (fun () ->
         let monitor = monitors.(!i mod 100) in
         incr i;
         install monitor;
         remove monitor))

let table2_group =
  Test.make_grouped ~name:"table2"
    [ lookup_test "software_lookup" `Bitmap; update_test "software_update" `Bitmap ]

(* --- appendixA group: fault round-trips on the machine --- *)

let assemble src =
  match Ebp_isa.Asm.parse_resolved src with
  | Ok p -> p
  | Error e -> failwith ("bench assembly: " ^ e)

(* One store to a protected page; the handler emulates it (A.2). *)
let vm_fault_test =
  let p = assemble "  li t0, 7\n  li t1, 1048576\n  sw t0, 0(t1)\n  halt\n" in
  let m = Machine.create p in
  Memory.protect (Machine.memory m) ~page:(Memory.page_of (Machine.memory m) 0x100000)
    Memory.Read_only;
  Machine.set_write_fault_handler m
    (Some
       (fun m ~addr ~width:_ ~value ~pc:_ ->
         Memory.privileged_store_word (Machine.memory m) addr value));
  (* Execute the two li's once so registers are primed. *)
  ignore (Machine.step m);
  ignore (Machine.step m);
  Test.make ~name:"vm_fault_roundtrip"
    (Staged.stage (fun () ->
         Machine.set_pc m 2;
         ignore (Machine.step m)))

(* Trap dispatch + handler return (A.4). *)
let trap_test =
  let p = assemble "  trap 3\n  halt\n" in
  let m = Machine.create p in
  Machine.set_trap_handler m (Some (fun _ ~code:_ ~trap_pc:_ -> ()));
  Test.make ~name:"trap_roundtrip"
    (Staged.stage (fun () ->
         Machine.set_pc m 0;
         ignore (Machine.step m)))

(* CodePatch check against the 100-monitor working set. *)
let chk_test =
  let p = assemble "  li t1, 1048576\n  chk 0(t1), 4\n  halt\n" in
  let m = Machine.create p in
  let map = Monitor_map.create () in
  Array.iter (Monitor_map.install map) (working_monitor_set ~count:100 ~seed:4);
  Machine.set_chk_handler m
    (Some (fun _ ~range ~pc:_ -> ignore (Monitor_map.overlaps map range : bool)));
  ignore (Machine.step m);
  Test.make ~name:"codepatch_check"
    (Staged.stage (fun () ->
         Machine.set_pc m 1;
         ignore (Machine.step m)))

(* NativeHardware: store hitting a monitor register (A.1). *)
let nh_test =
  let p = assemble "  li t0, 7\n  li t1, 1048576\n  sw t0, 0(t1)\n  halt\n" in
  let m = Machine.create p in
  Machine.set_monitor_reg m 0 (Some (Interval.make ~lo:0x100000 ~hi:0x100003));
  Machine.set_monitor_fault_handler m
    (Some (fun _ ~reg:_ ~addr:_ ~width:_ ~pc:_ -> ()));
  ignore (Machine.step m);
  ignore (Machine.step m);
  Test.make ~name:"nh_monitor_hit"
    (Staged.stage (fun () ->
         Machine.set_pc m 2;
         ignore (Machine.step m)))

let appendix_a_group =
  Test.make_grouped ~name:"appendixA" [ vm_fault_test; trap_test; chk_test; nh_test ]

(* --- ablation group: bitmap vs interval list as monitor count grows --- *)

let ablation_group =
  let sizes = [ 10; 100; 1000 ] in
  let mk structure label =
    List.map
      (fun n ->
        let monitors = working_monitor_set ~count:n ~seed:(n + 7) in
        let probes = random_probes ~count:4096 ~seed:(n + 8) in
        let overlaps =
          match structure with
          | `Bitmap ->
              let m = Monitor_map.create () in
              Array.iter (Monitor_map.install m) monitors;
              Monitor_map.overlaps m
          | `Intervals ->
              let m = Interval_map.create () in
              Array.iter (Interval_map.install m) monitors;
              Interval_map.overlaps m
        in
        let i = ref 0 in
        Test.make
          ~name:(Printf.sprintf "%s_lookup_%d" label n)
          (Staged.stage (fun () ->
               let probe = probes.(!i land 4095) in
               incr i;
               ignore (overlaps probe : bool))))
      sizes
  in
  Test.make_grouped ~name:"ablation"
    (mk `Bitmap "bitmap" @ mk `Intervals "interval_list")

(* --- bechamel driver --- *)

let run_benchmarks () =
  let tests =
    Test.make_grouped ~name:"ebp" [ table2_group; appendix_a_group; ablation_group ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with Some (t :: _) -> t | _ -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) !rows in
  print_endline "Micro-benchmarks (host time per operation)";
  print_string
    (Ebp_util.Text_table.render
       ~header:[ "benchmark"; "ns/op" ]
       ~rows:(List.map (fun (n, ns) -> [ n; Printf.sprintf "%.1f" ns ]) rows)
       ());
  print_newline ()

(* --- live validation --- *)

let validation_src =
  {|
int buckets[64];
int main() {
  int i;
  int h;
  srand(5);
  for (i = 0; i < 500; i = i + 1) {
    h = rand(64);
    buckets[h] = buckets[h] + 1;
  }
  return 0;
}
|}

let run_validation () =
  print_endline "Validation: one session, five live strategies (must agree)";
  let compiled =
    match Ebp_lang.Compiler.compile validation_src with
    | Ok c -> c
    | Error e -> failwith e
  in
  let base =
    let r = Ebp_runtime.Loader.run (Ebp_runtime.Loader.load compiled) in
    r.Ebp_runtime.Loader.cycles
  in
  let rows =
    List.map
      (fun kind ->
        let dbg = Ebp_core.Debugger.load ~strategy:kind compiled in
        (match Ebp_core.Debugger.watch_global dbg "buckets" with
        | Ok () -> ()
        | Error e -> failwith e);
        ignore (Ebp_core.Debugger.run dbg);
        [
          Ebp_core.Debugger.strategy_name kind;
          string_of_int (List.length (Ebp_core.Debugger.hits dbg));
          Printf.sprintf "%.1fx"
            (float_of_int (Ebp_core.Debugger.cycles dbg) /. float_of_int base);
        ])
      [ Ebp_core.Debugger.Native_hardware; Ebp_core.Debugger.Virtual_memory;
        Ebp_core.Debugger.Trap_patch; Ebp_core.Debugger.Code_patch;
        Ebp_core.Debugger.Virtual_breakpoint ]
  in
  print_string
    (Ebp_util.Text_table.render ~header:[ "strategy"; "hits"; "cycle overhead" ]
       ~rows ());
  print_newline ()

(* --- CP hoisting ablation (paper §9's proposed optimization) --- *)

let run_hoisting_ablation () =
  print_endline
    "CodePatch implementations (Section 9): modeled check vs loop-hoisted vs\n\
     real in-memory check code, one quiet global watched per workload";
  let watched_global (w : Ebp_workloads.Workload.t) =
    match w.Ebp_workloads.Workload.name with
    | "typeset" -> "total_lines"
    | "lattice" -> "sweep_count"
    | "compiler" -> "node_count"
    | "circuit" -> "steps_done"
    | _ -> "expansions"
  in
  let cycles_under kind (w : Ebp_workloads.Workload.t) =
    let dbg =
      match
        Ebp_core.Debugger.load_source ~strategy:kind
          ~seed:w.Ebp_workloads.Workload.seed w.Ebp_workloads.Workload.source
      with
      | Ok d -> d
      | Error e -> failwith e
    in
    (match Ebp_core.Debugger.watch_global dbg (watched_global w) with
    | Ok () -> ()
    | Error e -> failwith e);
    ignore (Ebp_core.Debugger.run dbg);
    (Ebp_core.Debugger.cycles dbg, List.length (Ebp_core.Debugger.hits dbg))
  in
  let rows =
    List.map
      (fun w ->
        let cp, cp_hits = cycles_under Ebp_core.Debugger.Code_patch w in
        let hcp, hcp_hits = cycles_under Ebp_core.Debugger.Code_patch_hoisted w in
        let icp, icp_hits = cycles_under Ebp_core.Debugger.Code_patch_inline w in
        assert (cp_hits = hcp_hits && cp_hits = icp_hits);
        [
          w.Ebp_workloads.Workload.name;
          string_of_int cp_hits;
          string_of_int cp;
          string_of_int hcp;
          Printf.sprintf "%.1f%%" (100.0 *. (1.0 -. (float_of_int hcp /. float_of_int cp)));
          string_of_int icp;
          Printf.sprintf "%.1f%%" (100.0 *. (1.0 -. (float_of_int icp /. float_of_int cp)));
        ])
      Ebp_workloads.Workload.all
  in
  print_string
    (Ebp_util.Text_table.render
       ~header:
         [ "workload"; "hits"; "CP cycles"; "+hoist"; "hoist saves";
           "inline"; "inline saves" ]
       ~rows ());
  print_newline ()

(* --- parallel experiment engine: sequential vs sharded phase-2 replay --- *)

let wall_ms f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, 1000.0 *. (Unix.gettimeofday () -. t0))

(* --- machine-readable output (--json FILE) --- *)

module Json = Ebp_obs.Json

(* Rows accumulated by the phase-1 and replay-engine sections; written as
   one JSON object at the end of the run so CI can archive the perf
   trajectory (BENCH_CI.json artifact). *)
let json_phase1 : Json.t list ref = ref []
let json_phase2 : Json.t list ref = ref []
let json_store : Json.t list ref = ref []
let json_query : Json.t list ref = ref []
let json_vb : Json.t list ref = ref []

(* Single object, not a row list: the streaming pipeline section measures
   one big run from several angles (bounded memory, first answer,
   checkpoint restart) and CI asserts on the named fields. *)
let json_streaming : Json.t ref = ref (Json.Obj [])

let write_json_file path =
  let j =
    Json.Obj
      [
        ("schema", Json.Str "ebp-bench/v1");
        ("phase1", Json.List (List.rev !json_phase1));
        ("phase2", Json.List (List.rev !json_phase2));
        ("store", Json.List (List.rev !json_store));
        ("query", Json.List (List.rev !json_query));
        ("vb", Json.List (List.rev !json_vb));
        ("streaming", !json_streaming);
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string j);
      output_char oc '\n')

(* Run one bench section with the observability subsystem enabled and
   dump what it accumulated right after the section's own output. The
   counters are reset per section, so e.g. the cold-cache experiment and
   the warm-cache parallel engine each show their own trace_cache
   hit/miss picture. *)
let with_section_metrics name f =
  Ebp_obs.Metrics.reset ();
  Ebp_obs.Span.reset ();
  Ebp_obs.Metrics.set_enabled true;
  let finish () =
    Ebp_obs.Metrics.set_enabled false;
    Printf.printf "--- metrics: %s ---\n" name;
    print_string (Ebp_util.Obs_report.render (Ebp_obs.Metrics.snapshot ()));
    print_newline ()
  in
  Fun.protect ~finally:finish f

let run_parallel_engine (t : Ebp_core.Experiment.t) ~workloads ~cache_dir
    ~seq_report =
  let module Replay = Ebp_sessions.Replay in
  let module Discovery = Ebp_sessions.Discovery in
  Printf.printf
    "Parallel engine: phase-2 replay sharded over domains (host has %d)\n"
    (Domain.recommended_domain_count ());
  let totals = Array.make 3 0.0 in
  let rows =
    List.map
      (fun pd ->
        let trace = pd.Ebp_core.Experiment.run.Ebp_workloads.Workload.trace in
        let sessions = Discovery.discover trace in
        let seq, seq_ms = wall_ms (fun () -> Replay.replay_all trace sessions) in
        let par2, ms2 =
          wall_ms (fun () -> Replay.replay_all ~domains:2 trace sessions)
        in
        let par4, ms4 =
          wall_ms (fun () -> Replay.replay_all ~domains:4 trace sessions)
        in
        let identical = par2 = seq && par4 = seq in
        totals.(0) <- totals.(0) +. seq_ms;
        totals.(1) <- totals.(1) +. ms2;
        totals.(2) <- totals.(2) +. ms4;
        [
          pd.Ebp_core.Experiment.run.Ebp_workloads.Workload.workload
            .Ebp_workloads.Workload.name;
          string_of_int (List.length sessions);
          string_of_int (Ebp_trace.Trace.length trace);
          Printf.sprintf "%.0f" seq_ms;
          Printf.sprintf "%.0f" ms2;
          Printf.sprintf "%.0f" ms4;
          Printf.sprintf "%.2fx" (seq_ms /. Float.min ms2 ms4);
          (if identical then "yes" else "NO");
        ])
      t.Ebp_core.Experiment.programs
  in
  let total_row =
    [
      "TOTAL"; ""; "";
      Printf.sprintf "%.0f" totals.(0);
      Printf.sprintf "%.0f" totals.(1);
      Printf.sprintf "%.0f" totals.(2);
      Printf.sprintf "%.2fx" (totals.(0) /. Float.min totals.(1) totals.(2));
      "";
    ]
  in
  print_string
    (Ebp_util.Text_table.render
       ~header:
         [ "workload"; "sessions"; "events"; "seq ms"; "2 domains ms";
           "4 domains ms"; "speedup"; "identical" ]
       ~rows:(rows @ [ total_row ]) ());
  Printf.printf
    "phase 2 speedup (sequential / best parallel, whole suite): %.2fx\n"
    (totals.(0) /. Float.min totals.(1) totals.(2));
  (* The whole engine, warm cache: phase 1 loads every trace from disk
     (zero machine execution) and phase 2 runs sharded. The reports must be
     byte-identical to the sequential engine's. *)
  let par_t, par_ms =
    wall_ms (fun () ->
        match Ebp_core.Experiment.run ~workloads ~domains:2 ~cache_dir () with
        | Ok t -> t
        | Error msg -> failwith ("parallel experiment: " ^ msg))
  in
  let executed =
    List.exists
      (fun pd ->
        pd.Ebp_core.Experiment.run.Ebp_workloads.Workload.result <> None)
      par_t.Ebp_core.Experiment.programs
  in
  Printf.printf
    "full experiment, 2 domains + warm trace cache: %.0f ms (phase-1 machine \
     execution: %s)\n"
    par_ms
    (if executed then "SOME -- cache miss!" else "none");
  let identical =
    String.equal (Ebp_core.Experiment.full_report par_t) seq_report
  in
  Printf.printf "parallel engine reports identical to sequential: %s\n"
    (if identical then "yes" else "NO");
  if not identical then begin
    prerr_endline "engine mismatch: parallel report differs from sequential";
    exit 1
  end;
  print_newline ()

(* --- phase 1: cold trace generation throughput + codec/cache I/O --- *)

let run_phase1 workloads =
  let module Workload = Ebp_workloads.Workload in
  let module Trace = Ebp_trace.Trace in
  let module Trace_cache = Ebp_trace.Trace_cache in
  print_endline
    "Phase 1: cold trace generation (predecoded interpreter), and the\n\
     trace cache's one-file EBPT3 entry: size and warm (mapped) load";
  let cache_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ebp-bench-phase1-%d" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists cache_dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat cache_dir f))
          (Sys.readdir cache_dir);
        Sys.rmdir cache_dir
      end)
    (fun () ->
      let rows =
        List.map
          (fun (w : Workload.t) ->
            Gc.compact ();
            let run, record_ms =
              wall_ms (fun () ->
                  match Workload.record w with
                  | Ok run -> run
                  | Error msg -> failwith ("phase-1 bench: " ^ msg))
            in
            let instructions =
              match run.Workload.result with
              | Some r -> r.Ebp_runtime.Loader.instructions
              | None -> 0
            in
            let events = Trace.length run.Workload.trace in
            let minstr_s = float_of_int instructions /. record_ms /. 1000.0 in
            let key = Workload.cache_key w in
            (match
               Trace_cache.store ~dir:cache_dir ~key run.Workload.trace
             with
            | Ok () -> ()
            | Error msg -> failwith ("phase-1 bench: cache store: " ^ msg));
            let entry_bytes =
              List.fold_left
                (fun acc (e : Trace_cache.entry) -> acc + e.Trace_cache.entry_bytes)
                0
                (Trace_cache.entries ~dir:cache_dir)
            in
            let bytes_per_event = float_of_int entry_bytes /. float_of_int events in
            Gc.compact ();
            let loaded, load_ms =
              wall_ms (fun () -> Trace_cache.lookup ~dir:cache_dir ~key)
            in
            (match loaded with
            | Some (t, _) when Trace.length t = events -> ()
            | Some _ -> failwith "phase-1 bench: warm load returned a different trace"
            | None -> failwith "phase-1 bench: warm load missed");
            (* One cache entry at a time keeps [entries] attribution exact. *)
            Trace_cache.clear ~dir:cache_dir |> ignore;
            json_phase1 :=
              Json.Obj
                [
                  ("workload", Json.Str w.Workload.name);
                  ("record_ms", Json.Float record_ms);
                  ("instructions", Json.Int instructions);
                  ("minstr_per_s", Json.Float minstr_s);
                  ("events", Json.Int events);
                  ("cache_entry_bytes", Json.Int entry_bytes);
                  ("bytes_per_event", Json.Float bytes_per_event);
                  ("warm_load_ms", Json.Float load_ms);
                ]
              :: !json_phase1;
            [
              w.Workload.name;
              Printf.sprintf "%.0f" record_ms;
              string_of_int instructions;
              Printf.sprintf "%.1f" minstr_s;
              string_of_int events;
              string_of_int entry_bytes;
              Printf.sprintf "%.1f" bytes_per_event;
              Printf.sprintf "%.0f" load_ms;
            ])
          workloads
      in
      print_string
        (Ebp_util.Text_table.render
           ~header:
             [ "workload"; "record ms"; "instructions"; "Minstr/s"; "events";
               "cache bytes"; "B/event"; "warm load ms" ]
           ~rows ());
      print_newline ())

(* --- robustness: integrity overhead on real cache entries --- *)

(* The checksum trailer is pure insurance; this section prices it: raw
   CRC-32 throughput over a real EBPT3 cache entry, then the sealed
   store -> verify -> checksummed lookup path on a private cache
   directory. One workload and a handful of I/O round-trips, so it is
   cheap enough to run under --quick too. *)
let run_robustness (w : Ebp_workloads.Workload.t) =
  let module Workload = Ebp_workloads.Workload in
  let module Trace = Ebp_trace.Trace in
  let module Trace_cache = Ebp_trace.Trace_cache in
  print_endline
    "Integrity overhead: CRC-32 over the EBPT3 cache entry, and the sealed\n\
     store -> verify -> checksummed lookup path";
  let run =
    match Workload.record w with
    | Ok run -> run
    | Error msg -> failwith ("robustness bench: " ^ msg)
  in
  let trace = run.Workload.trace in
  let encoded = Trace.encode_columnar trace in
  let mb = float_of_int (String.length encoded) /. 1048576.0 in
  let reps = 20 in
  let crc = ref 0 in
  let (), crc_ms =
    wall_ms (fun () ->
        for _ = 1 to reps do
          crc := Ebp_util.Crc32.string encoded
        done)
  in
  ignore !crc;
  let crc_ms = crc_ms /. float_of_int reps in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ebp-bench-robust-%d" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Trace_cache.clear ~dir |> ignore;
        Sys.rmdir dir
      end)
    (fun () ->
      let key = Workload.cache_key w in
      let (), store_ms =
        wall_ms (fun () ->
            match Trace_cache.store ~dir ~key trace with
            | Ok () -> ()
            | Error msg -> failwith ("robustness bench: store: " ^ msg))
      in
      let report, verify_ms =
        wall_ms (fun () -> Trace_cache.verify ~quarantine:false ~dir ())
      in
      if report.Trace_cache.corrupt <> [] then
        failwith "robustness bench: fresh entry reported corrupt";
      let loaded, lookup_ms =
        wall_ms (fun () -> Trace_cache.lookup ~dir ~key)
      in
      (match loaded with
      | Some _ -> ()
      | None -> failwith "robustness bench: checksummed lookup missed");
      print_string
        (Ebp_util.Text_table.render
           ~header:
             [ "workload"; "entry MB"; "crc ms"; "crc MB/s"; "store ms";
               "verify ms"; "lookup ms" ]
           ~rows:
             [
               [
                 w.Workload.name;
                 Printf.sprintf "%.2f" mb;
                 Printf.sprintf "%.3f" crc_ms;
                 Printf.sprintf "%.0f" (mb /. (crc_ms /. 1000.0));
                 Printf.sprintf "%.1f" store_ms;
                 Printf.sprintf "%.1f" verify_ms;
                 Printf.sprintf "%.1f" lookup_ms;
               ];
             ]
           ());
      print_newline ())

(* --- resident service: in-process core latency, warm vs cold --- *)

(* Prices what [ebp serve] exists to sell: the second query for a trace
   skips phase 1 entirely (LRU hit), and identical queries arriving
   together are answered by one replay. Runs against Core directly — no
   socket — so the numbers isolate the service scheduling + store, not
   connection plumbing. Cheap enough for --quick. *)
let run_serve (w : Ebp_workloads.Workload.t) =
  let module Core = Ebp_serve.Server.Core in
  let module P = Ebp_serve.Protocol in
  let module Workload = Ebp_workloads.Workload in
  print_endline
    "Resident service (ebp serve core): cold query (record + replay) vs\n\
     warm query (LRU hit), and a coalesced batch of identical queries";
  let core = Core.create { Core.default_config with domains = 2 } in
  Fun.protect ~finally:(fun () -> Core.shutdown core) @@ fun () ->
  let query =
    P.Sessions_query
      {
        name = w.Workload.name;
        source = w.Workload.source;
        seed = w.Workload.seed;
        engine = "indexed";
        keep_hitless = false;
      }
  in
  let one () =
    let ok = ref false in
    Core.submit core ~tenant:"bench"
      ~reply:(function P.Report _ -> ok := true | _ -> ())
      query;
    Core.drain core;
    if not !ok then failwith "serve bench: query failed"
  in
  let (), cold_ms = wall_ms one in
  let (), warm_ms = wall_ms one in
  let riders = 8 in
  let answered = ref 0 in
  let (), batch_ms =
    wall_ms (fun () ->
        for i = 1 to riders do
          Core.submit core
            ~tenant:(Printf.sprintf "tenant%d" (i mod 3))
            ~reply:(function P.Report _ -> incr answered | _ -> ())
            query
        done;
        Core.drain core)
  in
  if !answered <> riders then failwith "serve bench: batch incomplete";
  print_string
    (Ebp_util.Text_table.render
       ~header:
         [ "workload"; "cold ms"; "warm ms"; "warm speedup";
           Printf.sprintf "batch of %d ms" riders; "per rider ms" ]
       ~rows:
         [
           [
             w.Workload.name;
             Printf.sprintf "%.0f" cold_ms;
             Printf.sprintf "%.1f" warm_ms;
             Printf.sprintf "%.1fx" (cold_ms /. warm_ms);
             Printf.sprintf "%.1f" batch_ms;
             Printf.sprintf "%.1f" (batch_ms /. float_of_int riders);
           ];
         ]
       ());
  print_newline ()

(* --- replay engines: scan vs indexed phase-2 replay --- *)

let run_engine_comparison traces =
  let module Replay = Ebp_sessions.Replay in
  let module Discovery = Ebp_sessions.Discovery in
  let module Write_index = Ebp_trace.Write_index in
  print_endline
    "Replay engines (phase 2, domains=1): trace scan vs temporal write index";
  let totals = Array.make 3 0.0 in
  let mismatch = ref false in
  let rows =
    List.map
      (fun (name, trace) ->
        let sessions = Discovery.discover trace in
        (* Compact before each timed section: leftover major-heap garbage
           from the previous workload otherwise charges its collection
           cost to whoever runs next. *)
        Gc.compact ();
        let scan, scan_ms =
          wall_ms (fun () -> Replay.replay_all ~engine:Scan trace sessions)
        in
        Gc.compact ();
        let index, build_ms =
          wall_ms (fun () ->
              Write_index.build ~page_sizes:Replay.default_page_sizes trace)
        in
        Gc.compact ();
        let indexed, query_ms =
          wall_ms (fun () ->
              Replay.replay_all ~engine:Indexed ~index trace sessions)
        in
        let identical = indexed = scan in
        if not identical then mismatch := true;
        totals.(0) <- totals.(0) +. scan_ms;
        totals.(1) <- totals.(1) +. build_ms;
        totals.(2) <- totals.(2) +. query_ms;
        json_phase2 :=
          Json.Obj
            [
              ("workload", Json.Str name);
              ("sessions", Json.Int (List.length sessions));
              ("events", Json.Int (Ebp_trace.Trace.length trace));
              ("scan_ms", Json.Float scan_ms);
              ("index_build_ms", Json.Float build_ms);
              ("indexed_query_ms", Json.Float query_ms);
              ("identical", Json.Bool identical);
            ]
          :: !json_phase2;
        [
          name;
          string_of_int (List.length sessions);
          string_of_int (Ebp_trace.Trace.length trace);
          Printf.sprintf "%.0f" scan_ms;
          Printf.sprintf "%.0f" build_ms;
          Printf.sprintf "%.0f" query_ms;
          Printf.sprintf "%.2fx" (scan_ms /. query_ms);
          Printf.sprintf "%.2fx" (scan_ms /. (build_ms +. query_ms));
          (if identical then "yes" else "NO");
        ])
      traces
  in
  let total_row =
    [
      "TOTAL"; ""; "";
      Printf.sprintf "%.0f" totals.(0);
      Printf.sprintf "%.0f" totals.(1);
      Printf.sprintf "%.0f" totals.(2);
      Printf.sprintf "%.2fx" (totals.(0) /. totals.(2));
      Printf.sprintf "%.2fx" (totals.(0) /. (totals.(1) +. totals.(2)));
      "";
    ]
  in
  print_string
    (Ebp_util.Text_table.render
       ~header:
         [ "workload"; "sessions"; "events"; "scan ms"; "build ms"; "query ms";
           "speedup"; "amortized"; "identical" ]
       ~rows:(rows @ [ total_row ]) ());
  Printf.printf
    "indexed speedup, whole suite: %.2fx per query, %.2fx with the one-time \
     build\n"
    (totals.(0) /. totals.(2))
    (totals.(0) /. (totals.(1) +. totals.(2)));
  if !mismatch then begin
    prerr_endline "engine mismatch: indexed replay differs from scan replay";
    exit 1
  end;
  print_newline ()

(* --- query engines: compiled-onto-the-index vs streaming scan --- *)

(* The sixth bench workload: a fixed-seed synthetic program from the
   fuzzer's workload synthesizer, dialed up to >= 10^6 trace events. It
   exists purely to price query throughput at a scale the five paper
   workloads don't reach. *)
let synthetic_source () =
  let module Fuzz = Ebp_core.Fuzz in
  let knobs =
    { Fuzz.gen_events = 25; gen_heap_churn = 40; gen_session_density = 12 }
  in
  Fuzz.render (Fuzz.generate_knobbed ~knobs ~seed:42)

let synthetic_trace () =
  let source = synthetic_source () in
  match Ebp_trace.Recorder.record_source ~seed:42 ~fuel:80_000_000 source with
  | Error msg ->
      prerr_endline ("synthetic workload failed to record: " ^ msg);
      exit 1
  | Ok (_, trace, _) ->
      let events = Ebp_trace.Trace.length trace in
      if events < 1_000_000 then begin
        Printf.eprintf
          "synthetic workload too small: %d events (need >= 10^6)\n" events;
        exit 1
      end;
      trace

(* --- streaming record pipeline: bounded memory, first answer, travel --- *)

(* The streaming section's headline claims, each measured on synthetic
   workloads from the fuzzer's synthesizer:
     1. a >= 10^7-event trace records through the block emitter with
        O(block) writer state — the process's peak heap and peak
        resident set barely move, where the batch builder would
        materialize ~events * 4 words of columns (outside the heap, which
        is why the resident set is read too);
     2. a live prefix query answers long before the recording would
        finish (time-to-first-answer is per-block, not per-trace);
     3. restarting replay from the nearest checkpoint beats a step-0
        seek by >= 5x, with bit-identical machine state (state_digest);
     4. the streamed trace and incrementally-merged index are
        bit-identical to their batch counterparts.
   Runs first in the bench (before any trace is materialized) so the
   top-of-heap and peak-RSS deltas in (1) measure streaming alone. *)

(* The process's peak resident set (VmHWM) in bytes, where /proc has it.
   Unlike the GC's counters it sees memory outside the OCaml heap, such
   as trace columns. *)
let vm_hwm_bytes () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
      List.find_map
        (fun line ->
          Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb * 1024))
        (String.split_on_char '\n' status)

let run_streaming () =
  let module Fuzz = Ebp_core.Fuzz in
  let module Stream = Ebp_trace.Stream in
  let module Recorder = Ebp_trace.Recorder in
  let module Checkpoint = Ebp_trace.Checkpoint in
  let module Write_index = Ebp_trace.Write_index in
  let module Loader = Ebp_runtime.Loader in
  let module Query = Ebp_query.Query in
  let module Qresult = Ebp_query.Qresult in
  let page_sizes = Ebp_sessions.Replay.default_page_sizes in
  let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt in
  (* 1. Bounded-memory record of a ~10^7-event workload. The trace goes
     to a byte counter — on disk it would be the same O(block) state. *)
  let big_source =
    (* Pure hot-write loops: the trace dwarfs the program's own heap, so
       the top-of-heap delta isolates the recording pipeline, and the
       first block seals as soon as the machine starts writing. *)
    let knobs =
      { Fuzz.gen_events = 500; gen_heap_churn = 0; gen_session_density = 0 }
    in
    Fuzz.render (Fuzz.generate_knobbed ~knobs ~seed:42)
  in
  Gc.compact ();
  let top0 = (Gc.quick_stat ()).Gc.top_heap_words in
  let hwm0 = vm_hwm_bytes () in
  let bytes_out = ref 0 and blocks = ref 0 in
  let big_events, record_ms =
    wall_ms (fun () ->
        match
          Recorder.record_source_stream ~seed:42
            ~on_seal:(fun ~first:_ ~count:_ ~nobjs:_ _ -> incr blocks)
            ~write:(fun s -> bytes_out := !bytes_out + String.length s)
            big_source
        with
        | Error msg -> die "streaming bench failed to record: %s" msg
        | Ok (_res, events) -> events)
  in
  if big_events < 10_000_000 then
    die "streaming workload too small: %d events (need >= 10^7)" big_events;
  let top_growth_mb =
    float_of_int (((Gc.quick_stat ()).Gc.top_heap_words - top0) * 8)
    /. 1048576.0
  in
  let hwm_growth_mb =
    match (hwm0, vm_hwm_bytes ()) with
    | Some a, Some b -> Some (float_of_int (b - a) /. 1048576.0)
    | _ -> None
  in
  Printf.printf
    "record    %9d events -> %d sealed blocks, %.1f MB stream, %.0f ms\n"
    big_events !blocks
    (float_of_int !bytes_out /. 1048576.0)
    record_ms;
  Printf.printf
    "memory    top-of-heap grew %.1f MB, peak RSS %s (batch builder would \
     need >= %.0f MB)\n"
    top_growth_mb
    (match hwm_growth_mb with
    | Some mb -> Printf.sprintf "grew %.1f MB" mb
    | None -> "unknown (no /proc/self/status)")
    (float_of_int (big_events * 4 * 8) /. 1048576.0);
  (* 2. Time-to-first-answer: a live job over the same program answers a
     prefix query after one sealed block, while the machine runs on. *)
  let q =
    match Query.parse "count" with
    | Ok q -> q
    | Error _ -> die "streaming bench: query failed to parse"
  in
  let live = Ebp_serve.Live.create () in
  let first_hw = ref 0 in
  let first_answer_ms =
    snd
      (wall_ms (fun () ->
           match
             Ebp_serve.Live.fetch live ~name:"streaming-bench"
               ~source:big_source ~seed:42 ~min_events:0
           with
           | Error msg -> die "streaming bench: live fetch: %s" msg
           | Ok p ->
               first_hw := p.Ebp_serve.Live.p_high_water;
               ignore
                 (Query.run ?index:p.Ebp_serve.Live.p_index
                    p.Ebp_serve.Live.p_trace q)))
  in
  Printf.printf
    "live      first answer in %.1f ms over %d sealed events (full record: \
     %.0f ms, %.1fx later)\n"
    first_answer_ms !first_hw record_ms
    (record_ms /. Float.max 0.1 first_answer_ms);
  (* 3 + 4. On the 10^6-event synthetic workload (small enough to also
     hold the batch trace): stream-vs-batch identity, then checkpointed
     time travel near the end of the trace. *)
  let mid_source = synthetic_source () in
  let mid_fuel = 80_000_000 in
  let compiled =
    match Ebp_lang.Compiler.compile mid_source with
    | Ok c -> c
    | Error msg -> die "streaming bench: compile: %s" msg
  in
  let batch =
    match Recorder.record_source ~seed:42 ~fuel:mid_fuel mid_source with
    | Ok (_, trace, _) -> trace
    | Error msg -> die "streaming bench: batch record: %s" msg
  in
  let batch_index = Write_index.build ~page_sizes batch in
  let buf = Buffer.create (1 lsl 20) in
  let inc = Write_index.Incremental.create ~page_sizes in
  let chain = Checkpoint.create () in
  let writer = Stream.Writer.create ~write:(Buffer.add_string buf) () in
  Stream.Writer.set_on_seal writer (fun ~first:_ ~count ~nobjs iter ->
      Write_index.Incremental.add_block inc ~nobjs ~count iter);
  let loader = Loader.load ~seed:42 compiled in
  let recorder = Recorder.attach_stream writer loader in
  ignore
    (Checkpoint.run_with_checkpoints ~fuel:mid_fuel ~every:200_000
       ~events:(fun () -> Stream.Writer.events writer)
       ~nobjs:(fun () -> Stream.Writer.object_count writer)
       chain loader recorder);
  Recorder.finish_events recorder;
  Stream.Writer.finish writer;
  let image = Buffer.contents buf in
  let streamed =
    match Stream.read image with
    | Ok t -> t
    | Error msg -> die "streaming bench: stream read: %s" msg
  in
  (* The reader against a CRC-32 of the same bytes, in one process: the
     ratio is what decoding costs over checksumming, which the host's
     speed moves far less than either time. Best of 5 each. *)
  let best_ms f =
    List.fold_left min infinity
      (List.init 5 (fun _ -> snd (wall_ms (fun () -> ignore (f ())))))
  in
  let read_ms = best_ms (fun () -> Stream.read image) in
  let crc_ms = best_ms (fun () -> Ebp_util.Crc32.string image) in
  Printf.printf
    "read      %d events, %.1f MB: Stream.read %.1f ms (%.0f ns/event), \
     CRC-32 %.1f ms (%.1fx)\n"
    (Ebp_trace.Trace.length streamed)
    (float_of_int (String.length image) /. 1048576.0)
    read_ms
    (read_ms *. 1e6 /. float_of_int (max 1 (Ebp_trace.Trace.length streamed)))
    crc_ms (read_ms /. crc_ms);
  let identical_trace = Ebp_trace.Trace.equal streamed batch in
  let identical_index =
    match Write_index.Incremental.snapshot inc with
    | Some i -> Write_index.equal i batch_index
    | None -> false
  in
  Printf.printf
    "identity  streamed trace %s batch; incremental index %s batch build\n"
    (if identical_trace then "==" else "!=")
    (if identical_index then "==" else "!=");
  let total = Ebp_trace.Trace.length batch in
  let stamps = Checkpoint.events chain in
  if stamps = [] then die "streaming bench: no checkpoints taken";
  let event = List.fold_left max 0 stamps + 1_000 in
  let event = min event total in
  let load () = Loader.load ~seed:42 compiled in
  let step0_digest, step0_ms =
    wall_ms (fun () ->
        let loader = load () in
        let counters = { Recorder.c_events = 0; c_objs = 0 } in
        ignore (Recorder.attach_sink (Recorder.counting_sink counters) loader);
        ignore (Checkpoint.seek loader counters ~event);
        Checkpoint.state_digest loader counters)
  in
  let restart_digest, restart_ms =
    wall_ms (fun () ->
        match Checkpoint.restore chain ~event ~load with
        | None -> die "streaming bench: no checkpoint precedes event %d" event
        | Some r ->
            ignore
              (Checkpoint.seek r.Checkpoint.rs_loader r.Checkpoint.rs_counters
                 ~event);
            Checkpoint.state_digest r.Checkpoint.rs_loader
              r.Checkpoint.rs_counters)
  in
  let digests_match = step0_digest = restart_digest in
  let speedup = step0_ms /. Float.max 0.01 restart_ms in
  Printf.printf
    "travel    event %d of %d: restart %.1f ms vs step-0 %.1f ms (%.1fx), \
     digests %s\n"
    event total restart_ms step0_ms speedup
    (if digests_match then "match" else "DIFFER");
  json_streaming :=
    Json.Obj
      [
        ("events", Json.Int big_events);
        ("blocks", Json.Int !blocks);
        ("stream_bytes", Json.Int !bytes_out);
        ("record_ms", Json.Float record_ms);
        ("top_heap_growth_mb", Json.Float top_growth_mb);
        ( "hwm_growth_mb",
          match hwm_growth_mb with Some mb -> Json.Float mb | None -> Json.Null );
        ("first_answer_ms", Json.Float first_answer_ms);
        ("read_events", Json.Int (Ebp_trace.Trace.length streamed));
        ("read_ms", Json.Float read_ms);
        ("crc_ms", Json.Float crc_ms);
        ("first_high_water", Json.Int !first_hw);
        ("identical_trace", Json.Bool identical_trace);
        ("identical_index", Json.Bool identical_index);
        ("checkpoints", Json.Int (Checkpoint.count chain));
        ("travel_event", Json.Int event);
        ("step0_ms", Json.Float step0_ms);
        ("restart_ms", Json.Float restart_ms);
        ("restart_speedup", Json.Float speedup);
        ("digests_match", Json.Bool digests_match);
      ];
  if not (identical_trace && identical_index && digests_match) then begin
    prerr_endline "streaming pipeline mismatch: see section output above";
    exit 1
  end;
  print_newline ()

(* One live() spec per workload, naming a scalar global each program
   actually has — the session-window join shape the paper's phase 2 is
   built around. *)
let live_spec_of = function
  | "compiler" -> "global:node_count"
  | "typeset" -> "global:total_lines"
  | "circuit" -> "global:steps_done"
  | "lattice" -> "global:sweep_count"
  | "puzzle" -> "global:expansions"
  | "synthetic" -> "global:q0"
  | name -> failwith ("no live() spec for workload " ^ name)

let run_query traces =
  let module Query = Ebp_query.Query in
  let module Qresult = Ebp_query.Qresult in
  let module Write_index = Ebp_trace.Write_index in
  print_endline
    "Query engines: compiled onto the write index vs streaming scan, and\n\
     the engine --engine auto picks with the index resident (each query\n\
     asserted result-identical between engines; ms is the mean of 5 runs)";
  let reps = 5 in
  let timed f =
    Gc.compact ();
    let _, ms =
      wall_ms (fun () ->
          for _ = 1 to reps do
            ignore (f ())
          done)
    in
    ms /. float_of_int reps
  in
  let mismatch = ref false in
  let rows =
    List.concat_map
      (fun (name, trace) ->
        let events = Ebp_trace.Trace.length trace in
        let index, build_ms =
          wall_ms (fun () ->
              Write_index.build
                ~page_sizes:Ebp_sessions.Replay.default_page_sizes trace)
        in
        Printf.printf "%-10s %9d events, index built in %.0f ms\n%!" name
          events build_ms;
        let shapes =
          [
            ("count", "count");
            ("window", Printf.sprintf "count where time in [0,%d]" (events / 2));
            ("group-pc", "count group by pc top 5");
            ("histogram",
             Printf.sprintf "count bucket by %d" (max 1 (events / 64)));
            ("live-join",
             Printf.sprintf "count where live(%s)" (live_spec_of name));
            ("live-group",
             Printf.sprintf "count where live(%s) group by pc top 3"
               (live_spec_of name));
            (* perfbench's warm shapes: a 1% window from mid-trace, and a
               session join bucketed by sixteenths. *)
            ("window-object",
             Printf.sprintf "count where time in [%d,%d] group by object top 5"
               (events / 2)
               ((events / 2) + (events / 100) - 1));
            ("live-bucket",
             Printf.sprintf "count where live(%s) bucket by %d"
               (live_spec_of name) (max 1 (events / 16)));
          ]
        in
        List.map
          (fun (shape, expr) ->
            let q =
              match Query.parse expr with
              | Ok q -> q
              | Error e ->
                  prerr_endline
                    ("bench query failed to parse: "
                    ^ Ebp_query.Parser.error_line expr e);
                  exit 1
            in
            let indexed = Query.run ~engine:Query.Indexed ~index trace q in
            let scan = Query.run ~engine:Query.Scan trace q in
            let identical =
              Qresult.equal indexed.Query.raw scan.Query.raw
            in
            if not identical then mismatch := true;
            let indexed_ms =
              timed (fun () -> Query.run ~engine:Query.Indexed ~index trace q)
            in
            let scan_ms =
              timed (fun () -> Query.run ~engine:Query.Scan trace q)
            in
            let auto = Query.run ~index trace q in
            let choice =
              match auto.Query.planned with
              | Some e -> Ebp_sessions.Planner.choice_name e.Ebp_sessions.Planner.choice
              | None -> "none"
            in
            let auto_ms = timed (fun () -> Query.run ~index trace q) in
            json_query :=
              Json.Obj
                [
                  ("workload", Json.Str name);
                  ("shape", Json.Str shape);
                  ("query", Json.Str expr);
                  ("events", Json.Int events);
                  ("index_build_ms", Json.Float build_ms);
                  ("scan_ms", Json.Float scan_ms);
                  ("indexed_ms", Json.Float indexed_ms);
                  ("choice", Json.Str choice);
                  ("auto_ms", Json.Float auto_ms);
                  ("identical", Json.Bool identical);
                ]
              :: !json_query;
            [
              name;
              shape;
              Printf.sprintf "%.2f" scan_ms;
              Printf.sprintf "%.2f" indexed_ms;
              Printf.sprintf "%.1fx" (scan_ms /. indexed_ms);
              choice;
              Printf.sprintf "%.2f" auto_ms;
              (if identical then "yes" else "NO");
            ])
          shapes)
      traces
  in
  print_string
    (Ebp_util.Text_table.render
       ~header:
         [ "workload"; "shape"; "scan ms"; "indexed ms"; "speedup"; "auto";
           "auto ms"; "identical" ]
       ~rows ());
  if !mismatch then begin
    prerr_endline "query engine mismatch: compiled result differs from scan";
    exit 1
  end;
  print_newline ()

(* --- zero-copy store: mmap vs decode, parallel build, planner --- *)

(* Prices the EBPT3 entry end to end: a warm load that maps it vs a full
   decode of the same file (Trace.decode_columnar: read, CRC, every
   check, a heap copy), in time and allocation — the mapped load must be
   near-allocation-free — then the chunked index build vs
   the serial one (asserted structurally identical), and the cost-based
   planner against both fixed engines (asserted bit-identical). Cheap
   enough for --quick. *)
let run_store traces =
  let module Trace = Ebp_trace.Trace in
  let module Trace_cache = Ebp_trace.Trace_cache in
  let module Write_index = Ebp_trace.Write_index in
  let module Replay = Ebp_sessions.Replay in
  let module Planner = Ebp_sessions.Planner in
  print_endline
    "Zero-copy trace store (EBPT3): warm load via mmap vs a full decode,\n\
     serial vs chunked index build, and the cost-based planner vs both\n\
     fixed engines";
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ebp-bench-store-%d" (Unix.getpid ()))
  in
  let domains = min 4 (Domain.recommended_domain_count ()) in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Trace_cache.clear ~dir |> ignore;
        Sys.rmdir dir
      end)
    (fun () ->
      let reps = 5 in
      let timed_alloc f =
        (* Mean wall time and allocation of [reps] runs, after a compact
           so the previous row's garbage is not charged here. *)
        Gc.compact ();
        let a0 = Gc.allocated_bytes () in
        let last = ref None in
        let (), ms =
          wall_ms (fun () ->
              for _ = 1 to reps do
                last := Some (f ())
              done)
        in
        let alloc = (Gc.allocated_bytes () -. a0) /. float_of_int reps in
        match !last with
        | Some r -> (r, ms /. float_of_int reps, alloc)
        | None -> assert false
      in
      let load_rows, planner_rows =
        List.split
          (List.map
             (fun (name, trace) ->
               let key =
                 Trace_cache.make_key ~name:("bench-store-" ^ name) ~source:""
                   ~seed:0 ()
               in
               (match Trace_cache.store ~dir ~key trace with
               | Ok () -> ()
               | Error msg -> failwith ("store bench: " ^ msg));
               (* The cache names an entry [<key>.ebpt3]. *)
               let entry = Filename.concat dir (key ^ ".ebpt3") in
               let decoded, decode_ms, decode_alloc =
                 timed_alloc (fun () ->
                     match
                       Trace.decode_columnar
                         (In_channel.with_open_bin entry In_channel.input_all)
                     with
                     | Ok (t, _) -> t
                     | Error msg -> failwith ("store bench: decode: " ^ msg))
               in
               let mapped, map_ms, map_alloc =
                 timed_alloc (fun () ->
                     match Trace_cache.lookup ~dir ~key with
                     | Some (t, _) -> t
                     | None -> failwith "store bench: mapped lookup missed")
               in
               if Trace.is_mapped decoded then
                 failwith "store bench: the full decode returned a mapping";
               if not (Trace.is_mapped mapped) then
                 failwith "store bench: warm lookup did not mmap";
               let speedup = decode_ms /. map_ms in
               (* Chunked index build across a pool vs the serial build. *)
               let page_sizes = Replay.default_page_sizes in
               Gc.compact ();
               let serial_ix, serial_ms =
                 wall_ms (fun () -> Write_index.build ~page_sizes trace)
               in
               Gc.compact ();
               let parallel_ix, parallel_ms =
                 Ebp_util.Domain_pool.with_pool ~domains (fun pool ->
                     wall_ms (fun () ->
                         Write_index.build ~pool ~page_sizes trace))
               in
               let build_identical = Write_index.equal serial_ix parallel_ix in
               if not build_identical then begin
                 prerr_endline
                   ("store bench: parallel index build differs on " ^ name);
                 exit 1
               end;
               (* The planner (cold, no cached index) against both fixed
                  engines, all on the mapped trace. *)
               let decision = ref "?" in
               let planned, planner_ms =
                 wall_ms (fun () ->
                     Planner.replay
                       ~log:(fun line ->
                         decision :=
                           String.sub line 9
                             (String.index_from line 9 ' ' - 9))
                       mapped)
               in
               let scan, scan_ms =
                 wall_ms (fun () ->
                     Replay.discover_and_replay ~engine:Replay.Scan mapped)
               in
               let indexed, indexed_ms =
                 wall_ms (fun () ->
                     Replay.discover_and_replay ~engine:Replay.Indexed mapped)
               in
               let planner_identical = planned = scan && planned = indexed in
               if not planner_identical then begin
                 prerr_endline
                   ("store bench: planner report differs from a fixed engine \
                     on " ^ name);
                 exit 1
               end;
               json_store :=
                 Json.Obj
                   [
                     ("workload", Json.Str name);
                     ("events", Json.Int (Trace.length trace));
                     ("decoded_warm_ms", Json.Float decode_ms);
                     ("mmap_warm_ms", Json.Float map_ms);
                     ("warm_load_speedup", Json.Float speedup);
                     ("decoded_alloc_bytes", Json.Float decode_alloc);
                     ("mmap_alloc_bytes", Json.Float map_alloc);
                     ("index_build_serial_ms", Json.Float serial_ms);
                     ("index_build_parallel_ms", Json.Float parallel_ms);
                     ("parallel_build_identical", Json.Bool build_identical);
                     ("planner_decision", Json.Str !decision);
                     ("planner_ms", Json.Float planner_ms);
                     ("planner_identical", Json.Bool planner_identical);
                   ]
                 :: !json_store;
               ( [
                   name;
                   string_of_int (Trace.length trace);
                   Printf.sprintf "%.2f" decode_ms;
                   Printf.sprintf "%.3f" map_ms;
                   Printf.sprintf "%.1fx" speedup;
                   Printf.sprintf "%.0f" decode_alloc;
                   Printf.sprintf "%.0f" map_alloc;
                   Printf.sprintf "%.0f" serial_ms;
                   Printf.sprintf "%.0f" parallel_ms;
                 ],
                 [
                   name;
                   !decision;
                   Printf.sprintf "%.0f" planner_ms;
                   Printf.sprintf "%.0f" scan_ms;
                   Printf.sprintf "%.0f" indexed_ms;
                   (if planner_identical then "yes" else "NO");
                 ] ))
             traces)
      in
      print_string
        (Ebp_util.Text_table.render
           ~header:
             [ "workload"; "events"; "decode ms"; "mmap ms"; "speedup";
               "decode alloc B"; "mmap alloc B";
               "build ms"; Printf.sprintf "build ms (%dd)" domains ]
           ~rows:load_rows ());
      print_newline ();
      print_string
        (Ebp_util.Text_table.render
           ~header:
             [ "workload"; "decision"; "planner ms"; "scan ms"; "indexed ms";
               "identical" ]
           ~rows:planner_rows ());
      print_newline ())

(* --- remote-WMS ablation (§3.4): ptrace-style cross-address-space WMS --- *)

let run_remote_ablation (t : Ebp_core.Experiment.t) =
  let module Model = Ebp_model.Strategy_model in
  let module Stats = Ebp_util.Stats in
  print_endline
    "Remote WMS ablation (Section 3.4): mapping kept in a separate address\n\
     space, two context switches per fault (T-Mean relative overhead)";
  let approaches =
    [ Model.NH; Model.Remote Model.NH; Model.VM 4096;
      Model.Remote (Model.VM 4096); Model.TP; Model.Remote Model.TP; Model.CP ]
  in
  let rows =
    List.map
      (fun pd ->
        pd.Ebp_core.Experiment.run.Ebp_workloads.Workload.workload
          .Ebp_workloads.Workload.name
        :: List.map
             (fun a ->
               let s =
                 Stats.summarize (Ebp_core.Experiment.relative_overheads t pd a)
               in
               Printf.sprintf "%.2f" s.Stats.t_mean)
             approaches)
      t.Ebp_core.Experiment.programs
  in
  print_string
    (Ebp_util.Text_table.render
       ~header:("workload" :: List.map Model.name approaches)
       ~rows ());
  print_newline ()

(* --- VB vs VM: the fifth strategy against the one it shadows --- *)

(* VirtualBreakpoint inherits VirtualMemory's fault-generating sets at
   each granularity, so the comparison isolates the per-event price: a
   hypervisor exit + view switch against a guest trap + signal dispatch
   + mprotect traffic. Modeled side from the experiment's replayed
   counts; live side runs one watched global per workload under both
   strategies and demands identical hit counts. *)
let run_vb_comparison (t : Ebp_core.Experiment.t) =
  let module Model = Ebp_model.Strategy_model in
  let module Stats = Ebp_util.Stats in
  print_endline
    "VirtualBreakpoint vs VirtualMemory: same faults, hypervisor prices\n\
     (T-Mean relative overhead; live cycles on one watched global)";
  let watched_global (w : Ebp_workloads.Workload.t) =
    match w.Ebp_workloads.Workload.name with
    | "typeset" -> "total_lines"
    | "lattice" -> "sweep_count"
    | "compiler" -> "node_count"
    | "circuit" -> "steps_done"
    | _ -> "expansions"
  in
  let live_under kind (w : Ebp_workloads.Workload.t) =
    let dbg =
      match
        Ebp_core.Debugger.load_source ~strategy:kind
          ~seed:w.Ebp_workloads.Workload.seed w.Ebp_workloads.Workload.source
      with
      | Ok d -> d
      | Error e -> failwith e
    in
    (match Ebp_core.Debugger.watch_global dbg (watched_global w) with
    | Ok () -> ()
    | Error e -> failwith e);
    ignore (Ebp_core.Debugger.run dbg);
    (Ebp_core.Debugger.cycles dbg, List.length (Ebp_core.Debugger.hits dbg))
  in
  let rows =
    List.map
      (fun pd ->
        let w =
          pd.Ebp_core.Experiment.run.Ebp_workloads.Workload.workload
        in
        let name = w.Ebp_workloads.Workload.name in
        let t_mean a =
          (Stats.summarize (Ebp_core.Experiment.relative_overheads t pd a))
            .Stats.t_mean
        in
        let vm4 = t_mean (Model.VM 4096) and vb4 = t_mean (Model.VB 4096) in
        let vm8 = t_mean (Model.VM 8192) and vb8 = t_mean (Model.VB 8192) in
        let vm_cycles, vm_hits = live_under Ebp_core.Debugger.Virtual_memory w in
        let vb_cycles, vb_hits =
          live_under Ebp_core.Debugger.Virtual_breakpoint w
        in
        json_vb :=
          Json.Obj
            [
              ("workload", Json.Str name);
              ("vm4k_tmean_rel", Json.Float vm4);
              ("vb4k_tmean_rel", Json.Float vb4);
              ("vm8k_tmean_rel", Json.Float vm8);
              ("vb8k_tmean_rel", Json.Float vb8);
              ("live_vm_cycles", Json.Int vm_cycles);
              ("live_vb_cycles", Json.Int vb_cycles);
              ("live_hits", Json.Int vb_hits);
              ("live_hits_agree", Json.Bool (vm_hits = vb_hits));
            ]
          :: !json_vb;
        [
          name;
          Printf.sprintf "%.2f" vm4;
          Printf.sprintf "%.2f" vb4;
          Printf.sprintf "%.1fx" (vm4 /. Float.max vb4 1e-9);
          Printf.sprintf "%.2f" vm8;
          Printf.sprintf "%.2f" vb8;
          string_of_int vm_cycles;
          string_of_int vb_cycles;
          (if vm_hits = vb_hits then string_of_int vb_hits
           else Printf.sprintf "MISMATCH %d/%d" vm_hits vb_hits);
        ])
      t.Ebp_core.Experiment.programs
  in
  print_string
    (Ebp_util.Text_table.render
       ~header:
         [ "workload"; "VM-4K"; "VB-4K"; "VB gain"; "VM-8K"; "VB-8K";
           "live VM cycles"; "live VB cycles"; "hits" ]
       ~rows ());
  print_newline ()

let traces_of (t : Ebp_core.Experiment.t) =
  List.map
    (fun pd ->
      ( pd.Ebp_core.Experiment.run.Ebp_workloads.Workload.workload
          .Ebp_workloads.Workload.name,
        pd.Ebp_core.Experiment.run.Ebp_workloads.Workload.trace ))
    t.Ebp_core.Experiment.programs

let () =
  (* --quick: a CI smoke pass — circuit-only experiment plus the engine
     comparison, skipping the bechamel micro-benchmarks and the slow
     ablations. --engines: only the scan-vs-indexed comparison, all
     workloads (the table EXPERIMENTS.md quotes). --json FILE: also dump
     the phase-1/phase-2 rows as machine-readable JSON. *)
  let flag name = Array.exists (String.equal name) Sys.argv in
  let quick = flag "--quick" and engines_only = flag "--engines" in
  let json_path =
    let rec find i =
      if i + 1 >= Array.length Sys.argv then None
      else if Sys.argv.(i) = "--json" then Some Sys.argv.(i + 1)
      else find (i + 1)
    in
    find 1
  in
  print_endline "=== Efficient Data Breakpoints: benchmark harness ===";
  print_newline ();
  (* Streaming runs first: its bounded-memory claim is a top-of-heap
     delta, which only means something before other sections have
     materialized batch traces. *)
  if not engines_only then begin
    print_endline "=== Streaming record pipeline ===";
    print_newline ();
    with_section_metrics "streaming pipeline (stream, live, travel)"
      run_streaming
  end;
  if not (quick || engines_only) then run_benchmarks ();
  let workloads =
    if quick then
      List.filter
        (fun w -> w.Ebp_workloads.Workload.name = "circuit")
        Ebp_workloads.Workload.all
    else Ebp_workloads.Workload.all
  in
  if not engines_only then begin
    print_endline "=== Phase 1: trace generation ===";
    print_newline ();
    with_section_metrics "phase 1 (cold record, codec, cache)" (fun () ->
        run_phase1 workloads);
    print_endline "=== Robustness: cache integrity overhead ===";
    print_newline ();
    with_section_metrics "robustness (crc, store, verify)" (fun () ->
        run_robustness (List.hd workloads));
    print_endline "=== Resident service: warm-store query latency ===";
    print_newline ();
    with_section_metrics "resident service (serve core)" (fun () ->
        run_serve (List.hd workloads))
  end;
  print_endline "=== Simulation experiment (Tables 1-4, Figures 7-9) ===";
  print_newline ();
  (* A private trace cache for this bench run: the first (sequential)
     experiment populates it, the parallel engine below rides it warm. *)
  let cache_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ebp-bench-cache-%d" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists cache_dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat cache_dir f))
          (Sys.readdir cache_dir);
        Sys.rmdir cache_dir
      end)
    (fun () ->
      match
        with_section_metrics "simulation experiment (cold trace cache)"
          (fun () -> Ebp_core.Experiment.run ~workloads ~cache_dir ())
      with
      | Error msg ->
          prerr_endline ("experiment failed: " ^ msg);
          exit 1
      | Ok t ->
          let seq_report = Ebp_core.Experiment.full_report t in
          if not engines_only then begin
            print_string seq_report;
            print_newline ()
          end;
          print_endline "=== Replay engines ===";
          print_newline ();
          with_section_metrics "replay engines" (fun () ->
              run_engine_comparison (traces_of t));
          if not engines_only then begin
            print_endline "=== Query engines ===";
            print_newline ();
            with_section_metrics "query engines (indexed vs scan)" (fun () ->
                run_query (traces_of t @ [ ("synthetic", synthetic_trace ()) ]))
          end;
          if not engines_only then begin
            print_endline "=== Zero-copy store and planner ===";
            print_newline ();
            with_section_metrics "zero-copy store (mmap, chunked build, planner)"
              (fun () -> run_store (traces_of t))
          end;
          if not engines_only then begin
            print_endline "=== Parallel experiment engine ===";
            print_newline ();
            with_section_metrics "parallel engine (warm trace cache)"
              (fun () -> run_parallel_engine t ~workloads ~cache_dir ~seq_report);
            run_remote_ablation t;
            print_endline "=== Virtual breakpoints (VB vs VM) ===";
            print_newline ();
            with_section_metrics "virtual breakpoints (VB vs VM)" (fun () ->
                run_vb_comparison t)
          end);
  if not (quick || engines_only) then begin
    run_validation ();
    run_hoisting_ablation ()
  end;
  match json_path with
  | Some path ->
      write_json_file path;
      Printf.printf "bench JSON written to %s\n" path
  | None -> ()
