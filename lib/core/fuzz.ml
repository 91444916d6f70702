(* Differential fuzzing over generated MiniC programs.

   The generator is deterministic from its seed and emits programs as
   lists of droppable source units (a global declaration, a helper
   function, one statement group of main) so the shrinker can delete
   units wholesale and re-render, instead of mutating text. Programs are
   closed-world by construction: loops are bounded, recursion depth is
   masked, division and modulo are by positive constants, array and heap
   subscripts are masked to power-of-two bounds — so every generated
   program halts with exit code 0 well inside the default fuel, and any
   oracle failure is a real divergence, not an unlucky program.

   The oracles are the redundancies the codebase already maintains:
   [Machine.run] vs the single-[step] loop (independent execution loops),
   recorded vs unrecorded execution (tracing must not perturb the run),
   the five paper strategies armed identically over the same program
   (identical (pc, interval) notification sequences), the EBPT3 and
   EBPW2 codec round-trips, the streaming vs batch recorder, the scan vs
   indexed replay engines, and
   the query language's compiled vs streaming engines (random well-typed
   queries drawn from the trace's own pcs, addresses and discovered
   sessions).

   Beyond fuzzing, [generate] doubles as a workload synthesizer: knobs
   append deterministic extra source units — hot write loops, heap
   churn, extra monitored globals — drawn from a separate PRNG stream so
   the default program is byte-identical to the knobless one. The bench
   harness uses this for its large synthetic query workload. *)

module Prng = Ebp_util.Prng
module Machine = Ebp_machine.Machine
module Loader = Ebp_runtime.Loader
module Trace = Ebp_trace.Trace
module Write_index = Ebp_trace.Write_index
module Replay = Ebp_sessions.Replay

type program = {
  globals : string list;
  funcs : (string * string list) list;  (* name, body lines *)
  main_body : string list;
}

let render p =
  let b = Buffer.create 1024 in
  List.iter (fun g -> Buffer.add_string b (g ^ "\n")) p.globals;
  List.iter
    (fun (name, body) ->
      Buffer.add_string b (Printf.sprintf "\nint %s(int a, int b) {\n" name);
      List.iter (fun l -> Buffer.add_string b ("  " ^ l ^ "\n")) body;
      Buffer.add_string b "}\n")
    p.funcs;
  Buffer.add_string b "\nint main() {\n";
  List.iter (fun l -> Buffer.add_string b ("  " ^ l ^ "\n")) p.main_body;
  Buffer.add_string b "}\n";
  Buffer.contents b

type knobs = {
  gen_events : int;
  gen_heap_churn : int;
  gen_session_density : int;
}

let default_knobs = { gen_events = 0; gen_heap_churn = 0; gen_session_density = 0 }

(* Knob-driven source units. Drawn from a PRNG stream independent of the
   base generator's, so turning a knob never disturbs the base program —
   with [default_knobs] nothing is drawn at all and [generate] is
   byte-identical to its knobless behaviour (pinned by test_fuzz.ml). *)
let synth_units ~seed k =
  if k = default_knobs then ([], [])
  else begin
    let g = Prng.create ((seed * 0x5bd1e995) lxor 0x2545f491) in
    let rand n = Prng.int g n in
    let globals = ref [] and groups = ref [] in
    let add_global l = globals := l :: !globals in
    let add_group l = groups := l :: !groups in
    (* Extra monitored globals, each written a handful of times so the
       sessions discovered on them have hits. *)
    for j = 0 to k.gen_session_density - 1 do
      add_global (Printf.sprintf "int q%d;" j);
      add_group
        (Printf.sprintf
           "q%d = t + %d; for (i = 0; i < %d; i = i + 1) { q%d = q%d + i; } t \
            = t + q%d;"
           j (rand 100) (4 + rand 8) j j j)
    done;
    (* Heap churn: allocation sites cycling through install / write /
       remove, so object timelines grow and heap sessions multiply. *)
    for _ = 1 to k.gen_heap_churn do
      let words = List.nth [ 8; 16; 32 ] (rand 3) in
      add_group
        (Printf.sprintf
           "p = malloc(%d); if (p != 0) { for (i = 0; i < %d; i = i + 1) { \
            p[i & %d] = i + %d; } t = t + p[%d]; free(p); }"
           (words * 4) words (words - 1) (rand 50) (rand words))
    done;
    (* Hot write loops: ~32k writes each, the event-count dial for large
       synthetic workloads (raise the fuel along with it). The iteration
       count is deliberately high relative to the unit's source size so
       a 10^7-event trace comes from a small program — trace length and
       compile time stay decoupled. *)
    if k.gen_events > 0 then begin
      add_global "int qhot[64];";
      for _ = 1 to k.gen_events do
        add_group
          (Printf.sprintf
             "for (i = 0; i < 16384; i = i + 1) { qhot[i & 63] = i * %d; t = \
              t + i; }"
             (1 + rand 7))
      done
    end;
    (List.rev !globals, List.rev !groups)
  end

let generate_knobbed ~knobs ~seed =
  let g = Prng.create seed in
  let rand n = Prng.int g n in
  let pick xs = List.nth xs (rand (List.length xs)) in
  let n_scalars = 2 + rand 3 in
  let n_arrays = 1 + rand 2 in
  let arr_sizes = Array.init n_arrays (fun _ -> pick [ 8; 16; 32 ]) in
  let globals =
    List.init n_scalars (fun i -> Printf.sprintf "int g%d;" i)
    @ List.init n_arrays (fun i -> Printf.sprintf "int arr%d[%d];" i arr_sizes.(i))
  in
  let scalars = List.init n_scalars (fun i -> Printf.sprintf "g%d" i) in
  (* Integer expressions over [vars]: every division/modulo is by a
     positive constant, shifts are by small constants. *)
  let rec expr vars depth =
    if depth = 0 || rand 3 = 0 then
      match rand 3 with
      | 0 -> string_of_int (rand 201 - 100)
      | _ -> if vars = [] then string_of_int (rand 50) else pick vars
    else
      let a = expr vars (depth - 1) in
      match rand 10 with
      | 0 -> Printf.sprintf "(%s + %s)" a (expr vars (depth - 1))
      | 1 -> Printf.sprintf "(%s - %s)" a (expr vars (depth - 1))
      | 2 -> Printf.sprintf "(%s * %s)" a (expr vars (depth - 1))
      | 3 -> Printf.sprintf "(%s ^ %s)" a (expr vars (depth - 1))
      | 4 -> Printf.sprintf "(%s & %s)" a (expr vars (depth - 1))
      | 5 -> Printf.sprintf "(%s | %s)" a (expr vars (depth - 1))
      | 6 -> Printf.sprintf "(%s << %d)" a (rand 5)
      | 7 -> Printf.sprintf "(%s >> %d)" a (rand 5)
      | 8 -> Printf.sprintf "(%s / %d)" a (1 + rand 9)
      | _ -> Printf.sprintf "(%s %% %d)" a (1 + rand 9)
  in
  let n_funcs = 1 + rand 3 in
  let func i =
    let ai = rand n_arrays in
    let mask = arr_sizes.(ai) - 1 in
    let mid =
      match rand 3 with
      | 0 ->
          Printf.sprintf "for (i = 0; i < %d; i = i + 1) { x = x + ((%s) ^ i); }"
            (1 + rand 8)
            (expr [ "a"; "b"; "x" ] 1)
      | 1 ->
          Printf.sprintf "if (%s > %s) { x = x - b; } else { x = x + a; }"
            (pick [ "a"; "b"; "x" ])
            (pick [ "a"; "b"; "x" ])
      | _ ->
          Printf.sprintf "x = x + arr%d[%s & %d];" ai
            (pick [ "a"; "b"; "x" ])
            mask
    in
    ( Printf.sprintf "f%d" i,
      [ "int x;"; "int i;";
        Printf.sprintf "x = %s;" (expr [ "a"; "b" ] 2);
        mid; "return x;" ] )
  in
  let funcs =
    List.init n_funcs func
    @ [ ("r0", [ "if (a <= 0) { return b; }"; "return r0(a - 1, b + (a ^ b));" ]) ]
  in
  let mvars = "t" :: scalars in
  let group () =
    match rand 8 with
    | 0 -> Printf.sprintf "t = t + %s;" (expr mvars 3)
    | 1 ->
        let gv = pick scalars in
        Printf.sprintf "%s = %s; t = t + %s;" gv (expr mvars 3) gv
    | 2 ->
        let a = rand n_arrays in
        let mask = arr_sizes.(a) - 1 in
        Printf.sprintf
          "for (i = 0; i < %d; i = i + 1) { arr%d[i & %d] = %s + i; } t = t + \
           arr%d[%d];"
          (4 + rand 12) a mask (expr mvars 2) a
          (rand arr_sizes.(a))
    | 3 ->
        Printf.sprintf
          "i = 0; while (i < %d) { i = i + 1; if ((i & 3) == %d) { continue; } \
           t = t + (i * %d); if (i > %d) { break; } }"
          (5 + rand 10) (rand 4) (1 + rand 5) (3 + rand 10)
    | 4 ->
        Printf.sprintf "t = t + f%d(%s, %s);" (rand n_funcs) (expr mvars 1)
          (expr mvars 1)
    | 5 ->
        Printf.sprintf "t = t + r0((%s) & 7, %s);" (expr mvars 1) (expr mvars 1)
    | 6 ->
        let words = pick [ 8; 16 ] in
        let idx = rand words in
        Printf.sprintf
          "p = malloc(%d); if (p != 0) { p[%d] = %s; t = t + p[%d]; free(p); }"
          (words * 4) idx (expr mvars 2) idx
    | _ -> Printf.sprintf "srand(%d); t = t + rand(%d);" (rand 1000) (1 + rand 50)
  in
  let n_groups = 4 + rand 5 in
  let base_groups = List.init n_groups (fun _ -> group ()) in
  let extra_globals, extra_groups = synth_units ~seed knobs in
  {
    globals = globals @ extra_globals;
    funcs;
    main_body =
      [ "int t;"; "int i;"; "int* p;"; "t = 0;" ]
      @ base_groups @ extra_groups
      @ [ "print_int(t);"; "return 0;" ];
  }

let generate ~seed = generate_knobbed ~knobs:default_knobs ~seed

(* --- oracles --- *)

let default_fuel = 2_000_000

let status_str = function
  | Machine.Halted n -> Printf.sprintf "halted %d" n
  | Machine.Out_of_fuel -> "out of fuel"
  | Machine.Machine_error m -> "machine error: " ^ m

(* A random well-typed query drawn from the trace's own material: real
   pcs (the index's pc posting keys), real write byte-ranges, and the
   sessions discovery actually found — so predicates mostly hit, and the
   engines' agreement is tested on non-empty results. *)
let random_query g ~events ~pcs ~spots ~sessions =
  let module Ast = Ebp_query.Ast in
  let rand = Prng.int g in
  let pick_pc () =
    if Array.length pcs = 0 then 4 + rand 1000 else pcs.(rand (Array.length pcs))
  in
  let atom () =
    match rand 8 with
    | 0 | 1 ->
        let c =
          match rand 6 with
          | 0 -> Ast.Eq
          | 1 -> Ast.Ne
          | 2 -> Ast.Lt
          | 3 -> Ast.Le
          | 4 -> Ast.Gt
          | _ -> Ast.Ge
        in
        Ast.Pc_cmp (c, pick_pc ())
    | 2 ->
        let a = pick_pc () and b = pick_pc () in
        Ast.Pc_in (min a b, max a b)
    | 3 | 4 ->
        if Array.length spots = 0 then Ast.All
        else
          let lo, hi = spots.(rand (Array.length spots)) in
          Ast.Addr_in (max 0 (lo - rand 64), hi + rand 64)
    | 5 ->
        let a = rand (events + 1) and b = rand (events + 1) in
        Ast.Time_in (min a b, max a b)
    | _ -> (
        match sessions with
        | [] -> Ast.All
        | l -> Ast.Live (List.nth l (rand (List.length l))))
  in
  let rec pred depth =
    if depth = 0 then atom ()
    else
      match rand 6 with
      | 0 -> Ast.And (pred (depth - 1), pred (depth - 1))
      | 1 -> Ast.Or (pred (depth - 1), pred (depth - 1))
      | 2 -> Ast.Not (pred (depth - 1))
      | _ -> atom ()
  in
  let pred = pred (1 + rand 2) in
  let top () = if Prng.bool g then Some (1 + rand 5) else None in
  match rand 8 with
  | 0 | 1 ->
      let field = if Prng.bool g then Ast.D_pc else Ast.D_word in
      { Ast.agg = Count_distinct field; pred; group = None; top = None;
        bucket = None }
  | 2 | 3 ->
      { Ast.agg = Count; pred; group = Some Ast.G_pc; top = top ();
        bucket = None }
  | 4 | 5 ->
      { Ast.agg = Count; pred; group = Some Ast.G_object; top = top ();
        bucket = None }
  | 6 ->
      { Ast.agg = Count; pred; group = None; top = None;
        bucket = Some (1 + rand (max 1 events)) }
  | _ -> { Ast.agg = Count; pred; group = None; top = None; bucket = None }

(* --- strategy equivalence --- *)

(* The five paper strategies are redundant implementations of the same
   observable contract: armed with the same monitor set over the same
   program, each must report the identical (pc, interval) notification
   sequence. The CP variants (hoisted, inline) are covered separately by
   the integration tests; here we pit the five distinct mechanisms
   against each other. *)
let equivalence_kinds =
  [
    Debugger.Native_hardware; Debugger.Virtual_memory; Debugger.Trap_patch;
    Debugger.Code_patch; Debugger.Virtual_breakpoint;
  ]

(* Monitors default to the program's globals, in declaration order,
   capped so Native_hardware's register file stays plausible and the
   shrinker has a small set to minimize. *)
let default_monitors (debug : Ebp_lang.Debug_info.t) =
  List.filteri (fun i _ -> i < 6)
    (List.map (fun g -> g.Ebp_lang.Debug_info.g_name) debug.globals)

let strategy_hits ~fuel ~seed ~monitors compiled kind =
  let name = Debugger.strategy_name kind in
  let dbg =
    Debugger.load ~strategy:kind ~seed
      ~monitor_reg_count:(max 4 (List.length monitors))
      compiled
  in
  let arm_failure =
    List.find_map
      (fun m ->
        match Debugger.watch_global dbg m with
        | Ok () -> None
        | Error e -> Some (Printf.sprintf "%s: watch %s: %s" name m e))
      monitors
  in
  match arm_failure with
  | Some e -> Error e
  | None -> (
      let result = Debugger.run ~fuel dbg in
      match Debugger.errors dbg with
      | e :: _ -> Error (Printf.sprintf "%s: arming error: %s" name e)
      | [] ->
          if result.Loader.status <> Machine.Halted 0 then
            Error
              (Printf.sprintf "%s: status: %s" name
                 (status_str result.Loader.status))
          else
            Ok
              (List.map
                 (fun h -> (h.Debugger.pc, h.Debugger.write))
                 (Debugger.hits dbg)))

let check_strategies ?(fuel = default_fuel) ~seed ?monitors source =
  match Ebp_lang.Compiler.compile source with
  | Error msg -> Error (Printf.sprintf "compile error: %s" msg)
  | Ok compiled -> (
      let monitors =
        match monitors with
        | Some ms -> ms
        | None -> default_monitors compiled.Ebp_lang.Compiler.debug
      in
      let runs =
        List.map
          (fun k -> (k, strategy_hits ~fuel ~seed ~monitors compiled k))
          equivalence_kinds
      in
      match
        List.find_map
          (fun (_, r) -> match r with Error e -> Some e | Ok _ -> None)
          runs
      with
      | Some e -> Error e
      | None -> (
          match List.map (fun (k, r) -> (k, Result.get_ok r)) runs with
          | [] | [ _ ] -> Ok ()
          | (k0, ref_hits) :: rest -> (
              match List.find_opt (fun (_, hs) -> hs <> ref_hits) rest with
              | None -> Ok ()
              | Some (k, hits) ->
                  let pp_hit (pc, w) =
                    Printf.sprintf "pc %d %s" pc
                      (Ebp_util.Interval.to_string w)
                  in
                  let show = function [] -> "end" | h :: _ -> pp_hit h in
                  let rec first_diff i a b =
                    match (a, b) with
                    | x :: a', y :: b' when x = y -> first_diff (i + 1) a' b'
                    | a, b ->
                        Printf.sprintf "hit %d is %s vs %s" i (show a) (show b)
                  in
                  Error
                    (Printf.sprintf
                       "%s vs %s: %d vs %d hits, first divergence: %s"
                       (Debugger.strategy_name k0)
                       (Debugger.strategy_name k) (List.length ref_hits)
                       (List.length hits)
                       (first_diff 0 ref_hits hits)))))

let check_source ?(fuel = default_fuel) ~seed source =
  let ( let* ) = Result.bind in
  let fail oracle fmt = Printf.ksprintf (fun d -> Error (oracle, d, None)) fmt in
  let* recorded, trace =
    match Ebp_trace.Recorder.record_source ~seed ~fuel source with
    | Error msg -> fail "record" "compile error: %s" msg
    | Ok (r, trace, _debug) -> (
        match (r.Loader.runtime_error, r.Loader.status) with
        | Some e, _ -> fail "record" "runtime error: %s" e
        | None, Machine.Halted 0 -> Ok (r, trace)
        | None, st -> fail "record" "status: %s" (status_str st))
  in
  (* Recording must not perturb execution. *)
  let* plain =
    match Loader.run_source ~seed ~fuel source with
    | Error msg -> fail "run-vs-record" "compile error: %s" msg
    | Ok r ->
        if r.Loader.status <> recorded.Loader.status then
          fail "run-vs-record" "status: %s vs %s" (status_str r.Loader.status)
            (status_str recorded.Loader.status)
        else if r.Loader.cycles <> recorded.Loader.cycles then
          fail "run-vs-record" "cycles: %d vs %d" r.Loader.cycles
            recorded.Loader.cycles
        else if r.Loader.instructions <> recorded.Loader.instructions then
          fail "run-vs-record" "instructions: %d vs %d" r.Loader.instructions
            recorded.Loader.instructions
        else if r.Loader.output <> recorded.Loader.output then
          fail "run-vs-record" "output: %S vs %S" r.Loader.output
            recorded.Loader.output
        else Ok r
  in
  (* [Machine.run]'s batch loop vs the single-step loop. *)
  let* () =
    match Ebp_lang.Compiler.compile source with
    | Error msg -> fail "step-vs-run" "compile error: %s" msg
    | Ok compiled ->
        let t = Loader.load ~seed compiled in
        let m = Loader.machine t in
        let rec drive budget =
          if budget = 0 then Machine.Out_of_fuel
          else
            match Machine.step m with
            | None -> drive (budget - 1)
            | Some r -> r
        in
        let status = drive fuel in
        if status <> plain.Loader.status then
          fail "step-vs-run" "status: %s vs %s" (status_str status)
            (status_str plain.Loader.status)
        else if Machine.cycles m <> plain.Loader.cycles then
          fail "step-vs-run" "cycles: %d vs %d" (Machine.cycles m)
            plain.Loader.cycles
        else if Machine.instructions_executed m <> plain.Loader.instructions
        then
          fail "step-vs-run" "instructions: %d vs %d"
            (Machine.instructions_executed m)
            plain.Loader.instructions
        else if Loader.output t <> plain.Loader.output then
          fail "step-vs-run" "output: %S vs %S" (Loader.output t)
            plain.Loader.output
        else Ok ()
  in
  (* The five watchpoint strategies, armed identically on the program's
     globals, must produce identical notification sequences. *)
  let* () =
    match check_strategies ~fuel ~seed source with
    | Ok () -> Ok ()
    | Error detail -> Error ("strategy-equivalence", detail, None)
  in
  (* The columnar codec round-trips: a fully-checked decode of the EBPT3
     image returns the metadata and a trace equal to the recording. *)
  let* () =
    let bytes = Trace.encode_columnar ~meta:"fuzz" trace in
    match Trace.decode_columnar bytes with
    | Error msg -> fail "columnar-codec" "decode: %s" msg
    | Ok (trace', meta) ->
        if meta <> "fuzz" then
          fail "columnar-codec" "meta: %S round-tripped as %S" "fuzz" meta
        else if not (Trace.equal trace' trace) then
          fail "columnar-codec" "round-trip: trace differs"
        else Ok ()
  in
  let page_sizes = Replay.default_page_sizes in
  let* index =
    let index = Write_index.build ~page_sizes trace in
    match Write_index.decode (Write_index.encode index) with
    | Error msg -> fail "index-codec" "decode: %s" msg
    | Ok index' ->
        if not (Write_index.equal index index') then
          fail "index-codec" "round-trip: index differs"
        else Ok index
  in
  (* Streaming pipeline vs batch: the same program re-recorded through
     the sealed-block writer — deliberately tiny blocks, so every seed
     crosses several block boundaries — must stream to an equal trace,
     and the block-incremental index must equal the batch build. *)
  let* () =
    let buf = Buffer.create 4096 in
    let inc = Write_index.Incremental.create ~page_sizes in
    match
      Ebp_trace.Recorder.record_source_stream ~seed ~fuel ~block_events:64
        ~on_seal:(fun ~first:_ ~count ~nobjs iter ->
          Write_index.Incremental.add_block inc ~nobjs ~count iter)
        ~write:(Buffer.add_string buf) source
    with
    | Error msg -> fail "stream-vs-batch" "compile error: %s" msg
    | Ok (_res, _events) -> (
        match Ebp_trace.Stream.read (Buffer.contents buf) with
        | Error msg -> fail "stream-vs-batch" "stream read: %s" msg
        | Ok trace' ->
            if not (Trace.equal trace' trace) then
              fail "stream-vs-batch" "streamed trace differs from batch"
            else (
              match Write_index.Incremental.snapshot inc with
              | None -> fail "stream-vs-batch" "incremental index degraded"
              | Some inc_index ->
                  if not (Write_index.equal inc_index index) then
                    fail "stream-vs-batch"
                      "incremental index differs from batch build"
                  else Ok ()))
  in
  let scan = Replay.discover_and_replay ~page_sizes ~engine:Replay.Scan trace in
  let indexed =
    Replay.discover_and_replay ~page_sizes ~engine:Replay.Indexed ~index trace
  in
  let* () =
    if scan <> indexed then
      if List.length scan <> List.length indexed then
        fail "scan-vs-indexed" "session count: %d vs %d" (List.length scan)
          (List.length indexed)
      else
        let diverging =
          List.find_opt
            (fun ((s, c), (s', c')) ->
              not (Ebp_sessions.Session.equal s s') || c <> c')
            (List.combine scan indexed)
        in
        match diverging with
        | Some ((s, _), _) ->
            fail "scan-vs-indexed" "counts differ for %s"
              (Ebp_sessions.Session.to_string s)
        | None -> fail "scan-vs-indexed" "results differ"
    else Ok ()
  in
  (* Compiled vs streaming query engines, on random well-typed queries. *)
  let g = Prng.create ((seed * 0x9e3779b9) lxor 0x51f15eed) in
  let pcp = Write_index.pc_writes index in
  let pcs =
    Array.init (Write_index.key_count pcp) (Write_index.key_at pcp)
  in
  let all = Trace.write_positions trace ~start:0 ~stop:(Trace.length trace) in
  let n_spots = min (Array.length all) 16 in
  let spots =
    Array.init n_spots (fun i ->
        Trace.get_raw trace
          all.(i * Array.length all / n_spots)
          (fun ~tag:_ ~obj:_ ~lo ~hi ~pc:_ -> (lo, hi)))
  in
  let sessions = List.map fst scan in
  let rec go k =
    if k = 0 then Ok ()
    else
      let q =
        random_query g ~events:(Trace.length trace) ~pcs ~spots ~sessions
      in
      match Ebp_query.Query.check_engines ~index trace q with
      | Ok _ -> go (k - 1)
      | Error msg ->
          Error ("query-engines", msg, Some (Ebp_query.Ast.to_string q))
  in
  go 8

type failure = {
  seed : int;
  oracle : string;
  detail : string;
  query : string option;
  monitors : string list option;
  program : program;
  source : string;
}

let check_program ?fuel ~seed program =
  let source = render program in
  match check_source ?fuel ~seed source with
  | Ok () -> Ok ()
  | Error (oracle, detail, query) ->
      Error { seed; oracle; detail; query; monitors = None; program; source }

let check_seed ?fuel ?knobs seed =
  let knobs = Option.value knobs ~default:default_knobs in
  check_program ?fuel ~seed (generate_knobbed ~knobs ~seed)

(* --- shrinking --- *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Two failures count as "the same bug" when the oracle matches and the
   detail agrees up to its first ':' — specific numbers (cycle counts,
   error positions) may drift as the program shrinks, but a candidate
   that fails a different oracle (or turns a divergence into a compile
   error) is a different bug and is rejected. *)
let same_class f (oracle, detail) =
  let head s =
    match String.index_opt s ':' with Some i -> String.sub s 0 i | None -> s
  in
  f.oracle = oracle && head f.detail = head detail

let drop_nth xs n = List.filteri (fun i _ -> i <> n) xs

(* Deleting a function also deletes every line calling it, so the
   candidate stays closed. *)
let without_func p name =
  let calls l = contains_sub l (name ^ "(") in
  {
    globals = p.globals;
    funcs =
      List.filter_map
        (fun (n, body) ->
          if n = name then None
          else Some (n, List.filter (fun l -> not (calls l)) body))
        p.funcs;
    main_body = List.filter (fun l -> not (calls l)) p.main_body;
  }

let candidates p =
  List.init (List.length p.main_body) (fun i ->
      { p with main_body = drop_nth p.main_body i })
  @ List.map (fun (name, _) -> without_func p name) p.funcs
  @ List.concat
      (List.mapi
         (fun j (_, body) ->
           List.init (List.length body) (fun i ->
               {
                 p with
                 funcs =
                   List.mapi
                     (fun j' (n, b) ->
                       if j = j' then (n, drop_nth b i) else (n, b))
                     p.funcs;
               }))
         p.funcs)
  @ List.init (List.length p.globals) (fun i ->
        { p with globals = drop_nth p.globals i })

(* Minimize the failing query against the (already shrunk) program: walk
   [Ast.shrink_candidates] greedily while the engines still disagree on
   the fixed trace, so a query-engines reproducer is minimal in both the
   program and the query. *)
let shrink_query ?fuel f =
  match f.query with
  | None -> f
  | Some text -> (
      match Ebp_query.Query.parse text with
      | Error _ -> f
      | Ok q0 -> (
          match Ebp_trace.Recorder.record_source ~seed:f.seed ?fuel f.source with
          | Error _ -> f
          | Ok (_, trace, _) ->
              let index =
                Write_index.build ~page_sizes:Replay.default_page_sizes trace
              in
              let fails q =
                match Ebp_query.Query.check_engines ~index trace q with
                | Error _ -> true
                | Ok _ -> false
              in
              if not (fails q0) then f
              else
                let rec fix q =
                  match
                    List.find_opt fails (Ebp_query.Ast.shrink_candidates q)
                  with
                  | Some q' -> fix q'
                  | None -> q
                in
                { f with query = Some (Ebp_query.Ast.to_string (fix q0)) }))

(* Minimize the monitor set of a strategy-equivalence failure against
   the (already shrunk) program: greedily drop monitors while the
   strategies still disagree, so the reproducer names only the
   watchpoints that matter. *)
let shrink_monitors ?fuel f =
  if f.oracle <> "strategy-equivalence" then f
  else
    match Ebp_lang.Compiler.compile f.source with
    | Error _ -> f
    | Ok compiled ->
        let initial =
          match f.monitors with
          | Some ms -> ms
          | None -> default_monitors compiled.Ebp_lang.Compiler.debug
        in
        let fails ms =
          ms <> []
          &&
          match check_strategies ?fuel ~seed:f.seed ~monitors:ms f.source with
          | Error _ -> true
          | Ok () -> false
        in
        if not (fails initial) then f
        else
          let rec fix ms =
            let rec try_drop i =
              if i >= List.length ms then ms
              else
                let ms' = drop_nth ms i in
                if fails ms' then fix ms' else try_drop (i + 1)
            in
            try_drop 0
          in
          { f with monitors = Some (fix initial) }

let shrink ?fuel f =
  (* Greedy fixpoint: take the first accepted deletion and restart. Every
     acceptance removes at least one source unit, so this terminates. *)
  let rec fix f =
    let rec try_candidates = function
      | [] -> f
      | p :: rest -> (
          match check_program ?fuel ~seed:f.seed p with
          | Ok () -> try_candidates rest
          | Error f' ->
              if same_class f (f'.oracle, f'.detail) then fix f'
              else try_candidates rest)
    in
    try_candidates (candidates f.program)
  in
  shrink_query ?fuel (shrink_monitors ?fuel (fix f))
