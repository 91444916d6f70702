(* Tests for Ebp_machine: memory protection semantics, CPU execution,
   faults, traps, monitor registers, hooks. *)

module Interval = Ebp_util.Interval
module Memory = Ebp_machine.Memory
module Machine = Ebp_machine.Machine
module Cost_model = Ebp_machine.Cost_model
module Reg = Ebp_isa.Reg
module Instr = Ebp_isa.Instr

let assemble src =
  match Ebp_isa.Asm.parse_resolved src with
  | Ok p -> p
  | Error e -> Alcotest.failf "assembly error: %s" e

let run_expect_halt machine =
  match Machine.run machine with
  | Machine.Halted code -> code
  | Machine.Out_of_fuel -> Alcotest.fail "out of fuel"
  | Machine.Machine_error msg -> Alcotest.fail msg

(* --- Memory --- *)

let test_memory_word_roundtrip () =
  let m = Memory.create () in
  Memory.store_word m 0x1000 0x12345678;
  Alcotest.(check int) "read back" 0x12345678 (Memory.load_word m 0x1000);
  Memory.store_word m 0x1000 (-42);
  Alcotest.(check int) "negative sign-extends" (-42) (Memory.load_word m 0x1000)

let test_memory_byte_ops () =
  let m = Memory.create () in
  Memory.store_word m 0x2000 0x04030201;
  Alcotest.(check int) "little endian b0" 1 (Memory.load_byte m 0x2000);
  Alcotest.(check int) "little endian b3" 4 (Memory.load_byte m 0x2003);
  Memory.store_byte m 0x2001 0xff;
  Alcotest.(check int) "byte patch" 0x0403ff01 (Memory.load_word m 0x2000)

let test_memory_zero_fill () =
  let m = Memory.create () in
  Alcotest.(check int) "untouched word" 0 (Memory.load_word m 0x7fff0000);
  Alcotest.(check int) "no pages materialized" 0 (Memory.materialized_pages m)

let test_memory_alignment () =
  let m = Memory.create () in
  Alcotest.(check bool) "unaligned store raises" true
    (match Memory.store_word m 0x1002 1 with
    | () -> false
    | exception Memory.Bad_address _ -> true);
  Alcotest.(check bool) "negative addr raises" true
    (match Memory.load_byte m (-1) with
    | _ -> false
    | exception Memory.Bad_address _ -> true)

let test_memory_protection () =
  let m = Memory.create () in
  Memory.store_word m 0x3000 7;
  Memory.protect m ~page:(Memory.page_of m 0x3000) Memory.Read_only;
  Alcotest.(check int) "reads still allowed" 7 (Memory.load_word m 0x3000);
  Alcotest.(check bool) "write faults" true
    (match Memory.store_word m 0x3000 8 with
    | () -> false
    | exception Memory.Write_fault { addr = 0x3000; width = 4 } -> true
    | exception Memory.Write_fault _ -> false);
  Alcotest.(check int) "value unchanged after fault" 7 (Memory.load_word m 0x3000);
  Memory.privileged_store_word m 0x3000 8;
  Alcotest.(check int) "privileged bypasses" 8 (Memory.load_word m 0x3000);
  Memory.protect m ~page:(Memory.page_of m 0x3000) Memory.Read_write;
  Memory.store_word m 0x3000 9;
  Alcotest.(check int) "unprotected again" 9 (Memory.load_word m 0x3000)

let test_memory_protect_range () =
  let m = Memory.create ~page_size:4096 () in
  let range = Interval.make ~lo:4000 ~hi:9000 in
  Memory.protect_range m range Memory.Read_only;
  Alcotest.(check int) "three pages protected" 3 (Memory.protected_page_count m);
  Alcotest.(check (list int)) "pages of range" [ 0; 1; 2 ]
    (Memory.pages_of_range m range)

let test_memory_page_size_validation () =
  Alcotest.(check bool) "bad page size" true
    (match Memory.create ~page_size:3000 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let prop_memory_random_words =
  QCheck2.Test.make ~name:"random word writes read back" ~count:100
    QCheck2.Gen.(
      list_size (int_range 1 50)
        (pair (int_range 0 100_000) (int_range (-2147483648) 2147483647)))
    (fun writes ->
      let m = Memory.create () in
      let reference = Hashtbl.create 64 in
      List.iter
        (fun (slot, v) ->
          let addr = slot * 4 in
          Memory.store_word m addr v;
          Hashtbl.replace reference addr v)
        writes;
      Hashtbl.fold
        (fun addr v ok -> ok && Memory.load_word m addr = v)
        reference true)

(* --- Cost model --- *)

let test_cost_conversions () =
  Alcotest.(check int) "1us at 40MHz" 40 (Cost_model.cycles_of_us 1.0);
  Alcotest.(check int) "561us" 22440 (Cost_model.cycles_of_us 561.0);
  Alcotest.(check (float 1e-9)) "cycles to ms" 1.0
    (Cost_model.ms_of_cycles 40_000)

let test_cost_per_instr () =
  let c = Cost_model.default in
  Alcotest.(check int) "alu" c.Cost_model.alu
    (Cost_model.cost c (Instr.Alu (Instr.Add, Reg.t_ 0, Reg.t_ 0, Reg.t_ 1)));
  Alcotest.(check int) "div slower" c.Cost_model.div
    (Cost_model.cost c (Instr.Alui (Instr.Div, Reg.t_ 0, Reg.t_ 0, 2)));
  Alcotest.(check int) "markers free" 0 (Cost_model.cost c (Instr.Enter 0))

(* --- Machine execution --- *)

let test_machine_arith_program () =
  (* 6 * 7 given via a small loop: v0 = 6+6+...+6 (7 times) *)
  let p =
    assemble
      {|
  li t0, 0       ; acc
  li t1, 7       ; counter
loop:
  beq t1, zero, done
  addi t0, t0, 6
  subi t1, t1, 1
  jmp loop
done:
  mv v0, t0
  halt
|}
  in
  let m = Machine.create p in
  Alcotest.(check int) "42" 42 (run_expect_halt m)

let test_machine_wraps_32bit () =
  let p = assemble "  li t0, 2147483647\n  addi t0, t0, 1\n  mv v0, t0\n  halt\n" in
  let m = Machine.create p in
  Alcotest.(check int) "wraps to min_int32" (-2147483648) (run_expect_halt m)

let test_machine_zero_register () =
  let p = assemble "  li zero, 99\n  mv v0, zero\n  halt\n" in
  let m = Machine.create p in
  Alcotest.(check int) "zero stays zero" 0 (run_expect_halt m)

let test_machine_div_by_zero () =
  let p = assemble "  li t0, 1\n  li t1, 0\n  div t2, t0, t1\n  halt\n" in
  match Machine.run (Machine.create p) with
  | Machine.Machine_error msg ->
      Alcotest.(check bool) "mentions division" true
        (String.length msg >= 8 && String.sub msg 0 8 = "division")
  | _ -> Alcotest.fail "expected machine error"

let test_machine_pc_out_of_range () =
  let p = assemble "  jmp @99\n  halt\n" in
  match Machine.run (Machine.create p) with
  | Machine.Machine_error _ -> ()
  | _ -> Alcotest.fail "expected machine error"

let test_machine_fuel () =
  let p = assemble "spin:\n  jmp spin\n" in
  match Machine.run ~fuel:100 (Machine.create p) with
  | Machine.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected out of fuel"

let test_machine_call_ret () =
  let p =
    assemble
      {|
  li a0, 5
  jal double
  mv v0, v0
  halt
double:
  add v0, a0, a0
  ret
|}
  in
  Alcotest.(check int) "call/ret" 10 (run_expect_halt (Machine.create p))

let test_machine_jalr () =
  let p =
    assemble
      {|
  li t0, 4        ; instruction index of the target below
  jalr t0
  mv v0, v1
  halt
  li v1, 77     ; target of jalr
  ret
|}
  in
  Alcotest.(check int) "indirect call" 77 (run_expect_halt (Machine.create p))

let test_machine_store_hook () =
  let p =
    assemble
      {|
  li t0, 123
  li t1, 4096
  sw t0, 0(t1)
  !sw t0, 4(t1)
  sb t0, 8(t1)
  halt
|}
  in
  let m = Machine.create p in
  let seen = ref [] in
  Machine.set_store_hook m
    (Some
       (fun _m ~addr ~width ~value ~pc:_ ~implicit ->
         seen := (addr, width, value, implicit) :: !seen));
  ignore (run_expect_halt m);
  Alcotest.(check int) "three stores" 3 (List.length !seen);
  (match List.rev !seen with
  | [ (4096, 4, 123, false); (4100, 4, 123, true); (4104, 1, 123, false) ] -> ()
  | _ -> Alcotest.fail "unexpected store sequence")

let test_machine_enter_leave () =
  let p =
    assemble
      {|
  enter 0
  jal inner
  leave 0
  halt
inner:
  enter 1
  leave 1
  ret
|}
  in
  let m = Machine.create p in
  let events = ref [] in
  let depths = ref [] in
  Machine.set_enter_hook m
    (Some
       (fun m f ->
         events := `Enter f :: !events;
         depths := List.length (Machine.func_stack m) :: !depths));
  Machine.set_leave_hook m (Some (fun _ f -> events := `Leave f :: !events));
  ignore (run_expect_halt m);
  Alcotest.(check bool) "sequence" true
    (List.rev !events = [ `Enter 0; `Enter 1; `Leave 1; `Leave 0 ]);
  Alcotest.(check (list int)) "stack depths at enter" [ 1; 2 ]
    (List.rev !depths)

let test_machine_syscall () =
  let p = assemble "  li a0, 31\n  syscall 9\n  halt\n" in
  let m = Machine.create p in
  Machine.set_syscall_handler m
    (Some
       (fun m n ->
         Alcotest.(check int) "syscall number" 9 n;
         Machine.set_reg m Reg.v0 (Machine.get_reg m Reg.a0 * 2)));
  Alcotest.(check int) "handler result" 62 (run_expect_halt m)

let test_machine_syscall_unhandled () =
  let p = assemble "  syscall 1\n  halt\n" in
  match Machine.run (Machine.create p) with
  | Machine.Machine_error _ -> ()
  | _ -> Alcotest.fail "expected error"

let test_machine_trap_handler () =
  let p = assemble "  trap 55\n  li v0, 1\n  halt\n" in
  let m = Machine.create p in
  let got = ref None in
  Machine.set_trap_handler m
    (Some (fun _ ~code ~trap_pc -> got := Some (code, trap_pc)));
  Alcotest.(check int) "continues after trap" 1 (run_expect_halt m);
  Alcotest.(check (option (pair int int))) "trap code and pc" (Some (55, 0)) !got

let test_machine_write_fault_emulation () =
  let p =
    assemble
      {|
  li t0, 11
  li t1, 4096
  sw t0, 0(t1)
  lw v0, 0(t1)
  halt
|}
  in
  let m = Machine.create p in
  let mem = Machine.memory m in
  Memory.protect mem ~page:(Memory.page_of mem 4096) Memory.Read_only;
  let faults = ref 0 in
  Machine.set_write_fault_handler m
    (Some
       (fun m ~addr ~width ~value ~pc:_ ->
         incr faults;
         let mem = Machine.memory m in
         if width = 4 then Memory.privileged_store_word mem addr value
         else Memory.privileged_store_byte mem addr value));
  Alcotest.(check int) "emulated value visible" 11 (run_expect_halt m);
  Alcotest.(check int) "one fault" 1 !faults

let test_machine_write_fault_unhandled () =
  let p = assemble "  li t0, 1\n  li t1, 4096\n  sw t0, 0(t1)\n  halt\n" in
  let m = Machine.create p in
  let mem = Machine.memory m in
  Memory.protect mem ~page:(Memory.page_of mem 4096) Memory.Read_only;
  match Machine.run m with
  | Machine.Machine_error _ -> ()
  | _ -> Alcotest.fail "expected unhandled fault error"

let test_machine_monitor_registers () =
  let p =
    assemble
      {|
  li t0, 5
  li t1, 4096
  sw t0, 0(t1)    ; hit (covered)
  sw t0, 64(t1)   ; miss
  sw t0, 4(t1)    ; hit (word overlap)
  halt
|}
  in
  let m = Machine.create ~monitor_reg_count:2 p in
  Machine.set_monitor_reg m 0 (Some (Interval.make ~lo:4096 ~hi:4103));
  let hits = ref [] in
  Machine.set_monitor_fault_handler m
    (Some (fun _ ~reg ~addr ~width:_ ~pc:_ -> hits := (reg, addr) :: !hits));
  ignore (run_expect_halt m);
  Alcotest.(check (list (pair int int))) "two hits" [ (0, 4096); (0, 4100) ]
    (List.rev !hits);
  (* The write itself completed before notification (monitor, not barrier). *)
  Alcotest.(check int) "write landed" 5 (Memory.load_word (Machine.memory m) 4096)

let test_machine_monitor_reg_bounds () =
  let p = assemble "  halt\n" in
  let m = Machine.create ~monitor_reg_count:4 p in
  Alcotest.(check int) "count" 4 (Machine.monitor_reg_count m);
  Alcotest.check_raises "oob"
    (Invalid_argument "Machine: monitor register 4 out of range") (fun () ->
      Machine.set_monitor_reg m 4 None)

let test_machine_chk_handler () =
  let p = assemble "  li t1, 4096\n  chk 8(t1), 4\n  halt\n" in
  let m = Machine.create p in
  let got = ref None in
  Machine.set_chk_handler m (Some (fun _ ~range ~pc -> got := Some (range, pc)));
  ignore (run_expect_halt m);
  match !got with
  | Some (range, 1) ->
      Alcotest.(check string) "range" "[0x1008,0x100b]" (Interval.to_string range)
  | _ -> Alcotest.fail "chk handler not invoked correctly"

let test_machine_charge_cycles () =
  let p = assemble "  halt\n" in
  let m = Machine.create p in
  Machine.charge m 1000;
  ignore (Machine.run m);
  Alcotest.(check bool) "cycles include charge" true (Machine.cycles m >= 1000)

let test_machine_unresolved_rejected () =
  let p = Ebp_isa.Program.of_instrs [ Instr.Jmp (Instr.Label "x") ] in
  Alcotest.check_raises "unresolved"
    (Invalid_argument "Machine.create: program has unresolved labels") (fun () ->
      ignore (Machine.create p))


(* --- fuzz: random straight-line programs terminate cleanly --- *)

(* Random ALU/memory/branch soup over a safe address window, with only
   forward branches so every program terminates. Shared by the
   stops-cleanly property and the reference-interpreter differential. *)
let fuzz_program_gen =
  let open QCheck2.Gen in
  let reg = map Ebp_isa.Reg.of_int (int_range 1 27) in
  let addr_reg = map Ebp_isa.Reg.of_int (int_range 1 27) in
  let instr_gen n =
    oneof
      [
        map2 (fun r v -> Instr.Li (r, v)) reg (int_range (-1000) 1000);
        map3
          (fun op (a, b) c -> Instr.Alu (op, a, b, c))
          (oneofl [ Instr.Add; Instr.Sub; Instr.Mul; Instr.And; Instr.Xor ])
          (pair reg reg) reg;
        map2 (fun r b -> Instr.Lw (r, b, 8192)) reg addr_reg;
        map2 (fun r b -> Instr.Sw (r, b, 8192)) reg addr_reg;
        (* Forward branch within the program. *)
        map3
          (fun (a, b) c t -> Instr.Br (c, a, b, Instr.Abs t))
          (pair reg reg)
          (oneofl [ Instr.Eq; Instr.Ne; Instr.Lt ])
          (int_range (n + 1) (n + 5));
      ]
  in
  let* len = int_range 1 40 in
  flatten_l (List.init len instr_gen)

(* Pad so forward branch targets stay in range, halt, and point every
   register at a valid window so loads/stores with the fixed 8192 offset
   stay within bounds. Returns the padded code alongside the machine for
   the reference interpreter. *)
let fuzz_setup instrs =
  let code =
    Array.of_list (instrs @ List.init 6 (fun _ -> Instr.Nop) @ [ Instr.Halt ])
  in
  let m = Machine.create (Ebp_isa.Program.of_instrs (Array.to_list code)) in
  for i = 1 to 27 do
    Machine.set_reg m (Ebp_isa.Reg.of_int i) (4 * (i * 13 mod 1000))
  done;
  (code, m)

let prop_machine_fuzz_safe =
  (* Whatever the outcome (halt, error, fuel), the machine must return a
     stop_reason rather than raise. *)
  QCheck2.Test.make ~name:"random programs stop cleanly" ~count:200
    fuzz_program_gen
    (fun instrs ->
      let _, m = fuzz_setup instrs in
      match Machine.run ~fuel:10_000 m with
      | Machine.Halted _ | Machine.Out_of_fuel | Machine.Machine_error _ -> true)

(* --- differential testing against a reference interpreter --- *)

type ref_outcome = R_halt of int | R_fuel | R_error

(* An independent, deliberately naive interpreter for the subset the fuzz
   generator emits, over a word-keyed hashtable memory. The predecoded
   machine must agree with it exactly: stop reason, cycles, instruction
   count, and every register. *)
let reference_run ~fuel code regs =
  let truncate32 v =
    let v = v land 0xFFFFFFFF in
    if v land 0x80000000 <> 0 then v - 0x100000000 else v
  in
  let costs = Cost_model.default in
  let mem = Hashtbl.create 64 in
  let get r = regs.(Reg.to_int r) in
  let set r v =
    let i = Reg.to_int r in
    if i <> 0 then regs.(i) <- truncate32 v
  in
  let cycles = ref 0 and executed = ref 0 in
  let pc = ref 0 in
  let outcome = ref None in
  let remaining = ref fuel in
  while !outcome = None && !remaining > 0 do
    decr remaining;
    if !pc < 0 || !pc >= Array.length code then outcome := Some R_error
    else begin
      let instr = code.(!pc) in
      incr executed;
      cycles := !cycles + Cost_model.cost costs instr;
      match instr with
      | Instr.Nop -> incr pc
      | Instr.Halt -> outcome := Some (R_halt (get Reg.v0))
      | Instr.Li (rd, v) ->
          set rd v;
          incr pc
      | Instr.Alu (op, rd, a, b) ->
          let x = get a and y = get b in
          let v =
            match op with
            | Instr.Add -> x + y
            | Instr.Sub -> x - y
            | Instr.Mul -> x * y
            | Instr.And -> x land y
            | Instr.Xor -> x lxor y
            | _ -> Alcotest.fail "unexpected ALU op in fuzz program"
          in
          set rd v;
          incr pc
      | Instr.Lw (rd, base, off) ->
          let addr = get base + off in
          if addr < 0 || addr + 4 > 0x100000000 || addr land 3 <> 0 then
            outcome := Some R_error
          else begin
            set rd (Option.value ~default:0 (Hashtbl.find_opt mem addr));
            incr pc
          end
      | Instr.Sw (rs, base, off) ->
          let addr = get base + off in
          if addr < 0 || addr + 4 > 0x100000000 || addr land 3 <> 0 then
            outcome := Some R_error
          else begin
            Hashtbl.replace mem addr (get rs);
            incr pc
          end
      | Instr.Br (cond, a, b, target) ->
          let t =
            match target with
            | Instr.Abs i -> i
            | Instr.Label _ -> Alcotest.fail "unresolved label in fuzz program"
          in
          let x = get a and y = get b in
          let taken =
            match cond with
            | Instr.Eq -> x = y
            | Instr.Ne -> x <> y
            | Instr.Lt -> x < y
            | _ -> Alcotest.fail "unexpected branch cond in fuzz program"
          in
          pc := if taken then t else !pc + 1
      | _ -> Alcotest.fail "unexpected instruction in fuzz program"
    end
  done;
  let outcome = match !outcome with Some o -> o | None -> R_fuel in
  (outcome, !cycles, !executed)

let prop_machine_matches_reference =
  QCheck2.Test.make ~name:"predecoded machine matches reference interpreter"
    ~count:300 fuzz_program_gen
    (fun instrs ->
      let code, m = fuzz_setup instrs in
      let regs = Array.make 32 0 in
      for i = 1 to 27 do
        regs.(i) <- 4 * (i * 13 mod 1000)
      done;
      let fuel = 10_000 in
      let outcome, cycles, executed = reference_run ~fuel code regs in
      let stop = Machine.run ~fuel m in
      let stop_ok =
        match (stop, outcome) with
        | Machine.Halted a, R_halt b -> a = b
        | Machine.Out_of_fuel, R_fuel -> true
        | Machine.Machine_error _, R_error -> true
        | _ -> false
      in
      stop_ok
      && Machine.cycles m = cycles
      && Machine.instructions_executed m = executed
      &&
      let ok = ref true in
      for i = 0 to 27 do
        if Machine.get_reg m (Reg.of_int i) <> regs.(i) then ok := false
      done;
      !ok)

(* --- run vs step differential over the real workloads --- *)

module Workload = Ebp_workloads.Workload
module Loader = Ebp_runtime.Loader
module Recorder = Ebp_trace.Recorder
module Trace = Ebp_trace.Trace

(* [Machine.run]'s batched loop and [Machine.step]'s one-instruction path
   must be indistinguishable from the outside: same stop reason, same
   counters, same output, and bit-identical recorded traces on all five
   workloads. *)
let test_workloads_run_vs_step () =
  List.iter
    (fun (w : Workload.t) ->
      let run =
        match Workload.record w with
        | Ok run -> run
        | Error msg -> Alcotest.failf "%s: record failed: %s" w.Workload.name msg
      in
      let run_result = Option.get run.Workload.result in
      let compiled =
        match Ebp_lang.Compiler.compile w.Workload.source with
        | Ok c -> c
        | Error msg -> Alcotest.failf "%s: compile failed: %s" w.Workload.name msg
      in
      let loader = Loader.load ~seed:w.Workload.seed compiled in
      let recorder = Recorder.attach loader in
      let machine = Loader.machine loader in
      let rec drive () =
        match Machine.step machine with None -> drive () | Some reason -> reason
      in
      let status = drive () in
      let trace = Recorder.finish recorder in
      (match status with
      | Machine.Halted 0 -> ()
      | _ -> Alcotest.failf "%s: step-driven run did not halt cleanly" w.Workload.name);
      Alcotest.(check int)
        (w.Workload.name ^ ": cycles")
        run_result.Loader.cycles (Machine.cycles machine);
      Alcotest.(check int)
        (w.Workload.name ^ ": instructions")
        run_result.Loader.instructions
        (Machine.instructions_executed machine);
      Alcotest.(check string)
        (w.Workload.name ^ ": output")
        run_result.Loader.output (Loader.output loader);
      Alcotest.(check bool)
        (w.Workload.name ^ ": trace identical")
        true
        (Trace.equal run.Workload.trace trace))
    Workload.all

(* --- observability counters --- *)

let test_machine_obs_counters () =
  let module Metrics = Ebp_obs.Metrics in
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    (fun () ->
      let p =
        assemble
          {|
  li t0, 123
  li t1, 4096
  sw t0, 0(t1)
  sb t0, 8(t1)
  halt
|}
      in
      let m = Machine.create p in
      ignore (run_expect_halt m);
      let counter name =
        let snap = Metrics.snapshot () in
        match
          List.find_opt (fun (n, _, _) -> String.equal n name) snap.Metrics.counters
        with
        | Some (_, total, _) -> total
        | None -> Alcotest.failf "counter %s not registered" name
      in
      Alcotest.(check int) "machine.steps" (Machine.instructions_executed m)
        (counter "machine.steps");
      Alcotest.(check int) "machine.stores" 2 (counter "machine.stores"))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "machine"
    [
      ( "memory",
        [
          Alcotest.test_case "word roundtrip" `Quick test_memory_word_roundtrip;
          Alcotest.test_case "byte ops" `Quick test_memory_byte_ops;
          Alcotest.test_case "zero fill" `Quick test_memory_zero_fill;
          Alcotest.test_case "alignment" `Quick test_memory_alignment;
          Alcotest.test_case "protection" `Quick test_memory_protection;
          Alcotest.test_case "protect range" `Quick test_memory_protect_range;
          Alcotest.test_case "page size validation" `Quick
            test_memory_page_size_validation;
          q prop_memory_random_words;
        ] );
      ( "cost model",
        [
          Alcotest.test_case "conversions" `Quick test_cost_conversions;
          Alcotest.test_case "per instruction" `Quick test_cost_per_instr;
        ] );
      ( "execution",
        [
          Alcotest.test_case "arith loop" `Quick test_machine_arith_program;
          Alcotest.test_case "32-bit wrap" `Quick test_machine_wraps_32bit;
          Alcotest.test_case "zero register" `Quick test_machine_zero_register;
          Alcotest.test_case "div by zero" `Quick test_machine_div_by_zero;
          Alcotest.test_case "pc out of range" `Quick test_machine_pc_out_of_range;
          Alcotest.test_case "fuel" `Quick test_machine_fuel;
          Alcotest.test_case "call/ret" `Quick test_machine_call_ret;
          Alcotest.test_case "jalr" `Quick test_machine_jalr;
        ] );
      ( "hooks and faults",
        [
          Alcotest.test_case "store hook" `Quick test_machine_store_hook;
          Alcotest.test_case "enter/leave" `Quick test_machine_enter_leave;
          Alcotest.test_case "syscall" `Quick test_machine_syscall;
          Alcotest.test_case "syscall unhandled" `Quick test_machine_syscall_unhandled;
          Alcotest.test_case "trap handler" `Quick test_machine_trap_handler;
          Alcotest.test_case "write fault emulation" `Quick
            test_machine_write_fault_emulation;
          Alcotest.test_case "write fault unhandled" `Quick
            test_machine_write_fault_unhandled;
          Alcotest.test_case "monitor registers" `Quick test_machine_monitor_registers;
          Alcotest.test_case "monitor reg bounds" `Quick test_machine_monitor_reg_bounds;
          Alcotest.test_case "chk handler" `Quick test_machine_chk_handler;
          Alcotest.test_case "charge cycles" `Quick test_machine_charge_cycles;
          Alcotest.test_case "unresolved rejected" `Quick
            test_machine_unresolved_rejected;
          q prop_machine_fuzz_safe;
        ] );
      ( "differential",
        [
          q prop_machine_matches_reference;
          Alcotest.test_case "workloads: run vs step" `Slow
            test_workloads_run_vs_step;
          Alcotest.test_case "obs counters" `Quick test_machine_obs_counters;
        ] );
    ]
