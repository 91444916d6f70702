(** Differential fuzzing: generated MiniC programs checked against the
    codebase's built-in redundancies.

    A seed deterministically generates a small, always-terminating MiniC
    program (bounded loops, masked recursion depth and subscripts,
    constant divisors), which is then pushed through nine oracles:

    + {b record} — it compiles, runs without a runtime error, and halts
      with exit code 0;
    + {b run-vs-record} — recording a trace does not perturb execution
      (status, cycles, instructions, output);
    + {b step-vs-run} — the single-{!Ebp_machine.Machine.step} loop and
      {!Ebp_machine.Machine.run}'s batch loop agree exactly;
    + {b strategy-equivalence} — the five watchpoint strategies (NH, VM,
      TP, CP, VB), armed on the same globals over the same program, all
      arm cleanly and report identical (pc, interval) notification
      sequences;
    + {b columnar-codec} / {b index-codec} — the EBPT3 and EBPW2 codecs
      round-trip the recording exactly ({!Ebp_trace.Trace.equal},
      {!Ebp_trace.Write_index.equal});
    + {b stream-vs-batch} — the streaming recorder reproduces the batch
      trace exactly, with an incremental index equal to the batch
      build;
    + {b scan-vs-indexed} — both phase-2 replay engines produce identical
      session counts;
    + {b query-engines} — random well-typed trace queries (built from
      the trace's own pcs, addresses and discovered sessions) produce
      identical results from {!Ebp_query}'s compiled and streaming
      engines.

    A failure carries the offending program (and, for query-engines, the
    offending query; for strategy-equivalence, the minimized monitor
    set); {!shrink} deletes source units (statement groups, helper
    functions, globals) to a fixpoint while the {e same} oracle keeps
    failing — then minimizes the monitor set and the query over the
    shrunk program — yielding a minimal reproducer. [ebp fuzz] drives
    this; a fixed-seed batch also runs in the tier-1 test suite. *)

type program = {
  globals : string list;  (** global declaration lines *)
  funcs : (string * string list) list;  (** helper name, body lines *)
  main_body : string list;  (** statement groups of [main] *)
}

type knobs = {
  gen_events : int;
      (** extra hot write loops appended to [main], ~2k writes each — the
          event-count dial for synthesized workloads (raise the fuel
          accordingly) *)
  gen_heap_churn : int;  (** extra malloc / write-loop / free groups *)
  gen_session_density : int;
      (** extra monitored globals, each with a small write loop *)
}

val default_knobs : knobs
(** All zeros: generation is byte-identical to the knobless fuzzer. *)

val generate : seed:int -> program
(** Deterministic in [seed]; [generate_knobbed] with {!default_knobs}. *)

val generate_knobbed : knobs:knobs -> seed:int -> program
(** Deterministic in [seed] and [knobs]; knob-driven units draw from an
    independent PRNG stream, so the base program never shifts. *)

val render : program -> string
(** Flatten to MiniC source. *)

val check_source :
  ?fuel:int ->
  seed:int ->
  string ->
  (unit, string * string * string option) result
(** Run every oracle over one source string ([seed] seeds the program's
    PRNG). [Error (oracle, detail, query)] names the first oracle that
    failed; [query] is the offending query's canonical text when that
    oracle is query-engines. [fuel] (default 2,000,000) bounds each
    execution. *)

val check_strategies :
  ?fuel:int ->
  seed:int ->
  ?monitors:string list ->
  string ->
  (unit, string) result
(** The strategy-equivalence oracle alone: compile [source], arm every
    strategy in {{!Ebp_core.Debugger.strategy_kind} NH, VM, TP, CP, VB}
    with the same [monitors] (default: the program's globals, in
    declaration order, capped at 6), run each to completion, and demand
    clean arming plus identical (pc, interval) hit sequences. The error
    names the diverging strategy pair and the first differing hit. *)

type failure = {
  seed : int;
  oracle : string;
  detail : string;
  query : string option;  (** the failing query, for query-engines *)
  monitors : string list option;
      (** the minimized monitor set, for strategy-equivalence (filled in
          by {!shrink}) *)
  program : program;
  source : string;
}

val check_program : ?fuel:int -> seed:int -> program -> (unit, failure) result

val check_seed : ?fuel:int -> ?knobs:knobs -> int -> (unit, failure) result
(** [check_program] of [generate_knobbed ~knobs ~seed], executed with the
    same seed. *)

val shrink : ?fuel:int -> failure -> failure
(** Greedy delta-debugging: repeatedly delete the first source unit whose
    removal still fails the same oracle (details may drift, the oracle and
    error class may not), to a fixpoint. Deleting a helper function also
    deletes its call sites, so candidates stay well-formed. A
    strategy-equivalence failure then has its monitor set minimized
    (greedy subset deletion while the strategies still disagree), and a
    query-engines failure its query (via
    {!Ebp_query.Ast.shrink_candidates}), against the shrunk program. *)
