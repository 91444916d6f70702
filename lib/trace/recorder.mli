(** Trace generation (phase 1): run an instrumented program once and record
    its program event trace.

    This is the OCaml equivalent of the paper's assembly post-processing
    (§6): it attaches to a loaded program and

    - installs monitors for globals and static locals at start of run;
    - on every function entry, installs monitors for that activation's
      automatic variables (from debug info + the live frame pointer), and
      removes them on exit — "write monitors for automatic variables are
      installed and removed on function boundaries";
    - tracks heap objects through the allocator's event hook, preserving
      object identity across [realloc];
    - records a [Write] event for every explicit user-code store (implicit
      frame bookkeeping and allocator writes never appear).

    At {!finish}, Remove events are emitted for everything still live so
    install/remove counts balance. *)

type t

(** Where the recorder's events go: the batch path is a trace builder,
    the streaming path a {!Stream.Writer}, the checkpoint-seek path a
    bare counter. Every sink sees the identical event sequence — the
    hooks are written once against this record, which is the equivalence
    argument between the batch and streaming pipelines. *)
type sink = {
  register : Object_desc.t -> int;
  install : int -> lo:int -> hi:int -> unit;
  remove : int -> lo:int -> hi:int -> unit;
  write : lo:int -> hi:int -> pc:int -> unit;
}

val builder_sink : Trace.Builder.t -> sink
val stream_sink : Stream.Writer.t -> sink

type counters = { mutable c_events : int; mutable c_objs : int }

val counting_sink : counters -> sink
(** A sink that only advances the counters — what checkpoint seek uses to
    find "the machine just before event [w]" without building a trace.
    The counters are mutable so a checkpoint restore can pre-load them. *)

val attach : ?hint:int -> Ebp_runtime.Loader.t -> t
(** Install hooks on the loader's machine and allocator. The recorder owns
    the machine's store/enter/leave hooks and the allocator's event hook
    from this point. [hint] sizes the trace builder to the expected event
    count (see {!Trace.Builder.create}). *)

val attach_sink : sink -> Ebp_runtime.Loader.t -> t
(** As {!attach}, but events go to [sink] and {!finish} is unavailable
    (use {!finish_events}). *)

val attach_stream : Stream.Writer.t -> Ebp_runtime.Loader.t -> t
(** [attach_sink (stream_sink w)]: the streaming pipeline's entry
    point. After the run, call {!finish_events} then
    {!Stream.Writer.finish}. *)

val finish : t -> Trace.t
(** Emit final removes and freeze the trace. Call after the run
    completes. Only for {!attach}ed recorders.
    @raise Invalid_argument on a sink-attached recorder. *)

val finish_events : t -> unit
(** The sink-agnostic half of {!finish}: emit the balancing removes for
    everything still live (frames innermost first, then leaked heap
    objects, then statics). *)

(** {2 Snapshots}

    Checkpoint support: the recorder's bookkeeping (activation counts,
    live frames, live heap objects, statics) — everything needed to
    continue emitting the same event sequence after the machine is
    restored mid-run. *)

type snapshot

val snapshot : t -> snapshot

val reattach : sink -> Ebp_runtime.Loader.t -> snapshot -> t
(** Attach onto a checkpoint-restored loader: hooks are installed and the
    bookkeeping restored from [snapshot], but nothing is re-emitted (in
    particular, statics are not re-installed — they are already in the
    recorded prefix). *)

val record :
  ?hint:int -> ?fuel:int -> Ebp_runtime.Loader.t ->
  Ebp_runtime.Loader.run_result * Trace.t
(** Convenience: attach, run, finish. *)

val record_source :
  ?seed:int -> ?fuel:int -> string ->
  (Ebp_runtime.Loader.run_result * Trace.t * Ebp_lang.Debug_info.t, string) result
(** Compile MiniC source and record a run of it. *)

val record_stream :
  ?fuel:int -> Stream.Writer.t -> Ebp_runtime.Loader.t ->
  Ebp_runtime.Loader.run_result
(** Streaming convenience: {!attach_stream}, run, {!finish_events},
    {!Stream.Writer.finish}. Peak recorder-side memory is the writer's
    one pending block (O(block)), independent of trace length. *)

val record_source_stream :
  ?seed:int -> ?fuel:int -> ?block_events:int ->
  ?on_seal:Stream.Writer.on_seal -> write:(string -> unit) -> string ->
  (Ebp_runtime.Loader.run_result * int, string) result
(** Compile MiniC source and stream-record a run of it through a fresh
    {!Stream.Writer} emitting to [write]; returns the run result and the
    total event count. The completed stream {!Stream.read} back is
    equal (under {!Trace.equal}) to what {!record_source}
    builds — the workload synthesizer's large traces go through here so
    generation never materializes the whole trace. *)
