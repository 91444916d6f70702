(** Cost-based engine selection for phase-2 replay and trace queries.

    The scan and indexed engines produce bit-identical reports but cross
    over in cost: indexed replay wins 5-6x on session-heavy workloads yet
    only breaks even when a long trace carries a handful of sessions (the
    EXPERIMENTS.md table), and a cached [.widx] shifts the crossover
    again by making the index free. This module prices the three options
    — scan, build-then-index, reuse-cached-index — from quantities that
    are known {e before} any replay work (trace length, discovered
    session count, domain count, cached-index availability), picks the
    cheapest, and logs the decision. [--engine scan|indexed] remains the
    override; the planner is what [--engine auto] (the default) runs.

    Queries price the same three options with their own model
    ([Ebp_query.Query]) and decide through the same {!choose}, so one
    decision record, one log line and one set of counters serve both.

    Correctness does not depend on the model: every branch funnels into
    engines that are differentially tested against each other, so a
    mispriced decision costs time, never accuracy. *)

type choice = Use_scan | Build_index | Reuse_index

(** Why the planner was consulted: a complete batch trace ([Full], the
    default), the sealed prefix of an in-progress streaming recording
    answered over an incrementally-maintained index ([Partial_index]),
    or a time-travel replay restarted from a machine checkpoint
    ([Checkpoint_restart]). The reason never changes the decision — it
    annotates the log line ([reason=...]) and bumps
    [planner.decision.partial_index] / [...checkpoint_restart] next to
    the choice counter, so streaming-mode decisions are observable. *)
type reason = Full | Partial_index | Checkpoint_restart

type estimate = {
  facts : (string * int) list;
      (** the priced inputs, in log order — replay's are [events],
          [sessions] and [domains] *)
  cached_index : bool;
  reason : reason;
  scan_cost : float;  (** modeled cost of the scan engine's pass *)
  build_cost : float;  (** index build + the indexed engine's work *)
  reuse_cost : float;  (** the indexed engine's work off a cached index *)
  choice : choice;
}

val choose :
  ?reason:reason ->
  facts:(string * int) list ->
  cached_index:bool ->
  scan_cost:float -> build_cost:float -> reuse_cost:float -> unit ->
  estimate
(** The decision rule every surface shares: [Reuse_index] when
    [cached_index] holds and reuse is no dearer than the other two, else
    [Build_index] when a build is no dearer than the scan, else
    [Use_scan]. Costs only need to share a unit with each other. *)

val estimate :
  ?reason:reason ->
  events:int -> sessions:int -> domains:int -> cached_index:bool -> unit ->
  estimate
(** Pure — same inputs, same decision, so planned runs stay as
    reproducible as fixed-engine runs. [Reuse_index] is only ever chosen
    when [cached_index] is true. Costs are in arbitrary calibrated units;
    see the model comment in the implementation. *)

val choice_name : choice -> string
(** ["scan"], ["build"], or ["reuse"] — the token used in the log line
    and the [planner.decision.*] counter names. *)

val reason_name : reason -> string
(** ["full"], ["partial_index"], or ["checkpoint_restart"]. *)

val record_decision : estimate -> unit
(** Bump [planner.decision.<choice>] (and, for a non-[Full] reason,
    [planner.decision.<reason>]). {!replay} calls this itself; other
    surfaces that consult {!estimate} directly (the query front door)
    share the counters through it. *)

val engine_of_choice : choice -> Replay.engine

val log_line : estimate -> string
(** The one-line human rendering of an estimate, e.g.
    ["planner: build (events=... sessions=... ...)"]: the choice, then
    inside the parentheses each fact as [name=value], [cached=],
    [reason=] and the three costs — what {!replay} feeds the [?log]
    callback. *)

(** How the planner sees the index cache: an existence probe (priced into
    the estimate), a loader, and a store for freshly built indexes.
    {!no_index_cache} (never cached, never stores) makes the planner
    usable without a cache directory. *)
type source = {
  cached : bool;
  load : unit -> Ebp_trace.Write_index.t option;
  store : Ebp_trace.Write_index.t -> unit;
}

val no_index_cache : source

val replay :
  ?page_sizes:int list ->
  ?pool:Ebp_util.Domain_pool.t ->
  ?domains:int ->
  ?keep_hitless:bool ->
  ?index_source:source ->
  ?reason:reason ->
  ?log:(string -> unit) ->
  Ebp_trace.Trace.t ->
  (Session.t * Counts.t) list
(** Discover sessions, {!estimate}, then replay with the chosen engine —
    the planner's counterpart of {!Replay.discover_and_replay}, with the
    same sharding ([?pool] / [?domains]) and [?keep_hitless] contract.
    A [Reuse_index] whose load misses (entry vanished or quarantined
    between probe and load) degrades to a build, never an error. The
    decision is counted in [planner.decision.{scan,build,reuse}] and,
    when [?log] is given, reported through it; there is no default
    output, so batch report bytes are unchanged. *)
