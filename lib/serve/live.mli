(** Live recording jobs: the server side of {!Protocol.Live_query}.

    A job records a program through the streaming pipeline
    ({!Ebp_trace.Stream.Writer} into an in-memory buffer, write index
    maintained incrementally per sealed block) while the machine is
    still running, driven in bounded fuel slices. {!fetch} advances the
    job past the caller's watermark and returns the {e sealed prefix}:
    a trace of exactly the first [high_water] events, the incremental
    index snapshot over them, and whether the recording completed.

    Prefix consistency is inherited from {!Ebp_trace.Stream.read_prefix};
    index-vs-batch equality from {!Ebp_trace.Write_index.Incremental}
    (fault-degraded builders yield [None] and the caller replans without
    an index). A completed job's trace equals the batch recorder's
    ({!Ebp_trace.Trace.equal}), so final answers match batch answers. *)

type t

val create : ?block_events:int -> ?page_sizes:int list -> unit -> t
(** [block_events] sizes the stream's sealed blocks (default 64Ki
    events); [page_sizes] must match the replay configuration (default
    {!Ebp_sessions.Replay.default_page_sizes}). *)

type prefix = {
  p_trace : Ebp_trace.Trace.t;  (** the sealed prefix, decoded *)
  p_index : Ebp_trace.Write_index.t option;
      (** incremental index over exactly [p_trace]; [None] when the
          builder was fault-degraded ([stream.index_merge]) *)
  p_high_water : int;  (** events in [p_trace] *)
  p_complete : bool;
}

val fetch :
  t ->
  name:string ->
  source:string ->
  seed:int ->
  min_events:int ->
  (prefix, string) result
(** Find or start the job for [(name, source, seed)], advance it until
    the sealed prefix strictly exceeds [min_events] events (or the run
    stops), and return the prefix. [Error] on a compile failure or a
    corrupt stream (the latter cannot happen in-memory short of injected
    faults). *)

val jobs : t -> int
(** Number of resident jobs (diagnostics). *)
