(** Streaming sealed-block trace format (EBPB1).

    The batch pipeline materializes the whole trace in memory before
    anything downstream can look at it. A {e stream} instead emits the
    trace as a sequence of sealed, CRC'd blocks with a fixed event budget
    ({!default_block_events}): the writer's state is O(block), and any
    byte prefix of the file parses into the trace of all sealed blocks —
    the {e prefix-consistency guarantee} live queries are built on.
    Layout, seal/merge rules, and the consistency argument are documented
    in [docs/STREAMING.md].

    A completed stream {!read} back is equal (under {!Trace.equal}) to
    the trace the batch recorder would have built from the same run — the blocks carry exactly the builder's packed
    events and descriptor table, split at block boundaries. *)

val magic : string
(** File magic ("EBPB1"). *)

val default_block_events : int
(** Events per sealed block (64Ki) unless overridden at writer
    creation. *)

(** {2 Writing} *)

module Writer : sig
  type t

  (** Called after each block is sealed and written, with the block's
      first (global) event position, its event count, the total objects
      registered so far, and an iterator over the block's raw events
      (same field conventions as {!Trace.iter_raw}). This is where the
      incremental {!Write_index.Incremental} merge and checkpointing
      hook in. *)
  type on_seal =
    first:int ->
    count:int ->
    nobjs:int ->
    ((tag:int -> obj:int -> lo:int -> hi:int -> pc:int -> unit) -> unit) ->
    unit

  val create : ?block_events:int -> write:(string -> unit) -> unit -> t
  (** A writer emitting to [write] (a file, a buffer, a socket). The
      stream header is written immediately. [write] must append
      faithfully; it is called once per sealed record.
      @raise Invalid_argument if [block_events] is not positive. *)

  val set_on_seal : t -> on_seal -> unit

  val register : t -> Object_desc.t -> int
  (** Assign the next object id, as {!Trace.Builder.register}. The
      descriptor is emitted in the next sealed block; the writer retains
      nothing for already-sealed blocks. *)

  val add_install_id : t -> int -> lo:int -> hi:int -> unit
  val add_remove_id : t -> int -> lo:int -> hi:int -> unit
  val add_write_raw : t -> lo:int -> hi:int -> pc:int -> unit
  (** As the {!Trace.Builder} adders. Appending the block-budget'th
      pending event seals and writes the block (evaluating the
      [stream.seal] fault point — transient faults get three attempts
      before propagating). *)

  val finish : t -> unit
  (** Seal the final partial block and write the fin record. The writer
      must not be used afterwards. Idempotent. *)

  val block_events : t -> int
  val events : t -> int
  (** Events appended so far (sealed + pending). *)

  val sealed_events : t -> int
  (** Events in sealed blocks — the stream's current high-water mark. *)

  val pending_events : t -> int
  val object_count : t -> int
end

(** {2 Reading} *)

type prefix = {
  trace : Trace.t;  (** the trace of every sealed block in the prefix *)
  high_water : int;
      (** events covered — [Trace.length trace], named for the live-query
          protocol that reports it *)
  complete : bool;  (** a valid fin record ended the stream *)
}

val read_prefix : string -> (prefix, string) result
(** Parse a (possibly still-growing) stream image. A torn tail — a
    record cut mid-way or failing its CRC — ends the prefix; only a
    missing/bad header or a record whose CRC-intact bytes are
    semantically inconsistent (a writer bug, not a torn write) is
    [Error]. *)

val read : string -> (Trace.t, string) result
(** Strict read of a completed stream: requires the fin record and no
    trailing bytes. *)

val read_file : string -> (Trace.t, string) result
val read_prefix_file : string -> (prefix, string) result
