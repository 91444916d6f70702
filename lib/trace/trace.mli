(** Program event traces (phase 1 of the paper's experiment, Figure 1).

    A trace is the session-independent record of one program run:

    - [Install (obj, range)] — a monitorable object came to life at [range];
    - [Remove (obj, range)] — it died (or moved, for realloc);
    - [Write (range, pc)] — a user-code store wrote [range].

    Install/Remove events exist for {e every} object any monitor session
    might care about; the phase-2 replay filters them per session. Writes
    from system calls, the allocator, and implicit frame bookkeeping are
    absent by construction (§6).

    Traces can hold millions of events, so every trace has one layout,
    whether recorded, decoded or mapped: EBPT3's four integer columns
    (tagged object word, lo, hi, pc) outside the OCaml heap, object
    descriptors interned in a side table, and per-block summaries that
    {!iter_raw_skipping} uses. Use {!iter_raw} for throughput-critical
    consumers. *)

type event =
  | Install of { obj : Object_desc.t; range : Ebp_util.Interval.t }
  | Remove of { obj : Object_desc.t; range : Ebp_util.Interval.t }
  | Write of { range : Ebp_util.Interval.t; pc : int }

type t

type int_column = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** One of a trace's four event columns. *)

(** Growable trace under construction. *)
module Builder : sig
  type trace := t
  type t

  val create : ?hint:int -> unit -> t
  (** [hint] is the expected event count (default 1024; 0 is allowed): a
      builder sized to its workload never reallocates, and {!finish} can
      hand over its columns without copying. A wrong hint only costs the
      usual doubling or one final copy. *)

  val add_install : t -> Object_desc.t -> Ebp_util.Interval.t -> unit
  val add_remove : t -> Object_desc.t -> Ebp_util.Interval.t -> unit
  val add_write : t -> Ebp_util.Interval.t -> pc:int -> unit

  val register : t -> Object_desc.t -> int
  (** Assign the next object id to [obj] without an intern lookup, for
      callers that know the descriptor is fresh (the recorder mints one
      per activation). Ids from [register] and from the interning
      {!add_install}/{!add_remove} share one sequence, so the two styles
      may be mixed — but feeding the same descriptor to both creates two
      ids for it. *)

  val add_install_id : t -> int -> lo:int -> hi:int -> unit
  val add_remove_id : t -> int -> lo:int -> hi:int -> unit
  (** Allocation-free install/remove of a registered object over
      [[lo, hi]]. Requires [lo <= hi] and an id from {!register} (or the
      interning adders). *)

  val add_write_raw : t -> lo:int -> hi:int -> pc:int -> unit
  (** Allocation-free equivalent of {!add_write} for the phase-1 hot
      path: records the write [[lo, hi]] without going through an
      {!Ebp_util.Interval.t}. Requires [lo <= hi]. *)

  val append :
    t ->
    int ->
    (w0:int_column -> lo:int_column -> hi:int_column -> pc:int_column ->
     at:int -> int) ->
    unit
  (** [append b n fill] appends [n] events that [fill] writes straight
      into the columns: it must store events [at .. at + n - 1] of each
      column in the layout {!iter_raw} reads — w0 is [id lsl 2 lor tag]
      for an install (tag 0) or remove (tag 1) of a registered object
      and exactly [2] for a write, pc is [-1] on an install or remove —
      and return how many of them are writes. Columns that are short
      grow to exactly [at + n] first, so a builder created with the
      exact total as [hint] never grows or copies. Nothing is counted
      if [fill] raises.
      @raise Invalid_argument if [n] is negative. *)

  val length : t -> int

  val object_count : t -> int
  (** Object ids assigned so far (by {!register} or the interning
      adders). *)

  val finish : t -> trace
  (** Freeze the builder into a trace. When the columns are exactly full
      (precise [hint]), ownership transfers without a copy — do not add
      events to a finished builder. *)
end

val length : t -> int

val write_count : t -> int
(** Events tagged write, [O(1)]: counted as the trace is built, decoded
    or mapped, so a planner can price a query without walking the
    events. [length t - write_count t] are installs and removes. *)

val get : t -> int -> event
val iter : t -> (event -> unit) -> unit

val get_raw :
  t -> int -> (tag:int -> obj:int -> lo:int -> hi:int -> pc:int -> 'a) -> 'a
(** Positional {!iter_raw}: decode the single event at an index (same
    field conventions) and pass it to the continuation. The random-access
    counterpart consumers like the query engine use to fetch attributes
    of events found through the {!Write_index} posting lists. Raises
    [Invalid_argument] out of range. *)

(** Raw iteration: [tag] 0 = install, 1 = remove, 2 = write; [obj] is an
    object id valid for {!object_of_id}, or [-1] for writes; the write range
    is [[lo, hi]]; [pc] is [-1] for install/remove. *)
val iter_raw : t -> (tag:int -> obj:int -> lo:int -> hi:int -> pc:int -> unit) -> unit

val iter_raw_range :
  t -> start:int -> stop:int ->
  (tag:int -> obj:int -> lo:int -> hi:int -> pc:int -> unit) -> unit
(** {!iter_raw} over events [start..stop-1]. Raises [Invalid_argument] on
    a range outside [0..length t]. Parallel consumers (the chunked index
    build) split a trace with this. *)

val write_positions : t -> start:int -> stop:int -> int array
(** The positions of the writes among events [start..stop-1], ascending:
    one read of the tag per event, nothing else decoded. Raises
    [Invalid_argument] on a range outside [0..length t]. The query
    engine lowers [time in] windows and its position universe onto
    this. *)

val block_events : int
(** Events per summary block (4096): the unit {!iter_raw_skipping} skips
    and EBPT3 stores summaries for. *)

val iter_raw_skipping :
  ?stop:int ->
  t ->
  skip:(min_lo:int -> max_hi:int -> bool) ->
  on_skip:(writes:int -> unit) ->
  (tag:int -> obj:int -> lo:int -> hi:int -> pc:int -> unit) -> unit
(** {!iter_raw} over events [0..stop-1] (default: every event), except
    that a {!block_events}-event block containing only writes may be
    skipped wholesale: when its summary shows no install/remove events,
    it ends by [stop], and [skip ~min_lo ~max_hi] returns [true] for the
    bounds of its write ranges, [on_skip ~writes] is called with the
    block's write count instead of visiting the events. Blocks are
    offered in order, so a consumer that counts the events it has
    passed knows where each one starts. Consumers that only need write
    {e counts} from regions provably outside every monitorable range
    (the replay scan), or that ignore the writes before a window (the
    query scan), go several times faster on sparse traces. Every trace
    skips alike: a mapped trace reads its file's summaries, a decoded
    one the summaries it checked, and a built one derives them on first
    use (one pass over the events, cached). Raises [Invalid_argument]
    on a [stop] outside [0..length t]. *)

val install_bounds : t -> (int * int) option
(** [Some (lo, hi)] covering every install/remove range in the trace —
    the address space outside it can never produce a session hit or page
    touch — or [None] when the trace installs nothing. Derived from the
    install/remove events on first use and cached, on every trace: the
    EBPT3 header's copy is checked by {!decode_columnar}, never trusted.
    *)

val is_mapped : t -> bool
(** [true] when the trace's columns are an mmap'd file's pages rather
    than memory the process allocated; the layout and every accessor are
    the same either way. Mapped traces are immutable, safe to share
    read-only across domains, and remain valid after the backing file is
    unlinked (the mapping holds the inode); the mapping is released when
    the trace is garbage collected. *)

val object_count : t -> int
val object_of_id : t -> int -> Object_desc.t
val objects : t -> Object_desc.t array
(** All interned descriptors, indexed by object id. *)

(** Summary counts. *)
type stats = {
  events : int;
  installs : int;
  removes : int;
  writes : int;
  distinct_objects : int;
  write_bytes : int;  (** total bytes written *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

val equal : t -> t -> bool
(** Structural equality: the same event count, the same object table
    (by {!Object_desc.equal}), and every event's fields as {!iter_raw}
    presents them, mapped or not. The reference the codecs, the
    streaming recorder and the cache are checked against. *)

(** {2 Serialization} *)

val to_text : t -> string
(** One event per line: ["I <obj> <lo> <hi>"], ["R <obj> <lo> <hi>"],
    ["W <lo> <hi> <pc>"]. A dump for people ([ebp trace --text]); nothing
    reads it back. Saved traces are {!Stream} files, and cache entries
    are EBPT3 files. *)

(** {2 EBPT3 — the zero-copy columnar layout}

    EBPT3 stores the four event columns of {!t} as raw 8-byte-aligned
    little-endian words so a warm load is a single [mmap]: no per-event
    decode, no allocation proportional to the trace, one physical copy
    shared by every domain and process that maps the file. Files are
    self-sealed ("EBPZ" + CRC-32 trailer) and carry per-block min/max
    summaries that {!iter_raw_skipping} turns into block skipping. An
    EBPT3 file is the whole of a {!Trace_cache} trace entry. The full
    layout and the mmap lifetime/safety rules are documented in
    [docs/PERFORMANCE.md]. *)

val columnar_version : string
(** Magic/version tag of the columnar codec ("EBPT3"); cache keys hash
    it, so a format change orphans old entries instead of misreading
    them. *)

val encode_columnar : ?meta:string -> t -> string
(** Serialize to a complete, self-sealed EBPT3 file image (header,
    [meta], object table, block summaries, columns, CRC trailer): 32
    bytes per event plus the tables. *)

val decode_columnar : string -> (t * string, string) result
(** Fully-checked inverse of {!encode_columnar}: verifies the CRC, every
    header field against the file length, object descriptors, event tags
    and ids, and that the block summaries match the events. Returns a
    trace whose columns are copied out of the string (not mapped), with
    the summaries it checked, plus the embedded [meta]. This is the
    verification path
    ([ebp cache verify], cache lookups under fault injection, the
    fuzzer's columnar oracle). *)

val map_columnar : string -> (t * string, string) result
(** Map the EBPT3 file at [path] and return a trace reading its columns
    in place. Validates every header word, the object table, the exact
    file length, the trailer magic, and the whole w0 column (tags, object
    ids, each block's install/remove and write counts against its
    summary) — but not the payload CRC, whose
    cost would rival the load itself; run {!decode_columnar} ([ebp cache
    verify]) for full integrity checking. Any validation failure or I/O
    error is [Error]. Under fault injection the [trace.codec.map] point
    may raise {!Ebp_util.Fault.Injected} — a transient miss, distinct
    from a bad file. *)
