(** Temporal write index over a {!Trace}: the trace preprocessed, once,
    into sorted posting lists so that phase-2 replay can count the writes
    touching a word or page inside an event-index window with binary
    searches instead of rescanning the trace per session.

    The index holds, for the trace it was built from:

    - per {e word}: the sorted event indices of every narrow (≤ 2-word)
      write touching it, plus boundary lists for writes spanning two
      adjacent words (so a session can deduplicate a write counted at both
      of its words by inclusion–exclusion over its live windows);
    - per {e page}, for each requested page size: the same two lists at
      page granularity ("touching" a page means the page is the first or
      last page of the write's range — exactly the scan engine's
      semantics);
    - per interned {e object}: its install/remove timeline (event
      position, range) so a session's live windows on any word or page
      are reconstructible without touching the trace;
    - global rare-path lists for writes covering 3+ words (or spanning
      non-adjacent pages), which the counting identities above cannot
      handle and which consumers check individually.

    The index is deeply immutable after {!build} — flat [int array]s only —
    so it can be shared unsynchronized across domains, like the trace
    itself. It also has a binary codec ({!write_binary}/{!read_binary})
    so {!Trace_cache} can persist it next to the trace. *)

type t

val build : ?pool:Ebp_util.Domain_pool.t -> page_sizes:int list -> Trace.t -> t
(** Built by counting, straight into the sorted posting arrays: one pass
    counts each key's writes, the keys are sorted and the arrays laid
    out, and a second pass writes each event at its key's cursor. Both
    passes are [O(events · (1 + page sizes))] probes of a table of
    distinct keys, and the build allocates little beyond the index
    itself. With [pool] (and a trace long enough to amortize the
    fan-out), the trace is split into contiguous event chunks, each
    built the same way on the pool's domains, and merged by
    concatenating each key's per-chunk runs — event positions are
    global, so the result is structurally {e identical} to the serial
    build, which is the one-chunk case with no merge (asserted by
    [test_parallel.ml] and [test_indexed.ml] through {!equal}).
    @raise Invalid_argument if a page size is not a positive power of
    two. *)

(** {2 Incremental (streaming) builds}

    One chunk per sealed trace block, built by the same counting pass as
    {!build} while the recording runs; {!Incremental.snapshot} folds the
    chunks sealed so far into one through the same merge the pooled
    build uses, so a snapshot over a recorded prefix is {!equal} to
    {!build} over that prefix trace (asserted by [test_stream.ml],
    [test_indexed.ml] and the fuzzer's streaming oracle). Peak state is
    the last snapshot plus the chunks sealed since — posting data the
    final index holds anyway — and, while a block seals, its counting
    tables: O(block), not O(trace). *)

module Incremental : sig
  type builder

  val create : page_sizes:int list -> builder

  val add_block :
    builder ->
    nobjs:int ->
    count:int ->
    ((tag:int -> obj:int -> lo:int -> hi:int -> pc:int -> unit) -> unit) ->
    unit
  (** [add_block b ~nobjs ~count iter] seals one block of [count] events
      into the builder; [iter f] must call [f] once per event of the
      block, in order, with raw-event fields as in
      {!Trace.iter_raw_range}. [iter] is called twice (the count and
      the fill pass), so it must walk the same events each time.
      [nobjs] is the number of objects registered so far (ids mentioned
      by the block must be below it). Evaluates the [stream.index_merge]
      fault point: an injected fault degrades the builder — later
      snapshots return [None] and consumers fall back to a batch build
      over the prefix trace. *)

  val snapshot : builder -> t option
  (** The index over everything sealed so far — structurally identical to
      {!build} on the corresponding prefix trace — or [None] once the
      builder is degraded. Merges only the blocks sealed since the last
      snapshot into it, and until the next {!add_block} returns that
      same index again without merging. *)

  val events : builder -> int
  (** Events sealed so far (the snapshot's {!events}). *)

  val degraded : builder -> bool
end

(** {2 Global facts} *)

val events : t -> int
(** Number of trace events the index was built over; also the exclusive
    upper bound usable for "never removed" live windows. *)

val total_writes : t -> int

val object_count : t -> int

(** {2 Object timelines} *)

val iter_object_timeline :
  t -> int -> (ev:int -> is_install:bool -> lo:int -> hi:int -> unit) -> unit
(** [iter_object_timeline t o f] calls [f] for each install/remove event
    of object id [o], in trace order, with the event's byte range.
    @raise Invalid_argument if [o] is not a valid object id. *)

val installed_at : t -> int -> int -> bool
(** [installed_at t o ev]: object [o]'s last install/remove at or before
    event [ev] is an install. Read from its timeline, never the trace —
    the query planner samples the live set with it. *)

(** {2 Posting lists}

    All windows are open intervals on event indices: a count with
    [~after:a ~before:b] covers writes at positions [t] with
    [a < t < b].

    A {!posting} maps sorted keys (word or page indices) to the sorted
    event positions of the writes touching them. Consumers monitoring a
    key {e range} should iterate only the keys actually present — every
    key not in the posting was never written — via {!key_range}: *)

type posting

val word_writes : t -> posting
(** Narrow (≤ 2-word) writes, keyed by touched word; a 2-word write
    appears under both of its words. *)

val word_spans : t -> posting
(** Narrow writes spanning exactly the boundary ([w], [w + 1]), keyed by
    [w]. *)

val pc_writes : t -> posting
(** Every write — narrow and wide — keyed by its program counter. Each
    write appears exactly once (a write has one pc), so the posting's
    concatenated data is a permutation of all write positions. The query
    engine's pc predicates lower onto this. *)

val key_range : posting -> lo:int -> hi:int -> int * int
(** [key_range p ~lo ~hi] is the half-open index range [(i, j)] such that
    [key_at p k] for [i <= k < j] enumerates exactly the posting's keys
    within [[lo, hi]], in ascending order. *)

val key_at : posting -> int -> int

val span_count : posting -> int -> int -> int
(** [span_count p i j] is the number of events under keys [i..j-1] (whole
    trace), [O(1)]. *)

val key_count : posting -> int

val key_lower_bound : posting -> int -> int
(** Index of the first key [>= x] ([key_count] when none). *)

val key_upper_bound : posting -> int -> int
(** Index of the first key [> x] — {!key_range}'s upper edge, usable at
    [max_int] without overflow. *)

val count_at : posting -> int -> after:int -> before:int -> int
(** [count_at p i ~after ~before] counts the events of the [i]-th key
    inside the open window — the keyed counts below, minus the key
    search. *)

val count_within : posting -> int -> windows:int array -> int
(** [count_within p i ~windows] counts the [i]-th key's events inside any
    of [windows], a flattened [[a0; b0; a1; b1; ...]] run of sorted,
    disjoint open intervals. Equivalent to summing {!count_at} per
    window, but switches to a single linear merge when the window count
    approaches the key's event count. *)

val positions_at : posting -> int -> after:int -> before:int -> int array
(** [positions_at p i ~after ~before] materializes (a fresh copy of) the
    [i]-th key's event positions inside the open window — {!count_at}'s
    slice, extracted instead of counted. *)

val positions : posting -> int -> after:int -> before:int -> int array
(** As {!positions_at} but keyed: [positions p key ~after ~before] is
    [[||]] when [key] is absent. *)

(** Sorted-int-array set algebra over write positions — what boolean
    connectives compile to. All inputs must be sorted ascending; [union]
    also deduplicates (a two-word write appears under both of its word
    keys). Results are fresh arrays; inputs are never mutated. *)
module Pos_set : sig
  val empty : int array

  val union : int array list -> int array
  (** Sorted, duplicate-free union of the inputs. *)

  val inter : int array -> int array -> int array
  (** Both inputs must be duplicate-free. *)

  val diff : int array -> int array -> int array
  (** Elements of the first input not in the second; the first input
      must be duplicate-free. *)

end

(** {2 Word-level write counts (by key)} *)

val count_word_writes : t -> word:int -> after:int -> before:int -> int
(** Narrow (≤ 2-word) writes touching [word] inside the window. A 2-word
    write is counted at both of its words. *)

val count_word_spans : t -> word:int -> after:int -> before:int -> int
(** Narrow writes spanning exactly the boundary ([word], [word + 1]). *)

val has_word_spans : t -> word:int -> bool

val iter_wide_word_writes :
  t -> (ev:int -> first:int -> last:int -> unit) -> unit
(** Writes covering 3+ words, with their word range. These are {e not} in
    {!count_word_writes}'s lists; consumers handle them individually.
    Empty for machine-recorded traces (stores are ≤ 4 bytes). *)

(** {2 Page-level write counts} *)

type page_view

val page_sizes : t -> int list

val page_view : t -> page_size:int -> page_view option

val page_shift : page_view -> int

val page_writes : page_view -> posting
(** Writes keyed by their first and last page (both, when distinct) —
    the scan engine's [page_write] touch set. *)

val page_spans : page_view -> posting
(** Writes spanning exactly the pages ([p], [p + 1]), keyed by [p]. *)

val count_page_writes : page_view -> page:int -> after:int -> before:int -> int
(** Writes whose first or last page is [page], inside the window; a write
    spanning two pages is counted at both. *)

val count_page_spans : page_view -> page:int -> after:int -> before:int -> int
(** Writes spanning exactly the pages ([page], [page + 1]). *)

val has_page_spans : page_view -> page:int -> bool

val iter_wide_page_writes :
  page_view -> (ev:int -> first:int -> last:int -> unit) -> unit
(** Writes spanning non-adjacent first/last pages. Unlike wide-word
    writes these {e are} included in {!count_page_writes} (at both
    pages); consumers subtract the double count individually. *)

(** {2 Serialization} *)

val equal : t -> t -> bool
(** Structural equality; [build] is deterministic, so an index
    round-tripped through the codec is [equal] to the original. *)

val codec_version : string
(** Codec magic ("EBPW2" — EBPW1 plus the pc posting; bump-safe cache
    keying hashes this in, so stale EBPW1 entries simply orphan). *)

val encode : t -> string
(** Serialize to the flat binary form (magic, then 8-byte LE ints and
    length-prefixed arrays). {!Trace_cache} seals exactly these bytes
    under its CRC trailer. *)

val encode_padded : t -> room:int -> Bytes.t
(** [encode]'s bytes followed by [room] zero bytes, in one fresh buffer
    of exactly that size: {!Trace_cache} writes its checksum trailer into
    the room instead of copying the body. *)

val decode : string -> (t, string) result
(** Inverse of {!encode}. Hardened against adversarial input: every
    length is clamped against the bytes actually present, posting/object
    offsets are validated, trailing bytes are rejected, and no input
    makes it raise (it returns [Error _]). Evaluates the
    [write_index.codec.decode] fault point. *)

val decode_prefix : string -> len:int -> (t, string) result
(** [decode] of the first [len] bytes of the string, read in place: a
    sealed entry's body decodes without being copied out of it.
    @raise Invalid_argument if [len] is outside the string. *)

val write_binary : out_channel -> t -> unit
(** [output_string oc (encode t)]. *)

val read_binary : in_channel -> (t, string) result
(** [decode] of the channel's remaining contents (reads to EOF). *)
