(** On-disk content-addressed cache of program event traces.

    Phase 1 of the experiment is deterministic: the trace of a workload is
    a pure function of its source, its PRNG seed, and the machine fuel
    limit. Re-tracing on every experiment run therefore repeats work the
    binary codec already knows how to persist. This cache stores each trace
    once, under a key derived from exactly those inputs, so a warm run
    skips phase-1 machine execution entirely and goes straight to replay.

    {2 Key scheme}

    {!make_key} hashes the tuple (codec version, program name, source
    digest, seed, fuel) into a hex string:

    {[ MD5 ("ebp-trace-cache-v5:EBPT3" ^ name ^ MD5 (source) ^ seed ^ fuel) ]}

    Any input that could change the recorded events changes the key, so a
    stale entry can never be returned for modified source — entries need no
    invalidation, only garbage collection. The codec version is part of the
    hash: a change to the trace format (or to the entry layout itself, as
    v5's one-file entry was) bumps the constant and orphans (rather than
    misparses) old entries.

    {2 Storage and integrity}

    One file per entry, [<dir>/<key>.ebpt3]: the trace in the
    {!Trace.encode_columnar} layout (EBPT3), with a small metadata string
    supplied by the caller embedded in it (the experiment stores the base
    execution time there), self-sealed under a 12-byte trailer (["EBPZ"]
    plus the 8-byte LE CRC-32 of everything before it). Writes go to a
    temporary file in the same directory and are renamed into place, so
    a reader never observes a partial entry and concurrent producers of
    the same key race benignly; transient [Sys_error]s during a store are
    retried with exponential backoff (counted in
    [trace_cache.store_retries]).

    {!lookup} maps the file ({!Trace.map_columnar}), so a warm load
    decodes nothing. The mapping checks the file's structure — every
    header word, the object table, the exact length, the trailer, the
    whole w0 column — but not the payload CRC, which {!verify} checks in
    full. While fault injection is active, every lookup checks the CRC
    too. A damaged entry is quarantined — renamed [<file>.corrupt],
    counted in [trace_cache.quarantined], surfaced through
    {!set_quarantine_log} — and reported as a miss, never an error, so
    the caller transparently re-records. An unreadable file or directory
    is a plain miss. *)

val default_dir : unit -> string
(** [$XDG_CACHE_HOME/ebp] when [XDG_CACHE_HOME] is set and absolute,
    otherwise [$HOME/.cache/ebp]; falls back to [.ebp-cache] in the working
    directory when neither variable is usable. The directory is not
    created until the first {!store}. *)

val make_key : name:string -> source:string -> seed:int -> ?fuel:int -> unit -> string
(** The cache key for a recording of [source] (a MiniC translation unit)
    under [name], [seed], and an optional machine [fuel] limit, per the key
    scheme above. The result is a fixed-width lowercase hex string, safe to
    use as a file name. *)

val store :
  dir:string -> key:string -> ?meta:string -> Trace.t -> (unit, string) result
(** [store ~dir ~key ~meta trace] persists [trace] (and the opaque [meta]
    string, default [""]) under [key], creating [dir] if needed. Returns
    [Error _] with a human-readable reason when the filesystem (or an
    injected fault) refuses after the retries are exhausted; storing is
    always safe to skip, so callers typically degrade to a warning. *)

val lookup : dir:string -> key:string -> (Trace.t * string) option
(** [lookup ~dir ~key] is [Some (trace, meta)] when an entry for [key]
    exists and passes its integrity check, [None] otherwise (quarantining
    the file first if it exists but is corrupt). The returned trace maps
    the entry's file (it satisfies {!Trace.is_mapped}). *)

val set_quarantine_log : (file:string -> reason:string -> unit) -> unit
(** Install the hook called (synchronously, possibly from a pool worker)
    each time an entry is quarantined, with the entry's file name relative
    to its cache directory and a human-readable reason. Default: ignore.
    The CLI points this at stderr. *)

(** {2 Write-index entries}

    The {!Write_index} of a trace is itself a pure function of the trace
    and the page-size list it was built with, so it is cached the same
    way: one [<dir>/<key>.<ikey>.widx] file per (trace key, page sizes)
    pair, where [ikey] rehashes the trace key together with the index
    codec version and the page sizes, and the [<key>.] prefix ties the
    file to its trace for the GC's orphan sweep. A warm experiment run
    thereby skips both phase-1 tracing {e and} the index build. The same
    sealing, atomic temp-and-rename, retry, and quarantine-on-corruption
    rules apply. *)

val index_key : key:string -> page_sizes:int list -> string
(** [index_key ~key ~page_sizes] derives the index entry's key from a
    trace's {!make_key} result. Order of [page_sizes] is significant. *)

val store_index :
  dir:string ->
  key:string ->
  page_sizes:int list ->
  Write_index.t ->
  (unit, string) result
(** Persist an index built from the trace stored under [key] with exactly
    [page_sizes]. Same failure contract as {!store}. *)

val lookup_index :
  dir:string -> key:string -> page_sizes:int list -> Write_index.t option

val index_cached : dir:string -> key:string -> page_sizes:int list -> bool
(** Whether an index entry for [(key, page_sizes)] is on disk — a cheap
    existence probe (no read, no integrity check; a damaged entry still
    reports [true] and resolves to a miss at {!lookup_index} time). The
    replay planner prices index reuse with this. *)

(** {2 Checkpoint-chain entries}

    A {!Checkpoint.t} chain taken during a recording is stored next to
    the trace as [<dir>/<key>.<ckey>.ckpt] — key-prefixed like index
    entries so the GC groups it with (and orphan-sweeps it against) the
    owning trace. The chain is only meaningful for the exact recording
    [key] names (same program, seed, fuel), which the key scheme already
    guarantees. Same sealing, atomic rename, retry, and
    quarantine-on-corruption rules as every other entry. *)

val checkpoint_key : key:string -> string

val store_checkpoints :
  dir:string -> key:string -> Checkpoint.t -> (unit, string) result
(** Same failure contract as {!store}; the [checkpoint.store] fault
    point additionally governs taking individual checkpoints (see
    {!Checkpoint.take}), while this store goes through the shared
    [trace_cache.store.*] points. *)

val lookup_checkpoints : dir:string -> key:string -> Checkpoint.t option

val checkpoint_cached : dir:string -> key:string -> bool
(** Existence probe, like {!index_cached} — the replay planner prices
    checkpoint-restart with this. *)

(** {2 Garbage collection}

    Keys are content hashes over the codec version, so entries never go
    stale — the only maintenance a cache directory needs is reclaiming
    space. [ebp cache ls|clear|gc|verify] drives the functions below.

    Every operation in this module updates the [trace_cache.*] metrics
    when {!Ebp_obs.Metrics} is enabled: hit/miss and byte counters for
    lookups and stores, latency histograms, quarantine and store-retry
    counters, and [trace_cache.gc_removed] /
    [trace_cache.gc_reclaimed_bytes] plus the [trace_cache.disk_bytes]
    gauge for the GC entry points. *)

type entry_kind =
  | Trace_entry  (** a [<key>.ebpt3] phase-1 recording *)
  | Index_entry  (** a [<key>.<ikey>.widx] write index *)
  | Checkpoint_entry  (** a [<key>.<ckey>.ckpt] checkpoint chain *)
  | Stale_entry
      (** a [<key>.trace] entry left by an older cache version (v4 and
          before); never looked up, never verified, reclaimed by {!gc}
          together with every file of its key *)
  | Tmp_entry    (** a [.<key>*.tmp] temp file orphaned by an interrupted
                     store *)
  | Corrupt_entry
      (** a [*.corrupt] file quarantined by a failed integrity check *)

type entry = {
  entry_file : string;  (** file name relative to the cache directory *)
  entry_kind : entry_kind;
  entry_bytes : int;
  entry_mtime : float;
}

val entries : dir:string -> entry list
(** Every cache-owned regular file in [dir] (unrecognised names are left
    alone), sorted oldest mtime first, ties broken by name — i.e. in
    eviction order. An unreadable directory is an empty list. *)

val clear : dir:string -> int * int
(** Remove every entry, temp files and quarantined corpses included.
    Returns [(removed, reclaimed_bytes)]; files that vanish concurrently
    are skipped, not errors. *)

val gc : dir:string -> max_bytes:int -> int * int
(** [gc ~dir ~max_bytes] first deletes all temp files (an interrupted
    store's litter — harmless to a store in flight, which degrades to a
    warning), quarantined corpses, orphans ([.widx] files whose owning
    [<key>.ebpt3] is gone) and every file of a key that still has a
    [Stale_entry], then evicts live entries oldest-mtime-first until the
    directory's cache-owned footprint is at most [max_bytes] — evicting
    whole ownership groups (a trace together with its index and
    checkpoint entries) so it never mints new orphans. A checkpoint
    chain with no trace entry (a streamed or time-travel recording
    stores one alone) is a group of its own, not an orphan. Returns
    [(removed, reclaimed_bytes)]. *)

(** {2 Integrity scan} *)

type verify_report = {
  checked : int;  (** trace, index, and checkpoint entries examined *)
  intact : int;
  corrupt : (string * string) list;
      (** (file, reason), sorted by file name; already quarantined if
          requested *)
  tmp_litter : int;  (** orphaned temp files seen (left for {!gc}) *)
}

val verify : ?quarantine:bool -> dir:string -> unit -> verify_report
(** [verify ~dir ()] re-checks the trailer CRC and decodes every trace,
    index, and checkpoint entry in [dir], quarantining the failures
    exactly as a lookup would (pass [~quarantine:false] to only report).
    Trace entries get the {e full} {!Trace.decode_columnar} check —
    including the payload CRC the mmap fast path deliberately skips, so
    this scan is the integrity backstop for warm lookups.
    Already-quarantined [*.corrupt] files and stale entries of older
    cache versions are skipped. Drives [ebp cache verify]. *)
