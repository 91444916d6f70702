(** The daemon's resident tier: an LRU of decoded traces and their write
    indices, shared read-only across requests.

    Three tiers answer a fetch, cheapest first:

    + {b warm} — the (trace, index) pair is already resident; the request
      pays a hash lookup.
    + {b disk} — the {!Ebp_trace.Trace_cache} under [cache_dir] holds the
      entry. The "load" is an [mmap] of its EBPT3 file — the resident
      tier then caches the {e mapping}, one page-cache copy shared with
      every other process mapping the same file, not a decoded copy. An
      index build happens only when no [.widx] entry exists yet (the built index is stored back), chunked across
      the server's pool when one is supplied.
    + {b cold} — nothing anywhere; the program is recorded from source,
      then stored to both tiers (best-effort on disk).

    Entries are immutable once resident — {!Ebp_trace.Trace.t} and
    {!Ebp_trace.Write_index.t} are deeply immutable — so one resident
    entry can back any number of concurrent replays, including shards on
    pool domains, without copies or locks. Eviction is strict LRU on
    fetch order, bounded by [capacity] entries.

    Every outcome is counted when {!Ebp_obs.Metrics} is enabled:
    [serve.store.warm_hits], [serve.store.disk_hits],
    [serve.store.cold_records], [serve.store.evictions], the
    [serve.store.resident] gauge, and the [serve.store.load_ns] histogram
    of miss-path latencies. *)

type t

val create :
  ?capacity:int ->
  ?cache_dir:string ->
  ?page_sizes:int list ->
  ?pool:Ebp_util.Domain_pool.t ->
  unit ->
  t
(** [capacity] is the resident-entry bound (default 8, clamped below at
    1). [cache_dir] enables the disk tier; without it every LRU miss
    re-records. [page_sizes] parameterizes the write indices (default
    {!Ebp_sessions.Replay.default_page_sizes}). [pool] — typically the
    server's replay pool — parallelizes index builds on the miss paths;
    the store never outlives it. *)

val fetch :
  t ->
  name:string ->
  source:string ->
  seed:int ->
  (Ebp_trace.Trace.t * Ebp_trace.Write_index.t, string) result
(** The (trace, write index) of one recorded run of [source], resident
    after this call. The key is {!Ebp_trace.Trace_cache.make_key}, so the
    disk tier is shared with — and populated for — the batch CLI and the
    experiment engine (including the base-time metadata a warm
    [ebp experiment] needs). [Error _] reports compile or runtime
    failures of the program itself. *)

val resident : t -> int
(** Number of entries currently decoded in memory. *)

val capacity : t -> int
