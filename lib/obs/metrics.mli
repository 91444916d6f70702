(** Process-wide metrics registry: named counters, gauges, and log-bucketed
    histograms, with per-domain sharded cells.

    The design goal is a hot path that costs nothing when observability is
    off and almost nothing when it is on:

    - Disabled (the default), every update compiles down to one load and
      one conditional branch on the {!is_enabled} flag.
    - Enabled, an update touches only cells owned by the calling domain
      (reached through domain-local storage), so increments take no lock
      and cost about one array write. Shards are merged at {!snapshot}
      time.

    Metrics are registered by name; registering the same name twice
    returns the same metric, so modules can declare their instruments at
    top level without coordination. Names are dotted lowercase paths
    ([trace_cache.hits], [pool.busy_ns]); by convention every histogram
    records {e nanoseconds} and carries a [_ns] suffix (spans aggregate
    under [span.<name>], also in ns).

    Consistency contract: shard cells are plain (non-atomic) fields, so a
    snapshot taken while other domains are mid-update may miss their most
    recent writes. Updates made by a task submitted to
    [Ebp_util.Domain_pool] are visible to any snapshot taken after the
    batch returns (the pool's own synchronization orders them); in
    general, quiesce the domains you care about before snapshotting. *)

type counter
type gauge
type histogram

(** {1 The global switch} *)

val set_enabled : bool -> unit
(** Turns the whole subsystem on or off (initially off). Flip it before
    spawning the domains whose updates you want to see. *)

val is_enabled : unit -> bool

(** {1 Registration} *)

val counter : string -> counter
(** [counter name] registers (or finds) the monotonic counter [name].
    @raise Invalid_argument if [name] is registered with another kind. *)

val gauge : string -> gauge
(** A last-value-wins cell for low-frequency measurements (sizes, byte
    totals). Gauge writes take the registry lock; keep them rare. *)

val histogram : string -> histogram
(** A base-2 log-bucketed histogram of nonnegative integers (by
    convention, nanoseconds): bucket 0 holds values [<= 0], bucket [k]
    ([1..63]) holds [2^(k-1) <= v < 2^k]. Count, sum, min, and max are
    tracked exactly; the distribution is bucketed. *)

val registered : unit -> (string * string) list
(** Every registered name with its kind (["counter"], ["gauge"] or
    ["histogram"]), sorted by name — unset gauges included, unlike
    {!snapshot}. The metric catalogs in the docs are checked against
    this. *)

(** {1 Updates (hot path)} *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit
val observe : histogram -> int -> unit

(** {1 Snapshots} *)

type hist = {
  count : int;
  sum : int;
  min_v : int;  (** meaningful only when [count > 0] *)
  max_v : int;  (** meaningful only when [count > 0] *)
  buckets : (int * int) list;
      (** [(k, n)]: [n] values fell in bucket [k]; nonzero buckets only,
          ascending [k]. *)
}

type snapshot = {
  counters : (string * int * (int * int) list) list;
      (** name, merged total, and the per-domain breakdown
          [(domain_id, value)] of the shards that contributed (nonzero
          cells only, ascending domain id). *)
  gauges : (string * float) list;  (** gauges that have been set *)
  hists : (string * hist) list;
}
(** Every list is sorted by metric name, so equal registries with equal
    cells render and serialize identically. *)

val snapshot : unit -> snapshot
(** Merge all shards (live and dead domains alike) into one view. Zero
    counters and never-observed histograms are included with zero values;
    never-set gauges are omitted. *)

val reset : unit -> unit
(** Zero every cell and forget gauge values, keeping registrations. Only
    call while no other domain is updating. *)

(** {1 Bucket geometry} *)

val bucket_of_value : int -> int
(** The bucket index [observe] files a value under. *)

val bucket_upper : int -> int
(** Inclusive upper bound of bucket [k]: [0] for bucket 0, else
    [2^k - 1]. *)
