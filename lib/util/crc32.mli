(** CRC-32 (IEEE 802.3, polynomial [0xEDB88320], reflected).

    The integrity check sealing every on-disk trace-cache entry: cheap
    enough to run on every store and lookup, and — unlike a plain length
    check — it detects the single-bit flips and mid-file truncations the
    fault-injection harness throws at the cache. Not a cryptographic hash;
    the cache key (MD5 over content inputs) handles identity, the CRC only
    answers "did these bytes survive the disk?". *)

val string : string -> int
(** [string s] is the CRC-32 of all of [s], in [[0, 2^32)]. *)

val sub : string -> pos:int -> len:int -> int
(** CRC-32 of [len] bytes of [s] starting at [pos].
    @raise Invalid_argument if the range is outside [s]. *)

val sub_bytes : bytes -> pos:int -> len:int -> int
(** [sub] over a byte sequence, for a buffer that is still being written
    (a cache entry sealing its own body).
    @raise Invalid_argument if the range is outside [s]. *)
