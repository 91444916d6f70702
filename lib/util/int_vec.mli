(** Growable int vectors, and the merge of the sorted runs they hold.

    The write index collects its rare wide-write lists in a vector and
    merges sorted key lists and posting slices; indexed replay appends
    per-object timelines to per-range vectors. Both need one ascending
    array out of several sorted runs. {!merge_runs} and {!merge_sorted}
    do that with direct int comparisons, in [n log2 runs] steps, where a
    sort would take [n log2 n] through a comparison closure. *)

type t = { mutable data : int array; mutable len : int }
(** [data.(0) .. data.(len - 1)] are the elements; the rest is spare
    capacity. *)

val create : unit -> t
val push : t -> int -> unit

val to_array : t -> int array
(** A fresh copy of the elements. *)

val merge_runs : int array -> int array -> int -> int array
(** [merge_runs arr starts nruns] merges the [nruns] runs of [arr], run
    [r] being [arr.(starts.(r)) .. arr.(starts.(r + 1) - 1)], each
    ascending, into one ascending array. [starts] has [nruns + 1]
    entries, the last [Array.length arr]. Consumes [arr]: the result is
    either [arr] itself (at most one run) or a buffer that the merge
    ping-ponged through, and [arr] may be overwritten. *)

val merge_sorted : int array list -> int array
(** The ascending concatenation of ascending arrays, as a fresh array;
    duplicates are kept. The inputs are not modified. *)
