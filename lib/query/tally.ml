(* A count per int key, for [group by pc] and [distinct] in both query
   engines and [group by object] and [bucket by] in the scan: pcs and
   words are arbitrary ints, and a query may hit few of the object ids
   or buckets, so the keys sit in an open-addressed table of whole keys,
   with linear probing and Fibonacci hashing as Write_index's counting
   build has them. Counting a key costs one probe and one increment, and
   allocates nothing. *)

type t = {
  mutable keys : int array;
  mutable counts : int array;  (* 0 marks a free slot *)
  mutable shift : int;  (* 63 - log2 (slot count) *)
  mutable used : int;
}

let create () =
  { keys = Array.make 64 0; counts = Array.make 64 0; shift = 57; used = 0 }

(* The slot of [key], or the free slot where it belongs. Every index is
   below the slot count: the hash keeps [63 - shift] bits and the probe
   wraps by the mask, so the accesses need no bounds checks. *)
let slot t key =
  let keys = t.keys and counts = t.counts in
  let mask = Array.length keys - 1 in
  let s = ref ((key * 0x9E3779B97F4A7C1) lsr t.shift) in
  while Array.unsafe_get counts !s > 0 && Array.unsafe_get keys !s <> key do
    s := (!s + 1) land mask
  done;
  !s

let rec bump t key =
  let s = slot t key in
  let n = Array.unsafe_get t.counts s in
  if n > 0 then Array.unsafe_set t.counts s (n + 1)
  else if 2 * (t.used + 1) > Array.length t.keys then begin
    let keys = t.keys and counts = t.counts in
    t.keys <- Array.make (2 * Array.length keys) 0;
    t.counts <- Array.make (2 * Array.length keys) 0;
    t.shift <- t.shift - 1;
    Array.iteri
      (fun i n ->
        if n > 0 then begin
          let s = slot t keys.(i) in
          t.keys.(s) <- keys.(i);
          t.counts.(s) <- n
        end)
      counts;
    bump t key
  end
  else begin
    t.keys.(s) <- key;
    t.counts.(s) <- 1;
    t.used <- t.used + 1
  end

let length t = t.used

(* (key, count), key ascending: [Qresult]'s canonical order. *)
let to_sorted t =
  let rows = ref [] in
  Array.iteri
    (fun s n -> if n > 0 then rows := (t.keys.(s), n) :: !rows)
    t.counts;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !rows
