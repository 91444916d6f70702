type t = { mutable data : int array; mutable len : int }

let create () = { data = Array.make 8 0; len = 0 }

let push v x =
  if v.len = Array.length v.data then begin
    let bigger = Array.make (2 * v.len) 0 in
    Array.blit v.data 0 bigger 0 v.len;
    v.data <- bigger
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let to_array v = Array.sub v.data 0 v.len

(* Merge two sorted int array slices with direct comparisons: the
   annotation keeps [<=] the integer compare, not the polymorphic one. *)
let merge_into (src : int array) alo alen blo blen (dst : int array) off =
  let i = ref alo and j = ref blo and k = ref off in
  let aend = alo + alen and bend = blo + blen in
  while !i < aend && !j < bend do
    let a = Array.unsafe_get src !i and b = Array.unsafe_get src !j in
    if a <= b then begin
      Array.unsafe_set dst !k a;
      incr i
    end
    else begin
      Array.unsafe_set dst !k b;
      incr j
    end;
    incr k
  done;
  while !i < aend do
    Array.unsafe_set dst !k (Array.unsafe_get src !i);
    incr i;
    incr k
  done;
  while !j < bend do
    Array.unsafe_set dst !k (Array.unsafe_get src !j);
    incr j;
    incr k
  done

(* Bottom-up balanced merge: each pass merges neighbouring runs pairwise
   from one buffer into the other, so log2(runs) passes in all. *)
let merge_runs arr starts nruns =
  if nruns <= 1 then arr
  else begin
    let a = ref arr and b = ref (Array.make (Array.length arr) 0) in
    let width = ref 1 in
    while !width < nruns do
      let r = ref 0 in
      while !r < nruns do
        let lo = starts.(!r) in
        let mid = starts.(min nruns (!r + !width)) in
        let hi = starts.(min nruns (!r + (2 * !width))) in
        merge_into !a lo (mid - lo) mid (hi - mid) !b lo;
        r := !r + (2 * !width)
      done;
      let t = !a in
      a := !b;
      b := t;
      width := 2 * !width
    done;
    !a
  end

let merge_sorted runs =
  let runs = List.filter (fun l -> Array.length l > 0) runs in
  let nruns = List.length runs in
  let starts = Array.make (nruns + 1) 0 in
  List.iteri (fun r l -> starts.(r + 1) <- starts.(r) + Array.length l) runs;
  let buf = Array.make starts.(nruns) 0 in
  List.iteri (fun r l -> Array.blit l 0 buf starts.(r) (Array.length l)) runs;
  merge_runs buf starts nruns
