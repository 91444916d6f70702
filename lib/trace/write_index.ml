(* Temporal write index: the trace preprocessed, once, into sorted
   posting lists so that phase-2 replay can answer "how many writes
   touched word w (page p) between events a and b?" with two binary
   searches instead of a scan. See the .mli for the shape and
   docs/PARALLELISM.md for how it is shared across domains. *)

module Vec = Ebp_util.Int_vec

(* --- posting lists, CSR form --- *)

(* [keys] sorted distinct; the events of key [keys.(i)] are
   [data.(offs.(i)) .. data.(offs.(i+1)) - 1]), sorted ascending (the
   build fills each key's run in trace order). *)
type posting = { keys : int array; offs : int array; data : int array }

let find_key p key =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let k = p.keys.(mid) in
      if k = key then Some mid else if k < key then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length p.keys)

let has_key p key = find_key p key <> None

(* First index in [data[lo, hi)] holding a value >= x. *)
let lower_bound data lo hi x =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Array.unsafe_get data mid < x then lo := mid + 1 else hi := mid
  done;
  !lo

let posting_count p key ~after ~before =
  match find_key p key with
  | None -> 0
  | Some i ->
      let lo = p.offs.(i) and hi = p.offs.(i + 1) in
      lower_bound p.data lo hi before - lower_bound p.data lo hi (after + 1)

(* Key-slice access: consumers that monitor a word/page RANGE iterate only
   the keys present in the posting — i.e. only words that were ever
   written — instead of probing every word of the range. *)

let key_range p ~lo ~hi =
  let n = Array.length p.keys in
  (lower_bound p.keys 0 n lo, lower_bound p.keys 0 n (hi + 1))

let key_count p = Array.length p.keys
let key_lower_bound p x = lower_bound p.keys 0 (Array.length p.keys) x

(* First index holding a key > x — [key_range]'s upper edge without the
   [x + 1] that overflows at [max_int]. *)
let key_upper_bound p x =
  let lo = ref 0 and hi = ref (Array.length p.keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Array.unsafe_get p.keys mid <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let key_at p i = p.keys.(i)

let span_count p i j = p.offs.(j) - p.offs.(i)

let count_at p i ~after ~before =
  let lo = p.offs.(i) and hi = p.offs.(i + 1) in
  lower_bound p.data lo hi before - lower_bound p.data lo hi (after + 1)

(* Total count over a whole run of windows (flattened open intervals,
   sorted and disjoint). Adaptive: two binary searches per window when
   windows are few relative to the key's events, one linear merge of the
   two sorted runs when they are not (a monitor re-installed on every
   call can have as many windows as the key has writes — per-window
   searching would cost windows × log instead of linear). *)
let count_within p i ~windows =
  let lo = p.offs.(i) and hi = p.offs.(i + 1) in
  let len = hi - lo and n = Array.length windows / 2 in
  if n = 0 || len = 0 then 0
  else begin
    let log2_len =
      let l = ref 0 and v = ref len in
      while !v > 1 do
        incr l;
        v := !v lsr 1
      done;
      !l
    in
    if 2 * n * log2_len < len + n then begin
      let acc = ref 0 in
      for k = 0 to n - 1 do
        acc :=
          !acc
          + lower_bound p.data lo hi windows.((2 * k) + 1)
          - lower_bound p.data lo hi (windows.(2 * k) + 1)
      done;
      !acc
    end
    else begin
      let acc = ref 0 and d = ref lo in
      for k = 0 to n - 1 do
        let a = windows.(2 * k) and b = windows.((2 * k) + 1) in
        while !d < hi && Array.unsafe_get p.data !d <= a do
          incr d
        done;
        while !d < hi && Array.unsafe_get p.data !d < b do
          incr d;
          incr acc
        done
      done;
      !acc
    end
  end

let positions_at p i ~after ~before =
  let lo = p.offs.(i) and hi = p.offs.(i + 1) in
  let a = lower_bound p.data lo hi (after + 1) in
  let b = lower_bound p.data lo hi before in
  Array.sub p.data a (b - a)

let positions p key ~after ~before =
  match find_key p key with
  | None -> [||]
  | Some i -> positions_at p i ~after ~before

(* --- position-set algebra ---

   The compiled query engine represents a predicate's result as the
   sorted, duplicate-free array of matching write positions; boolean
   connectives become merges over these sets. Inputs are sorted arrays
   (posting slices are; [union] additionally deduplicates, since a
   two-word write appears under both of its word keys). Results are
   always fresh arrays — inputs are never mutated, so posting data can
   be passed through directly. *)
module Pos_set = struct
  let empty = [||]

  (* The slices are sorted runs: merge them, then drop the duplicates
     a multi-word write leaves. *)
  let union ls =
    let buf = Vec.merge_sorted ls in
    let total = Array.length buf in
    if total = 0 then empty
    else begin
      let w = ref 1 in
      for r = 1 to total - 1 do
        if buf.(r) <> buf.(!w - 1) then begin
          buf.(!w) <- buf.(r);
          incr w
        end
      done;
      if !w = total then buf else Array.sub buf 0 !w
    end

  let inter a b =
    let na = Array.length a and nb = Array.length b in
    let out = Array.make (min na nb) 0 in
    let i = ref 0 and j = ref 0 and w = ref 0 in
    while !i < na && !j < nb do
      let x = a.(!i) and y = b.(!j) in
      if x < y then incr i
      else if x > y then incr j
      else begin
        out.(!w) <- x;
        incr w;
        incr i;
        incr j
      end
    done;
    Array.sub out 0 !w

  let diff a b =
    let na = Array.length a and nb = Array.length b in
    let out = Array.make na 0 in
    let i = ref 0 and j = ref 0 and w = ref 0 in
    while !i < na do
      let x = a.(!i) in
      while !j < nb && b.(!j) < x do
        incr j
      done;
      if !j < nb && b.(!j) = x then incr i
      else begin
        out.(!w) <- x;
        incr w;
        incr i
      end
    done;
    Array.sub out 0 !w

end

(* --- the index --- *)

type page_view = {
  page_size : int;
  page_shift : int;
  (* Writes touching page p, where "touching" means p is the first or last
     page of the write's range — the scan engine's page_write semantics. *)
  page_writes : posting;
  (* Writes whose range spans exactly the pages (p, p+1), keyed by p. *)
  page_spans : posting;
  (* Writes spanning non-adjacent first/last pages: (event, first, last)
     triples, flattened. Vanishingly rare (write wider than a page). *)
  wide_pages : int array;
}

type t = {
  events : int;
  total_writes : int;
  (* Narrow (<= 2 word) writes touching word w. *)
  word_writes : posting;
  (* Narrow writes spanning the word boundary (w, w+1), keyed by w. *)
  word_spans : posting;
  (* Writes covering 3+ words: (event, first_word, last_word) triples.
     Machine stores are at most 4 bytes, so this is empty for recorded
     traces; synthetic traces may populate it. *)
  wide_words : int array;
  (* Every write (narrow and wide), keyed by pc; each write appears
     exactly once, so the concatenated data is a permutation of all
     write positions. Added in EBPW2 for the query engine. *)
  pc_writes : posting;
  (* Per interned object, its install/remove timeline: stride-3 records
     ((event lsl 1) lor tag, lo, hi) with tag 0 = install, 1 = remove.
     [obj_offs] is in records, so object o's records live at
     obj_data[3*obj_offs.(o) .. 3*obj_offs.(o+1) - 1]. *)
  obj_offs : int array;
  obj_data : int array;
  pages : page_view array;
}

let codec_version = "EBPW2"

let log2_exact n =
  let rec go i v = if v = 1 then i else go (i + 1) (v lsr 1) in
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg "Write_index: page size must be a positive power of two"
  else go 0 n

(* --- the counting build ---

   A chunk of events is built straight into CSR form in two passes. The
   first counts each key's writes; [layout] then sorts the keys, lays out
   [offs] and turns each count into its key's cursor in [data]; the
   second writes each event at its key's cursor, so every key's run fills
   in event order and comes out ascending. Keys are arbitrary ints
   (addresses, page numbers and pcs from any trace), so their dense ids
   come from an open-addressed table of whole keys: linear probing,
   Fibonacci hashing, nothing packed into bit fields. *)

type acc = {
  mutable slot_key : int array;
  (* -1 marks a free slot. While counting, a key's count; after
     [layout], its cursor into [out.data]. *)
  mutable slot_n : int array;
  mutable shift : int; (* 63 - log2 (slot count) *)
  mutable used : int;
  mutable out : posting;
}

let acc () =
  {
    slot_key = Array.make 64 0;
    slot_n = Array.make 64 (-1);
    shift = 57;
    used = 0;
    out = { keys = [||]; offs = [| 0 |]; data = [||] };
  }

(* The slot of [key], or the free slot where it belongs. *)
let probe a key =
  let mask = Array.length a.slot_key - 1 in
  let s = ref ((key * 0x9E3779B97F4A7C1) lsr a.shift) in
  while a.slot_n.(!s) >= 0 && a.slot_key.(!s) <> key do
    s := (!s + 1) land mask
  done;
  !s

let rec count a key =
  let s = probe a key in
  if a.slot_n.(s) >= 0 then a.slot_n.(s) <- a.slot_n.(s) + 1
  else if 2 * (a.used + 1) > Array.length a.slot_key then begin
    grow a;
    count a key
  end
  else begin
    a.slot_key.(s) <- key;
    a.slot_n.(s) <- 1;
    a.used <- a.used + 1
  end

and grow a =
  let keys = a.slot_key and ns = a.slot_n in
  a.slot_key <- Array.make (2 * Array.length keys) 0;
  a.slot_n <- Array.make (2 * Array.length keys) (-1);
  a.shift <- a.shift - 1;
  Array.iteri
    (fun i n ->
      if n >= 0 then begin
        let s = probe a keys.(i) in
        a.slot_key.(s) <- keys.(i);
        a.slot_n.(s) <- n
      end)
    ns

let layout a =
  let keys = Array.make a.used 0 and j = ref 0 in
  Array.iteri
    (fun s n ->
      if n >= 0 then begin
        keys.(!j) <- a.slot_key.(s);
        incr j
      end)
    a.slot_n;
  Array.stable_sort Int.compare keys;
  let offs = Array.make (a.used + 1) 0 in
  Array.iteri
    (fun r key ->
      let s = probe a key in
      offs.(r + 1) <- offs.(r) + a.slot_n.(s);
      a.slot_n.(s) <- offs.(r))
    keys;
  a.out <- { keys; offs; data = Array.make offs.(a.used) 0 }

let put a key t =
  let s = probe a key in
  let c = a.slot_n.(s) in
  a.out.data.(c) <- t;
  a.slot_n.(s) <- c + 1

let touch ~fill a key t = if fill then put a key t else count a key

let push_triple v a b c =
  Vec.push v a;
  Vec.push v b;
  Vec.push v c

(* The index over one contiguous event range, as a [t] in its own right:
   [iter f] must call [f] once per event, in order, and is called twice
   (count, then fill). [start] is the global position of the first event
   and [stop] the position after the last, so positions are trace
   positions and chunks merge by concatenation. [nobjs] bounds the object
   ids the events may mention: [Trace.object_count] for a whole trace,
   the objects registered so far for a sealed block. *)
let build_chunk ~page_sizes ~nobjs ~start ~stop iter =
  let shifts = Array.of_list (List.map log2_exact page_sizes) in
  let npages = Array.length shifts in
  let word = acc () and span = acc () and pcs = acc () in
  let pw = Array.init npages (fun _ -> acc ()) in
  let ps = Array.init npages (fun _ -> acc ()) in
  let wide_words = Vec.create () in
  let wide_pages = Array.init npages (fun _ -> Vec.create ()) in
  let obj_offs = Array.make (nobjs + 1) 0 in
  let obj_cur = ref [||] and obj_data = ref [||] and writes = ref 0 in
  let pass ~fill =
    let pos = ref start in
    iter (fun ~tag ~obj ~lo ~hi ~pc ->
        let t = !pos in
        pos := t + 1;
        if tag <= 1 then begin
          if fill then begin
            let k = !obj_cur.(obj) and d = !obj_data in
            !obj_cur.(obj) <- k + 1;
            d.(3 * k) <- (t lsl 1) lor tag;
            d.((3 * k) + 1) <- lo;
            d.((3 * k) + 2) <- hi
          end
          else obj_offs.(obj + 1) <- obj_offs.(obj + 1) + 1
        end
        else begin
          if not fill then incr writes;
          touch ~fill pcs pc t;
          let fw = lo lsr 2 and lw = hi lsr 2 in
          if lw - fw <= 1 then begin
            touch ~fill word fw t;
            if lw <> fw then begin
              touch ~fill word lw t;
              touch ~fill span fw t
            end
          end
          else if fill then push_triple wide_words t fw lw;
          for i = 0 to npages - 1 do
            let fp = lo lsr shifts.(i) and lp = hi lsr shifts.(i) in
            touch ~fill pw.(i) fp t;
            if lp <> fp then begin
              touch ~fill pw.(i) lp t;
              if lp = fp + 1 then touch ~fill ps.(i) fp t
              else if fill then push_triple wide_pages.(i) t fp lp
            end
          done
        end)
  in
  pass ~fill:false;
  for o = 1 to nobjs do
    obj_offs.(o) <- obj_offs.(o) + obj_offs.(o - 1)
  done;
  obj_cur := Array.sub obj_offs 0 nobjs;
  obj_data := Array.make (3 * obj_offs.(nobjs)) 0;
  List.iter layout ([ word; span; pcs ] @ Array.to_list pw @ Array.to_list ps);
  pass ~fill:true;
  {
    events = stop;
    total_writes = !writes;
    word_writes = word.out;
    word_spans = span.out;
    wide_words = Vec.to_array wide_words;
    pc_writes = pcs.out;
    obj_offs;
    obj_data = !obj_data;
    pages =
      Array.init npages (fun i ->
          {
            page_size = List.nth page_sizes i;
            page_shift = shifts.(i);
            page_writes = pw.(i).out;
            page_spans = ps.(i).out;
            wide_pages = Vec.to_array wide_pages.(i);
          });
  }

(* --- the merge ---

   Chunks cover disjoint, ascending event ranges and are merged in order,
   so concatenating a key's per-chunk runs yields the ascending list a
   single pass writes: the pooled build, the serial build (one chunk, no
   merge) and every incremental snapshot are structurally identical, and
   [equal] is structural. *)

(* [Array.blit] into an array in the major heap goes through the write
   barrier element by element; int arrays need none. *)
let blit_ints (src : int array) s (dst : int array) d len =
  for i = 0 to len - 1 do
    Array.unsafe_set dst (d + i) (Array.unsafe_get src (s + i))
  done

(* [concat_runs ~rows ~stride parts]: the CSR whose row [r] holds, in part
   order, the row of each part that [rank] sends to [r]. A part is
   [(offs, data, rank)]; its row [i] is [data]'s records [offs.(i) ..
   offs.(i + 1) - 1], each [stride] ints wide. *)
let concat_runs ~rows ~stride parts =
  let offs = Array.make (rows + 1) 0 in
  List.iter
    (fun (poffs, _, rank) ->
      for i = 0 to Array.length poffs - 2 do
        let r = rank i + 1 in
        offs.(r) <- offs.(r) + poffs.(i + 1) - poffs.(i)
      done)
    parts;
  for r = 1 to rows do
    offs.(r) <- offs.(r) + offs.(r - 1)
  done;
  let data = Array.make (stride * offs.(rows)) 0 in
  let cur = Array.sub offs 0 rows in
  List.iter
    (fun (poffs, pdata, rank) ->
      for i = 0 to Array.length poffs - 2 do
        let r = rank i and len = poffs.(i + 1) - poffs.(i) in
        blit_ints pdata (stride * poffs.(i)) data (stride * cur.(r)) (stride * len);
        cur.(r) <- cur.(r) + len
      done)
    parts;
  (offs, data)

let merge_postings ps =
  let keys = Pos_set.union (List.map (fun p -> p.keys) ps) in
  let n = Array.length keys in
  let offs, data =
    concat_runs ~rows:n ~stride:1
      (List.map
         (fun p -> (p.offs, p.data, Array.get (Array.map (lower_bound keys 0 n) p.keys)))
         ps)
  in
  { keys; offs; data }

let merge ~events ~nobjs = function
  | [ c ] when c.events = events && Array.length c.obj_offs = nobjs + 1 -> c
  | chunks ->
      let postings f = merge_postings (List.map f chunks) in
      let cat f = Array.concat (List.map f chunks) in
      let obj_offs, obj_data =
        concat_runs ~rows:nobjs ~stride:3
          (List.map (fun c -> (c.obj_offs, c.obj_data, Fun.id)) chunks)
      in
      {
        events;
        total_writes = List.fold_left (fun n c -> n + c.total_writes) 0 chunks;
        word_writes = postings (fun c -> c.word_writes);
        word_spans = postings (fun c -> c.word_spans);
        wide_words = cat (fun c -> c.wide_words);
        pc_writes = postings (fun c -> c.pc_writes);
        obj_offs;
        obj_data;
        pages =
          Array.mapi
            (fun i v ->
              {
                v with
                page_writes = postings (fun c -> c.pages.(i).page_writes);
                page_spans = postings (fun c -> c.pages.(i).page_spans);
                wide_pages = cat (fun c -> c.pages.(i).wide_pages);
              })
            (List.hd chunks).pages;
      }

(* Chunks below this many events are not worth a pool round-trip. *)
let parallel_threshold = 8192
let chunk_target = 4096

let m_build_chunks = Ebp_obs.Metrics.counter "index.build.chunks"

let build ?pool ~page_sizes trace =
  (* The whole build is one span: it is the warm-run cost the .widx cache
     exists to amortize, so its duration is worth a timeline entry. *)
  Ebp_obs.Span.with_span "index.build" @@ fun () ->
  let events = Trace.length trace in
  let nobjs = Trace.object_count trace in
  let chunk start stop =
    build_chunk ~page_sizes ~nobjs ~start ~stop (fun f ->
        Trace.iter_raw_range trace ~start ~stop f)
  in
  let chunks =
    match pool with
    | Some pool
      when Ebp_util.Domain_pool.domains pool > 1 && events >= parallel_threshold ->
        let n =
          min (Ebp_util.Domain_pool.domains pool)
            (max 1 (events / chunk_target))
        in
        let bound i = events * i / n in
        Ebp_util.Domain_pool.map pool
          (fun i -> chunk (bound i) (bound (i + 1)))
          (List.init n Fun.id)
    | _ -> [ chunk 0 events ]
  in
  Ebp_obs.Metrics.add m_build_chunks (List.length chunks);
  merge ~events ~nobjs chunks

(* --- incremental (streaming) builds ---

   One chunk per sealed block, appended as the recording runs. A snapshot
   folds whatever is sealed so far into one chunk through the same
   [merge] the batch build uses, so the snapshot over a prefix is [equal]
   to [build] over that prefix trace; the fold replaces the chunks, so the
   next snapshot merges only the blocks sealed since, and a snapshot with
   no block since the last one is that same index. Peak state is the
   folded index plus the blocks sealed since it — the posting data the
   final index needs anyway — and one block's counting tables while it
   seals. *)

module Incremental = struct
  type builder = {
    page_sizes : int list;
    mutable chunks_rev : t list;
    mutable ev_count : int;
    mutable nobjs : int;
    mutable degraded : bool;
  }

  let p_merge = Ebp_util.Fault.point "stream.index_merge"
  let m_blocks = Ebp_obs.Metrics.counter "index.incremental.blocks"
  let m_degraded = Ebp_obs.Metrics.counter "index.incremental.degraded"

  let create ~page_sizes =
    { page_sizes; chunks_rev = []; ev_count = 0; nobjs = 0; degraded = false }

  let events b = b.ev_count
  let degraded b = b.degraded

  let add_block b ~nobjs ~count iter =
    let start = b.ev_count in
    b.ev_count <- start + count;
    b.nobjs <- max b.nobjs nobjs;
    if not b.degraded then begin
      match
        try
          Ebp_util.Fault.check p_merge;
          None
        with Ebp_util.Fault.Injected msg -> Some msg
      with
      | Some _ ->
          (* Fallback semantics: the incremental index is dropped for the
             rest of the recording and consumers batch-build over the
             prefix trace instead — a slower answer, never a wrong one. *)
          b.degraded <- true;
          b.chunks_rev <- [];
          Ebp_obs.Metrics.incr m_degraded
      | None ->
          let chunk =
            build_chunk ~page_sizes:b.page_sizes ~nobjs ~start
              ~stop:b.ev_count iter
          in
          b.chunks_rev <- chunk :: b.chunks_rev;
          Ebp_obs.Metrics.incr m_blocks
    end

  let snapshot b =
    if b.degraded then None
    else begin
      let chunks =
        match List.rev b.chunks_rev with
        | [] ->
            [ build_chunk ~page_sizes:b.page_sizes ~nobjs:0 ~start:0 ~stop:0 ignore ]
        | cs -> cs
      in
      let index = merge ~events:b.ev_count ~nobjs:b.nobjs chunks in
      b.chunks_rev <- [ index ];
      Some index
    end
end

(* --- accessors --- *)

let events t = t.events
let total_writes t = t.total_writes
let object_count t = Array.length t.obj_offs - 1

let iter_object_timeline t o f =
  if o < 0 || o >= object_count t then
    invalid_arg "Write_index.iter_object_timeline: object id out of range";
  for k = t.obj_offs.(o) to t.obj_offs.(o + 1) - 1 do
    let base = 3 * k in
    let packed = t.obj_data.(base) in
    f ~ev:(packed lsr 1)
      ~is_install:(packed land 1 = 0)
      ~lo:t.obj_data.(base + 1)
      ~hi:t.obj_data.(base + 2)
  done

let installed_at t o ev =
  (* The last install/remove at or before [ev] decides; timelines are
     short, so a linear walk beats a search. *)
  let k = ref t.obj_offs.(o) and state = ref false in
  let stop = t.obj_offs.(o + 1) in
  while !k < stop && t.obj_data.(3 * !k) lsr 1 <= ev do
    state := t.obj_data.(3 * !k) land 1 = 0;
    incr k
  done;
  !state

let word_writes t = t.word_writes
let word_spans t = t.word_spans
let pc_writes t = t.pc_writes
let page_writes v = v.page_writes
let page_spans v = v.page_spans

let count_word_writes t ~word ~after ~before =
  posting_count t.word_writes word ~after ~before

let count_word_spans t ~word ~after ~before =
  posting_count t.word_spans word ~after ~before

let has_word_spans t ~word = has_key t.word_spans word

let iter_wide_word_writes t f =
  let n = Array.length t.wide_words / 3 in
  for i = 0 to n - 1 do
    f ~ev:t.wide_words.(3 * i)
      ~first:t.wide_words.((3 * i) + 1)
      ~last:t.wide_words.((3 * i) + 2)
  done

let page_sizes t = Array.to_list (Array.map (fun v -> v.page_size) t.pages)

let page_view t ~page_size =
  Array.find_opt (fun v -> v.page_size = page_size) t.pages

let page_shift v = v.page_shift

let count_page_writes v ~page ~after ~before =
  posting_count v.page_writes page ~after ~before

let count_page_spans v ~page ~after ~before =
  posting_count v.page_spans page ~after ~before

let has_page_spans v ~page = has_key v.page_spans page

let iter_wide_page_writes v f =
  let n = Array.length v.wide_pages / 3 in
  for i = 0 to n - 1 do
    f ~ev:v.wide_pages.(3 * i)
      ~first:v.wide_pages.((3 * i) + 1)
      ~last:v.wide_pages.((3 * i) + 2)
  done

let equal (a : t) (b : t) = a = b

(* --- binary codec --- *)

(* 8-byte LE ints: magic, the two counts, then each array as its length
   and its elements. [encode_padded] computes the exact size first and
   writes every value once into one buffer, with room left at its end
   for Trace_cache's trailer; [decode_prefix] reads the body in place
   from the sealed entry, one loop per array. *)

let encoded_size t =
  let arr a = 8 * (1 + Array.length a) in
  let posting p = arr p.keys + arr p.offs + arr p.data in
  String.length codec_version + 24
  + posting t.word_writes + posting t.word_spans + arr t.wide_words
  + posting t.pc_writes + arr t.obj_offs + arr t.obj_data
  + Array.fold_left
      (fun n v -> n + 8 + posting v.page_writes + posting v.page_spans + arr v.wide_pages)
      0 t.pages

let encode_padded t ~room =
  let size = encoded_size t in
  let buf = Bytes.create (size + room) in
  Bytes.fill buf size room '\x00';
  Bytes.blit_string codec_version 0 buf 0 (String.length codec_version);
  let pos = ref (String.length codec_version) in
  let int v =
    Bytes.set_int64_le buf !pos (Int64.of_int v);
    pos := !pos + 8
  in
  let array a =
    int (Array.length a);
    let p = !pos in
    for i = 0 to Array.length a - 1 do
      Bytes.set_int64_le buf (p + (8 * i)) (Int64.of_int (Array.unsafe_get a i))
    done;
    pos := p + (8 * Array.length a)
  in
  let posting p =
    array p.keys;
    array p.offs;
    array p.data
  in
  int t.events;
  int t.total_writes;
  posting t.word_writes;
  posting t.word_spans;
  array t.wide_words;
  posting t.pc_writes;
  array t.obj_offs;
  array t.obj_data;
  int (Array.length t.pages);
  Array.iter
    (fun v ->
      int v.page_size;
      posting v.page_writes;
      posting v.page_spans;
      array v.wide_pages)
    t.pages;
  assert (!pos = size);
  buf

let encode t = Bytes.unsafe_to_string (encode_padded t ~room:0)

let write_binary oc t = output_string oc (encode t)

exception Malformed of string

let p_decode = Ebp_util.Fault.point "write_index.codec.decode"

(* Adversarial-input contract (see test_indexed.ml's mutation fuzzer):
   [decode] may accept or reject a mutated blob, but it must never raise,
   hang, or allocate unboundedly — every count is clamped against the
   bytes actually present before anything is sized from it. *)
let decode_prefix s ~len =
  if len < 0 || len > String.length s then
    invalid_arg "Write_index.decode_prefix: length outside the string";
  match Ebp_util.Fault.fires p_decode with
  | Some _ -> Error "injected fault at write_index.codec.decode"
  | None -> (
      let pos = ref 0 in
      let read_int () =
        if !pos + 8 > len then raise (Malformed "truncated int");
        let v = Int64.to_int (String.get_int64_le s !pos) in
        pos := !pos + 8;
        v
      in
      let read_array () =
        let n = read_int () in
        (* At most (len - pos) / 8 elements can be present: clamping here
           bounds the allocation a corrupt count can drive. *)
        if n < 0 || n > (len - !pos) / 8 then raise (Malformed "bad array length");
        let arr = Array.make n 0 and p = !pos in
        for i = 0 to n - 1 do
          Array.unsafe_set arr i (Int64.to_int (String.get_int64_le s (p + (8 * i))))
        done;
        pos := p + (8 * n);
        arr
      in
      let check_monotone what arr =
        for i = 0 to Array.length arr - 2 do
          if arr.(i) > arr.(i + 1) then
            raise (Malformed (what ^ " offsets not monotone"))
        done
      in
      let read_posting () =
        let keys = read_array () in
        let offs = read_array () in
        let data = read_array () in
        if Array.length offs <> Array.length keys + 1 then
          raise (Malformed "posting offsets do not match keys");
        if Array.length offs > 0 && offs.(0) <> 0 then
          raise (Malformed "posting offsets do not start at zero");
        check_monotone "posting" offs;
        if offs.(Array.length keys) <> Array.length data then
          raise (Malformed "posting data does not match offsets");
        { keys; offs; data }
      in
      try
        if len < String.length codec_version
           || String.sub s 0 (String.length codec_version) <> codec_version
        then Error "bad write-index magic"
        else begin
          pos := String.length codec_version;
          let events = read_int () in
          let total_writes = read_int () in
          let word_writes = read_posting () in
          let word_spans = read_posting () in
          let wide_words = read_array () in
          let pc_writes = read_posting () in
          let obj_offs = read_array () in
          let obj_data = read_array () in
          if Array.length wide_words mod 3 <> 0 then
            raise (Malformed "bad wide-word list length");
          if Array.length pc_writes.data <> total_writes then
            raise (Malformed "pc posting does not cover the writes");
          if Array.length obj_offs = 0 then
            raise (Malformed "empty object offsets");
          check_monotone "object" obj_offs;
          if obj_offs.(0) <> 0
             || 3 * obj_offs.(Array.length obj_offs - 1)
                <> Array.length obj_data
          then raise (Malformed "object data does not match offsets");
          let npages = read_int () in
          if npages < 0 || npages > 64 then raise (Malformed "bad page-view count");
          let pages =
            Array.init npages (fun _ ->
                let page_size = read_int () in
                let page_shift =
                  try log2_exact page_size
                  with Invalid_argument _ -> raise (Malformed "bad page size")
                in
                let page_writes = read_posting () in
                let page_spans = read_posting () in
                let wide_pages = read_array () in
                if Array.length wide_pages mod 3 <> 0 then
                  raise (Malformed "bad wide-page list length");
                { page_size; page_shift; page_writes; page_spans; wide_pages })
          in
          if !pos <> len then Error "trailing bytes in write index"
          else
            Ok
              {
                events;
                total_writes;
                word_writes;
                word_spans;
                wide_words;
                pc_writes;
                obj_offs;
                obj_data;
                pages;
              }
        end
      with Malformed msg -> Error ("malformed write index: " ^ msg))

let decode s = decode_prefix s ~len:(String.length s)

let read_binary ic = decode (In_channel.input_all ic)
