(* Temporal write index: the trace preprocessed, once, into sorted
   posting lists so that phase-2 replay can answer "how many writes
   touched word w (page p) between events a and b?" with two binary
   searches instead of a scan. See the .mli for the shape and
   docs/PARALLELISM.md for how it is shared across domains. *)

module Vec = Ebp_util.Int_vec

(* --- posting lists, CSR form --- *)

(* [keys] sorted distinct; the events of key [keys.(i)] are
   [data.(offs.(i)) .. data.(offs.(i+1)) - 1]), sorted ascending (they are
   appended in trace order at build time). *)
type posting = { keys : int array; offs : int array; data : int array }

(* Merge per-chunk tables into one posting. The chunks cover disjoint,
   ascending event ranges, so concatenating a key's per-chunk runs in
   chunk order yields the same ascending event list a single-pass build
   appends — the serial build is just the one-chunk case of this
   function, which is what makes parallel and serial indexes structurally
   identical (and [equal] is structural). *)
let posting_of_tables (tbls : (int, Vec.t) Hashtbl.t list) =
  let keyset = Hashtbl.create 4096 in
  List.iter
    (fun tbl -> Hashtbl.iter (fun k _ -> Hashtbl.replace keyset k ()) tbl)
    tbls;
  let keys = Array.of_seq (Hashtbl.to_seq_keys keyset) in
  Array.sort Int.compare keys;
  let nkeys = Array.length keys in
  let offs = Array.make (nkeys + 1) 0 in
  for i = 0 to nkeys - 1 do
    let len =
      List.fold_left
        (fun acc tbl ->
          match Hashtbl.find_opt tbl keys.(i) with
          | Some v -> acc + v.Vec.len
          | None -> acc)
        0 tbls
    in
    offs.(i + 1) <- offs.(i) + len
  done;
  let data = Array.make offs.(nkeys) 0 in
  Array.iteri
    (fun i key ->
      let dst = ref offs.(i) in
      List.iter
        (fun tbl ->
          match Hashtbl.find_opt tbl key with
          | Some v ->
              Array.blit v.Vec.data 0 data !dst v.Vec.len;
              dst := !dst + v.Vec.len
          | None -> ())
        tbls)
    keys;
  { keys; offs; data }

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

(* Per-chunk build state: the single-pass tables of the original serial
   build, restricted to one contiguous event range. Event positions are
   global trace positions, so chunks can be merged by concatenation. *)
type chunk = {
  c_writes : int;
  c_word : (int, Vec.t) Hashtbl.t;
  c_word_span : (int, Vec.t) Hashtbl.t;
  c_wide : Vec.t;
  c_pc : (int, Vec.t) Hashtbl.t;
  c_objs : Vec.t array;
  c_pages : (int * int * (int, Vec.t) Hashtbl.t * (int, Vec.t) Hashtbl.t * Vec.t) list;
}

(* The chunk pass over an arbitrary event source: [iter f] must call [f]
   once per event, in order. [start] is the global position of the first
   event, so chunk positions always live in trace coordinates and chunks
   merge by concatenation. [nobjs] bounds the object ids the source may
   mention — for a full-trace chunk that is [Trace.object_count]; for an
   incrementally sealed block it is the objects registered so far. *)
let build_chunk_iter ~page_sizes ~nobjs ~start iter =
  let obj_vecs = Array.init nobjs (fun _ -> Vec.create ()) in
  let word_tbl : (int, Vec.t) Hashtbl.t = Hashtbl.create 4096 in
  let word_span_tbl : (int, Vec.t) Hashtbl.t = Hashtbl.create 64 in
  let pc_tbl : (int, Vec.t) Hashtbl.t = Hashtbl.create 1024 in
  let wide_words = Vec.create () in
  let push tbl key x =
    let v =
      match Hashtbl.find_opt tbl key with
      | Some v -> v
      | None ->
          let v = Vec.create () in
          Hashtbl.add tbl key v;
          v
    in
    Vec.push v x
  in
  let page_builders =
    List.map
      (fun page_size ->
        ( page_size,
          log2_exact page_size,
          (Hashtbl.create 1024 : (int, Vec.t) Hashtbl.t),
          (Hashtbl.create 64 : (int, Vec.t) Hashtbl.t),
          Vec.create () ))
      page_sizes
  in
  let total_writes = ref 0 in
  let pos = ref start in
  iter (fun ~tag ~obj ~lo ~hi ~pc ->
      let t = !pos in
      incr pos;
      if tag <= 1 then begin
        let v = obj_vecs.(obj) in
        Vec.push v ((t lsl 1) lor tag);
        Vec.push v lo;
        Vec.push v hi
      end
      else begin
        incr total_writes;
        push pc_tbl pc t;
        let fw = lo lsr 2 and lw = hi lsr 2 in
        if lw - fw <= 1 then begin
          push word_tbl fw t;
          if lw <> fw then begin
            push word_tbl lw t;
            push word_span_tbl fw t
          end
        end
        else begin
          Vec.push wide_words t;
          Vec.push wide_words fw;
          Vec.push wide_words lw
        end;
        List.iter
          (fun (_, shift, wtbl, stbl, wide) ->
            let fp = lo lsr shift and lp = hi lsr shift in
            push wtbl fp t;
            if lp <> fp then begin
              push wtbl lp t;
              if lp = fp + 1 then push stbl fp t
              else begin
                Vec.push wide t;
                Vec.push wide fp;
                Vec.push wide lp
              end
            end)
          page_builders
      end);
  {
    c_writes = !total_writes;
    c_word = word_tbl;
    c_word_span = word_span_tbl;
    c_wide = wide_words;
    c_pc = pc_tbl;
    c_objs = obj_vecs;
    c_pages = page_builders;
  }

let build_chunk ~page_sizes trace ~start ~stop =
  build_chunk_iter ~page_sizes ~nobjs:(Trace.object_count trace) ~start
    (fun f -> Trace.iter_raw_range trace ~start ~stop f)

let concat_vecs vecs =
  let total = List.fold_left (fun acc v -> acc + v.Vec.len) 0 vecs in
  let out = Array.make total 0 in
  let dst = ref 0 in
  List.iter
    (fun v ->
      Array.blit v.Vec.data 0 out !dst v.Vec.len;
      dst := !dst + v.Vec.len)
    vecs;
  out

(* Chunks below this many events are not worth a pool round-trip. *)
let parallel_threshold = 8192
let chunk_target = 4096

let m_build_chunks = Ebp_obs.Metrics.counter "index.build.chunks"

(* An object id beyond a chunk's vector array means the object was
   registered after the chunk was sealed (incremental builds only): it
   has no timeline entries in that chunk, so it reads as empty. For the
   batch build every chunk is sized to the full object count and this
   branch never fires. *)
let empty_vec = { Vec.data = [||]; len = 0 }
let chunk_obj c o = if o < Array.length c.c_objs then c.c_objs.(o) else empty_vec

(* Merge chunks covering disjoint ascending event ranges, in order. The
   serial build is the one-chunk case; incremental per-block builds reuse
   exactly this merge, which is what makes the streaming index
   structurally identical to the batch one. *)
let merge_chunks ~events ~nobjs chunks =
  let obj_offs = Array.make (nobjs + 1) 0 in
  for o = 0 to nobjs - 1 do
    obj_offs.(o + 1) <-
      obj_offs.(o)
      + List.fold_left (fun acc c -> acc + ((chunk_obj c o).Vec.len / 3)) 0 chunks
  done;
  let obj_data = Array.make (3 * obj_offs.(nobjs)) 0 in
  for o = 0 to nobjs - 1 do
    let dst = ref (3 * obj_offs.(o)) in
    List.iter
      (fun c ->
        let v = chunk_obj c o in
        Array.blit v.Vec.data 0 obj_data !dst v.Vec.len;
        dst := !dst + v.Vec.len)
      chunks
  done;
  {
    events;
    total_writes = List.fold_left (fun acc c -> acc + c.c_writes) 0 chunks;
    word_writes = posting_of_tables (List.map (fun c -> c.c_word) chunks);
    word_spans = posting_of_tables (List.map (fun c -> c.c_word_span) chunks);
    wide_words = concat_vecs (List.map (fun c -> c.c_wide) chunks);
    pc_writes = posting_of_tables (List.map (fun c -> c.c_pc) chunks);
    obj_offs;
    obj_data;
    pages =
      Array.of_list
        (List.mapi
           (fun i (page_size, page_shift, _, _, _) ->
             {
               page_size;
               page_shift;
               page_writes =
                 posting_of_tables
                   (List.map
                      (fun c ->
                        let _, _, wtbl, _, _ = List.nth c.c_pages i in
                        wtbl)
                      chunks);
               page_spans =
                 posting_of_tables
                   (List.map
                      (fun c ->
                        let _, _, _, stbl, _ = List.nth c.c_pages i in
                        stbl)
                      chunks);
               wide_pages =
                 concat_vecs
                   (List.map
                      (fun c ->
                        let _, _, _, _, wide = List.nth c.c_pages i in
                        wide)
                      chunks);
             })
           (List.hd chunks).c_pages);
  }

let build ?pool ~page_sizes trace =
  (* The whole build is one span: it is the warm-run cost the .widx cache
     exists to amortize, so its duration is worth a timeline entry. *)
  Ebp_obs.Span.with_span "index.build" @@ fun () ->
  let events = Trace.length trace in
  let nobjs = Trace.object_count trace in
  let nchunks, chunks =
    match pool with
    | Some pool
      when Ebp_util.Domain_pool.domains pool > 1 && events >= parallel_threshold ->
        let n =
          min (Ebp_util.Domain_pool.domains pool)
            (max 1 (events / chunk_target))
        in
        let bound i = events * i / n in
        ( n,
          Ebp_util.Domain_pool.map pool
            (fun i ->
              build_chunk ~page_sizes trace ~start:(bound i)
                ~stop:(bound (i + 1)))
            (List.init n Fun.id) )
    | _ -> (1, [ build_chunk ~page_sizes trace ~start:0 ~stop:events ])
  in
  Ebp_obs.Metrics.add m_build_chunks nchunks;
  merge_chunks ~events ~nobjs chunks

(* --- incremental (streaming) builds ---

   One chunk per sealed block, appended as the recording runs; a snapshot
   merges whatever is sealed so far through the same [merge_chunks] the
   batch build uses, so the snapshot over a prefix is [equal] to
   [build] over that prefix trace. Peak state is the per-block tables —
   O(block), not O(trace) — plus the sealed chunks themselves, which are
   exactly the posting data the final index needs anyway. *)

module Incremental = struct
  type builder = {
    page_sizes : int list;
    mutable chunks_rev : chunk list;
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
            build_chunk_iter ~page_sizes:b.page_sizes ~nobjs ~start iter
          in
          b.chunks_rev <- chunk :: b.chunks_rev;
          Ebp_obs.Metrics.incr m_blocks
    end

  let snapshot b =
    if b.degraded then None
    else
      let chunks =
        match List.rev b.chunks_rev with
        | [] ->
            [
              build_chunk_iter ~page_sizes:b.page_sizes ~nobjs:0 ~start:0
                (fun _ -> ());
            ]
        | cs -> cs
      in
      Some (merge_chunks ~events:b.ev_count ~nobjs:b.nobjs chunks)
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

(* 8-byte LE ints, whole structure built in (or parsed from) one string:
   the in-memory form is what Trace_cache seals under a CRC trailer, so
   the codec never touches a channel except through thin wrappers. *)

let buf_int buf v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Buffer.add_bytes buf b

let buf_array buf arr =
  let n = Array.length arr in
  let b = Bytes.create ((n + 1) * 8) in
  Bytes.set_int64_le b 0 (Int64.of_int n);
  for i = 0 to n - 1 do
    Bytes.set_int64_le b ((i + 1) * 8) (Int64.of_int arr.(i))
  done;
  Buffer.add_bytes buf b

let buf_posting buf p =
  buf_array buf p.keys;
  buf_array buf p.offs;
  buf_array buf p.data

let encode t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf codec_version;
  buf_int buf t.events;
  buf_int buf t.total_writes;
  buf_posting buf t.word_writes;
  buf_posting buf t.word_spans;
  buf_array buf t.wide_words;
  buf_posting buf t.pc_writes;
  buf_array buf t.obj_offs;
  buf_array buf t.obj_data;
  buf_int buf (Array.length t.pages);
  Array.iter
    (fun v ->
      buf_int buf v.page_size;
      buf_posting buf v.page_writes;
      buf_posting buf v.page_spans;
      buf_array buf v.wide_pages)
    t.pages;
  Buffer.contents buf

let write_binary oc t = output_string oc (encode t)

exception Malformed of string

let p_decode = Ebp_util.Fault.point "write_index.codec.decode"

(* Adversarial-input contract (see test_indexed.ml's mutation fuzzer):
   [decode] may accept or reject a mutated blob, but it must never raise,
   hang, or allocate unboundedly — every count is clamped against the
   bytes actually present before anything is sized from it. *)
let decode s =
  match Ebp_util.Fault.fires p_decode with
  | Some _ -> Error "injected fault at write_index.codec.decode"
  | None -> (
      let len = String.length s in
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
        let arr =
          Array.init n (fun i -> Int64.to_int (String.get_int64_le s (!pos + (i * 8))))
        in
        pos := !pos + (n * 8);
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

let read_binary ic = decode (In_channel.input_all ic)
