module Interval = Ebp_util.Interval

type event =
  | Install of { obj : Object_desc.t; range : Interval.t }
  | Remove of { obj : Object_desc.t; range : Interval.t }
  | Write of { range : Interval.t; pc : int }

(* Packed storage: 4 ints per event — tagged object word, lo, hi, pc.
   The tag lives in the low 2 bits of the first word; the object id (or 0
   for writes) in the remaining bits. *)
let stride = 4
let tag_install = 0
let tag_remove = 1
let tag_write = 2

(* Two physical layouts behind one abstract type:

   - [Heap]: the classic interleaved [int array] (4 ints per event). The
     builder, the stream reader, and the fully-checked EBPT3 decoder all
     produce this form.
   - [Mapped]: the EBPT3 columnar form — four struct-of-arrays columns
     read in place from an mmap'd file as int Bigarrays, plus per-block
     min/max summaries. Nothing is decoded on load and nothing lives on
     the OCaml heap except the (small) object side table, so a mapped
     trace is shareable read-only across domains and across server
     tenants for free. See the EBPT3 codec comment below. *)

type int_column = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type mapped = {
  m_w0 : int_column;
  m_lo : int_column;
  m_hi : int_column;
  m_pc : int_column;
  (* 4 ints per block: install/remove count, write count, min write lo,
     max write hi. *)
  m_summaries : int_column;
  m_block_events : int;
  (* Bounds of every install/remove range in the trace, once derived:
     anything a session can monitor lies inside, so a pure-write block
     disjoint from them cannot produce hits or page touches. They are
     derived from the events on first use, not taken from the header: a
     wrong bound would skip blocks that hold hits, and checking the
     header's copy at load time would read the lo/hi pages of every
     install and remove on every warm lookup. Racing domains derive the
     same value, so the cache needs no lock. *)
  m_install : (int * int) option option Atomic.t;
}

type storage = Heap of int array | Mapped of mapped

type t = {
  storage : storage;
  count : int;
  writes : int;  (* events tagged write; the rest install or remove *)
  objs : Object_desc.t array;
}

module Builder = struct
  type builder = {
    mutable data : int array;
    mutable count : int;
    mutable writes : int;
    mutable objs : Object_desc.t list;  (* reversed *)
    mutable obj_count : int;
    intern : (Object_desc.t, int) Hashtbl.t;
  }

  type t = builder

  let create ?(hint = 1024) () =
    { data = Array.make (max 16 hint * stride) 0; count = 0; writes = 0;
      objs = [];
      obj_count = 0; intern = Hashtbl.create 64 }

  let ensure b =
    let needed = (b.count + 1) * stride in
    if needed > Array.length b.data then begin
      let bigger = Array.make (max needed (2 * Array.length b.data)) 0 in
      Array.blit b.data 0 bigger 0 (b.count * stride);
      b.data <- bigger
    end

  (* [register] appends without consulting the intern table: the recorder
     mints a fresh descriptor per activation, so an intern lookup would
     hash two strings only to miss. Callers that might see the same
     descriptor twice go through [intern] instead; both draw ids from the
     same sequence, so they can be mixed as long as no descriptor is fed
     to both. *)
  let register b obj =
    let id = b.obj_count in
    b.objs <- obj :: b.objs;
    b.obj_count <- id + 1;
    id

  let intern b obj =
    match Hashtbl.find_opt b.intern obj with
    | Some id -> id
    | None ->
        let id = register b obj in
        Hashtbl.add b.intern obj id;
        id

  let push b w0 lo hi pc =
    ensure b;
    let base = b.count * stride in
    b.data.(base) <- w0;
    b.data.(base + 1) <- lo;
    b.data.(base + 2) <- hi;
    b.data.(base + 3) <- pc;
    b.count <- b.count + 1

  let add_install_id b id ~lo ~hi = push b ((id lsl 2) lor tag_install) lo hi (-1)

  let add_remove_id b id ~lo ~hi = push b ((id lsl 2) lor tag_remove) lo hi (-1)

  let add_install b obj range =
    add_install_id b (intern b obj) ~lo:(Interval.lo range) ~hi:(Interval.hi range)

  let add_remove b obj range =
    add_remove_id b (intern b obj) ~lo:(Interval.lo range) ~hi:(Interval.hi range)

  let add_write b range ~pc =
    b.writes <- b.writes + 1;
    push b tag_write (Interval.lo range) (Interval.hi range) pc

  let add_write_raw b ~lo ~hi ~pc =
    b.writes <- b.writes + 1;
    push b tag_write lo hi pc

  let length b = b.count
  let object_count b = b.obj_count

  let finish b =
    let used = b.count * stride in
    {
      (* A well-hinted builder lands exactly full: hand the buffer over
         without the copy. The builder must not be reused after. *)
      storage =
        Heap
          (if Array.length b.data = used then b.data
           else Array.sub b.data 0 used);
      count = b.count;
      writes = b.writes;
      objs = Array.of_list (List.rev b.objs);
    }
end

let length t = t.count
let write_count t = t.writes
let is_mapped t = match t.storage with Mapped _ -> true | Heap _ -> false

let install_bounds t =
  match t.storage with
  | Heap _ -> None
  | Mapped m -> (
      match Atomic.get m.m_install with
      | Some bounds -> bounds
      | None ->
          (* Blocks whose (load-checked) summary counts no install or
             remove hold nothing to read. *)
          let lo = ref max_int and hi = ref min_int in
          for b = 0 to (Bigarray.Array1.dim m.m_summaries / 4) - 1 do
            if m.m_summaries.{4 * b} > 0 then
              for i = b * m.m_block_events
                  to min t.count ((b + 1) * m.m_block_events) - 1 do
                if Bigarray.Array1.unsafe_get m.m_w0 i <> tag_write then begin
                  let l = Bigarray.Array1.unsafe_get m.m_lo i in
                  let h = Bigarray.Array1.unsafe_get m.m_hi i in
                  if l < !lo then lo := l;
                  if h > !hi then hi := h
                end
              done
          done;
          let bounds = if !lo <= !hi then Some (!lo, !hi) else None in
          Atomic.set m.m_install (Some bounds);
          bounds)

(* Column access, one closure per column: cold consumers (the codecs,
   [get]) dispatch on the storage once and then read either layout
   through the same shape. The hot iterators below specialize the whole
   loop per layout instead. *)
let column_getter t j =
  match t.storage with
  | Heap data -> fun i -> Array.unsafe_get data ((i * stride) + j)
  | Mapped m ->
      let c =
        match j with
        | 0 -> m.m_w0
        | 1 -> m.m_lo
        | 2 -> m.m_hi
        | _ -> m.m_pc
      in
      fun i -> Bigarray.Array1.unsafe_get c i

let get t i =
  if i < 0 || i >= t.count then invalid_arg "Trace.get: index out of range";
  let word j = (column_getter t j) i in
  let w0 = word 0 in
  let tag = w0 land 3 in
  let range = Interval.make ~lo:(word 1) ~hi:(word 2) in
  if tag = tag_write then Write { range; pc = word 3 }
  else
    let obj = t.objs.(w0 lsr 2) in
    if tag = tag_install then Install { obj; range } else Remove { obj; range }

let get_raw t i f =
  if i < 0 || i >= t.count then invalid_arg "Trace.get_raw: index out of range";
  let word j = (column_getter t j) i in
  let w0 = word 0 in
  let tag = w0 land 3 in
  f ~tag
    ~obj:(if tag = tag_write then -1 else w0 lsr 2)
    ~lo:(word 1) ~hi:(word 2)
    ~pc:(if tag = tag_write then word 3 else -1)

let iter t f =
  for i = 0 to t.count - 1 do
    f (get t i)
  done

let iter_raw_range t ~start ~stop f =
  if start < 0 || stop > t.count || start > stop then
    invalid_arg "Trace.iter_raw_range: bad event range";
  match t.storage with
  | Heap data ->
      for i = start to stop - 1 do
        let base = i * stride in
        let w0 = Array.unsafe_get data base in
        let tag = w0 land 3 in
        f ~tag
          ~obj:(if tag = tag_write then -1 else w0 lsr 2)
          ~lo:(Array.unsafe_get data (base + 1))
          ~hi:(Array.unsafe_get data (base + 2))
          ~pc:(if tag = tag_write then Array.unsafe_get data (base + 3) else -1)
      done
  | Mapped m ->
      let w0s = m.m_w0 and los = m.m_lo and his = m.m_hi and pcs = m.m_pc in
      for i = start to stop - 1 do
        let w0 = Bigarray.Array1.unsafe_get w0s i in
        let tag = w0 land 3 in
        f ~tag
          ~obj:(if tag = tag_write then -1 else w0 lsr 2)
          ~lo:(Bigarray.Array1.unsafe_get los i)
          ~hi:(Bigarray.Array1.unsafe_get his i)
          ~pc:(if tag = tag_write then Bigarray.Array1.unsafe_get pcs i else -1)
      done

let iter_raw t f = iter_raw_range t ~start:0 ~stop:t.count f

let write_positions t ~start ~stop =
  if start < 0 || stop > t.count || start > stop then
    invalid_arg "Trace.write_positions: bad event range";
  let out = Array.make (stop - start) 0 in
  let n = ref 0 in
  (match t.storage with
  | Heap data ->
      for i = start to stop - 1 do
        if Array.unsafe_get data (i * stride) land 3 = tag_write then begin
          Array.unsafe_set out !n i;
          incr n
        end
      done
  | Mapped m ->
      let w0s = m.m_w0 in
      for i = start to stop - 1 do
        if Bigarray.Array1.unsafe_get w0s i land 3 = tag_write then begin
          Array.unsafe_set out !n i;
          incr n
        end
      done);
  if !n = stop - start then out else Array.sub out 0 !n

let iter_raw_skipping t ~skip ~on_skip f =
  match t.storage with
  | Heap _ -> iter_raw t f
  | Mapped m ->
      let s = m.m_summaries in
      let nblocks = Bigarray.Array1.dim s / 4 in
      for b = 0 to nblocks - 1 do
        let base = 4 * b in
        let meta = s.{base} and writes = s.{base + 1} in
        if meta = 0 && writes > 0
           && skip ~min_lo:s.{base + 2} ~max_hi:s.{base + 3}
        then on_skip ~writes
        else
          iter_raw_range t ~start:(b * m.m_block_events)
            ~stop:(min t.count ((b + 1) * m.m_block_events))
            f
      done

let object_count t = Array.length t.objs
let object_of_id t id = t.objs.(id)
let objects t = Array.copy t.objs

type stats = {
  events : int;
  installs : int;
  removes : int;
  writes : int;
  distinct_objects : int;
  write_bytes : int;
}

let stats t =
  let installs = ref 0 and removes = ref 0 and writes = ref 0 and bytes = ref 0 in
  iter_raw t (fun ~tag ~obj:_ ~lo ~hi ~pc:_ ->
      if tag = tag_install then incr installs
      else if tag = tag_remove then incr removes
      else begin
        incr writes;
        bytes := !bytes + (hi - lo + 1)
      end);
  {
    events = t.count;
    installs = !installs;
    removes = !removes;
    writes = !writes;
    distinct_objects = Array.length t.objs;
    write_bytes = !bytes;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "events=%d installs=%d removes=%d writes=%d objects=%d write_bytes=%d"
    s.events s.installs s.removes s.writes s.distinct_objects s.write_bytes

(* --- text dump --- *)

let to_text t =
  let buf = Buffer.create (t.count * 24) in
  iter t (fun event ->
      (match event with
      | Install { obj; range } ->
          Buffer.add_string buf
            (Printf.sprintf "I %s %d %d" (Object_desc.to_string obj)
               (Interval.lo range) (Interval.hi range))
      | Remove { obj; range } ->
          Buffer.add_string buf
            (Printf.sprintf "R %s %d %d" (Object_desc.to_string obj)
               (Interval.lo range) (Interval.hi range))
      | Write { range; pc } ->
          Buffer.add_string buf
            (Printf.sprintf "W %d %d %d" (Interval.lo range) (Interval.hi range) pc));
      Buffer.add_char buf '\n');
  Buffer.contents buf

(* --- structural equality ---

   Two traces are equal when they hold the same object table and the
   same events, field by field as [iter_raw] presents them, whatever
   their storage. This is the reference the codecs, the streaming
   recorder and the cache are checked against, so it depends on no
   codec itself. *)

let equal a b =
  a.count = b.count
  && Array.length a.objs = Array.length b.objs
  && Array.for_all2 Object_desc.equal a.objs b.objs
  &&
  let w0 = column_getter a 0 and w0' = column_getter b 0 in
  let lo = column_getter a 1 and lo' = column_getter b 1 in
  let hi = column_getter a 2 and hi' = column_getter b 2 in
  let pc = column_getter a 3 and pc' = column_getter b 3 in
  let rec same i =
    i = a.count
    || (let w = w0 i in
        w = w0' i
        && lo i = lo' i
        && hi i = hi' i
        && (w land 3 <> tag_write || pc i = pc' i)
        && same (i + 1))
  in
  same 0

module Metrics = Ebp_obs.Metrics
module Obs_span = Ebp_obs.Span

let m_columnar_out = Metrics.counter "trace.codec.columnar_bytes_out"
let m_mapped_bytes = Metrics.counter "trace.codec.mapped_bytes"

(* LEB128: 7-bit groups, low first, high bit = continuation. *)
let add_uvarint buf v =
  let rec go v =
    if 0 <= v && v < 0x80 then Buffer.add_char buf (Char.unsafe_chr v)
    else begin
      Buffer.add_char buf (Char.unsafe_chr (0x80 lor (v land 0x7f)));
      go (v lsr 7)
    end
  in
  go v

exception Malformed of string

(* --- EBPT3: the mmap-able columnar layout ---

   EBPT3 lays the same four columns out as raw 8-byte little-endian
   words, 8-byte aligned, so a warm load is a single [Unix.map_file]:
   no per-event decode, no OCaml-heap allocation proportional to the
   trace, and the page cache shares one physical copy across every
   domain and every process that maps it. The price is size: 32 B/event,
   where the varint blocks of a saved stream (Stream, EBPB1) take about
   5. A cache entry is one EBPT3 file and nothing else.

     bytes 0-7    magic "EBPT3\0\0\0"
     bytes 8-71   8 header words (8-byte LE):
                    count, nobjs, meta_len, objs_len,
                    block_events, nblocks, install_lo, install_hi
     then         meta bytes (opaque caller string, as Trace_cache meta)
     then         object table: a varint string pool (the distinct
                  function/variable names), then per object a tag byte
                  plus varint pool indices and integers
     pad to 8
     then         block summaries: nblocks x 4 words
                    (install/remove count, write count, min write lo,
                     max write hi) over blocks of [block_events] events
     then         columns w0, lo, hi, pc: count words each
     trailer      "EBPZ" + 8-byte LE CRC-32 of everything before it

   [decode_columnar] verifies everything including the CRC (it is what
   [ebp cache verify] and the fuzzer's columnar oracle run).
   [map_columnar] is the hot path: it validates every header word, the
   object table, the exact file length, the trailer, and the whole w0
   column (tags, object ids, per-block tag counts against the
   summaries), but — deliberately — not the CRC of the column payload: checksumming
   tens of megabytes on every warm load would cost more than the load
   itself. Full-payload integrity is the job of the sealed write path,
   [ebp cache verify], and — when fault injection is active, which is
   exactly when bytes get mangled in flight — the cache's lookup, which
   then runs [decode_columnar] too. docs/PERFORMANCE.md states the
   tradeoff.

   The summaries give consumers block skipping: a block whose summary
   shows no install/remove events and whose write range cannot overlap
   [install_lo, install_hi] (the bounds of everything monitorable) can
   only contribute its write count, never a hit — [iter_raw_skipping]
   above exploits exactly that. Words are native-endian in memory and
   little-endian in the file, so the format assumes a little-endian
   host, like every other fixed-width codec in this repo. *)

let columnar_version = "EBPT3"
let columnar_magic = "EBPT3\x00\x00\x00"
let columnar_block_events = 4096
let columnar_header_len = 8 + (8 * 8)
let columnar_trailer_magic = "EBPZ"
let columnar_trailer_len = 12

let p_map = Ebp_util.Fault.point "trace.codec.map"

let align8 n = (n + 7) land lnot 7

(* The columnar object table. Parsing each descriptor's printed form
   on load would cost more, at half a million descriptors (lattice),
   than mapping every column combined. EBPT3 stores descriptors directly: a pool of the distinct strings
   (function and variable names repeat across activations, so the pool
   stays tiny), then per descriptor a tag byte plus varint pool indices
   and integers. Loading allocates each distinct name once and one
   record per descriptor — nothing is parsed from text. *)

let encode_obj_table objs =
  let body = Buffer.create 256 and pool_buf = Buffer.create 256 in
  let pool = Hashtbl.create 64 in
  let npool = ref 0 in
  let sidx s =
    match Hashtbl.find_opt pool s with
    | Some i -> i
    | None ->
        let i = !npool in
        incr npool;
        Hashtbl.add pool s i;
        add_uvarint pool_buf (String.length s);
        Buffer.add_string pool_buf s;
        i
  in
  Array.iter
    (fun (obj : Object_desc.t) ->
      match obj with
      | Local { func; var; inst } ->
          let func = sidx func in
          let var = sidx var in
          Buffer.add_char body '\x00';
          add_uvarint body func;
          add_uvarint body var;
          add_uvarint body inst
      | Local_static { func; var } ->
          let func = sidx func in
          let var = sidx var in
          Buffer.add_char body '\x01';
          add_uvarint body func;
          add_uvarint body var
      | Global { var } ->
          let var = sidx var in
          Buffer.add_char body '\x02';
          add_uvarint body var
      | Heap { context; seq } ->
          let ctx = List.map sidx context in
          Buffer.add_char body '\x03';
          add_uvarint body (List.length ctx);
          List.iter (add_uvarint body) ctx;
          add_uvarint body seq)
    objs;
  let out =
    Buffer.create (10 + Buffer.length pool_buf + Buffer.length body)
  in
  add_uvarint out !npool;
  Buffer.add_buffer out pool_buf;
  Buffer.add_buffer out body;
  Buffer.contents out

(* Strictly bounds-checked against [objs_end]; raises [Malformed] and
   demands the table fill its region exactly, like every other columnar
   length check. *)
let decode_obj_table ~nobjs blob ~pos:pos0 ~objs_end =
  let fail msg = raise (Malformed msg) in
  let pos = ref pos0 in
  let next_byte () =
    if !pos >= objs_end then fail "truncated columnar object table";
    let b = Char.code (String.unsafe_get blob !pos) in
    incr pos;
    b
  in
  (* One closure for the whole table, not one per varint: at half a
     million descriptors a per-call [go] closure would dominate the
     load's allocation. *)
  let rec uvarint shift acc =
    if shift > 56 then fail "oversized varint in columnar object table";
    let b = next_byte () in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then acc else uvarint (shift + 7) acc
  in
  let read_uvarint () = uvarint 0 0 in
  if nobjs > objs_end - pos0 then fail "bad object count in columnar trace";
  let npool = read_uvarint () in
  if npool < 0 || npool > objs_end - !pos then
    fail "bad columnar string pool";
  let pool =
    Array.init npool (fun _ ->
        let slen = read_uvarint () in
        if slen < 0 || slen > objs_end - !pos then
          fail "truncated columnar string pool";
        let s = String.sub blob !pos slen in
        pos := !pos + slen;
        s)
  in
  let str () =
    let i = read_uvarint () in
    if i < 0 || i >= npool then
      fail "bad string index in columnar object table";
    pool.(i)
  in
  let objs =
    Array.init nobjs (fun _ ->
        match next_byte () with
        | 0 ->
            let func = str () in
            let var = str () in
            let inst = read_uvarint () in
            Object_desc.Local { func; var; inst }
        | 1 ->
            let func = str () in
            let var = str () in
            Object_desc.Local_static { func; var }
        | 2 -> Object_desc.Global { var = str () }
        | 3 ->
            let n = read_uvarint () in
            if n < 0 || n > objs_end - !pos then
              fail "bad heap context in columnar object table";
            let context = ref [] in
            for _ = 1 to n do
              context := str () :: !context
            done;
            let seq = read_uvarint () in
            Object_desc.Heap { context = List.rev !context; seq }
        | _ -> fail "bad object tag in columnar trace")
  in
  if !pos <> objs_end then fail "trailing bytes in columnar object table";
  objs

(* Per-block summaries plus the global install bounds, computed from
   either storage. Shared by the encoder and the decoder's consistency
   check, so a corrupt summary can never silently disable or misdirect
   block skipping. *)
let compute_summaries t =
  let be = columnar_block_events in
  let nblocks = (t.count + be - 1) / be in
  let sums = Array.make (nblocks * 4) 0 in
  let ilo = ref max_int and ihi = ref min_int in
  for b = 0 to nblocks - 1 do
    let meta = ref 0 and writes = ref 0 in
    let mn = ref max_int and mx = ref min_int in
    iter_raw_range t ~start:(b * be) ~stop:(min t.count ((b + 1) * be))
      (fun ~tag ~obj:_ ~lo ~hi ~pc:_ ->
        if tag = tag_write then begin
          incr writes;
          if lo < !mn then mn := lo;
          if hi > !mx then mx := hi
        end
        else begin
          incr meta;
          if lo < !ilo then ilo := lo;
          if hi > !ihi then ihi := hi
        end);
    let base = 4 * b in
    sums.(base) <- !meta;
    sums.(base + 1) <- !writes;
    sums.(base + 2) <- (if !writes = 0 then 0 else !mn);
    sums.(base + 3) <- (if !writes = 0 then -1 else !mx)
  done;
  (sums, !ilo, !ihi)

let encode_columnar ?(meta = "") t =
  Obs_span.with_span "codec.encode_columnar" @@ fun () ->
  let count = t.count in
  let nobjs = Array.length t.objs in
  let objs_blob = encode_obj_table t.objs in
  let objs_len = String.length objs_blob in
  let meta_len = String.length meta in
  let sums, install_lo, install_hi = compute_summaries t in
  let nblocks = Array.length sums / 4 in
  let data_off = align8 (columnar_header_len + meta_len + objs_len) in
  let body_len = data_off + ((Array.length sums + (4 * count)) * 8) in
  let buf = Bytes.make (body_len + columnar_trailer_len) '\x00' in
  Bytes.blit_string columnar_magic 0 buf 0 8;
  let set_word pos v = Bytes.set_int64_le buf pos (Int64.of_int v) in
  List.iteri
    (fun i v -> set_word (8 + (8 * i)) v)
    [ count; nobjs; meta_len; objs_len; columnar_block_events; nblocks;
      install_lo; install_hi ];
  Bytes.blit_string meta 0 buf columnar_header_len meta_len;
  Bytes.blit_string objs_blob 0 buf (columnar_header_len + meta_len) objs_len;
  Array.iteri (fun i v -> set_word (data_off + (8 * i)) v) sums;
  let cols_off = data_off + (Array.length sums * 8) in
  for j = 0 to 3 do
    let get = column_getter t j in
    let base = cols_off + (j * count * 8) in
    for i = 0 to count - 1 do
      Bytes.set_int64_le buf (base + (8 * i)) (Int64.of_int (get i))
    done
  done;
  let body = Bytes.unsafe_to_string buf in
  Bytes.blit_string columnar_trailer_magic 0 buf body_len 4;
  Bytes.set_int64_le buf (body_len + 4)
    (Int64.of_int (Ebp_util.Crc32.sub body ~pos:0 ~len:body_len));
  Metrics.add m_columnar_out (Bytes.length buf);
  Bytes.unsafe_to_string buf

(* Header parsing and structural validation shared by the full decoder
   and the mapping loader. Returns everything needed to locate the
   column region. *)
type columnar_header = {
  h_count : int;
  h_nobjs : int;
  h_meta_len : int;
  h_objs_len : int;
  h_block_events : int;
  h_nblocks : int;
  h_install_lo : int;
  h_install_hi : int;
  h_data_off : int;
  h_body_len : int;
}

let parse_columnar_header ~file_len first_bytes =
  (* [first_bytes] must hold at least the fixed header. *)
  let fail msg = raise (Malformed msg) in
  if file_len < columnar_header_len + columnar_trailer_len then
    fail "columnar trace too short";
  if String.sub first_bytes 0 8 <> columnar_magic then
    fail "bad columnar magic";
  (* An OCaml int holds 63 bits, so the encoder's words are
     sign-extended: a top bit that disagrees with bit 62 is damage that
     [Int64.to_int] would otherwise drop unseen. *)
  let word i =
    let w = String.get_int64_le first_bytes (8 + (8 * i)) in
    let v = Int64.to_int w in
    if Int64.of_int v <> w then fail "columnar header word out of range";
    v
  in
  let h_count = word 0 and h_nobjs = word 1 in
  let h_meta_len = word 2 and h_objs_len = word 3 in
  let h_block_events = word 4 and h_nblocks = word 5 in
  let h_install_lo = word 6 and h_install_hi = word 7 in
  let h_body_len = file_len - columnar_trailer_len in
  if h_count < 0 || h_nobjs < 0 || h_meta_len < 0 || h_objs_len < 0 then
    fail "negative size in columnar header";
  (* The encoder writes one block size: anything else is damage, and a
     single-block trace would not show it in the block count. *)
  if h_block_events <> columnar_block_events then
    fail "bad columnar block size";
  if h_nblocks <> (h_count + h_block_events - 1) / h_block_events then
    fail "bad columnar block count";
  if h_meta_len > h_body_len || h_objs_len > h_body_len - h_meta_len then
    fail "columnar header out of bounds";
  let h_data_off = align8 (columnar_header_len + h_meta_len + h_objs_len) in
  if h_count > (h_body_len - h_data_off) / (8 * stride)
     || h_data_off + (((4 * h_nblocks) + (stride * h_count)) * 8) <> h_body_len
  then fail "columnar length does not match header";
  {
    h_count; h_nobjs; h_meta_len; h_objs_len; h_block_events; h_nblocks;
    h_install_lo; h_install_hi; h_data_off; h_body_len;
  }

(* A write's word is exactly its tag (it names no object); an install's
   or remove's is [id lsl 2 lor tag] with [id < nobjs]. Anything else —
   a bad tag or id, or a write word with upper bits set — is damage. *)
let check_w0 ~nobjs w0 =
  if w0 <> tag_write && (w0 land 2 <> 0 || w0 lsr 2 >= nobjs) then
    raise (Malformed "bad event word in columnar trace")

let decode_columnar s =
  Obs_span.with_span "codec.decode_columnar" @@ fun () ->
  let fail msg = raise (Malformed msg) in
  match
    let len = String.length s in
    let h = parse_columnar_header ~file_len:len s in
    (* Trailer first: like the cache's sealed entries, corruption is
       caught before anything is sized or decoded from the payload. *)
    if String.sub s h.h_body_len 4 <> columnar_trailer_magic then
      fail "missing columnar checksum trailer";
    if String.get_int64_le s (len - 8)
       <> Int64.of_int (Ebp_util.Crc32.sub s ~pos:0 ~len:h.h_body_len)
    then fail "columnar checksum mismatch";
    let meta = String.sub s columnar_header_len h.h_meta_len in
    let objs =
      decode_obj_table ~nobjs:h.h_nobjs s
        ~pos:(columnar_header_len + h.h_meta_len)
        ~objs_end:(columnar_header_len + h.h_meta_len + h.h_objs_len)
    in
    let sums_off = h.h_data_off in
    let cols_off = sums_off + (4 * h.h_nblocks * 8) in
    let data = Array.make (h.h_count * stride) 0 in
    for j = 0 to 3 do
      let base = cols_off + (j * h.h_count * 8) in
      for i = 0 to h.h_count - 1 do
        data.((i * stride) + j) <-
          Int64.to_int (String.get_int64_le s (base + (8 * i)))
      done
    done;
    let writes = ref 0 in
    for i = 0 to h.h_count - 1 do
      let w0 = data.(i * stride) in
      check_w0 ~nobjs:h.h_nobjs w0;
      if w0 = tag_write then incr writes
    done;
    let t = { storage = Heap data; count = h.h_count; writes = !writes; objs } in
    (* The summaries drive block skipping; a mismatch would silently
       change which events replay visits, so they are re-derived and
       compared, not trusted. *)
    let sums, install_lo, install_hi = compute_summaries t in
    if install_lo <> h.h_install_lo || install_hi <> h.h_install_hi then
      fail "columnar install bounds mismatch";
    Array.iteri
      (fun i v ->
        if Int64.to_int (String.get_int64_le s (sums_off + (8 * i))) <> v then
          fail "columnar block summary mismatch")
      sums;
    Ok (t, meta)
  with
  | result -> result
  | exception Malformed msg -> Error msg

let really_read fd buf =
  let n = Bytes.length buf in
  let got = ref 0 in
  (try
     while !got < n do
       let r = Unix.read fd buf !got (n - !got) in
       if r = 0 then got := n (* short file: caught by length checks *)
       else got := !got + r
     done
   with Unix.Unix_error _ -> raise (Malformed "unreadable columnar trace"));
  Bytes.unsafe_to_string buf

(* The mapped load's one pass over the w0 column. Tags and object ids
   are checked up front (they index OCaml arrays later), and each
   block's install/remove and write counts are compared with its
   summary, which block skipping trusts. It also faults in the pages of
   the hottest column. The lo/hi/pc columns are plain integers: any
   value is safe, and only the CRC covers them. Returns the trace's
   write count. *)
let check_mapped h m =
  let nobjs = h.h_nobjs and s = m.m_summaries in
  let total = ref 0 in
  for b = 0 to h.h_nblocks - 1 do
    let first = b * h.h_block_events in
    let stop = min h.h_count (first + h.h_block_events) in
    let writes = ref 0 in
    for i = first to stop - 1 do
      let w0 = Bigarray.Array1.unsafe_get m.m_w0 i in
      if w0 = tag_write then incr writes else check_w0 ~nobjs w0
    done;
    if s.{(4 * b) + 1} <> !writes || s.{4 * b} <> stop - first - !writes then
      raise (Malformed "columnar block summary mismatch");
    total := !total + !writes
  done;
  !total

let map_columnar path =
  Obs_span.with_span "codec.map" @@ fun () ->
  (* Raises [Fault.Injected] (a transient, retryable miss — the cache
     reports a miss without quarantining) rather than returning [Error],
     which means "this file is bad". *)
  Ebp_util.Fault.check p_map;
  match
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    let file_len = (Unix.fstat fd).Unix.st_size in
    if file_len < columnar_header_len + columnar_trailer_len then
      raise (Malformed "columnar trace too short");
    let first = really_read fd (Bytes.create columnar_header_len) in
    let h = parse_columnar_header ~file_len first in
    (* meta + object table, read (not mapped): they are small and land
       on the heap as ordinary values either way. *)
    let blob = really_read fd (Bytes.create (h.h_meta_len + h.h_objs_len)) in
    let meta = String.sub blob 0 h.h_meta_len in
    let objs =
      decode_obj_table ~nobjs:h.h_nobjs blob ~pos:h.h_meta_len
        ~objs_end:(h.h_meta_len + h.h_objs_len)
    in
    ignore (Unix.lseek fd h.h_body_len Unix.SEEK_SET);
    let trailer = really_read fd (Bytes.create columnar_trailer_len) in
    (* The CRC itself is not recomputed here, but a CRC-32 fills only
       the low half of its 8-byte field: the high half must be zero. *)
    if String.sub trailer 0 4 <> columnar_trailer_magic
       || String.get_int32_le trailer 8 <> 0l
    then raise (Malformed "missing columnar checksum trailer");
    let nsums = 4 * h.h_nblocks in
    let dims = nsums + (stride * h.h_count) in
    let arr =
      if dims = 0 then Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0
      else
        Bigarray.array1_of_genarray
          (Unix.map_file fd ~pos:(Int64.of_int h.h_data_off) Bigarray.int
             Bigarray.c_layout false [| dims |])
    in
    let sub pos len = Bigarray.Array1.sub arr pos len in
    let m =
      {
        m_summaries = sub 0 nsums;
        m_w0 = sub nsums h.h_count;
        m_lo = sub (nsums + h.h_count) h.h_count;
        m_hi = sub (nsums + (2 * h.h_count)) h.h_count;
        m_pc = sub (nsums + (3 * h.h_count)) h.h_count;
        m_block_events = h.h_block_events;
        m_install = Atomic.make None;
      }
    in
    let writes = check_mapped h m in
    Metrics.add m_mapped_bytes file_len;
    Ok ({ storage = Mapped m; count = h.h_count; writes; objs }, meta)
  with
  | result -> result
  | exception Malformed msg -> Error msg
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | exception Sys_error msg -> Error msg
