module Interval = Ebp_util.Interval

type event =
  | Install of { obj : Object_desc.t; range : Interval.t }
  | Remove of { obj : Object_desc.t; range : Interval.t }
  | Write of { range : Interval.t; pc : int }

(* One layout for every trace, whoever made it: four columns of native
   ints, one entry per event — the tagged object word w0, lo, hi, pc —
   as int Bigarrays. The tag lives in the low 2 bits of w0; the object
   id (or 0 for writes) in the remaining bits; pc is -1 on installs and
   removes. The recorder and the stream reader fill the columns through
   [Builder], [decode_columnar] copies them out of an EBPT3 image, and
   [map_columnar] points them at an mmap'd EBPT3 file, so every reader
   below has one code path. Columns live outside the OCaml heap either
   way; a mapped trace's are the file's pages, shared read-only across
   domains and server tenants. *)
let stride = 4
let tag_install = 0
let tag_remove = 1
let tag_write = 2

(* Events per summary block; EBPT3 writes the summaries with this
   block size and nothing else. *)
let block_events = 4096

type int_column = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let column n : int_column = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

type t = {
  w0 : int_column;
  lo : int_column;
  hi : int_column;
  pc : int_column;
  count : int;
  writes : int;  (* events tagged write; the rest install or remove *)
  objs : Object_desc.t array;
  mapped : bool;
  (* 4 ints per block of [block_events] events: install/remove
     count, write count, min write lo, max write hi. A mapped trace has
     its file's (checked at map time) and a decoded one the copy it
     re-derived and compared; a built one derives them on first use, so
     a record that nobody replays pays no pass for them. *)
  summaries : int_column option Atomic.t;
  (* The lowest lo and highest hi over every install/remove, once
     derived; (max_int, min_int) when there are none. Anything a session
     can monitor lies inside, so a pure-write block disjoint from it
     cannot produce hits or page touches. A mapped trace derives it from
     the events on first use, not from the header: a wrong bound would
     skip blocks that hold hits, and checking the header's copy at load
     time would read the lo/hi pages of every install and remove on
     every warm lookup. Racing domains derive the same values, so
     neither cache needs a lock. *)
  install : (int * int) option Atomic.t;
}

let make ~w0 ~lo ~hi ~pc ~count ~writes ~objs ~mapped ?summaries () =
  {
    w0; lo; hi; pc; count; writes; objs; mapped;
    summaries = Atomic.make summaries;
    install = Atomic.make None;
  }

module Builder = struct
  type builder = {
    mutable w0 : int_column;
    mutable lo : int_column;
    mutable hi : int_column;
    mutable pc : int_column;
    mutable count : int;
    mutable writes : int;
    mutable objs : Object_desc.t list;  (* reversed *)
    mutable obj_count : int;
    intern : (Object_desc.t, int) Hashtbl.t;
  }

  type t = builder

  let create ?(hint = 1024) () =
    let n = max 0 hint in
    { w0 = column n; lo = column n; hi = column n; pc = column n;
      count = 0; writes = 0; objs = [];
      obj_count = 0; intern = Hashtbl.create 64 }

  (* Copy the filled prefix of each column into fresh columns of [n]. *)
  let resize b n =
    let move c =
      let c' = column n in
      Bigarray.Array1.(blit (sub c 0 b.count) (sub c' 0 b.count));
      c'
    in
    b.w0 <- move b.w0;
    b.lo <- move b.lo;
    b.hi <- move b.hi;
    b.pc <- move b.pc

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
    let i = b.count in
    if i = Bigarray.Array1.dim b.w0 then resize b (max 16 (2 * i));
    Bigarray.Array1.unsafe_set b.w0 i w0;
    Bigarray.Array1.unsafe_set b.lo i lo;
    Bigarray.Array1.unsafe_set b.hi i hi;
    Bigarray.Array1.unsafe_set b.pc i pc;
    b.count <- i + 1

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

  let append b n fill =
    if n < 0 then invalid_arg "Trace.Builder.append: negative count";
    let at = b.count in
    if at + n > Bigarray.Array1.dim b.w0 then resize b (at + n);
    let writes = fill ~w0:b.w0 ~lo:b.lo ~hi:b.hi ~pc:b.pc ~at in
    b.count <- at + n;
    b.writes <- b.writes + writes

  let length b = b.count
  let object_count b = b.obj_count

  let finish b =
    (* A well-hinted builder lands exactly full: hand the columns over
       without the copy. The builder must not be reused after. *)
    if Bigarray.Array1.dim b.w0 <> b.count then resize b b.count;
    make ~w0:b.w0 ~lo:b.lo ~hi:b.hi ~pc:b.pc ~count:b.count ~writes:b.writes
      ~objs:(Array.of_list (List.rev b.objs)) ~mapped:false ()
end

let length t = t.count
let write_count t = t.writes
let is_mapped t = t.mapped

(* Per-block summaries plus the install range, in one pass over w0, lo
   and hi. *)
let derive_summaries t =
  let be = block_events in
  let nblocks = (t.count + be - 1) / be in
  let s = column (4 * nblocks) in
  let ilo = ref max_int and ihi = ref min_int in
  for b = 0 to nblocks - 1 do
    let first = b * be in
    let stop = min t.count (first + be) in
    let meta = ref 0 and mn = ref max_int and mx = ref min_int in
    for i = first to stop - 1 do
      let lo = Bigarray.Array1.unsafe_get t.lo i in
      let hi = Bigarray.Array1.unsafe_get t.hi i in
      if Bigarray.Array1.unsafe_get t.w0 i land 3 = tag_write then begin
        if lo < !mn then mn := lo;
        if hi > !mx then mx := hi
      end
      else begin
        incr meta;
        if lo < !ilo then ilo := lo;
        if hi > !ihi then ihi := hi
      end
    done;
    let writes = stop - first - !meta in
    s.{4 * b} <- !meta;
    s.{(4 * b) + 1} <- writes;
    s.{(4 * b) + 2} <- (if writes = 0 then 0 else !mn);
    s.{(4 * b) + 3} <- (if writes = 0 then -1 else !mx)
  done;
  (s, (!ilo, !ihi))

let summaries t =
  match Atomic.get t.summaries with
  | Some s -> s
  | None ->
      let s, range = derive_summaries t in
      Atomic.set t.install (Some range);
      Atomic.set t.summaries (Some s);
      s

(* The install range as EBPT3's header stores it. Deriving the summaries
   derives it too; a trace that came with summaries reads only the blocks
   whose summary counts an install or remove. *)
let install_range t =
  match Atomic.get t.install with
  | Some range -> range
  | None -> (
      let s = summaries t in
      match Atomic.get t.install with
      | Some range -> range
      | None ->
          let lo = ref max_int and hi = ref min_int in
          for b = 0 to (Bigarray.Array1.dim s / 4) - 1 do
            if s.{4 * b} > 0 then
              for i = b * block_events
                  to min t.count ((b + 1) * block_events) - 1 do
                if Bigarray.Array1.unsafe_get t.w0 i land 3 <> tag_write then begin
                  let l = Bigarray.Array1.unsafe_get t.lo i in
                  let h = Bigarray.Array1.unsafe_get t.hi i in
                  if l < !lo then lo := l;
                  if h > !hi then hi := h
                end
              done
          done;
          Atomic.set t.install (Some (!lo, !hi));
          (!lo, !hi))

let install_bounds t =
  let lo, hi = install_range t in
  if lo <= hi then Some (lo, hi) else None

let get t i =
  if i < 0 || i >= t.count then invalid_arg "Trace.get: index out of range";
  let w0 = Bigarray.Array1.unsafe_get t.w0 i in
  let tag = w0 land 3 in
  let range =
    Interval.make ~lo:(Bigarray.Array1.unsafe_get t.lo i)
      ~hi:(Bigarray.Array1.unsafe_get t.hi i)
  in
  if tag = tag_write then Write { range; pc = Bigarray.Array1.unsafe_get t.pc i }
  else
    let obj = t.objs.(w0 lsr 2) in
    if tag = tag_install then Install { obj; range } else Remove { obj; range }

let get_raw t i f =
  if i < 0 || i >= t.count then invalid_arg "Trace.get_raw: index out of range";
  let w0 = Bigarray.Array1.unsafe_get t.w0 i in
  let tag = w0 land 3 in
  f ~tag
    ~obj:(if tag = tag_write then -1 else w0 lsr 2)
    ~lo:(Bigarray.Array1.unsafe_get t.lo i)
    ~hi:(Bigarray.Array1.unsafe_get t.hi i)
    ~pc:(if tag = tag_write then Bigarray.Array1.unsafe_get t.pc i else -1)

let iter t f =
  for i = 0 to t.count - 1 do
    f (get t i)
  done

let iter_raw_range t ~start ~stop f =
  if start < 0 || stop > t.count || start > stop then
    invalid_arg "Trace.iter_raw_range: bad event range";
  let w0s = t.w0 and los = t.lo and his = t.hi and pcs = t.pc in
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
  let w0s = t.w0 in
  for i = start to stop - 1 do
    if Bigarray.Array1.unsafe_get w0s i land 3 = tag_write then begin
      Array.unsafe_set out !n i;
      incr n
    end
  done;
  if !n = stop - start then out else Array.sub out 0 !n

let iter_raw_skipping ?stop t ~skip ~on_skip f =
  let stop = Option.value stop ~default:t.count in
  if stop < 0 || stop > t.count then
    invalid_arg "Trace.iter_raw_skipping: bad event range";
  let s = summaries t in
  for b = 0 to ((stop + block_events - 1) / block_events) - 1 do
    let base = 4 * b in
    let first = b * block_events in
    let block_end = min t.count (first + block_events) in
    let meta = s.{base} and writes = s.{base + 1} in
    if meta = 0 && writes > 0 && block_end <= stop
       && skip ~min_lo:s.{base + 2} ~max_hi:s.{base + 3}
    then on_skip ~writes
    else iter_raw_range t ~start:first ~stop:(min stop block_end) f
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
   same events, field by field as [iter_raw] presents them, mapped or
   not. This is the reference the codecs, the streaming recorder and
   the cache are checked against, so it depends on no codec itself. *)

let equal a b =
  a.count = b.count
  && Array.length a.objs = Array.length b.objs
  && Array.for_all2 Object_desc.equal a.objs b.objs
  &&
  let get (c : int_column) i = Bigarray.Array1.unsafe_get c i in
  let rec same i =
    i = a.count
    || (let w = get a.w0 i in
        w = get b.w0 i
        && get a.lo i = get b.lo i
        && get a.hi i = get b.hi i
        && (w land 3 <> tag_write || get a.pc i = get b.pc i)
        && same (i + 1))
  in
  same 0

module Metrics = Ebp_obs.Metrics
module Obs_span = Ebp_obs.Span

let m_columnar_out = Metrics.counter "trace.codec.columnar_bytes_out"
let m_mapped_bytes = Metrics.counter "trace.codec.mapped_bytes"

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
        Varint.add_uvarint pool_buf (String.length s);
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
          Varint.add_uvarint body func;
          Varint.add_uvarint body var;
          Varint.add_uvarint body inst
      | Local_static { func; var } ->
          let func = sidx func in
          let var = sidx var in
          Buffer.add_char body '\x01';
          Varint.add_uvarint body func;
          Varint.add_uvarint body var
      | Global { var } ->
          let var = sidx var in
          Buffer.add_char body '\x02';
          Varint.add_uvarint body var
      | Heap { context; seq } ->
          let ctx = List.map sidx context in
          Buffer.add_char body '\x03';
          Varint.add_uvarint body (List.length ctx);
          List.iter (Varint.add_uvarint body) ctx;
          Varint.add_uvarint body seq)
    objs;
  let out =
    Buffer.create (10 + Buffer.length pool_buf + Buffer.length body)
  in
  Varint.add_uvarint out !npool;
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

let encode_columnar ?(meta = "") t =
  Obs_span.with_span "codec.encode_columnar" @@ fun () ->
  let count = t.count in
  let nobjs = Array.length t.objs in
  let objs_blob = encode_obj_table t.objs in
  let objs_len = String.length objs_blob in
  let meta_len = String.length meta in
  let sums = summaries t in
  let install_lo, install_hi = install_range t in
  let nsums = Bigarray.Array1.dim sums in
  let data_off = align8 (columnar_header_len + meta_len + objs_len) in
  let body_len = data_off + ((nsums + (4 * count)) * 8) in
  let buf = Bytes.make (body_len + columnar_trailer_len) '\x00' in
  Bytes.blit_string columnar_magic 0 buf 0 8;
  let set_word pos v = Bytes.set_int64_le buf pos (Int64.of_int v) in
  List.iteri
    (fun i v -> set_word (8 + (8 * i)) v)
    [ count; nobjs; meta_len; objs_len; block_events; nsums / 4;
      install_lo; install_hi ];
  Bytes.blit_string meta 0 buf columnar_header_len meta_len;
  Bytes.blit_string objs_blob 0 buf (columnar_header_len + meta_len) objs_len;
  let put_column pos (c : int_column) =
    for i = 0 to Bigarray.Array1.dim c - 1 do
      set_word (pos + (8 * i)) (Bigarray.Array1.unsafe_get c i)
    done
  in
  put_column data_off sums;
  let cols_off = data_off + (nsums * 8) in
  List.iteri
    (fun j c -> put_column (cols_off + (j * count * 8)) c)
    [ t.w0; t.lo; t.hi; t.pc ];
  Bytes.blit_string columnar_trailer_magic 0 buf body_len 4;
  Bytes.set_int64_le buf (body_len + 4)
    (Int64.of_int (Ebp_util.Crc32.sub_bytes buf ~pos:0 ~len:body_len));
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
  if h_block_events <> block_events then
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

(* The one validation pass over the w0 column, shared by the full
   decoder and the mapped load. A write's word is exactly its tag (it
   names no object); an install's or remove's is [id lsl 2 lor tag]
   with [id < nobjs]; anything else is damage. Tags and object ids are
   checked up front (they index OCaml arrays later), and each block's
   install/remove and write counts are compared with its summary, which
   block skipping trusts. On a mapping it also faults in the pages of
   the hottest column. The lo/hi/pc columns are plain integers: any
   value is safe, and only the CRC covers them. Returns the trace's
   write count. *)
let check_columns ~nobjs ~count (w0s : int_column) (s : int_column) =
  let total = ref 0 in
  for b = 0 to (Bigarray.Array1.dim s / 4) - 1 do
    let first = b * block_events in
    let stop = min count (first + block_events) in
    let writes = ref 0 in
    for i = first to stop - 1 do
      let w0 = Bigarray.Array1.unsafe_get w0s i in
      if w0 = tag_write then incr writes
      else if w0 land 2 <> 0 || w0 lsr 2 >= nobjs then
        raise (Malformed "bad event word in columnar trace")
    done;
    if s.{(4 * b) + 1} <> !writes || s.{4 * b} <> stop - first - !writes then
      raise (Malformed "columnar block summary mismatch");
    total := !total + !writes
  done;
  !total

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
    let read pos n =
      let c = column n in
      for i = 0 to n - 1 do
        Bigarray.Array1.unsafe_set c i
          (Int64.to_int (String.get_int64_le s (pos + (8 * i))))
      done;
      c
    in
    let count = h.h_count and nsums = 4 * h.h_nblocks in
    let file_sums = read h.h_data_off nsums in
    let col j = read (h.h_data_off + ((nsums + (j * count)) * 8)) count in
    let w0 = col 0 and lo = col 1 and hi = col 2 and pc = col 3 in
    let writes = check_columns ~nobjs:h.h_nobjs ~count w0 file_sums in
    let t = make ~w0 ~lo ~hi ~pc ~count ~writes ~objs ~mapped:false () in
    (* The summaries drive block skipping; a mismatch would silently
       change which events replay visits, so they are re-derived and
       compared, not trusted. *)
    let sums = summaries t in
    if install_range t <> (h.h_install_lo, h.h_install_hi) then
      fail "columnar install bounds mismatch";
    for i = 0 to nsums - 1 do
      if sums.{i} <> file_sums.{i} then fail "columnar block summary mismatch"
    done;
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
    let count = h.h_count and nsums = 4 * h.h_nblocks in
    let dims = nsums + (stride * count) in
    let arr =
      if dims = 0 then column 0
      else
        Bigarray.array1_of_genarray
          (Unix.map_file fd ~pos:(Int64.of_int h.h_data_off) Bigarray.int
             Bigarray.c_layout false [| dims |])
    in
    let sub pos len = Bigarray.Array1.sub arr pos len in
    let sums = sub 0 nsums in
    let col j = sub (nsums + (j * count)) count in
    let w0 = col 0 in
    let writes = check_columns ~nobjs:h.h_nobjs ~count w0 sums in
    Metrics.add m_mapped_bytes file_len;
    Ok
      ( make ~w0 ~lo:(col 1) ~hi:(col 2) ~pc:(col 3) ~count ~writes ~objs
          ~mapped:true ~summaries:sums (),
        meta )
  with
  | result -> result
  | exception Malformed msg -> Error msg
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | exception Sys_error msg -> Error msg
