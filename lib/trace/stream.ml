(* Streaming sealed-block trace format (EBPB1).

   A stream is a header followed by self-contained, CRC-sealed records:

     header:  magic "EBPB1", uvarint block_events
     record:  tag byte ('B' block | 'F' fin)
              uvarint payload length
              payload bytes
              CRC-32 of the payload, 4 bytes LE

   Block payload (struct-of-arrays, varint columns whose delta chains
   restart per block so every block decodes independently):

     uvarint ndescs, then per new object: uvarint length + descriptor
       (objects appear in the block where they are registered, in id
       order — concatenating the tables of all blocks is the trace's
       object table)
     uvarint count
     column 1: w0 (tagged object word) as uvarint, per event
     column 2: lo, zigzag-varint delta against the previous event's lo
     column 3: hi - lo as uvarint
     column 4: pc, zigzag-varint delta, write events only

   Varints are LEB128 (7-bit groups, low first, high bit =
   continuation); zigzag maps the sign to bit 0 so small negative deltas
   stay short. Sequential stores from a few pcs cost 4-6 bytes an event.

   Fin payload: uvarint total events, uvarint total objects — a
   consistency check that the stream was closed deliberately.

   The prefix-consistency guarantee: any byte prefix of a live stream
   parses into the trace of all *sealed* blocks (the high-water mark);
   a torn tail — a record cut mid-way or failing its CRC — ends the
   prefix instead of failing the read. Only a header that never parses,
   or a record whose bytes are CRC-intact but semantically inconsistent
   (a writer bug, not a torn write), is a hard error. *)

let magic = "EBPB1"
let default_block_events = 65536
let rec_block = 'B'
let rec_fin = 'F'

(* Raw-event tags, as in Trace.iter_raw: 0 install, 1 remove, 2 write. *)
let tag_write = 2

let encode_header ~block_events =
  let buf = Buffer.create 16 in
  Buffer.add_string buf magic;
  Varint.add_uvarint buf block_events;
  Buffer.contents buf

module Writer = struct
  type on_seal =
    first:int ->
    count:int ->
    nobjs:int ->
    ((tag:int -> obj:int -> lo:int -> hi:int -> pc:int -> unit) -> unit) ->
    unit

  type t = {
    block_events : int;
    write : string -> unit;
    mutable on_seal : on_seal option;
    data : int array; (* pending events, stride 4: w0 lo hi pc *)
    mutable pending : int;
    mutable sealed : int;
    mutable total_objs : int;
    (* Descriptor strings registered since the last seal, reversed. The
       writer never retains descriptors of sealed blocks — its state is
       O(block), which is the whole point of the stream. *)
    mutable pending_descs : string list;
    mutable npending_descs : int;
    mutable finished : bool;
  }

  let p_seal = Ebp_util.Fault.point "stream.seal"
  let m_blocks = Ebp_obs.Metrics.counter "stream.blocks_sealed"
  let m_retries = Ebp_obs.Metrics.counter "stream.seal.retries"
  let m_events = Ebp_obs.Metrics.counter "stream.events_sealed"

  let create ?(block_events = default_block_events) ~write () =
    if block_events <= 0 then
      invalid_arg "Stream.Writer.create: block_events must be positive";
    write (encode_header ~block_events);
    {
      block_events;
      write;
      on_seal = None;
      data = Array.make (4 * block_events) 0;
      pending = 0;
      sealed = 0;
      total_objs = 0;
      pending_descs = [];
      npending_descs = 0;
      finished = false;
    }

  let set_on_seal w f = w.on_seal <- Some f
  let block_events w = w.block_events
  let events w = w.sealed + w.pending
  let sealed_events w = w.sealed
  let pending_events w = w.pending
  let object_count w = w.total_objs

  let register w obj =
    let id = w.total_objs in
    w.total_objs <- id + 1;
    w.pending_descs <- Object_desc.to_string obj :: w.pending_descs;
    w.npending_descs <- w.npending_descs + 1;
    id

  let iter_pending w f =
    for i = 0 to w.pending - 1 do
      let base = 4 * i in
      let w0 = w.data.(base) in
      let tag = w0 land 3 in
      f ~tag
        ~obj:(if tag = tag_write then -1 else w0 lsr 2)
        ~lo:w.data.(base + 1) ~hi:w.data.(base + 2)
        ~pc:(if tag = tag_write then w.data.(base + 3) else -1)
    done

  let encode_block w =
    let buf = Buffer.create (256 + (w.pending * 6)) in
    Varint.add_uvarint buf w.npending_descs;
    List.iter
      (fun s ->
        Varint.add_uvarint buf (String.length s);
        Buffer.add_string buf s)
      (List.rev w.pending_descs);
    Varint.add_uvarint buf w.pending;
    for i = 0 to w.pending - 1 do
      Varint.add_uvarint buf w.data.(4 * i)
    done;
    let prev_lo = ref 0 in
    for i = 0 to w.pending - 1 do
      let lo = w.data.((4 * i) + 1) in
      Varint.add_svarint buf (lo - !prev_lo);
      prev_lo := lo
    done;
    for i = 0 to w.pending - 1 do
      Varint.add_uvarint buf (w.data.((4 * i) + 2) - w.data.((4 * i) + 1))
    done;
    let prev_pc = ref 0 in
    for i = 0 to w.pending - 1 do
      if w.data.(4 * i) land 3 = tag_write then begin
        let pc = w.data.((4 * i) + 3) in
        Varint.add_svarint buf (pc - !prev_pc);
        prev_pc := pc
      end
    done;
    Buffer.contents buf

  let emit_record w tag payload =
    let buf = Buffer.create (String.length payload + 16) in
    Buffer.add_char buf tag;
    Varint.add_uvarint buf (String.length payload);
    Buffer.add_string buf payload;
    let crc = Ebp_util.Crc32.string payload in
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int crc);
    Buffer.add_bytes buf b;
    w.write (Buffer.contents buf)

  (* stream.seal models a transient sink failure: like the cache's store
     path it gets three attempts before the failure propagates to the
     recorder (which surfaces it as a recording error — a sealed prefix
     on disk is still a valid stream). *)
  let check_seal () =
    let rec attempt n =
      try Ebp_util.Fault.check p_seal
      with Ebp_util.Fault.Injected _ when n < 3 ->
        Ebp_obs.Metrics.incr m_retries;
        attempt (n + 1)
    in
    attempt 1

  let seal w =
    if w.pending > 0 || w.npending_descs > 0 then begin
      let payload = encode_block w in
      check_seal ();
      emit_record w rec_block payload;
      Ebp_obs.Metrics.incr m_blocks;
      Ebp_obs.Metrics.add m_events w.pending;
      let first = w.sealed and count = w.pending in
      w.sealed <- first + count;
      (match w.on_seal with
      | Some f -> f ~first ~count ~nobjs:w.total_objs (iter_pending w)
      | None -> ());
      w.pending <- 0;
      w.pending_descs <- [];
      w.npending_descs <- 0
    end

  let add w w0 lo hi pc =
    if w.finished then invalid_arg "Stream.Writer: writer is finished";
    let base = 4 * w.pending in
    w.data.(base) <- w0;
    w.data.(base + 1) <- lo;
    w.data.(base + 2) <- hi;
    w.data.(base + 3) <- pc;
    w.pending <- w.pending + 1;
    if w.pending = w.block_events then seal w

  let add_install_id w id ~lo ~hi = add w (id lsl 2) lo hi (-1)
  let add_remove_id w id ~lo ~hi = add w ((id lsl 2) lor 1) lo hi (-1)
  let add_write_raw w ~lo ~hi ~pc = add w tag_write lo hi pc

  let finish w =
    if not w.finished then begin
      seal w;
      let buf = Buffer.create 16 in
      Varint.add_uvarint buf w.sealed;
      Varint.add_uvarint buf w.total_objs;
      emit_record w rec_fin (Buffer.contents buf);
      w.finished <- true
    end
end

(* --- reading ---

   Two passes over the image. The framing pass walks the records of the
   sealed prefix: it checks each record's length and CRC, stops at a torn
   tail (or after a fin), and reads each block's event count from the
   block's head, so the total is known before any event is decoded. The
   decode pass then fills one exact-size set of the trace's four columns
   through [Trace.Builder.append], block by block and, within a block,
   column by column, exactly as the block lays them out. The framing pass
   never fails: a CRC-intact record that does not decode is an [Error]
   of the decode pass, so errors come out in stream order, each after
   every record before it decoded. *)

type prefix = { trace : Trace.t; high_water : int; complete : bool }

(* Aborts the whole read: the stream is not a torn tail but an
   inconsistent one. *)
exception Bad of string

(* A cursor over one CRC-verified payload: overrunning [stop] is [Bad]
   (the bytes are provably intact, so a short payload is a writer
   inconsistency, not a torn write). *)
type cursor = { s : string; stop : int; mutable pos : int }

let uvarint c =
  let v = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if c.pos >= c.stop then raise (Bad "short record");
    let b = Char.code (String.unsafe_get c.s c.pos) in
    c.pos <- c.pos + 1;
    if !shift > 56 then raise (Bad "varint too long");
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b < 0x80 then continue := false
  done;
  !v

(* [uvarint] from [p], for a loop that keeps its position in a local
   rather than in the cursor; the cursor is left after the value. The
   local must not be passed here: a ref that escapes lives on the heap. *)
let uvarint_at c p =
  c.pos <- p;
  uvarint c

let string c n =
  if n < 0 || n > c.stop - c.pos then raise (Bad "short record");
  let str = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  str

(* Every event spends at least three bytes across its columns: a larger
   count is a writer bug, and must not size the columns. *)
let event_count c =
  let count = uvarint c in
  if count < 0 || count > (c.stop - c.pos) / 3 then
    raise (Bad "bad event count");
  count

(* A block's event count, read past its descriptor table; 0 when the
   head does not parse, which the decode pass then reports. *)
let peek_count c =
  try
    for _ = 1 to uvarint c do
      let n = uvarint c in
      if n < 0 || n > c.stop - c.pos then raise (Bad "short record");
      c.pos <- c.pos + n
    done;
    event_count c
  with Bad _ -> 0

let decode_block b c =
  for _ = 1 to uvarint c do
    let str = string c (uvarint c) in
    match Object_desc.of_string str with
    | Some obj -> ignore (Trace.Builder.register b obj)
    | None -> raise (Bad ("bad object descriptor: " ^ str))
  done;
  let count = event_count c in
  let nobjs = Trace.Builder.object_count b in
  let module A = Bigarray.Array1 in
  let s = c.s and lim = c.stop in
  Trace.Builder.append b count (fun ~w0 ~lo ~hi ~pc ~at ->
      let stop = at + count and writes = ref 0 in
      (* Each varint starts where the last one ended: the loops keep
         that position in a local, where a load and a store of [c.pos]
         on the chain cost about a tenth of the decode. Most values fit
         one byte and take one bounds check; the rest go through
         [uvarint_at]. *)
      let pos = ref c.pos in
      (* A write's word is stored as the bare write tag, whatever other
         bits the stream gave it. *)
      for i = at to stop - 1 do
        let p = !pos in
        let v =
          if p < lim && Char.code (String.unsafe_get s p) < 0x80 then begin
            pos := p + 1;
            Char.code (String.unsafe_get s p)
          end
          else (let v = uvarint_at c p in pos := c.pos; v)
        in
        if v land 3 = tag_write then begin
          incr writes;
          A.unsafe_set w0 i tag_write
        end
        else A.unsafe_set w0 i v
      done;
      let prev = ref 0 in
      for i = at to stop - 1 do
        let p = !pos in
        let v =
          if p < lim && Char.code (String.unsafe_get s p) < 0x80 then begin
            pos := p + 1;
            Char.code (String.unsafe_get s p)
          end
          else (let v = uvarint_at c p in pos := c.pos; v)
        in
        prev := !prev + ((v lsr 1) lxor -(v land 1));
        A.unsafe_set lo i !prev
      done;
      for i = at to stop - 1 do
        let p = !pos in
        let width =
          if p < lim && Char.code (String.unsafe_get s p) < 0x80 then begin
            pos := p + 1;
            Char.code (String.unsafe_get s p)
          end
          else (let v = uvarint_at c p in pos := c.pos; v)
        in
        if width < 0 then raise (Bad "negative event width");
        A.unsafe_set hi i (A.unsafe_get lo i + width)
      done;
      (* Tags and object ids are checked here, in event order, between
         the pcs of the writes around them. *)
      let prev = ref 0 in
      for i = at to stop - 1 do
        let v = A.unsafe_get w0 i in
        if v = tag_write then begin
          let p = !pos in
          let d =
            if p < lim && Char.code (String.unsafe_get s p) < 0x80 then begin
              pos := p + 1;
              Char.code (String.unsafe_get s p)
            end
            else (let v = uvarint_at c p in pos := c.pos; v)
          in
          prev := !prev + ((d lsr 1) lxor -(d land 1));
          A.unsafe_set pc i !prev
        end
        else if v land 2 = 0 && v lsr 2 < nobjs then A.unsafe_set pc i (-1)
        else if v land 2 = 0 then raise (Bad "object id out of range")
        else raise (Bad "unknown event tag")
      done;
      c.pos <- !pos;
      !writes);
  if c.pos <> c.stop then raise (Bad "trailing bytes in block")

let decode_fin b c =
  let total_events = uvarint c in
  let total_objs = uvarint c in
  if c.pos <> c.stop then raise (Bad "trailing bytes in fin");
  if total_events <> Trace.Builder.length b then
    raise (Bad "fin event count does not match stream");
  if total_objs <> Trace.Builder.object_count b then
    raise (Bad "fin object count does not match stream")

(* One record's frame at [pos]: [Some (tag, payload position, payload
   length)], or [None] for a torn or corrupt tail. *)
let frame s ~pos =
  let len = String.length s in
  let rec plen p v shift =
    if p >= len then None
    else
      let b = Char.code (String.unsafe_get s p) in
      if shift > 56 then None
      else
        let v = v lor ((b land 0x7f) lsl shift) in
        if b < 0x80 then Some (p + 1, v) else plen (p + 1) v (shift + 7)
  in
  match plen (pos + 1) 0 0 with
  | None -> None
  | Some (ppos, n) ->
      if n + 4 < 0 || n + 4 > len - ppos then None
      else if
        Ebp_util.Crc32.sub s ~pos:ppos ~len:n
        <> Int32.to_int (String.get_int32_le s (ppos + n)) land 0xffffffff
      then None
      else Some (s.[pos], ppos, n)

let read_raw s =
  let len = String.length s and mlen = String.length magic in
  if len < mlen || String.sub s 0 mlen <> magic then Error "bad stream magic"
  else
    (* The header rides no CRC: it is written once at create time, so a
       file that has one at all has it whole — parse it as a payload
       bounded by the file. *)
    let hdr = { s; stop = mlen + min 10 (len - mlen); pos = mlen } in
    match
      let block_events =
        try uvarint hdr with Bad _ -> raise (Bad "truncated header")
      in
      if block_events <= 0 then raise (Bad "bad block size");
      (* Framing: the sealed records, the events in their blocks, and
         where the prefix ends. Nothing is read after a fin, or after a
         record of unknown kind, which the decode pass rejects. *)
      let rec framing acc events pos =
        match if pos < len then frame s ~pos else None with
        | None -> (List.rev acc, events, pos)
        | Some ((tag, ppos, n) as r) ->
            let next = ppos + n + 4 in
            if tag = rec_block then
              let count = peek_count { s; stop = ppos + n; pos = ppos } in
              framing (r :: acc) (events + count) next
            else (List.rev (r :: acc), events, next)
      in
      let records, events, consumed = framing [] 0 hdr.pos in
      let b = Trace.Builder.create ~hint:events () in
      let high_water = ref 0 and complete = ref false in
      List.iter
        (fun (tag, pos, n) ->
          let c = { s; stop = pos + n; pos } in
          if tag = rec_block then begin
            decode_block b c;
            high_water := Trace.Builder.length b
          end
          else if tag = rec_fin then begin
            decode_fin b c;
            complete := true
          end
          else raise (Bad "unknown record tag"))
        records;
      ( { trace = Trace.Builder.finish b; high_water = !high_water;
          complete = !complete },
        consumed )
    with
    | exception Bad msg -> Error ("malformed stream: " ^ msg)
    | result -> Ok result

let read_prefix s = Result.map fst (read_raw s)

let read s =
  match read_raw s with
  | Error _ as e -> e
  | Ok (p, consumed) ->
      if not p.complete then
        Error
          (Printf.sprintf "truncated stream: no fin record after event %d"
             p.high_water)
      else if consumed <> String.length s then
        Error "trailing bytes after stream fin"
      else Ok p.trace

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | s -> read s

let read_prefix_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | s -> read_prefix s
