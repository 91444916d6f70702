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

let add_uvarint buf v =
  let rec go v =
    if 0 <= v && v < 0x80 then Buffer.add_char buf (Char.unsafe_chr v)
    else begin
      Buffer.add_char buf (Char.unsafe_chr (0x80 lor (v land 0x7f)));
      go (v lsr 7)
    end
  in
  go v

let[@inline] zigzag v = (v lsl 1) lxor (v asr 62)
let[@inline] unzigzag v = (v lsr 1) lxor (-(v land 1))
let add_svarint buf v = add_uvarint buf (zigzag v)

let encode_header ~block_events =
  let buf = Buffer.create 16 in
  Buffer.add_string buf magic;
  add_uvarint buf block_events;
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
    add_uvarint buf w.npending_descs;
    List.iter
      (fun s ->
        add_uvarint buf (String.length s);
        Buffer.add_string buf s)
      (List.rev w.pending_descs);
    add_uvarint buf w.pending;
    for i = 0 to w.pending - 1 do
      add_uvarint buf w.data.(4 * i)
    done;
    let prev_lo = ref 0 in
    for i = 0 to w.pending - 1 do
      let lo = w.data.((4 * i) + 1) in
      add_svarint buf (lo - !prev_lo);
      prev_lo := lo
    done;
    for i = 0 to w.pending - 1 do
      add_uvarint buf (w.data.((4 * i) + 2) - w.data.((4 * i) + 1))
    done;
    let prev_pc = ref 0 in
    for i = 0 to w.pending - 1 do
      if w.data.(4 * i) land 3 = tag_write then begin
        let pc = w.data.((4 * i) + 3) in
        add_svarint buf (pc - !prev_pc);
        prev_pc := pc
      end
    done;
    Buffer.contents buf

  let emit_record w tag payload =
    let buf = Buffer.create (String.length payload + 16) in
    Buffer.add_char buf tag;
    add_uvarint buf (String.length payload);
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
      add_uvarint buf w.sealed;
      add_uvarint buf w.total_objs;
      emit_record w rec_fin (Buffer.contents buf);
      w.finished <- true
    end
end

(* --- reading --- *)

type prefix = { trace : Trace.t; high_water : int; complete : bool }

(* [Bad] aborts the whole read (the stream is not a torn tail but an
   inconsistent one); [Cut] ends the prefix at the last sealed record. *)
exception Bad of string
exception Cut

(* Bounded decoder over one CRC-verified payload: overrunning it is a
   [Bad] (the bytes are provably intact, so a short payload is a writer
   inconsistency, not a torn write). *)
module Payload = struct
  type t = { s : string; stop : int; mutable pos : int }

  let make s ~pos ~len = { s; stop = pos + len; pos }
  let at_end p = p.pos = p.stop

  let byte p =
    if p.pos >= p.stop then raise (Bad "short record");
    let c = Char.code p.s.[p.pos] in
    p.pos <- p.pos + 1;
    c

  let uvarint p =
    let v = ref 0 and shift = ref 0 and continue = ref true in
    while !continue do
      let b = byte p in
      if !shift > 56 then raise (Bad "varint too long");
      v := !v lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      if b < 0x80 then continue := false
    done;
    !v

  let svarint p = unzigzag (uvarint p)

  let string p n =
    if n < 0 || n > p.stop - p.pos then raise (Bad "short record");
    let str = String.sub p.s p.pos n in
    p.pos <- p.pos + n;
    str
end

let decode_block b payload =
  let p = payload in
  let ndescs = Payload.uvarint p in
  for _ = 1 to ndescs do
    let str = Payload.string p (Payload.uvarint p) in
    match Object_desc.of_string str with
    | Some obj -> ignore (Trace.Builder.register b obj)
    | None -> raise (Bad ("bad object descriptor: " ^ str))
  done;
  let count = Payload.uvarint p in
  (* Every event spends at least three bytes across its columns: a
     larger count is a writer bug, and must not size the arrays below. *)
  if count < 0 || count > (p.Payload.stop - p.Payload.pos) / 3 then
    raise (Bad "bad event count");
  let w0s = Array.init count (fun _ -> Payload.uvarint p) in
  let los = Array.make count 0 in
  let prev = ref 0 in
  for i = 0 to count - 1 do
    prev := !prev + Payload.svarint p;
    los.(i) <- !prev
  done;
  let widths =
    Array.init count (fun _ ->
        let w = Payload.uvarint p in
        if w < 0 then raise (Bad "negative event width");
        w)
  in
  let prev_pc = ref 0 in
  for i = 0 to count - 1 do
    let w0 = w0s.(i) in
    let tag = w0 land 3 in
    let lo = los.(i) in
    let hi = lo + widths.(i) in
    if tag = tag_write then begin
      prev_pc := !prev_pc + Payload.svarint p;
      Trace.Builder.add_write_raw b ~lo ~hi ~pc:!prev_pc
    end
    else if tag <= 1 then begin
      let id = w0 lsr 2 in
      if id >= Trace.Builder.object_count b then
        raise (Bad "object id out of range");
      if tag = 0 then Trace.Builder.add_install_id b id ~lo ~hi
      else Trace.Builder.add_remove_id b id ~lo ~hi
    end
    else raise (Bad "unknown event tag")
  done;
  if not (Payload.at_end p) then raise (Bad "trailing bytes in block")

let decode_fin b payload =
  let p = payload in
  let total_events = Payload.uvarint p in
  let total_objs = Payload.uvarint p in
  if not (Payload.at_end p) then raise (Bad "trailing bytes in fin");
  if total_events <> Trace.Builder.length b then
    raise (Bad "fin event count does not match stream");
  if total_objs <> Trace.Builder.object_count b then
    raise (Bad "fin object count does not match stream")

let read_raw s =
  let len = String.length s in
  if len < String.length magic || String.sub s 0 (String.length magic) <> magic
  then Error "bad stream magic"
  else begin
    (* The header rides no CRC: it is written once at create time, so a
       file that has one at all has it whole — parse it as a payload
       bounded by the file. *)
    let hdr = Payload.make s ~pos:(String.length magic) ~len:(min 10 (len - String.length magic)) in
    match
      let block_events =
        try Payload.uvarint hdr with Bad _ -> raise (Bad "truncated header")
      in
      if block_events <= 0 then raise (Bad "bad block size");
      (* The header rides no CRC, so a damaged block size must not size
         the builder beyond what the bytes could hold. *)
      let b = Trace.Builder.create ~hint:(min block_events (len / 3)) () in
      let high_water = ref 0 in
      let complete = ref false in
      let stop = ref false in
      let pos = ref hdr.Payload.pos in
      while (not !stop) && not !complete do
        if !pos >= len then stop := true
        else begin
          let record_start = !pos in
          match
            (* Record framing: torn or corrupt → [Cut], ending the
               prefix at the previous record. *)
            let need n = if n < 0 || n > len - !pos then raise Cut in
            let byte () =
              need 1;
              let c = Char.code s.[!pos] in
              incr pos;
              c
            in
            let plen =
              let _tag = byte () in
              let v = ref 0 and shift = ref 0 and continue = ref true in
              while !continue do
                let b = byte () in
                if !shift > 56 then raise Cut;
                v := !v lor ((b land 0x7f) lsl !shift);
                shift := !shift + 7;
                if b < 0x80 then continue := false
              done;
              !v
            in
            need (plen + 4);
            let payload_pos = !pos in
            let stored_crc =
              Int32.to_int (String.get_int32_le s (payload_pos + plen))
              land 0xffffffff
            in
            if Ebp_util.Crc32.sub s ~pos:payload_pos ~len:plen <> stored_crc
            then raise Cut;
            (s.[record_start], payload_pos, plen)
          with
          | exception Cut ->
              pos := record_start;
              stop := true
          | tag, payload_pos, plen ->
              let payload = Payload.make s ~pos:payload_pos ~len:plen in
              pos := payload_pos + plen + 4;
              if tag = rec_block then begin
                decode_block b payload;
                high_water := Trace.Builder.length b
              end
              else if tag = rec_fin then begin
                decode_fin b payload;
                complete := true
              end
              else raise (Bad "unknown record tag")
        end
      done;
      ( {
          trace = Trace.Builder.finish b;
          high_water = !high_water;
          complete = !complete;
        },
        !pos )
    with
    | exception Bad msg -> Error ("malformed stream: " ^ msg)
    | result -> Ok result
  end

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
