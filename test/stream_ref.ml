(* The EBPB1 reader as it was before the two-pass rewrite: one pass that
   frames each record and decodes it into a growing builder, through a
   bounds-checked cursor and three temporary arrays per block. Slow, and
   kept only as the reference the differential properties in
   test_stream.ml hold [Stream.read_prefix] and [Stream.read] to: the
   same [Ok] or the same [Error] string on every input. *)

module Trace = Ebp_trace.Trace
module Object_desc = Ebp_trace.Object_desc

let magic = Ebp_trace.Stream.magic
let rec_block = 'B'
let rec_fin = 'F'
let tag_write = 2
let unzigzag = Ebp_trace.Varint.unzigzag

type prefix = Ebp_trace.Stream.prefix = {
  trace : Trace.t;
  high_water : int;
  complete : bool;
}

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

