(* Entry layout. A trace entry is one self-sealed EBPT3 file,
   [<key>.ebpt3]: header, caller meta, object table, block summaries,
   columns, and a 12-byte trailer ("EBPZ" + 8-byte LE CRC-32 of
   everything before it) — see Trace's columnar codec. Index and
   checkpoint entries seal their codec's bytes under the same trailer:

     body    = Write_index.encode / Checkpoint.encode payload
     trailer = "EBPZ", 8-byte LE CRC-32 of body

   A sealed entry's CRC is verified before any decoding, so truncation
   and bit flips are detected up front instead of surfacing as decoder
   errors — or worse, silently decoding to different events. A trace
   lookup maps its file with structural checks only; the full CRC runs
   in [verify] and, under fault injection, in every lookup. A failed
   check quarantines the file (renamed [*.corrupt], counted, surfaced
   through the quarantine hook) and reads as a miss, so the caller
   transparently re-records.

   The version string below is hashed into every key and includes the
   trace codec version, so a format change silently orphans old entries
   instead of misreading them. *)

(* v5: the EBPT3 file is the only trace artifact of a key. A v4 key
   owned a varint-coded [<key>.trace] entry plus the [<key>.ebpt3] as a
   sidecar; no v5 key names either file, and [gc] reclaims a v4 key's
   files on sight (see [Stale_entry]). *)
let version = "ebp-trace-cache-v5:" ^ Trace.columnar_version
let trailer_magic = "EBPZ"
let trailer_len = 12

module Metrics = Ebp_obs.Metrics
module Span = Ebp_obs.Span
module Fault = Ebp_util.Fault
module Crc32 = Ebp_util.Crc32

(* Cache observability: hit/miss counters and latency histograms for both
   entry kinds, byte traffic, corruption/retry accounting, and what
   garbage collection reclaimed. All updates are no-ops (one branch)
   until Metrics.set_enabled. *)
let m_hits = Metrics.counter "trace_cache.hits"
let m_misses = Metrics.counter "trace_cache.misses"
let m_index_hits = Metrics.counter "trace_cache.index_hits"
let m_index_misses = Metrics.counter "trace_cache.index_misses"
let m_ckpt_hits = Metrics.counter "trace_cache.checkpoint_hits"
let m_ckpt_misses = Metrics.counter "trace_cache.checkpoint_misses"
let m_bytes_read = Metrics.counter "trace_cache.bytes_read"
let m_bytes_written = Metrics.counter "trace_cache.bytes_written"
let m_lookup_ns = Metrics.histogram "trace_cache.lookup_ns"
let m_store_ns = Metrics.histogram "trace_cache.store_ns"
let m_gc_removed = Metrics.counter "trace_cache.gc_removed"
let m_gc_reclaimed = Metrics.counter "trace_cache.gc_reclaimed_bytes"
let m_quarantined = Metrics.counter "trace_cache.quarantined"
let m_retries = Metrics.counter "trace_cache.store_retries"
let g_disk_bytes = Metrics.gauge "trace_cache.disk_bytes"

(* Fault points (see docs/ROBUSTNESS.md for the catalog). The store path
   distinguishes a transient I/O failure (retried), data corruption in
   flight (mangles the sealed bytes, so the CRC catches it on lookup),
   and three kill sites bracketing the write protocol; the lookup path
   has one data point mangling what was read. *)
let p_store_io = Fault.point "trace_cache.store.io"
let p_store_data = Fault.point "trace_cache.store.data"
let p_kill_tmp = Fault.point "trace_cache.store.kill_tmp"
let p_kill_write = Fault.point "trace_cache.store.kill_write"
let p_kill_rename = Fault.point "trace_cache.store.kill_rename"
let p_lookup_data = Fault.point "trace_cache.lookup.data"

let timed hist f =
  if not (Metrics.is_enabled ()) then f ()
  else begin
    let started_ns = Span.now_ns () in
    Fun.protect
      ~finally:(fun () -> Metrics.observe hist (Span.now_ns () - started_ns))
      f
  end

let default_dir () =
  let absolute p = String.length p > 0 && p.[0] = '/' in
  match Sys.getenv_opt "XDG_CACHE_HOME" with
  | Some dir when absolute dir -> Filename.concat dir "ebp"
  | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some home when absolute home ->
          Filename.concat (Filename.concat home ".cache") "ebp"
      | _ -> ".ebp-cache")

let make_key ~name ~source ~seed ?fuel () =
  let fuel = match fuel with None -> "unlimited" | Some n -> string_of_int n in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [ version; name; Digest.to_hex (Digest.string source);
            string_of_int seed; fuel ]))

let trace_file ~key = key ^ ".ebpt3"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

(* --- sealing --- *)

(* Write the trailer into the last [trailer_len] bytes of [buf], sealing
   the body before them, and hand the buffer over as the entry. *)
let seal buf =
  let body_len = Bytes.length buf - trailer_len in
  Bytes.blit_string trailer_magic 0 buf body_len 4;
  Bytes.set_int64_le buf (body_len + 4)
    (Int64.of_int (Crc32.sub_bytes buf ~pos:0 ~len:body_len));
  Bytes.unsafe_to_string buf

(* Check the trailer and CRC in place: [Ok n] means the body is the
   entry's first [n] bytes. *)
let check_seal data =
  let n = String.length data in
  if n < trailer_len then Error "entry shorter than its checksum trailer"
  else if String.sub data (n - trailer_len) 4 <> trailer_magic then
    Error "missing checksum trailer"
  else
    let body_len = n - trailer_len in
    (* Compare all 8 stored bytes: a CRC-32 occupies the low 4, so the
       high 4 must be zero — masking them off would let flips there pass. *)
    let stored = String.get_int64_le data (n - 8) in
    if stored <> Int64.of_int (Crc32.sub data ~pos:0 ~len:body_len) then
      Error "checksum mismatch"
    else Ok body_len

(* --- quarantine --- *)

let quarantine_log = ref (fun ~file:_ ~reason:_ -> ())
let set_quarantine_log f = quarantine_log := f

let quarantine ~dir ~file ~reason =
  Metrics.incr m_quarantined;
  (try
     Sys.rename (Filename.concat dir file) (Filename.concat dir (file ^ ".corrupt"))
   with Sys_error _ -> ());
  !quarantine_log ~file ~reason

(* --- the store protocol --- *)

(* Write the sealed bytes to a fresh temp file and rename it into place.
   A [Fault.Killed] is a simulated crash: it must leave whatever litter a
   real kill at that site would (an empty temp file, a partial temp file,
   a complete-but-unrenamed temp file) for the crash-consistency tests —
   so only non-kill failures clean up the temp file. Lookups never see a
   partial entry either way: the rename is the commit point. *)
let write_entry ~path ~tmp data =
  let oc = open_out_bin tmp in
  (match
     Fault.check p_kill_tmp;
     let half = String.length data / 2 in
     output_substring oc data 0 half;
     Fault.check p_kill_write;
     output_substring oc data half (String.length data - half);
     Metrics.add m_bytes_written (String.length data)
   with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      raise e);
  Fault.check p_kill_rename;
  Sys.rename tmp path

let max_store_attempts = 3

(* Transient failures (a Sys_error from the filesystem, an injected
   [Fail]) are retried with exponential backoff; corruption injected by
   [p_store_data] is NOT an error here — the sealed-then-mangled bytes
   land on disk and the CRC catches them at lookup time, which is the
   scenario the fault exists to create. *)
let store_file ~dir ~path data =
  let rec attempt n =
    match
      Fault.check p_store_io;
      let data = Fault.mangle p_store_data data in
      mkdir_p dir;
      let tmp =
        Filename.temp_file ~temp_dir:dir ("." ^ Filename.basename path) ".tmp"
      in
      (try write_entry ~path ~tmp data with
      | Fault.Killed _ as e -> raise e (* simulated crash: leave the litter *)
      | e ->
          (try if Sys.file_exists tmp then Sys.remove tmp with Sys_error _ -> ());
          raise e)
    with
    | () -> Ok ()
    | exception ((Sys_error _ | Fault.Injected _) as e) ->
        if n + 1 < max_store_attempts then begin
          Metrics.incr m_retries;
          Unix.sleepf (0.001 *. float_of_int (1 lsl n));
          attempt (n + 1)
        end
        else
          Error
            (match e with
            | Sys_error msg -> msg
            | Fault.Injected pt -> "injected fault at " ^ pt
            | _ -> assert false)
  in
  attempt 0

let store ~dir ~key ?(meta = "") trace =
  timed m_store_ns @@ fun () ->
  store_file ~dir
    ~path:(Filename.concat dir (trace_file ~key))
    (Trace.encode_columnar ~meta trace)

let index_key ~key ~page_sizes =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          (version :: key :: Write_index.codec_version
          :: List.map string_of_int page_sizes)))

(* Key-prefixed ([<key>.<ikey>.widx]) so the GC can group an index with
   the trace it was built from; [ikey] still hashes the page sizes and
   codec versions, so distinct configurations coexist. *)
let index_path ~dir ~key ~page_sizes =
  Filename.concat dir (key ^ "." ^ index_key ~key ~page_sizes ^ ".widx")

let index_cached ~dir ~key ~page_sizes =
  Sys.file_exists (index_path ~dir ~key ~page_sizes)

let store_index ~dir ~key ~page_sizes index =
  timed m_store_ns @@ fun () ->
  store_file ~dir
    ~path:(index_path ~dir ~key ~page_sizes)
    (seal (Write_index.encode_padded index ~room:trailer_len))

(* Checkpoint chains are keyed like indices: [<key>.<ckey>.ckpt], with
   [ckey] rehashing the trace key and the checkpoint codec version, and
   the [<key>.] prefix tying the chain to its recording for the GC's
   orphan sweep. A chain is only meaningful next to the trace it was
   taken during (same program, seed, fuel — exactly what [key] hashes). *)
let checkpoint_key ~key =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00" [ version; key; Checkpoint.codec_version ]))

let checkpoint_path ~dir ~key =
  Filename.concat dir (key ^ "." ^ checkpoint_key ~key ^ ".ckpt")

let checkpoint_cached ~dir ~key = Sys.file_exists (checkpoint_path ~dir ~key)

let store_checkpoints ~dir ~key chain =
  timed m_store_ns @@ fun () ->
  store_file ~dir ~path:(checkpoint_path ~dir ~key)
    (seal
       (Bytes.extend (Bytes.unsafe_of_string (Checkpoint.encode chain)) 0
          trailer_len))

(* --- lookups --- *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | data -> Some data
  | exception Sys_error _ -> None

(* Shared load path: read the whole file, pass it through the lookup
   fault point, then [check] it. An absent or unreadable file is a
   plain miss; an injected transient read fault is a miss that leaves
   the (possibly fine) entry alone; a failed check quarantines the file
   and falls back to a miss, which makes the caller re-record. *)
let load_entry ~dir ~file check =
  match read_file (Filename.concat dir file) with
  | None -> None
  | Some data -> (
      match Fault.mangle p_lookup_data data with
      | exception Fault.Injected _ -> None
      | data -> (
          Metrics.add m_bytes_read (String.length data);
          match check data with
          | Ok v -> Some v
          | Error reason ->
              quarantine ~dir ~file ~reason;
              None))

(* Sealed entries: the trailer is verified before [decode] sees a byte,
   and [decode data ~len] reads the body in place. *)
let sealed decode data = Result.bind (check_seal data) (fun len -> decode data ~len)

let sealed_index = sealed Write_index.decode_prefix

let sealed_checkpoints =
  sealed (fun data ~len -> Checkpoint.decode (String.sub data 0 len))

let check_trace data = Result.map ignore (Trace.decode_columnar data)

(* Map the entry with the structural checks of the fast path. Under
   fault injection the mapping alone is not enough: injected corruption
   targets exactly the bytes the fast path trusts, so the entry is also
   read through the lookup fault point and checked in full, CRC
   included, before the mapping is served. *)
let lookup ~dir ~key =
  timed m_lookup_ns @@ fun () ->
  let file = trace_file ~key in
  let path = Filename.concat dir file in
  let found =
    if not (Sys.file_exists path) then None
    else
      match Trace.map_columnar path with
      | exception Fault.Injected _ -> None
      | Error reason ->
          quarantine ~dir ~file ~reason;
          None
      | Ok hit when not (Fault.active ()) -> Some hit
      | Ok hit ->
          Option.map (fun () -> hit) (load_entry ~dir ~file check_trace)
  in
  Metrics.incr (match found with Some _ -> m_hits | None -> m_misses);
  found

let lookup_index ~dir ~key ~page_sizes =
  timed m_lookup_ns @@ fun () ->
  let file = Filename.basename (index_path ~dir ~key ~page_sizes) in
  let found = load_entry ~dir ~file sealed_index in
  Metrics.incr (match found with Some _ -> m_index_hits | None -> m_index_misses);
  found

let lookup_checkpoints ~dir ~key =
  timed m_lookup_ns @@ fun () ->
  let file = Filename.basename (checkpoint_path ~dir ~key) in
  let found = load_entry ~dir ~file sealed_checkpoints in
  Metrics.incr (match found with Some _ -> m_ckpt_hits | None -> m_ckpt_misses);
  found

(* Garbage collection. The odoc contract is that entries never need
   invalidation (keys are content hashes over the codec version), only
   reclamation — so GC is pure space management: drop temp-file litter
   from interrupted stores, quarantined corpses and the files of older
   cache versions, then evict coldest-first by mtime. *)

type entry_kind =
  | Trace_entry
  | Index_entry
  | Checkpoint_entry
  | Stale_entry
  | Tmp_entry
  | Corrupt_entry

type entry = {
  entry_file : string;
  entry_kind : entry_kind;
  entry_bytes : int;
  entry_mtime : float;
}

let classify file =
  (* Quarantined corpses first ([<key>.ebpt3.corrupt] must not count as
     a trace); temp files look like [.<key>.ebpt3NNNNN.tmp]. *)
  if Filename.check_suffix file ".corrupt" then Some Corrupt_entry
  else if Filename.check_suffix file ".ebpt3" then Some Trace_entry
  else if Filename.check_suffix file ".widx" then Some Index_entry
  else if Filename.check_suffix file ".ckpt" then Some Checkpoint_entry
  else if Filename.check_suffix file ".trace" then Some Stale_entry
  else if Filename.check_suffix file ".tmp" && String.length file > 0
          && file.[0] = '.' then Some Tmp_entry
  else None

(* The trace key a file belongs to: [<key>.ebpt3] is the key's entry,
   index and checkpoint names are [<key>.<ikey>.widx] and
   [<key>.<ckey>.ckpt], and a v4 [<key>.trace] names the v4 key it was
   written under. *)
let owner_key e =
  match e.entry_kind with
  | Trace_entry | Index_entry | Checkpoint_entry | Stale_entry -> (
      match String.index_opt e.entry_file '.' with
      | Some i -> Some (String.sub e.entry_file 0 i)
      | None -> None)
  | Tmp_entry | Corrupt_entry -> None

let entries ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
      Array.to_list files
      |> List.filter_map (fun file ->
             match classify file with
             | None -> None
             | Some entry_kind -> (
                 match Unix.stat (Filename.concat dir file) with
                 | exception Unix.Unix_error _ -> None
                 | st when st.Unix.st_kind <> Unix.S_REG -> None
                 | st ->
                     Some
                       {
                         entry_file = file;
                         entry_kind;
                         entry_bytes = st.Unix.st_size;
                         entry_mtime = st.Unix.st_mtime;
                       }))
      |> List.sort (fun a b ->
             match compare a.entry_mtime b.entry_mtime with
             | 0 -> compare a.entry_file b.entry_file
             | c -> c)

let remove_entry ~dir e =
  match Sys.remove (Filename.concat dir e.entry_file) with
  | () ->
      Metrics.incr m_gc_removed;
      Metrics.add m_gc_reclaimed e.entry_bytes;
      true
  | exception Sys_error _ -> false

let total_bytes es =
  List.fold_left (fun acc e -> acc + e.entry_bytes) 0 es

let clear ~dir =
  let removed, reclaimed =
    List.fold_left
      (fun (n, b) e ->
        if remove_entry ~dir e then (n + 1, b + e.entry_bytes) else (n, b))
      (0, 0) (entries ~dir)
  in
  Metrics.set g_disk_bytes (float_of_int (total_bytes (entries ~dir)));
  (removed, reclaimed)

let gc ~dir ~max_bytes =
  let litter, live =
    List.partition
      (fun e -> e.entry_kind = Tmp_entry || e.entry_kind = Corrupt_entry)
      (entries ~dir)
  in
  (* An index is only reachable next to its trace: one whose trace is
     gone — deleted by hand, or evicted by an older GC — is dead weight
     no lookup will ever reach, and so is every file of a key that still
     has a v4 [.trace] entry, since no v5 key names it. Reclaim them all
     with the litter. A checkpoint chain is different: [ebp trace
     --stream --checkpoint-every] and [ebp travel --cached] store one
     with no trace entry, and [lookup_checkpoints] serves it alone, so
     it is a live group of its own. *)
  let keys kind =
    let h = Hashtbl.create 64 in
    List.iter
      (fun e ->
        if e.entry_kind = kind then
          Option.iter (fun k -> Hashtbl.replace h k ()) (owner_key e))
      live;
    h
  in
  let traces = keys Trace_entry and stale = keys Stale_entry in
  let orphans, live =
    List.partition
      (fun e ->
        match owner_key e with
        | Some k ->
            Hashtbl.mem stale k
            || (e.entry_kind <> Checkpoint_entry && not (Hashtbl.mem traces k))
        | None -> true)
      live
  in
  let drop acc e =
    let n, b = acc in
    if remove_entry ~dir e then (n + 1, b + e.entry_bytes) else acc
  in
  let acc = List.fold_left drop (0, 0) (litter @ orphans) in
  (* Evict whole ownership groups (a trace with its index and
     checkpoint entries, or a chain alone), coldest first — [live] is
     oldest-mtime-first and every survivor is a trace, a chain, or an
     index whose trace is here, so walking it and deleting each entry's
     entire group on first contact keeps the coldest-first order while
     never leaving a fresh orphan behind. *)
  let group_of key =
    List.filter (fun e -> owner_key e = Some key) live
  in
  let evicted = Hashtbl.create 16 in
  let acc, _ =
    List.fold_left
      (fun ((n, b), remaining) e ->
        let key = Option.get (owner_key e) in
        if Hashtbl.mem evicted key || remaining <= max_bytes then
          ((n, b), remaining)
        else begin
          Hashtbl.add evicted key ();
          List.fold_left
            (fun ((n, b), remaining) e ->
              if remove_entry ~dir e then
                ((n + 1, b + e.entry_bytes), remaining - e.entry_bytes)
              else ((n, b), remaining))
            ((n, b), remaining)
            (group_of key)
        end)
      (acc, total_bytes live)
      live
  in
  Metrics.set g_disk_bytes (float_of_int (total_bytes (entries ~dir)));
  acc

(* --- integrity scan --- *)

type verify_report = {
  checked : int;
  intact : int;
  corrupt : (string * string) list;
  tmp_litter : int;
}

let verify ?quarantine:(quarantine_corrupt = true) ~dir () =
  let checked = ref 0 and intact = ref 0 and tmp_litter = ref 0 in
  let corrupt = ref [] in
  let scan e check =
    incr checked;
    let result =
      match read_file (Filename.concat dir e.entry_file) with
      | None -> Error "unreadable"
      | Some data -> check data
    in
    match result with
    | Ok () -> incr intact
    | Error reason ->
        corrupt := (e.entry_file, reason) :: !corrupt;
        if quarantine_corrupt then quarantine ~dir ~file:e.entry_file ~reason
  in
  List.iter
    (fun e ->
      match e.entry_kind with
      | Trace_entry -> scan e check_trace
      | Index_entry -> scan e (fun data -> Result.map ignore (sealed_index data))
      | Checkpoint_entry ->
          scan e (fun data -> Result.map ignore (sealed_checkpoints data))
      | Tmp_entry -> incr tmp_litter
      | Stale_entry | Corrupt_entry -> ())
    (entries ~dir);
  {
    checked = !checked;
    intact = !intact;
    corrupt =
      List.sort (fun (a, _) (b, _) -> String.compare a b) !corrupt;
    tmp_litter = !tmp_litter;
  }
