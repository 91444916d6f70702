(* Reflected CRC-32 (the zlib/PNG polynomial), slicing-by-8: eight bytes
   per step through eight 256-entry tables, falling back to one lookup
   per byte for the unaligned tail. Table [k] advances a byte that still
   has [k] bytes to pass through the register, so one step folds eight
   bytes with eight independent lookups instead of a chain of eight.
   The tables (2048 ints) are built at module initialisation, so every
   domain reads them without synchronisation. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(prev land 0xff) lxor (prev lsr 8)
    done
  done;
  t

(* Unchecked native-endian 32-bit load: [sub_bytes] bounds-checks the
   whole window once, so the per-word check [Bytes.get_int32_le] makes
   would be redundant on the hot loop. *)
external get32_ne : bytes -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let get32_le s i =
  let v = get32_ne s i in
  Int32.to_int (if Sys.big_endian then swap32 v else v) land 0xFFFFFFFF

let sub_bytes s ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length s - len then
    invalid_arg "Crc32.sub";
  let t = tables in
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let lo = !c lxor get32_le s !i and hi = get32_le s (!i + 4) in
    c :=
      Array.unsafe_get t ((7 * 256) + (lo land 0xff))
      lxor Array.unsafe_get t ((6 * 256) + ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t ((5 * 256) + ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + (hi land 0xff))
      lxor Array.unsafe_get t ((2 * 256) + ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get s j)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* Reading a string through its bytes never writes it. *)
let sub s ~pos ~len = sub_bytes (Bytes.unsafe_of_string s) ~pos ~len

let string s = sub s ~pos:0 ~len:(String.length s)
