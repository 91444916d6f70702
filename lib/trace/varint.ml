(* LEB128: 7-bit groups, low first, high bit = continuation. A loop, not
   a local recursive function: without flambda that would allocate a
   closure per value, and a sealed 64Ki-event block encodes about a
   quarter of a million of them. *)
let add_uvarint buf v =
  let v = ref v in
  while !v < 0 || !v >= 0x80 do
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (!v land 0x7f)));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !v)

let[@inline] zigzag v = (v lsl 1) lxor (v asr 62)
let[@inline] unzigzag v = (v lsr 1) lxor (-(v land 1))
let add_svarint buf v = add_uvarint buf (zigzag v)
