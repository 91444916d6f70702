(** The one varint encoder of the trace formats: EBPB1's blocks and
    records ({!Stream}) and EBPT3's object table ({!Trace}) both write
    through it. *)

val add_uvarint : Buffer.t -> int -> unit
(** LEB128: 7-bit groups, low first, high bit = continuation. A negative
    value is written as its 63-bit pattern (nine bytes). *)

val add_svarint : Buffer.t -> int -> unit
(** [add_uvarint] of {!zigzag}, so small negative values stay short. *)

val zigzag : int -> int
(** Maps the sign to bit 0: 0, -1, 1, -2 ... become 0, 1, 2, 3 ... *)

val unzigzag : int -> int
(** Inverse of {!zigzag}. *)
