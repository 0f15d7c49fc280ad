(** Non-cryptographic hash functions used across the packet-processing
    applications (flow-table indexing, fingerprinting, load spreading). *)

val fnv1a_bytes : Bytes.t -> pos:int -> len:int -> int
(** 64-bit FNV-1a over a byte slice, truncated to a non-negative OCaml int. *)

val fnv1a_int : int -> int
(** FNV-1a over the 8 little-endian bytes of an int. *)

val combine : int -> int -> int
(** Mix two hash values into one (one round of Bob Jenkins' mix). *)
