(** Rabin-Karp rolling fingerprints over byte windows, as used by
    protocol-independent redundancy elimination (Spring & Wetherall, the
    paper's RE application [26]). *)

val window : int
(** Fingerprint window in bytes (32). *)

type state
(** An immediate value (an [int] underneath): holding or passing one never
    allocates. *)

val init : Bytes.t -> pos:int -> state
(** Fingerprint of the window starting at [pos] (requires [window] bytes;
    [Invalid_argument] otherwise). *)

val roll : state -> Bytes.t -> pos:int -> state
(** [roll st b ~pos] slides the window one byte: [pos] is the new start
    position; byte [pos-1] leaves, byte [pos+window-1] enters. One table
    lookup, one multiply-add and a division-free reduction; allocates
    nothing. [Invalid_argument] unless [1 <= pos] and the new window fits
    in [b]. *)

val value : state -> int
(** The current fingerprint (non-negative, < modulus). *)

val fingerprint : Bytes.t -> pos:int -> int
(** One-shot fingerprint (= [value (init b ~pos)]). *)

val is_sample : int -> mask:int -> bool
(** Winnowing: a position is sampled when the fingerprint's low bits under
    [mask] are zero. *)
