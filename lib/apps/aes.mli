(** AES-128 (FIPS-197), implemented from scratch.

    Used by the VPN application to really encrypt packet payloads (the
    paper's CPU-intensive flow type). Block encryption/decryption plus CTR
    mode. Encryption runs on four 32-bit column words with T-tables (one
    table lookup per state byte per round, derived from the S-box at module
    initialisation) and allocates nothing per block; decryption is
    byte-oriented. The test suite checks the FIPS-197 Appendix B and C.1
    vectors, the NIST SP 800-38A F.1.1 ECB-AES128 vectors, and equality
    with a byte-oriented FIPS-197 reference on random keys, counters and
    ranges. *)

type key
(** An expanded AES-128 key schedule: the 44 round-key words. *)

val expand_key : string -> key
(** [expand_key k] for a 16-byte key string. *)

val encrypt_block : key -> Bytes.t -> src:int -> dst:int -> unit
(** Encrypts the 16-byte block at offset [src] into offset [dst] (may
    alias). *)

val decrypt_block : key -> Bytes.t -> src:int -> dst:int -> unit

val ctr_transform :
  key -> nonce:string -> counter:int -> Bytes.t -> pos:int -> len:int -> unit
(** CTR-mode encryption/decryption in place over [pos, pos+len): byte [i] is
    XORed with the keystream of block [counter + i/16], the encryption of
    [nonce] followed by that block number as a 64-bit big-endian integer.
    [nonce] is 8 bytes. Involutive: applying it twice restores the input.
    Raises [Invalid_argument] on a bad nonce or a range outside [b].
    Allocates one 4-word buffer per call and nothing per block. *)

val blocks_for : int -> int
(** Number of 16-byte blocks covering [len] bytes. *)
