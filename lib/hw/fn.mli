(** Function tags for per-function performance attribution.

    Every traced operation carries a small integer tag identifying the
    packet-processing function that issued it (e.g. [radix_ip_lookup],
    [flow_statistics]); the counters aggregate references and L3 behaviour
    per tag, which is what Figure 7 of the paper breaks down, and the
    profiler ({!Attrib}) keys cycles, instructions and latency by the same
    tag. Each element class registers its own tags at module
    initialisation, so a tag names one piece of code. *)

type t = int
(** A registered tag, in [0, max_tags). *)

val max_tags : int
(** Upper bound on distinct tags (64). *)

val register : string -> t
(** [register name] returns the tag for [name], allocating one on first use.
    Idempotent; thread-safe. Raises [Failure] if the registry is full. *)

val name : t -> string
(** Name of a registered tag; ["?"] for unregistered values. *)

val count : unit -> int
(** Number of registered tags so far. Tags are dense from 0, in
    registration order. *)

val none : t
(** The pre-registered catch-all tag (named ["-"], value 0): stalls, DMA and
    any op issued outside a tagged function. *)
