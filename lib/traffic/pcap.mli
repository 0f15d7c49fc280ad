(** Classic libpcap capture files (v2.4, microsecond timestamps, Ethernet
    link type): write generated workloads out for inspection with standard
    tools, and replay captured traces through the platform.

    A capture is an in-memory list of timestamped packets; [save]/[load] do
    whole-file I/O. *)

type record = { ts_usec : int; pkt : Ppp_net.Packet.t }
type t

val create : unit -> t
val append : t -> ?ts_usec:int -> Ppp_net.Packet.t -> unit
(** Copies the packet. Default timestamp: previous + 1us. *)

val records : t -> record list
val length : t -> int

val to_bytes : t -> Bytes.t
val of_bytes : Bytes.t -> (t, string) result
(** Accepts standard little-endian v2.4 files with Ethernet link type. *)

val save : t -> string -> unit
val load : string -> (t, string) result

val replay : ?loop:bool -> ?name:string -> t -> Source.t
(** A {!Source.t} cycling through the capture ([loop] defaults true; when
    false, fills return [Exhausted] past the end). Flow identity is a hash
    of each packet's header bytes, with per-flow sequence numbers assigned
    in capture order. Raises [Invalid_argument] on an empty capture. *)
