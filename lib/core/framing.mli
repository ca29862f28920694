(** Versioned, CRC-guarded binary framing shared by {!Checkpoint} files
    and {!Pipeline.Partial.serialize} blobs: a magic string, a version
    byte, then sections, each an int64-LE payload length, the int64-LE
    CRC-32 of the payload and the payload itself. *)

(** Raised by the readers (and by [parse] callbacks) on malformed
    input; {!of_bytes} turns it into an [Error]. *)
exception Bad of string

val w_i64 : Buffer.t -> int -> unit

(** Length-prefixed string. *)
val w_str : Buffer.t -> string -> unit

(** [to_bytes ~magic ~version sections] — the header, then one section
    per writer, in order. *)
val to_bytes :
  magic:string -> version:int -> (Buffer.t -> unit) list -> bytes

(** A read position bounded by [limit]. *)
type cursor = { data : bytes; mutable pos : int; limit : int }

val r_i64 : cursor -> int
val r_u8 : cursor -> int
val r_str : cursor -> string

(** [r_section c parse] — read one section and run [parse] on a cursor
    bounded to its payload; the CRC must match and [parse] must consume
    the whole payload. *)
val r_section : cursor -> (cursor -> 'a) -> 'a

(** [of_bytes ~what ~magic ~version data parse] — check the header, run
    [parse] on the rest, and demand it consumed every byte.  Any {!Bad}
    becomes [Error "<what>: <reason>"]. *)
val of_bytes :
  what:string ->
  magic:string ->
  version:int ->
  bytes ->
  (cursor -> 'a) ->
  ('a, string) result
