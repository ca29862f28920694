(** Walking one LBR stream over the static block map.

    A stream [target → source] claims straight-line execution between the
    two addresses: every block laid out in between executed, and none of
    them may end in an always-taken terminator. *)

type result =
  | Blocks of int list  (** Global block ids covered, in layout order. *)
  | Inconsistent
      (** The walk crossed an always-taken terminator — statically
          impossible straight-line flow (e.g. disassembly of a
          NOP-patched kernel, or a corrupt LBR pairing). *)
  | Bad  (** Unresolvable endpoints, backwards range, or over-long. *)

(** Upper bound on blocks per stream. *)
val max_walk : int

val walk : Static.t -> target:int -> src:int -> result

(** Walk results interned per distinct [(target, src)] pair.  A snapshot
    stream repeats the same few hundred pairs many thousand times, so an
    accumulator keeps one memo and walks each distinct stream once; a
    lookup of a stream already seen allocates nothing. *)
module Memo : sig
  type memo

  val create : unit -> memo

  (** [intern memo static ~target ~src] — the stream's id, walking it
      over [static] on first sight.  One memo serves one static view. *)
  val intern : memo -> Static.t -> target:int -> src:int -> int

  (** Number of distinct streams interned. *)
  val length : memo -> int

  (** The cached walk of stream [id]. *)
  val result : memo -> int -> result

  val target : memo -> int -> int
  val src : memo -> int -> int
end
