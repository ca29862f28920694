(** Interning of integer pairs: [(a, b)] ↦ a dense id [0, 1, 2, ...]
    in order of first sight.

    Open addressing over flat [int] arrays, so a lookup allocates
    nothing — no boxed tuple key per query.  The LBR accumulators intern
    one pair per stream of every snapshot. *)

type t

val create : unit -> t

(** Number of interned pairs; ids are [0 .. length t - 1]. *)
val length : t -> int

(** [find t a b] — the id of [(a, b)], or [-1] when absent. *)
val find : t -> int -> int -> int

(** [add t a b] — intern a pair {!find} reported absent; returns its new
    id, [length t - 1]. *)
val add : t -> int -> int -> int

(** Components of an interned pair. *)
val fst : t -> int -> int

val snd : t -> int -> int
