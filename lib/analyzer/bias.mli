(** LBR bias detection (paper section III.C).

    Some branches appear at entry[0] of the LBR stack a disproportionate
    number of times (up to ~50%).  Since [source[0]] has no matching
    [target[-1]], the stream ending there is unusable, and when a branch
    monopolises that slot the blocks around it are systematically
    mis-counted.  When the analyzer observes a branch over-represented at
    entry[0] relative to its share of the deeper entries, it labels the
    branch's basic block with a {b bias flag}: its LBR-based count is
    suspect.  The flag is one of HBBP's classifier features. *)

type branch_stat = {
  src : int;  (** Branch source address. *)
  entry0_count : int;
  deep_count : int;  (** Appearances at entries 1..N-1. *)
  entry0_share : float;
  deep_share : float;
  adjacent_streams : int;  (** Streams starting at this branch's records. *)
  failed_streams : int;  (** Of those, how many could not be walked. *)
}

type t = {
  flags : bool array;  (** Per global block id. *)
  stats : branch_stat list;  (** Branches sorted by entry0 share. *)
  snapshots : int;
}

type params = {
  min_snapshots : int;  (** Below this, never flag (default 30). *)
  min_entry0 : int;  (** Minimum absolute entry[0] sightings (default 8). *)
  min_entry0_share : float;
      (** Only branches hot enough to matter are flagged: their entry[0]
          share must reach this floor (default 0.04). *)
  share_factor : float;
      (** Flag when entry0 share exceeds this multiple of the deep share
          (default 1.25). *)
  min_failures : int;
      (** Second symptom — record loss: minimum failed adjacent streams
          (default 12). *)
  failure_rate : float;
      (** ... and minimum failure rate among them (default 0.10). *)
}

val default_params : params

(** Accumulator: per-branch integer tallies (entry[0]/deep sightings,
    adjacent/failed streams) and the distinct record-pair triples
    [(owner, target, src)] — one record's source and target and the next
    record's source — that contamination reads.  Each distinct stream is
    walked once per accumulator.  Merges across shards with plain
    addition and set union — exactly associative and commutative. *)
module Acc : sig
  type acc

  val create : unit -> acc
  val add : Static.t -> acc -> Sample_db.lbr_sample -> unit

  (** Pure: returns a fresh accumulator, inputs are unchanged. *)
  val merge : acc -> acc -> acc

  (** Distinct [(target, src)] streams among the triples seen. *)
  val distinct_streams : acc -> int

  (** Checkpoint support: per-branch tallies as key-sorted assoc lists
      and the sorted triple set (deterministic serialization);
      [import (export acc)] is behaviourally identical to [acc] —
      [finalize] sorts its stats and contamination only sets flags, so
      table iteration order never reaches the output. *)
  type repr = {
    r_entry0 : (int * int) list;
    r_deep : (int * int) list;
    r_adjacent : (int * int) list;
    r_failed : (int * int) list;
    r_triples : (int * int * int) list;
    r_snapshots : int;
    r_deep_total : int;
  }

  val export : acc -> repr
  val import : repr -> acc
end

(** [finalize static acc] — resolve flags from the merged tallies, then
    contaminate: every stream adjacent to a record of a flagged branch
    (a triple whose owner or [src] is flagged) has its blocks flagged,
    plus a static one-hop spill.  Branch stats are sorted by entry[0]
    share with a source-address tiebreak, so the result is
    deterministic however the accumulator was assembled. *)
val finalize : ?params:params -> Static.t -> Acc.acc -> t

(** One-shot detection: accumulate + [finalize]. *)
val detect : ?params:params -> Static.t -> Sample_db.lbr_sample array -> t
val flagged_blocks : t -> int list
