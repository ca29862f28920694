(** The CPU simulator's top-level run loop.

    The machine retires instructions one by one, charging cycles per the
    timing model and notifying registered observers of every retirement.
    Observers implement both software instrumentation (exact counting) and
    the PMU (sampled counting) — running them side by side over a single
    deterministic execution is what lets the experiments compare methods
    on identical ground truth. *)

open Hbbp_program

(** One retired instruction.  The record is a mutable scratch buffer
    reused across retirements: observers must copy anything they keep. *)
type retirement = {
  mutable node : Exec_graph.node;
  mutable taken_src : int;  (** -1 unless a taken branch retired. *)
  mutable taken_tgt : int;
  mutable retired_index : int;
  mutable cycles : int;  (** Cumulative cycle count after this retirement. *)
  mutable shadow_active : bool;
      (** PMI delivery was inhibited at this retirement because a
          long-latency instruction was still in flight. *)
}

type observer = retirement -> unit

type run_stats = {
  retired : int;
  cycles : int;
  taken_branches : int;
  kernel_retired : int;  (** Retirements in ring 0. *)
}

exception Runaway of int
(** Instruction budget exceeded — a workload failed to terminate. *)

exception Machine_fault of string

(** How [run] drives the execution graph.  Both engines retire
    bit-identical streams — same {!run_stats}, same observer
    notifications, same faults — and differ only in dispatch cost:

    - [Legacy]: the seed per-instruction loop over {!Exec.step}; the
      differential-testing reference.
    - [Superblock]: per basic block, one cached closure of compiled
      instruction kernels ({!Exec.compile}) executes the whole block
      straight-line; direct fall-through/taken successors are chained
      through pointers patched on first traversal, so steady-state
      execution re-enters the dispatcher only when an indirect target
      (RET, indirect JMP/CALL) changes destination. *)
type engine = Legacy | Superblock

val engine_name : engine -> string

type t

(** [create ~process ()] builds the execution graph from the process's
    {e live} images.  [seed] feeds workload-visible randomness;
    [engine] defaults to [Superblock]. *)
val create : process:Process.t -> ?seed:int64 -> ?engine:engine -> unit -> t

val state : t -> State.t
val process : t -> Process.t

(** O(1); the observer set is frozen when [run] starts. *)
val add_observer : t -> observer -> unit

(** [run t ~entry ()] — executes from [entry] until the entry function
    returns (to the sentinel return address) or retires [HLT].
    @raise Runaway when [max_instructions] (default [2_000_000_000]) is hit.
    @raise Machine_fault on execution falling off mapped code, or SYSCALL
    with no kernel mapped. *)
val run : t -> entry:int -> ?max_instructions:int -> unit -> run_stats
