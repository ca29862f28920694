(** The CPU simulator's top-level run loop.

    The machine retires instructions, charging cycles per the timing
    model, and reports them to registered observers either one
    retirement at a time or one whole basic block at a time (see
    {!observer}).  Observers implement both software instrumentation
    (exact counting) and the PMU (sampled counting) — running them side
    by side over a single deterministic execution is what lets the
    experiments compare methods on identical ground truth. *)

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

(** An observer sees each retirement either individually through
    [on_retire], or as part of a whole block through [on_block].

    Before each basic block the superblock engine asks every observer
    for [due ()]: how many further retirements it can let pass without
    per-instruction visibility.  When the block fits the remaining
    instruction budget and every [due] is at least the block's length,
    the block executes straight-line and then each [on_block] is
    called once with the block, its taken branch ([src]/[tgt], both -1
    when it fell through or halted) and the cycle count after it.
    Otherwise every member retires through [on_retire].  An observer
    must therefore end up in the same state either way: [on_block] has
    to apply exactly what [on_retire] would have over the block's
    members.  The legacy engine only ever calls [on_retire]. *)
type observer = {
  on_retire : retirement -> unit;
  due : unit -> int;
  on_block :
    Exec_graph.block -> src:int -> tgt:int -> cycles:int -> unit;
}

(** [per_instruction f] — an observer that sees every retirement
    through [f]: its [due] is always 0. *)
val per_instruction : (retirement -> unit) -> observer

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

(** Blocks the last (or current) [run] of the superblock engine
    executed straight-line ([batched]) and retired instruction by
    instruction ([stepped]) because an observer's [due] or the
    instruction budget fell short of the block.  Both are 0 under
    [Legacy]. *)
type coverage = { batched : int; stepped : int }

val coverage : t -> coverage

(** [run t ~entry ()] — executes from [entry] until the entry function
    returns (to the sentinel return address) or retires [HLT].
    @raise Runaway when [max_instructions] (default [2_000_000_000]) is hit.
    @raise Machine_fault on execution falling off mapped code, or SYSCALL
    with no kernel mapped. *)
val run : t -> entry:int -> ?max_instructions:int -> unit -> run_stats
