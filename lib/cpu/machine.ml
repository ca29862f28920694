open Hbbp_isa
open Hbbp_program

type retirement = {
  mutable node : Exec_graph.node;
  mutable taken_src : int;
  mutable taken_tgt : int;
  mutable retired_index : int;
  mutable cycles : int;
  mutable shadow_active : bool;
}

type observer = {
  on_retire : retirement -> unit;
  due : unit -> int;
  on_block :
    Exec_graph.block -> src:int -> tgt:int -> cycles:int -> unit;
}

let per_instruction on_retire =
  {
    on_retire;
    due = (fun () -> 0);
    on_block = (fun _ ~src:_ ~tgt:_ ~cycles:_ -> ());
  }

type run_stats = {
  retired : int;
  cycles : int;
  taken_branches : int;
  kernel_retired : int;
}

exception Runaway of int
exception Machine_fault of string

(* ------------------------------------------------------------------ *)
(* Engines.

   [Legacy] is the seed per-instruction loop over [Exec.step], kept
   verbatim as the differential-testing reference.  [Superblock]
   executes cached basic-block closures and chains direct successors
   (fall-through and taken edges) through mutable pointers patched on
   first traversal, so steady-state execution only consults the block
   cache when an indirect target changes.  Both retire bit-identical
   streams; they differ only in dispatch cost. *)
type engine = Legacy | Superblock

let engine_name = function
  | Legacy -> "legacy"
  | Superblock -> "superblock"

(* A basic block compiled to straight-line kernels (tier 1) plus the
   mutable successor links that superblock chaining patches (tier 2).
   [c_taken] is keyed by [c_taken_addr] so one slot serves both direct
   branches (the guard always passes) and indirect ones (it degrades
   into a monomorphic inline cache). *)
type compiled = {
  c_block : Exec_graph.block;  (** What the block hooks receive. *)
  c_nodes : Exec_graph.node array;
  c_kernels : Exec.kernel array;
  c_last : Exec_graph.node;
  c_len : int;
  c_cost : int;  (** Sum of member issue costs. *)
  c_kernel_count : int;  (** Members retiring in ring 0. *)
  c_shadow : int;  (** [Exec_graph.block.b_shadow]. *)
  mutable c_fall : compiled option;
  mutable c_taken_addr : int;  (** Address [c_taken] resolves; -1 = none. *)
  mutable c_taken : compiled option;
}

type t = {
  graph : Exec_graph.t;
  st : State.t;
  process : Process.t;
  engine : engine;
  mutable observers_rev : observer list;
      (* Accumulated in reverse; frozen to an array at [run] time so
         [add_observer] stays O(1) instead of re-copying an array. *)
  kernel_entry : int option;
  cache : compiled Exec_graph.table;
      (* Compiled blocks keyed by entry address — dense per-segment
         arrays, so resolving an indirect branch target to compiled
         code costs the same as [Exec_graph.node_at]. *)
  scratch : retirement;
  mutable blocks_batched : int;
  mutable blocks_stepped : int;
}

let fault fmt = Format.kasprintf (fun s -> raise (Machine_fault s)) fmt

let create ~process ?(seed = 42L) ?(engine = Superblock) () =
  let graph = Exec_graph.build_exn process in
  let st = State.create ~seed () in
  let dummy_node =
    (* Any node serves as the scratch record's initial value. *)
    let exception Found of Exec_graph.node in
    try
      List.iter
        (fun (img : Image.t) ->
          match Exec_graph.node_at graph img.base with
          | Some n -> raise (Found n)
          | None -> ())
        (Process.images process);
      fault "process has no decodable code"
    with Found n -> n
  in
  {
    graph;
    st;
    process;
    engine;
    observers_rev = [];
    kernel_entry = Kernel_abi.entry_addr process;
    cache = Exec_graph.create_table graph;
    scratch =
      {
        node = dummy_node;
        taken_src = -1;
        taken_tgt = -1;
        retired_index = 0;
        cycles = 0;
        shadow_active = false;
      };
    blocks_batched = 0;
    blocks_stepped = 0;
  }

let state t = t.st
let process t = t.process

let add_observer t obs = t.observers_rev <- obs :: t.observers_rev

type coverage = { batched : int; stepped : int }

let coverage t = { batched = t.blocks_batched; stepped = t.blocks_stepped }

(* The sentinel "return address" pushed below the entry frame: returning
   to it ends the run. *)
let sentinel = 0

(* Compiled block whose entry is [addr]: dense cache hit, or compile the
   graph's (cached) basic block on a miss. *)
let compiled_at t addr =
  match Exec_graph.table_find t.cache addr with
  | Some c -> c
  | None -> (
      match Exec_graph.block_at t.graph addr with
      | None -> fault "branch to unmapped address %#x" addr
      | Some (b : Exec_graph.block) ->
          let c =
            {
              c_block = b;
              c_nodes = b.b_nodes;
              c_kernels = Array.map Exec.compile b.b_nodes;
              c_last = b.b_last;
              c_len = b.b_len;
              c_cost = b.b_cost;
              c_kernel_count = b.b_kernel;
              c_shadow = b.b_shadow;
              c_fall = None;
              c_taken_addr = -1;
              c_taken = None;
            }
          in
          Exec_graph.table_set t.cache addr c;
          c)

(* ------------------------------------------------------------------ *)
(* Legacy engine: the seed per-instruction loop, unchanged.  Kept as
   the reference the superblock engine is differentially tested against. *)

let run_legacy t ~entry ~max_instructions =
  let st = t.st in
  let retired = ref 0 in
  let cycles = ref 0 in
  let shadow_until = ref 0 in
  let taken_branches = ref 0 in
  let kernel_retired = ref 0 in
  let observers = Array.of_list (List.rev t.observers_rev) in
  let nobs = Array.length observers in
  let scratch = t.scratch in
  let node0 =
    match Exec_graph.node_at t.graph entry with
    | Some n -> n
    | None -> fault "entry point %#x is not mapped code" entry
  in
  (* Resolve the node for a taken-branch target: per-node target cache
     first, dense lookup only on a miss. *)
  let resolve (node : Exec_graph.node) tgt =
    match node.target with
    | Some tn when tn.Exec_graph.addr = tgt -> tn
    | Some _ | None -> (
        match Exec_graph.node_at t.graph tgt with
        | Some n -> n
        | None -> fault "branch to unmapped address %#x" tgt)
  in
  let notify (node : Exec_graph.node) shadow_active =
    scratch.node <- node;
    scratch.retired_index <- !retired - 1;
    scratch.cycles <- !cycles;
    scratch.shadow_active <- shadow_active;
    for k = 0 to nobs - 1 do
      observers.(k).on_retire scratch
    done
  in
  (* One dispatch on [control] per retirement does everything: branch
     accounting, observer notification (scratch updates are skipped
     entirely when nobody listens), next-node resolution. *)
  let rec loop (node : Exec_graph.node) =
    if !retired >= max_instructions then raise (Runaway !retired);
    st.ip <- node.addr;
    let control = Exec.step st node in
    let shadow_active = !cycles < !shadow_until in
    let cycle_before = !cycles in
    cycles := !cycles + node.issue_cost;
    if node.long_latency then begin
      let until = cycle_before + node.latency in
      if until > !shadow_until then shadow_until := until
    end;
    incr retired;
    if node.kernel then incr kernel_retired;
    match control with
    | Exec.Fall -> (
        if nobs > 0 then begin
          scratch.taken_src <- -1;
          scratch.taken_tgt <- -1;
          notify node shadow_active
        end;
        match node.fall with
        | Some n -> loop n
        | None ->
            fault "execution fell off code at %#x" (node.addr + node.len))
    | Exec.Taken tgt ->
        incr taken_branches;
        if nobs > 0 then begin
          scratch.taken_src <- node.addr;
          scratch.taken_tgt <- tgt;
          notify node shadow_active
        end;
        (* Returning to the sentinel frame ends the run. *)
        if tgt <> sentinel then loop (resolve node tgt)
    | Exec.Syscall_enter ra -> (
        match t.kernel_entry with
        | None -> fault "SYSCALL with no kernel mapped (at %#x)" node.addr
        | Some kentry ->
            State.set_gpr st Operand.RCX (Int64.of_int ra);
            st.ring <- Ring.Kernel;
            incr taken_branches;
            if nobs > 0 then begin
              scratch.taken_src <- node.addr;
              scratch.taken_tgt <- kentry;
              notify node shadow_active
            end;
            loop (resolve node kentry))
    | Exec.Sysret_exit tgt ->
        st.ring <- Ring.User;
        incr taken_branches;
        if nobs > 0 then begin
          scratch.taken_src <- node.addr;
          scratch.taken_tgt <- tgt;
          notify node shadow_active
        end;
        if tgt <> sentinel then loop (resolve node tgt)
    | Exec.Halt ->
        if nobs > 0 then begin
          scratch.taken_src <- -1;
          scratch.taken_tgt <- -1;
          notify node shadow_active
        end
  in
  loop node0;
  {
    retired = !retired;
    cycles = !cycles;
    taken_branches = !taken_branches;
    kernel_retired = !kernel_retired;
  }

(* ------------------------------------------------------------------ *)
(* Superblock engine.

   Three block bodies:

   - [exec_bare] runs a whole block straight-line with per-block
     counter updates.  It serves runs with no observer at all, so it
     maintains neither the PMI shadow nor any notification state.

   - With observers armed, [exec_observed] runs a block the same way
     when it fits the remaining instruction budget and every
     observer's [due] covers its whole length, then advances the
     shadow horizon by the block's precomputed [c_shadow] and calls
     each block hook once.  [due] promises that nothing the observer
     must see one retirement at a time happens inside such a block
     (for the PMU: no PMI pending or raised), and only the terminator
     can be a taken branch, so the block hooks reproduce the
     per-retirement hooks' effect exactly, PRNG draw order included.

   - Otherwise, or when a bare block overruns the budget,
     [exec_stepped] retires the block node by node with
     exactly the legacy loop's ordering — runaway check, [st.ip],
     kernel, shadow/cycle/counter updates, per-retirement notification
     — so it raises [Runaway] at the retirement the legacy engine
     would and delivers PMIs at the same points.  That due-by-N
     budgeting is what keeps sampling semantics identical across
     engines. *)

let run_superblock t ~entry ~max_instructions =
  let st = t.st in
  let retired = ref 0 in
  let cycles = ref 0 in
  let shadow_until = ref 0 in
  let taken_branches = ref 0 in
  let kernel_retired = ref 0 in
  let observers = Array.of_list (List.rev t.observers_rev) in
  let nobs = Array.length observers in
  let scratch = t.scratch in
  t.blocks_batched <- 0;
  t.blocks_stepped <- 0;
  let c0 =
    match Exec_graph.node_at t.graph entry with
    | None -> fault "entry point %#x is not mapped code" entry
    | Some _ -> compiled_at t entry
  in
  (* Successor resolution, patching the link into the block on first
     traversal. *)
  let fall_of (c : compiled) =
    match c.c_fall with
    | Some c' -> c'
    | None -> (
        let last = c.c_last in
        match last.Exec_graph.fall with
        | None -> fault "execution fell off code at %#x" (last.addr + last.len)
        | Some n ->
            let c' = compiled_at t n.Exec_graph.addr in
            c.c_fall <- Some c';
            c')
  in
  let taken_of (c : compiled) tgt =
    if c.c_taken_addr = tgt then
      match c.c_taken with Some c' -> c' | None -> assert false
    else begin
      let c' = compiled_at t tgt in
      c.c_taken_addr <- tgt;
      c.c_taken <- Some c';
      c'
    end
  in
  let notify (node : Exec_graph.node) shadow_active src tgt =
    scratch.node <- node;
    scratch.taken_src <- src;
    scratch.taken_tgt <- tgt;
    scratch.retired_index <- !retired - 1;
    scratch.cycles <- !cycles;
    scratch.shadow_active <- shadow_active;
    for k = 0 to nobs - 1 do
      (Array.unsafe_get observers k).on_retire scratch
    done
  in
  (* How a block's terminator is announced: per retirement when the
     block was stepped, through the block hooks when it was batched. *)
  let signal (c : compiled) stepped shadow_active src tgt =
    if stepped then notify c.c_last shadow_active src tgt
    else
      for k = 0 to nobs - 1 do
        (Array.unsafe_get observers k).on_block c.c_block ~src ~tgt
          ~cycles:!cycles
      done
  in
  let rec dues_cover k len =
    k >= nobs || ((Array.unsafe_get observers k).due () >= len
                  && dues_cover (k + 1) len)
  in
  (* Timing-model and counter updates for one retirement; returns
     whether a long-latency shadow inhibited PMI at this retirement.
     Field-for-field the legacy loop's update block. *)
  let retire (node : Exec_graph.node) =
    let shadow_active = !cycles < !shadow_until in
    let cycle_before = !cycles in
    cycles := !cycles + node.issue_cost;
    if node.long_latency then begin
      let until = cycle_before + node.latency in
      if until > !shadow_until then shadow_until := until
    end;
    incr retired;
    if node.kernel then incr kernel_retired;
    shadow_active
  in
  let rec exec_observed (c : compiled) =
    if !retired + c.c_len <= max_instructions && dues_cover 0 c.c_len then begin
      t.blocks_batched <- t.blocks_batched + 1;
      let kernels = c.c_kernels in
      let lastk = c.c_len - 1 in
      for k = 0 to lastk - 1 do
        ignore ((Array.unsafe_get kernels k) st : Exec.control)
      done;
      st.ip <- c.c_last.Exec_graph.addr;
      let control = (Array.unsafe_get kernels lastk) st in
      let cycle_before = !cycles in
      retired := !retired + c.c_len;
      cycles := cycle_before + c.c_cost;
      kernel_retired := !kernel_retired + c.c_kernel_count;
      if c.c_shadow > 0 then begin
        let until = cycle_before + c.c_shadow in
        if until > !shadow_until then shadow_until := until
      end;
      finish c control false false
    end
    else begin
      t.blocks_stepped <- t.blocks_stepped + 1;
      exec_stepped c
    end
  and exec_stepped (c : compiled) =
    let kernels = c.c_kernels and nodes = c.c_nodes in
    let lastk = c.c_len - 1 in
    for k = 0 to lastk - 1 do
      if !retired >= max_instructions then raise (Runaway !retired);
      let node = Array.unsafe_get nodes k in
      st.ip <- node.Exec_graph.addr;
      ignore ((Array.unsafe_get kernels k) st : Exec.control);
      notify node (retire node) (-1) (-1)
    done;
    if !retired >= max_instructions then raise (Runaway !retired);
    st.ip <- c.c_last.Exec_graph.addr;
    let control = (Array.unsafe_get kernels lastk) st in
    finish c control true (retire c.c_last)
  (* The terminator's architectural effects, its notification and the
     dispatch to the successor, shared by both observed bodies. *)
  and finish (c : compiled) control stepped shadow_active =
    let src = c.c_last.Exec_graph.addr in
    match control with
    | Exec.Fall ->
        signal c stepped shadow_active (-1) (-1);
        exec_observed (fall_of c)
    | Exec.Taken tgt ->
        incr taken_branches;
        signal c stepped shadow_active src tgt;
        if tgt <> sentinel then exec_observed (taken_of c tgt)
    | Exec.Syscall_enter ra -> (
        match t.kernel_entry with
        | None -> fault "SYSCALL with no kernel mapped (at %#x)" src
        | Some kentry ->
            State.set_gpr st Operand.RCX (Int64.of_int ra);
            st.ring <- Ring.Kernel;
            incr taken_branches;
            signal c stepped shadow_active src kentry;
            exec_observed (taken_of c kentry))
    | Exec.Sysret_exit tgt ->
        st.ring <- Ring.User;
        incr taken_branches;
        signal c stepped shadow_active src tgt;
        if tgt <> sentinel then exec_observed (taken_of c tgt)
    | Exec.Halt -> signal c stepped shadow_active (-1) (-1)
  in
  let rec exec_bare (c : compiled) =
    if !retired + c.c_len > max_instructions then begin
      (* The block cannot fully retire within budget: step it, which
         raises [Runaway] at the exact retirement the legacy engine
         would. *)
      t.blocks_stepped <- t.blocks_stepped + 1;
      exec_stepped c
    end
    else begin
      t.blocks_batched <- t.blocks_batched + 1;
      (* No kernel (nor fault handler) reads [State.t.ip], so the
         per-instruction [st.ip] stores of the stepped body are dead
         here; the terminator's store below keeps the post-run value
         identical to the legacy engine's. *)
      let kernels = c.c_kernels in
      let lastk = c.c_len - 1 in
      for k = 0 to lastk - 1 do
        ignore ((Array.unsafe_get kernels k) st : Exec.control)
      done;
      let node = c.c_last in
      st.ip <- node.Exec_graph.addr;
      let control = (Array.unsafe_get kernels lastk) st in
      retired := !retired + c.c_len;
      cycles := !cycles + c.c_cost;
      kernel_retired := !kernel_retired + c.c_kernel_count;
      match control with
      | Exec.Fall -> exec_bare (fall_of c)
      | Exec.Taken tgt ->
          incr taken_branches;
          if tgt <> sentinel then exec_bare (taken_of c tgt)
      | Exec.Syscall_enter ra -> (
          match t.kernel_entry with
          | None -> fault "SYSCALL with no kernel mapped (at %#x)" node.addr
          | Some kentry ->
              State.set_gpr st Operand.RCX (Int64.of_int ra);
              st.ring <- Ring.Kernel;
              incr taken_branches;
              exec_bare (taken_of c kentry))
      | Exec.Sysret_exit tgt ->
          st.ring <- Ring.User;
          incr taken_branches;
          if tgt <> sentinel then exec_bare (taken_of c tgt)
      | Exec.Halt -> ()
    end
  in
  if nobs > 0 then exec_observed c0 else exec_bare c0;
  {
    retired = !retired;
    cycles = !cycles;
    taken_branches = !taken_branches;
    kernel_retired = !kernel_retired;
  }

let run t ~entry ?(max_instructions = 2_000_000_000) () =
  let st = t.st in
  State.reset_registers st;
  let rsp = Layout.initial_rsp - 8 in
  State.set_gpr st Operand.RSP (Int64.of_int rsp);
  Memory.write_i64 st.mem rsp (Int64.of_int sentinel);
  st.ip <- entry;
  match t.engine with
  | Legacy -> run_legacy t ~entry ~max_instructions
  | Superblock -> run_superblock t ~entry ~max_instructions
