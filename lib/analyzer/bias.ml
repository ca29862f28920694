type branch_stat = {
  src : int;
  entry0_count : int;
  deep_count : int;
  entry0_share : float;
  deep_share : float;
  adjacent_streams : int;
  failed_streams : int;
}

type t = { flags : bool array; stats : branch_stat list; snapshots : int }

type params = {
  min_snapshots : int;
  min_entry0 : int;
  min_entry0_share : float;
  share_factor : float;
  min_failures : int;
  failure_rate : float;
}

let default_params =
  { min_snapshots = 30; min_entry0 = 8; min_entry0_share = 0.04;
    share_factor = 1.25; min_failures = 12; failure_rate = 0.10 }

(* Detection works from one pass over the snapshots.  The accumulator
   below gathers per-branch integer tallies — entry[0] sightings, deep
   sightings, adjacent and failed streams — which merge across shards
   with plain addition, exactly.  It also keeps the distinct record
   pairs it saw as triples (owner, target, src): [owner] and [target]
   are one record's source and target, [src] the next record's source,
   so [target → src] is the stream between them.  Contamination (inside
   [finalize]) needs nothing more than those triples, so the snapshots
   are never read twice.

   [add] walks each distinct stream once ({!Stream_walk.Memo}) and
   counts per triple id; [expand] turns those counts into the
   per-branch tallies and the triple set, which is the state [export],
   [merge] and [finalize] read. *)
module Acc = struct
  (* Per branch: entry[0] and deep sightings, and how many streams START
     at one of its records and how many of those cannot be walked.  A
     missing LBR record after a branch merges the following stream,
     which then usually fails to walk — a high failure rate is the
     observable signature of record loss.  Plus the triple set. *)
  type tallies = {
    entry0 : (int, int) Hashtbl.t;
    deep : (int, int) Hashtbl.t;
    adjacent : (int, int) Hashtbl.t;
    failed : (int, int) Hashtbl.t;
    seen : (int * int * int, unit) Hashtbl.t;
  }

  type acc = {
    streams : Stream_walk.Memo.memo;
    triples : Pair_table.t;  (** (owner, stream id) -> triple id. *)
    mutable triple_counts : int array;  (** By triple id. *)
    base : tallies;
        (** [add] counts entry[0] here directly; the rest is what
            [import] and [merge] carried over. *)
    mutable snapshots : int;
    mutable deep_total : int;
  }

  let of_tallies base ~snapshots ~deep_total =
    {
      streams = Stream_walk.Memo.create ();
      triples = Pair_table.create ();
      triple_counts = [||];
      base;
      snapshots;
      deep_total;
    }

  let create () =
    of_tallies
      {
        entry0 = Hashtbl.create 256;
        deep = Hashtbl.create 16;
        adjacent = Hashtbl.create 16;
        failed = Hashtbl.create 16;
        seen = Hashtbl.create 16;
      }
      ~snapshots:0 ~deep_total:0

  let bump_by table key n =
    match Hashtbl.find table key with
    | m -> Hashtbl.replace table key (m + n)
    | exception Not_found -> Hashtbl.add table key n

  let count_triple acc ~owner stream =
    let id =
      match Pair_table.find acc.triples owner stream with
      | -1 -> Pair_table.add acc.triples owner stream
      | id -> id
    in
    if id = Array.length acc.triple_counts then begin
      let grown = Array.make (max 32 (2 * id)) 0 in
      Array.blit acc.triple_counts 0 grown 0 id;
      acc.triple_counts <- grown
    end;
    acc.triple_counts.(id) <- acc.triple_counts.(id) + 1

  let add static acc (s : Sample_db.lbr_sample) =
    let n = Array.length s.entries in
    if n >= 2 then begin
      acc.snapshots <- acc.snapshots + 1;
      bump_by acc.base.entry0 s.entries.(0).Hbbp_cpu.Lbr.src 1;
      acc.deep_total <- acc.deep_total + (n - 1);
      for k = 1 to n - 1 do
        let stream =
          Stream_walk.Memo.intern acc.streams static
            ~target:s.entries.(k - 1).Hbbp_cpu.Lbr.tgt
            ~src:s.entries.(k).Hbbp_cpu.Lbr.src
        in
        count_triple acc ~owner:s.entries.(k - 1).Hbbp_cpu.Lbr.src stream
      done
    end

  (* The carried-over tallies plus every triple count.  Fresh tables. *)
  let expand acc =
    let b = acc.base in
    let x =
      {
        entry0 = Hashtbl.copy b.entry0;
        deep = Hashtbl.copy b.deep;
        adjacent = Hashtbl.copy b.adjacent;
        failed = Hashtbl.copy b.failed;
        seen = Hashtbl.copy b.seen;
      }
    in
    for id = 0 to Pair_table.length acc.triples - 1 do
      let c = acc.triple_counts.(id) in
      let owner = Pair_table.fst acc.triples id
      and stream = Pair_table.snd acc.triples id in
      let target = Stream_walk.Memo.target acc.streams stream
      and src = Stream_walk.Memo.src acc.streams stream in
      bump_by x.deep src c;
      bump_by x.adjacent owner c;
      (match Stream_walk.Memo.result acc.streams stream with
      | Stream_walk.Blocks _ -> ()
      | Stream_walk.Inconsistent | Stream_walk.Bad -> bump_by x.failed owner c);
      Hashtbl.replace x.seen (owner, target, src) ()
    done;
    x

  let merge a b =
    let xa = expand a and xb = expand b in
    let sum src dst = Hashtbl.iter (fun key n -> bump_by dst key n) src in
    sum xb.entry0 xa.entry0;
    sum xb.deep xa.deep;
    sum xb.adjacent xa.adjacent;
    sum xb.failed xa.failed;
    Hashtbl.iter (fun t () -> Hashtbl.replace xa.seen t ()) xb.seen;
    of_tallies xa
      ~snapshots:(a.snapshots + b.snapshots)
      ~deep_total:(a.deep_total + b.deep_total)

  let distinct_streams acc =
    let streams = Hashtbl.create 256 in
    Hashtbl.iter
      (fun (_, target, src) () -> Hashtbl.replace streams (target, src) ())
      (expand acc).seen;
    Hashtbl.length streams

  (* Checkpoint support.  Tables export as key-sorted assoc lists, so
     the serialized form is deterministic however the table was
     populated; [finalize] sorts its stats anyway, and contamination
     only sets flags, so import order cannot perturb results. *)
  type repr = {
    r_entry0 : (int * int) list;
    r_deep : (int * int) list;
    r_adjacent : (int * int) list;
    r_failed : (int * int) list;
    r_triples : (int * int * int) list;
    r_snapshots : int;
    r_deep_total : int;
  }

  let sorted_keys table =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) table [])

  let sorted_bindings table =
    List.map (fun k -> (k, Hashtbl.find table k)) (sorted_keys table)

  let table_of_bindings bindings =
    let t = Hashtbl.create (max 16 (List.length bindings)) in
    List.iter (fun (k, v) -> Hashtbl.replace t k v) bindings;
    t

  let export acc =
    let x = expand acc in
    {
      r_entry0 = sorted_bindings x.entry0;
      r_deep = sorted_bindings x.deep;
      r_adjacent = sorted_bindings x.adjacent;
      r_failed = sorted_bindings x.failed;
      r_triples = sorted_keys x.seen;
      r_snapshots = acc.snapshots;
      r_deep_total = acc.deep_total;
    }

  let import r =
    of_tallies
      {
        entry0 = table_of_bindings r.r_entry0;
        deep = table_of_bindings r.r_deep;
        adjacent = table_of_bindings r.r_adjacent;
        failed = table_of_bindings r.r_failed;
        seen = table_of_bindings (List.map (fun t -> (t, ())) r.r_triples);
      }
      ~snapshots:r.r_snapshots ~deep_total:r.r_deep_total
end

let finalize ?(params = default_params) static (acc : Acc.acc) =
  let x = Acc.expand acc in
  let flags = Array.make (Static.total_blocks static) false in
  let flagged_srcs = Hashtbl.create 16 in
  let stats = ref [] in
  if acc.Acc.snapshots >= params.min_snapshots then
    Hashtbl.iter
      (fun src entry0_count ->
        let deep_count =
          Option.value ~default:0 (Hashtbl.find_opt x.Acc.deep src)
        in
        let entry0_share =
          float_of_int entry0_count /. float_of_int acc.Acc.snapshots
        in
        let deep_share =
          if acc.Acc.deep_total = 0 then 0.0
          else float_of_int deep_count /. float_of_int acc.Acc.deep_total
        in
        let adjacent_streams =
          Option.value ~default:0 (Hashtbl.find_opt x.Acc.adjacent src)
        in
        let failed_streams =
          Option.value ~default:0 (Hashtbl.find_opt x.Acc.failed src)
        in
        stats :=
          { src; entry0_count; deep_count; entry0_share; deep_share;
            adjacent_streams; failed_streams }
          :: !stats;
        let entry0_symptom =
          entry0_count >= params.min_entry0
          && entry0_share >= params.min_entry0_share
          && entry0_share > params.share_factor *. deep_share
        in
        let failure_symptom =
          failed_streams >= params.min_failures
          && adjacent_streams > 0
          && float_of_int failed_streams /. float_of_int adjacent_streams
             > params.failure_rate
        in
        if entry0_symptom || failure_symptom then begin
          Hashtbl.replace flagged_srcs src ();
          match Static.find static src with
          | Some gid -> flags.(gid) <- true
          | None -> ()
        end)
      x.Acc.entry0;
  (* Contamination spreads beyond the anomalous branch itself: every
     count whose supporting stream is ADJACENT to a record of a flagged
     branch (ends at its source, or starts at its target) is suspect.
     Flag the blocks those streams visit, so HBBP can route the whole
     neighbourhood away from LBR data. *)
  let flag_forward_from addr limit =
    (* Flag the layout neighbourhood following [addr] — used when a
       suspect stream cannot even be walked. *)
    match Static.find_starting static addr with
    | None -> ()
    | Some gid0 ->
        let rec go gid k =
          if k < limit then begin
            flags.(gid) <- true;
            match Static.next_in_layout static gid with
            | Some next -> go next (k + 1)
            | None -> ()
          end
        in
        go gid0 0
  in
  let flag_walk ~target ~src =
    match Stream_walk.walk static ~target ~src with
    | Stream_walk.Blocks gids ->
        List.iter (fun gid -> flags.(gid) <- true) gids
    | Stream_walk.Inconsistent | Stream_walk.Bad ->
        flag_forward_from target 4;
        Option.iter
          (fun gid -> flags.(gid) <- true)
          (Static.find static src)
  in
  (* Every stream adjacent to a record of a flagged branch: the stream
     ending at that record (a triple whose [src] is flagged) and the one
     starting at its target (a triple whose owner is flagged).  Flags
     only accumulate, so visiting each distinct triple once flags
     exactly what walking every snapshot would. *)
  if Hashtbl.length flagged_srcs > 0 then
    Hashtbl.iter
      (fun (owner, target, src) () ->
        if Hashtbl.mem flagged_srcs owner || Hashtbl.mem flagged_srcs src then
          flag_walk ~target ~src)
      x.Acc.seen;
  (* One hop along static control flow: a suspect stream's distortion
     spills onto the blocks its endpoints branch to. *)
  if Hashtbl.length flagged_srcs > 0 then begin
    let seed = Array.copy flags in
    Array.iteri
      (fun gid is_flagged ->
        if is_flagged then begin
          let _, _, block = Static.block static gid in
          let flag_target addr =
            Option.iter
              (fun g -> flags.(g) <- true)
              (Static.find_starting static addr)
          in
          match block.Hbbp_program.Basic_block.term with
          | Hbbp_program.Basic_block.Term_jump a -> flag_target a
          | Hbbp_program.Basic_block.Term_cond a ->
              flag_target a;
              Option.iter
                (fun g -> flags.(g) <- true)
                (Static.next_in_layout static gid)
          | Hbbp_program.Basic_block.Term_fallthrough ->
              Option.iter
                (fun g -> flags.(g) <- true)
                (Static.next_in_layout static gid)
          | Hbbp_program.Basic_block.Term_call _
          | Hbbp_program.Basic_block.Term_indirect_jump
          | Hbbp_program.Basic_block.Term_ret
          | Hbbp_program.Basic_block.Term_syscall
          | Hbbp_program.Basic_block.Term_sysret
          | Hbbp_program.Basic_block.Term_halt ->
              ()
        end)
      seed
  end;
  (* Deterministic order regardless of hashtable history (direct build
     vs shard merges): share descending, then source address. *)
  let stats =
    List.sort
      (fun a b ->
        match compare b.entry0_share a.entry0_share with
        | 0 -> compare a.src b.src
        | c -> c)
      !stats
  in
  { flags; stats; snapshots = acc.Acc.snapshots }

let detect ?params static samples =
  let acc = Acc.create () in
  Array.iter (Acc.add static acc) samples;
  finalize ?params static acc

let flagged_blocks t =
  let out = ref [] in
  Array.iteri (fun gid f -> if f then out := gid :: !out) t.flags;
  List.rev !out
