type t = {
  bbec : Bbec.t;
  weight : float array;
  period : int;
  snapshots : int;
  usable_streams : int;
  inconsistent_streams : int;
  discarded_streams : int;
}

(* Mergeable accumulator.  A snapshot with [k] usable streams
   contributes 1/k per visited block, which is float arithmetic — and
   float sums are not associative, so merging finalized weights would
   not be bit-stable across shard splits.  Instead the accumulator keeps
   the state in the integer domain: one visit-tally row per snapshot
   stream count [k] ([by_k.(k).(gid)] = block visits from k-stream
   snapshots).  Integer rows merge exactly (associative and
   commutative), and [finalize] converts rows to weights in a fixed
   order (ascending k), so any partition of the snapshot stream yields
   bit-identical results.

   A snapshot repeats the same few hundred streams many thousand times,
   so [add] does not walk them: it interns each stream's (target, src)
   pair ({!Stream_walk.Memo}, one walk per distinct stream) and counts
   per (k, stream id).  [expand] spreads those counts over the blocks
   each stream visits, giving exactly the per-block rows a walk per
   stream would have tallied; [export], [merge] and [finalize] read the
   expanded rows. *)
module Acc = struct
  type acc = {
    total_blocks : int;
    streams : Stream_walk.Memo.memo;
    mutable counts : int array array;
        (** [counts.(k).(id)]: usable stream [id] seen in a snapshot with
            [k] usable streams; row [||] = no such snapshot. *)
    mutable by_k : int array array;
        (** Expanded rows carried over by [import] and [merge]. *)
    mutable ids : int array;  (** Scratch: one snapshot's usable ids. *)
    mutable snapshots : int;
    mutable usable : int;
    mutable inconsistent : int;
    mutable discarded : int;
  }

  let create static =
    {
      total_blocks = Static.total_blocks static;
      streams = Stream_walk.Memo.create ();
      counts = [||];
      by_k = [||];
      ids = [||];
      snapshots = 0;
      usable = 0;
      inconsistent = 0;
      discarded = 0;
    }

  (* Row [k] of [counts], long enough for every interned id. *)
  let count_row acc k =
    if k >= Array.length acc.counts then begin
      let grown = Array.make (k + 1) [||] in
      Array.blit acc.counts 0 grown 0 (Array.length acc.counts);
      acc.counts <- grown
    end;
    let row = acc.counts.(k) in
    let ids = Stream_walk.Memo.length acc.streams in
    if Array.length row >= ids then row
    else begin
      let grown = Array.make (max 32 (2 * ids)) 0 in
      Array.blit row 0 grown 0 (Array.length row);
      acc.counts.(k) <- grown;
      grown
    end

  let add static acc (s : Sample_db.lbr_sample) =
    acc.snapshots <- acc.snapshots + 1;
    let n = Array.length s.entries in
    if n >= 2 then begin
      (* Classify the snapshot's streams first, then count the usable
         ones under the snapshot's usable-stream count (its weight is
         1/k, = 1/(N-1) when all N-1 are usable, the paper's
         weighting). *)
      if Array.length acc.ids < n then acc.ids <- Array.make n 0;
      let k = ref 0 in
      for idx = 1 to n - 1 do
        let id =
          Stream_walk.Memo.intern acc.streams static
            ~target:s.entries.(idx - 1).Hbbp_cpu.Lbr.tgt
            ~src:s.entries.(idx).Hbbp_cpu.Lbr.src
        in
        match Stream_walk.Memo.result acc.streams id with
        | Stream_walk.Blocks _ ->
            acc.ids.(!k) <- id;
            incr k
        | Stream_walk.Inconsistent -> acc.inconsistent <- acc.inconsistent + 1
        | Stream_walk.Bad -> acc.discarded <- acc.discarded + 1
      done;
      let k = !k in
      acc.usable <- acc.usable + k;
      if k > 0 then begin
        let row = count_row acc k in
        for i = 0 to k - 1 do
          let id = acc.ids.(i) in
          row.(id) <- row.(id) + 1
        done
      end
    end

  (* The per-block rows: the carried-over rows plus every stream count
     spread over the blocks its walk visits.  Fresh arrays. *)
  let expand acc =
    let pick rows k = if k < Array.length rows then rows.(k) else [||] in
    Array.init
      (max (Array.length acc.by_k) (Array.length acc.counts))
      (fun k ->
        let base = pick acc.by_k k and counts = pick acc.counts k in
        if Array.length counts = 0 then Array.copy base
        else begin
          let r =
            if Array.length base = 0 then Array.make acc.total_blocks 0
            else Array.copy base
          in
          Array.iteri
            (fun id c ->
              if c > 0 then
                match Stream_walk.Memo.result acc.streams id with
                | Stream_walk.Blocks gids ->
                    List.iter (fun gid -> r.(gid) <- r.(gid) + c) gids
                | Stream_walk.Inconsistent | Stream_walk.Bad -> ())
            counts;
          r
        end)

  let of_rows ~total_blocks by_k ~snapshots ~usable ~inconsistent ~discarded
      =
    {
      total_blocks;
      streams = Stream_walk.Memo.create ();
      counts = [||];
      by_k;
      ids = [||];
      snapshots;
      usable;
      inconsistent;
      discarded;
    }

  let merge a b =
    if a.total_blocks <> b.total_blocks then
      invalid_arg "Lbr_estimator.Acc.merge: block count mismatch";
    let ra = expand a and rb = expand b in
    let pick rows k = if k < Array.length rows then rows.(k) else [||] in
    let by_k =
      Array.init (max (Array.length ra) (Array.length rb)) (fun k ->
          match (pick ra k, pick rb k) with
          | [||], r | r, [||] -> r
          | x, y -> Array.init a.total_blocks (fun g -> x.(g) + y.(g)))
    in
    of_rows ~total_blocks:a.total_blocks by_k
      ~snapshots:(a.snapshots + b.snapshots) ~usable:(a.usable + b.usable)
      ~inconsistent:(a.inconsistent + b.inconsistent)
      ~discarded:(a.discarded + b.discarded)

  (* Checkpoint support: integer state only, so the round trip is
     exact.  Empty rows stay empty (length 0), preserving the sparse
     representation [merge] and [finalize] rely on. *)
  type repr = {
    r_total_blocks : int;
    r_by_k : int array array;
    r_snapshots : int;
    r_usable : int;
    r_inconsistent : int;
    r_discarded : int;
  }

  let export acc =
    {
      r_total_blocks = acc.total_blocks;
      r_by_k = expand acc;
      r_snapshots = acc.snapshots;
      r_usable = acc.usable;
      r_inconsistent = acc.inconsistent;
      r_discarded = acc.discarded;
    }

  let import r =
    of_rows ~total_blocks:r.r_total_blocks
      (Array.map Array.copy r.r_by_k)
      ~snapshots:r.r_snapshots ~usable:r.r_usable
      ~inconsistent:r.r_inconsistent ~discarded:r.r_discarded
end

let finalize _static ~period (acc : Acc.acc) =
  let weight = Array.make acc.Acc.total_blocks 0.0 in
  Array.iteri
    (fun k r ->
      if Array.length r > 0 then begin
        let w = 1.0 /. float_of_int k in
        Array.iteri
          (fun gid n ->
            if n > 0 then weight.(gid) <- weight.(gid) +. (float_of_int n *. w))
          r
      end)
    (Acc.expand acc);
  let bbec = Bbec.create Bbec.Lbr acc.Acc.total_blocks in
  Array.iteri
    (fun gid w -> bbec.Bbec.counts.(gid) <- w *. float_of_int period)
    weight;
  {
    bbec;
    weight;
    period;
    snapshots = acc.Acc.snapshots;
    usable_streams = acc.Acc.usable;
    inconsistent_streams = acc.Acc.inconsistent;
    discarded_streams = acc.Acc.discarded;
  }

let estimate static ~period samples =
  let acc = Acc.create static in
  Array.iter (Acc.add static acc) samples;
  finalize static ~period acc
