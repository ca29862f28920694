(* Resumable collection and analysis.

   Collection: `collect_sharded` is `collect + save_sharded` with a
   progressive manifest and per-shard byte comparison, so an
   interrupted run re-publishes only what is missing or torn — and a
   complete verified manifest skips the collection entirely.
   Correctness rests on determinism: a collection is a pure function
   of (workload, config), so re-collected shard bytes are identical
   to what the interrupted run would have written.

   Analysis: `analyze_archives` is Pipeline.analyze_archives with a
   checkpoint after every consumed archive.  Partials merge
   associatively over integers, so restoring the merged prefix and
   folding the remaining archives finalizes byte-identically to an
   uninterrupted run. *)

open Hbbp_analyzer
open Hbbp_collector
module Durable = Hbbp_durable.Durable
module Metrics = Hbbp_telemetry.Metrics

exception Interrupted

let () =
  Printexc.register_printer (function
    | Interrupted -> Some "Recover.Interrupted"
    | _ -> None)

let c name n = Metrics.add (Metrics.counter name) n

(* ------------------------------------------------------------------ *)
(* Resumable sharded collection                                        *)

type shard_status = Reused | Written

let shard_paths ~shards ~path =
  if shards = 1 then [ path ]
  else List.init shards (fun i -> Perf_data.shard_path path i shards)

(* All shards the manifest names verify on disk and the set is
   complete for the requested sharding. *)
let manifest_complete ~dir ~shards m =
  m.Manifest.complete && m.Manifest.shards = shards
  && List.length m.Manifest.written = shards
  && List.for_all (Manifest.shard_ok ~dir) m.Manifest.written

let collect_sharded ?config ?(resume = false)
    ?(should_stop = fun () -> false) ?(inter_shard_delay_s = 0.0) ~shards
    ~path (w : Workload.t) =
  if shards < 1 then invalid_arg "Recover.collect_sharded: shards < 1";
  let dir = Filename.dirname path in
  let paths = shard_paths ~shards ~path in
  let fast_path =
    if not resume then None
    else
      match Manifest.load ~archive_path:path with
      | Some (Ok m) when manifest_complete ~dir ~shards m -> Some m
      | Some (Ok _) | Some (Error _) | None -> None
  in
  match fast_path with
  | Some _ ->
      (* The previous run finished publishing: nothing to redo. *)
      c "recover.manifest_hits" 1;
      c "recover.shards_reused" shards;
      (paths, List.map (fun _ -> Reused) paths)
  | None ->
      if resume then begin
        c "recover.resumes" 1;
        (* Interrupted writes may have left staging files behind. *)
        List.iter
          (fun p -> ignore (Durable.remove_stale ~path:p))
          (path :: Manifest.path_for path :: paths)
      end;
      let archive = Pipeline.collect_archive ?config w in
      let parts = Perf_data.sharded_bytes archive ~shards ~path in
      let written = ref [] in
      let save_manifest ~complete =
        Manifest.save
          {
            Manifest.label = w.Workload.name;
            shards;
            written = List.rev !written;
            complete;
          }
          ~archive_path:path
      in
      let statuses =
        List.mapi
          (fun i (p, data) ->
            if should_stop () then begin
              save_manifest ~complete:false;
              raise Interrupted
            end;
            if inter_shard_delay_s > 0.0 && i > 0 then
              Unix.sleepf inter_shard_delay_s;
            let status =
              let reusable =
                resume
                &&
                match In_channel.with_open_bin p In_channel.input_all with
                | exception Sys_error _ -> false
                | existing -> String.equal existing (Bytes.to_string data)
              in
              if reusable then begin
                c "recover.shards_reused" 1;
                Reused
              end
              else begin
                Durable.write_bytes ~path:p data;
                if resume then c "recover.shards_rewritten" 1;
                Written
              end
            in
            written :=
              Manifest.shard_of_bytes ~index:i ~file:(Filename.basename p)
                data
              :: !written;
            save_manifest ~complete:false;
            status)
          parts
      in
      save_manifest ~complete:true;
      (paths, statuses)

(* ------------------------------------------------------------------ *)
(* Checkpointed streaming analysis                                     *)

let default_checkpoint_every = 1

(* [prefix_of done_paths paths] — [Some rest] when [done_paths] is a
   prefix of [paths] (the checkpoint matches this invocation). *)
let rec prefix_of done_paths paths =
  match (done_paths, paths) with
  | [], rest -> Some rest
  | d :: ds, p :: ps when String.equal d p -> prefix_of ds ps
  | _ -> None

let analyze_archives ?criteria ?thresholds ?repair ?chunk_records
    ?(checkpoint_every = default_checkpoint_every) ?(resume = false)
    ?(should_stop = fun () -> false) ~checkpoint paths =
  if paths = [] then invalid_arg "Recover.analyze_archives: no archives";
  if checkpoint_every < 1 then
    invalid_arg "Recover.analyze_archives: checkpoint_every < 1";
  let ( let* ) = Result.bind in
  (* Metadata and the shared static view always come from the first
     archive, resumed or not — restore needs the same static instance
     every partial merges against. *)
  let first = List.hd paths in
  let* meta0 =
    Result.map_error
      (Format.asprintf "%s: %a" first Perf_data.pp_error)
      (Perf_data.read_meta first)
  in
  let static = Static.create_exn (Perf_data.analysis_process meta0) in
  (* A checkpoint is trusted only when it loads cleanly, restores
     cleanly, and names a prefix of the requested paths; anything else
     falls back to a full run (a resume must never produce different
     bytes than the uninterrupted analysis). *)
  let restored =
    if not resume then None
    else
      match Checkpoint.load ~path:checkpoint with
      | None -> None
      | Some (Error _) -> None
      | Some (Ok ck) -> (
          match prefix_of ck.Checkpoint.done_paths paths with
          | None -> None
          | Some rest -> (
              match ck.Checkpoint.done_paths with
              | [] -> None
              | _ -> (
                  match
                    Pipeline.Partial.restore ~static ck.Checkpoint.partial
                  with
                  | Error _ -> None
                  | Ok p ->
                      c "checkpoint.restores" 1;
                      Some (ck.Checkpoint.done_paths, p, rest))))
  in
  let done_rev, merged, rest =
    match restored with
    | Some (done_paths, p, rest) -> (List.rev done_paths, Some p, rest)
    | None -> ([], None, paths)
  in
  let done_rev = ref done_rev and merged = ref merged in
  let since_checkpoint = ref 0 in
  let save_checkpoint () =
    match !merged with
    | None -> ()
    | Some p ->
        Checkpoint.save
          {
            Checkpoint.done_paths = List.rev !done_rev;
            partial = Pipeline.Partial.serialize p;
          }
          ~path:checkpoint;
        since_checkpoint := 0
  in
  let* () =
    List.fold_left
      (fun acc path ->
        let* () = acc in
        if should_stop () then begin
          save_checkpoint ();
          raise Interrupted
        end;
        let* _, p =
          Pipeline.stream_archive ?chunk_records ~shared:(meta0, static) path
        in
        (merged :=
           match !merged with
           | None -> Some p
           | Some m -> Some (Pipeline.Partial.merge m p));
        done_rev := path :: !done_rev;
        incr since_checkpoint;
        if !since_checkpoint >= checkpoint_every then save_checkpoint ();
        Ok ())
      (Ok ()) rest
  in
  match !merged with
  | None -> Error "no archives were analyzed"
  | Some m ->
      let r = Pipeline.finalize ?criteria ?thresholds ?repair m in
      Checkpoint.remove ~path:checkpoint;
      Ok (meta0, r)
