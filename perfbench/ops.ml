(* The three workloads: what set-up prepares, one operation as a user of
   the program calls it (the untraced run), the same operation composed
   from the public calls it makes with a span around each (the traced
   run), and the extra attribution calls made outside the reconciled sum
   ("alone" calls). *)

open Hbbp_core
module Machine = Hbbp_cpu.Machine
module Pmu = Hbbp_cpu.Pmu
module Pmu_event = Hbbp_cpu.Pmu_event
module Session = Hbbp_collector.Session
module Perf_data = Hbbp_collector.Perf_data
module Period = Hbbp_collector.Period
module Record = Hbbp_collector.Record
module Durable = Hbbp_durable.Durable
module Sde = Hbbp_instrument.Sde
module Static = Hbbp_analyzer.Static
module Bbec = Hbbp_analyzer.Bbec
module Mix = Hbbp_analyzer.Mix
module Sample_db = Hbbp_analyzer.Sample_db
module Ebs = Hbbp_analyzer.Ebs_estimator
module Lbr = Hbbp_analyzer.Lbr_estimator
module Bias = Hbbp_analyzer.Bias
module Flow = Hbbp_verifier.Flow
module Repair = Hbbp_verifier.Repair

type kind = Profile | Collect | Analyze

let kinds = [ ("profile", Profile); ("collect", Collect); ("analyze", Analyze) ]

(* Layer spans whose self times must add up to an operation's wall time
   on each workload; every other span is an alone call. *)
let real_path = function
  | Profile ->
      [
        "analyzer.static_s";
        "cpu.exec_s";
        "collector.records_s";
        "core.feed_s";
        "core.finalize_s";
        "instrument.reference_s";
      ]
  | Collect ->
      [ "cpu.exec_s"; "collector.package_s"; "collector.encode_s"; "durable.publish_s" ]
  | Analyze ->
      [
        "collector.decode_s";
        "analyzer.static_s";
        "core.feed_s";
        "core.merge_s";
        "core.finalize_s";
      ]

let config ~seed =
  let c = Pipeline.default_config in
  { c with Pipeline.model = { c.Pipeline.model with seed } }

let work_dir = ".perfbench_work"
let sub_dir name = Filename.concat work_dir name

let archive_path dir (program : string) =
  Filename.concat (sub_dir dir) (program ^ ".hbbp")

(* [analyze] also reads [hello]'s archive as 4 shards in one call. *)
let shard_program = "hello"
let shards = 4
let shard_base () = Filename.concat (sub_dir "analyze") "hello-shards.hbbp"

let shard_paths () =
  List.init shards (fun i -> Perf_data.shard_path (shard_base ()) i shards)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let workloads () = List.map Hbbp_workloads.Registry.find Hbbp_workloads.Registry.names

let machine_run (cfg : Pipeline.config) (w : Workload.t) observers =
  let m = Machine.create ~process:w.live_process ~engine:cfg.engine () in
  List.iter (Machine.add_observer m) observers;
  Machine.run m ~entry:w.entry ~max_instructions:cfg.max_instructions ()

let sampling_session (cfg : Pipeline.config) (w : Workload.t) =
  Session.configure cfg.model (Period.simulation w.runtime_class)

let counting_pmu (cfg : Pipeline.config) =
  Pmu.create cfg.model
    (List.map (fun event -> { Pmu.event; mode = Pmu.Counting }) cfg.count_events)

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)

(* What one collection of one program did, recorded at set-up for the
   workloads whose timed operation does not execute the program. *)
type facts = {
  program : string;
  stats : Machine.run_stats;
  pmis : int;
  lbr_snapshots : int;
  overhead : float;  (** Modelled collection overhead, a fraction. *)
}

let facts_of (cfg : Pipeline.config) (w : Workload.t) stats ~pmis ~lbr_snapshots =
  {
    program = w.name;
    stats;
    pmis;
    lbr_snapshots;
    overhead =
      Session.overhead_fraction ~paper:(Period.paper w.runtime_class) ~stats
        ~model:cfg.model;
  }

(* One set-up.  [profile] only builds the workloads.  [collect] also
   counts each program's instructions with the bare executor, since
   [Pipeline.collect_archive] does not return its run statistics.
   [analyze] collects and publishes every archive it will read, plus
   [hello]'s archive as shards. *)
let setup kind cfg =
  let ws = workloads () in
  match kind with
  | Profile -> []
  | Collect ->
      List.map
        (fun w -> facts_of cfg w (machine_run cfg w []) ~pmis:0 ~lbr_snapshots:0)
        ws
  | Analyze ->
      mkdir_p (sub_dir "analyze");
      List.map
        (fun (w : Workload.t) ->
          let session = sampling_session cfg w in
          let stats = machine_run cfg w [ Pmu.observer (Session.pmu session) ] in
          let archive =
            Perf_data.of_session ~workload_name:w.name ~session
              ~analysis:w.analysis_process ~live:w.live_process
          in
          Perf_data.save archive ~path:(archive_path "analyze" w.name);
          if w.name = shard_program then
            ignore (Perf_data.save_sharded archive ~shards ~path:(shard_base ()));
          let h = Pmu.health (Session.pmu session) in
          facts_of cfg w stats ~pmis:h.Pmu.pmi_count
            ~lbr_snapshots:h.Pmu.lbr_snapshots)
        ws

let write_facts path facts =
  Durable.write_file ~fsync:false ~path
    (String.concat ""
       (List.map
          (fun f ->
            Printf.sprintf "%s %d %d %d %d %d %d %h\n" f.program f.stats.retired
              f.stats.cycles f.stats.taken_branches f.stats.kernel_retired f.pmis
              f.lbr_snapshots f.overhead)
          facts))

let read_facts path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.map (fun line ->
         Scanf.sscanf line "%s %d %d %d %d %d %d %h"
           (fun program retired cycles taken_branches kernel_retired pmis
                lbr_snapshots overhead ->
             {
               program;
               stats = { Machine.retired; cycles; taken_branches; kernel_retired };
               pmis;
               lbr_snapshots;
               overhead;
             }))

(* ------------------------------------------------------------------ *)
(* Outputs                                                             *)

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))
let quality_string q = Format.asprintf "%a" Pipeline.pp_quality q

let profile_digest ~stats ~(hbbp : Bbec.t) ~quality ~(reference : Bbec.t) ~records =
  digest (stats, hbbp.counts, quality_string quality, reference.counts, records)

let reconstruction_digest (r : Pipeline.reconstruction) =
  digest
    ( r.r_hbbp.counts,
      quality_string r.r_quality,
      Pipeline.Partial.record_count r.r_partial )

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)

(* What one operation reports.  [digest] is forced after the operation's
   timer stops. *)
type result = { retired : int; overhead : float; digest : string Lazy.t }

type target = {
  label : string;
  run : unit -> result;
  traced : Span.t -> Tally.t -> expected:string -> unit;
      (** The composed operation; records spans and counts, and fails
          when its output differs from [expected]. *)
}

let mismatch label what = failwith (Printf.sprintf "%s: %s differs" label what)

let allocated () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let with_alloc f =
  let a0 = allocated () in
  let v = f () in
  (v, allocated () -. a0)

(* ---- pieces of [Pipeline] the composed operations repeat ---------- *)

(* The user-mode block maps SDE instruments. *)
let user_maps static =
  List.filter_map
    (fun (img : Hbbp_program.Image.t) ->
      if Hbbp_program.Ring.equal img.ring Hbbp_program.Ring.User then
        Static.map_of_image static img.name
      else None)
    (Hbbp_program.Process.images (Static.process static))

let feed_into sp (tally : Tally.t) partial chunk =
  let (), words =
    with_alloc (fun () ->
        Span.with_span sp "core.feed_s" (fun () -> Pipeline.Partial.feed partial chunk))
  in
  tally.feed_words <- tally.feed_words +. words;
  tally.fed_records <- tally.fed_records + List.length chunk

(* The EBS and LBR samples of a record stream, in stream order. *)
let samples records =
  List.fold_right
    (fun (r : Record.t) (ebs, lbr) ->
      match r with
      | Record.Sample s
        when Pmu_event.equal s.event Pmu_event.Inst_retired_prec_dist ->
          ({ Sample_db.ip = s.ip; ring = s.ring } :: ebs, lbr)
      | Record.Sample s
        when Pmu_event.equal s.event Pmu_event.Br_inst_retired_near_taken ->
          (ebs, { Sample_db.entries = s.lbr; ring = s.ring } :: lbr)
      | _ -> (ebs, lbr))
    records ([], [])

let repair_weights ~criteria (r : Pipeline.reconstruction) =
  let static = r.r_static in
  Repair.confidence
    ~use_ebs:
      (Array.map
         (function Criteria.Use_ebs -> true | Criteria.Use_lbr -> false)
         (Combine.decisions static ~criteria ~bias:r.r_bias ~ebs:r.r_ebs
            ~lbr:r.r_lbr))
    ~ebs_raw:r.r_ebs.raw ~lbr_weight:r.r_lbr.weight (Static.total_blocks static)

let read_records path =
  match Perf_data.load ~path with
  | Ok { archive; _ } -> archive.records
  | Error e -> failwith (Format.asprintf "%s: %a" path Perf_data.pp_error e)

(* Armed execution on the real path: time, allocation and counts. *)
let exec sp (tally : Tally.t) f =
  let stats, words = with_alloc (fun () -> Span.with_span sp "cpu.exec_s" f) in
  tally.exec_words <- tally.exec_words +. words;
  Tally.add_stats tally stats;
  stats

let alone sp name f = Span.with_span sp name f

(* Alone executions: each is a fresh [Machine.run] with one observer set,
   checked against the statistics of the operation's own execution. *)
let alone_executions sp cfg (w : Workload.t) ~stats runs =
  List.iter
    (fun (name, observers) ->
      let observers = observers () in
      if alone sp name (fun () -> machine_run cfg w observers) <> stats then
        mismatch w.name (name ^ " run statistics"))
    runs

let bare_run = ("cpu.bare_s", fun () -> [])

let sampling_run cfg w =
  ( "cpu.pmu_sampling_s",
    fun () -> [ Pmu.observer (Session.pmu (sampling_session cfg w)) ] )

(* EBS, LBR and bias accumulation over the samples of a record stream,
   plus fusion, flow check and repair over its reconstruction. *)
let alone_analysis sp (cfg : Pipeline.config) (tally : Tally.t) ~static records
    (r : Pipeline.reconstruction) =
  let ebs_samples, lbr_samples = samples records in
  alone sp "analyzer.ebs_s" (fun () ->
      let acc = Ebs.Acc.create static in
      List.iter (Ebs.Acc.add static acc) ebs_samples);
  alone sp "analyzer.lbr_s" (fun () ->
      let acc = Lbr.Acc.create static in
      List.iter (Lbr.Acc.add static acc) lbr_samples);
  alone sp "analyzer.bias_s" (fun () ->
      let acc = Bias.Acc.create () in
      List.iter (Bias.Acc.add static acc) lbr_samples);
  let criteria = cfg.criteria in
  ignore
    (alone sp "core.fuse_s" (fun () ->
         Combine.fuse static ~criteria ~bias:r.r_bias ~ebs:r.r_ebs ~lbr:r.r_lbr));
  ignore (alone sp "verifier.flow_s" (fun () -> Flow.check static r.r_hbbp));
  let weights = repair_weights ~criteria r in
  let structure = Flow.structure static in
  ignore
    (alone sp "verifier.repair_s" (fun () ->
         Repair.repair ~weights structure r.r_hbbp));
  Tally.add_reconstruction tally r

(* ---- profile ----------------------------------------------------- *)

let profile_target cfg (w : Workload.t) =
  let run () =
    let p = Pipeline.run ~config:cfg w in
    {
      retired = p.stats.retired;
      overhead = p.collection_overhead;
      digest =
        lazy
          (profile_digest ~stats:p.stats ~hbbp:p.hbbp ~quality:p.quality
             ~reference:p.reference ~records:p.record_count);
    }
  in
  (* [Pipeline.run] as the sequence of public calls it makes. *)
  let traced sp (tally : Tally.t) ~expected =
    let span name f = Span.with_span sp name f in
    let static =
      span "analyzer.static_s" (fun () ->
          let unpatched = Static.create_exn w.analysis_process in
          if w.analysis_process == w.live_process then unpatched
          else Hbbp_analyzer.Kernel_patch.patch_static unpatched ~live:w.live_process)
    in
    let machine = Machine.create ~process:w.live_process ~engine:cfg.engine () in
    let sde = Sde.create cfg.sde (user_maps static) in
    let session = sampling_session cfg w in
    let counting = counting_pmu cfg in
    Machine.add_observer machine (Sde.observer sde);
    Machine.add_observer machine (Pmu.observer (Session.pmu session));
    Machine.add_observer machine (Pmu.observer counting);
    let stats =
      exec sp tally (fun () ->
          Machine.run machine ~entry:w.entry ~max_instructions:cfg.max_instructions ())
    in
    let records =
      span "collector.records_s" (fun () ->
          Session.records session w.live_process ~pid:1 ~name:w.name)
    in
    let partial =
      Pipeline.Partial.create ~static ~ebs_period:(Session.ebs_period session)
        ~lbr_period:(Session.lbr_period session) ()
    in
    feed_into sp tally partial records;
    let r =
      span "core.finalize_s" (fun () ->
          Pipeline.finalize ~criteria:cfg.criteria ~thresholds:cfg.thresholds
            ~repair:cfg.repair ~replay:(fun f -> f records) partial)
    in
    let reference, reference_mix =
      span "instrument.reference_s" (fun () ->
          ( Bbec.of_block_counts static (Sde.block_counts sde),
            Mix.of_histogram (Sde.histogram sde) ))
    in
    Tally.stop_clock tally;
    let got =
      profile_digest ~stats ~hbbp:r.r_hbbp ~quality:r.r_quality ~reference
        ~records:(List.length records)
    in
    if got <> expected then mismatch w.name "traced profile";
    Tally.add_session tally session ~records:(List.length records) ~bytes:0;
    tally.mix_errors <-
      (Error.compare_mixes ~reference:reference_mix
         ~measured:(Mix.mnemonic_totals (Mix.user_only (Mix.of_bbec static r.r_hbbp))))
        .avg_weighted_error
      :: tally.mix_errors;
    (* The sampling-only run is [collect]'s observer set: its statistics
       must agree with [profile]'s. *)
    alone_executions sp cfg w ~stats
      [
        bare_run;
        sampling_run cfg w;
        ("cpu.pmu_counting_s", fun () -> [ Pmu.observer (counting_pmu cfg) ]);
        ( "instrument.sde_s",
          fun () -> [ Sde.observer (Sde.create cfg.sde (user_maps static)) ] );
      ];
    alone_analysis sp cfg tally ~static records r
  in
  { label = w.name; run; traced }

(* ---- collect ----------------------------------------------------- *)

let collect_target cfg (w : Workload.t) (f : facts) =
  let path = archive_path "collect" w.name in
  let run () =
    Perf_data.save (Pipeline.collect_archive ~config:cfg w) ~path;
    {
      retired = f.stats.retired;
      overhead = f.overhead;
      digest = lazy (Digest.to_hex (Digest.file path));
    }
  in
  (* [Pipeline.collect_archive] then [Perf_data.save], as public calls. *)
  let traced sp (tally : Tally.t) ~expected =
    let span name f = Span.with_span sp name f in
    let session = sampling_session cfg w in
    let machine = Machine.create ~process:w.live_process ~engine:cfg.engine () in
    Machine.add_observer machine (Pmu.observer (Session.pmu session));
    let stats =
      exec sp tally (fun () ->
          Machine.run machine ~entry:w.entry ~max_instructions:cfg.max_instructions ())
    in
    let archive =
      span "collector.package_s" (fun () ->
          Perf_data.of_session ~workload_name:w.name ~session
            ~analysis:w.analysis_process ~live:w.live_process)
    in
    let bytes = span "collector.encode_s" (fun () -> Perf_data.to_bytes archive) in
    span "durable.publish_s" (fun () ->
        Durable.write_bytes ~path:(archive_path "traced" w.name) bytes);
    Tally.stop_clock tally;
    if Digest.to_hex (Digest.bytes bytes) <> expected then
      mismatch w.name "traced archive";
    if stats <> f.stats then mismatch w.name "collection run statistics";
    Tally.add_session tally session
      ~records:(List.length archive.records)
      ~bytes:(Bytes.length bytes);
    ignore
      (alone sp "collector.records_s" (fun () ->
           Session.records session w.live_process ~pid:1 ~name:w.name));
    alone_executions sp cfg w ~stats [ bare_run; sampling_run cfg w ]
  in
  { label = w.name; run; traced }

(* ---- analyze ----------------------------------------------------- *)

let analyze_target cfg ~label paths (f : facts) =
  let run () =
    match Pipeline.analyze_archives paths with
    | Ok (_, r) ->
        {
          retired = f.stats.retired;
          overhead = f.overhead;
          digest = lazy (reconstruction_digest r);
        }
    | Error msg -> failwith msg
  in
  (* [Pipeline.analyze_archives] as public calls: stream each archive
     into its own partial, merge, finalize with a replay for the bias
     pass.  Decoding inside the replay is a nested span, so it counts as
     decode, not finalize. *)
  let traced sp (tally : Tally.t) ~expected =
    let span name f = Span.with_span sp name f in
    let open_stream path =
      match span "collector.decode_s" (fun () -> Perf_data.Stream.open_file path) with
      | Ok s -> s
      | Error e -> failwith (Format.asprintf "%s: %a" path Perf_data.pp_error e)
    in
    let rec pump s f =
      match span "collector.decode_s" (fun () -> Perf_data.Stream.next s) with
      | Some chunk ->
          f chunk;
          pump s f
      | None -> ()
    in
    let static = ref None in
    let partial_of path =
      let s = open_stream path in
      Fun.protect
        ~finally:(fun () -> Perf_data.Stream.close s)
        (fun () ->
          let m = Perf_data.Stream.meta s in
          let st =
            match !static with
            | Some st -> st
            | None ->
                let st =
                  span "analyzer.static_s" (fun () ->
                      Static.create_exn (Perf_data.analysis_process m))
                in
                static := Some st;
                st
          in
          let p =
            Pipeline.Partial.create ~static:st ~ebs_period:m.ebs_period
              ~lbr_period:m.lbr_period ()
          in
          pump s (fun chunk -> feed_into sp tally p chunk);
          Pipeline.Partial.note_faults p (Perf_data.Stream.ledger s);
          p)
    in
    let partials = List.map partial_of paths in
    let merged =
      match partials with
      | [ p ] -> p
      | p :: rest ->
          span "core.merge_s" (fun () -> List.fold_left Pipeline.Partial.merge p rest)
      | [] -> assert false
    in
    let replay f =
      List.iter
        (fun path ->
          let s = open_stream path in
          Fun.protect ~finally:(fun () -> Perf_data.Stream.close s) (fun () -> pump s f))
        paths
    in
    let r = span "core.finalize_s" (fun () -> Pipeline.finalize ~replay merged) in
    Tally.stop_clock tally;
    if reconstruction_digest r <> expected then mismatch label "traced analysis";
    Tally.add_stats tally f.stats;
    Tally.add_counts tally ~pmis:f.pmis ~lbr_snapshots:f.lbr_snapshots
      ~records:(Pipeline.Partial.record_count merged)
      ~bytes:(List.fold_left (fun n p -> n + (Unix.stat p).Unix.st_size) 0 paths);
    let records = List.concat_map read_records paths in
    alone_analysis sp cfg tally ~static:(Option.get !static) records r
  in
  { label; run; traced }

(* Every operation of one pass of [kind], in a fixed order. *)
let targets kind cfg ~facts =
  let fact name = List.find (fun f -> f.program = name) facts in
  match kind with
  | Profile -> List.map (profile_target cfg) (workloads ())
  | Collect ->
      mkdir_p (sub_dir "collect");
      mkdir_p (sub_dir "traced");
      List.map (fun (w : Workload.t) -> collect_target cfg w (fact w.name)) (workloads ())
  | Analyze ->
      List.map
        (fun f ->
          analyze_target cfg ~label:f.program [ archive_path "analyze" f.program ] f)
        facts
      @ [
          analyze_target cfg
            ~label:(Printf.sprintf "%s/%d-shards" shard_program shards)
            (shard_paths ()) (fact shard_program);
        ]
