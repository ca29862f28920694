(* Recovery bench: what the resumable analysis driver costs when its
   crash-safety machinery is idle.  Three series over the same sharded
   archive set:

     baseline      Pipeline.analyze_archives        (PR-7 streaming path)
     driver        Recover.analyze_archives, checkpoint cadence beyond
                   the archive count — the resumable driver with zero
                   checkpoints actually saved
     checkpointed  Recover.analyze_archives, checkpoint after every
                   archive — the armed cost, reported but not gated

   CI gate: the idle driver must stay within 1% of the baseline, i.e.
   adding resumability must be free unless you use it.  The overhead is
   the median over interleaved baseline/driver pairs of the per-pair
   time ratio (the order inside a pair alternates), so a burst of host
   noise moves one pair, not the verdict.  Writes BENCH_recovery.json. *)

open Hbbp_core
module Perf_data = Hbbp_collector.Perf_data
module U = Bench_util

let now = Unix.gettimeofday
let pairs = 41
let shards = 4

let run ppf =
  U.header ppf "Recovery: resumable-driver overhead (writes BENCH_recovery.json)";
  (* Largest bundled workload by record volume, so the driver's fixed
     per-invocation cost (one extra header parse of the first shard) is
     amortized against a realistic analysis, not a toy one. *)
  let names = Hbbp_workloads.Registry.names in
  let archives =
    Pipeline.collect_many ~jobs:!U.jobs
      (List.map Hbbp_workloads.Registry.find names)
  in
  let archive =
    List.fold_left
      (fun (best : Perf_data.t) (a : Perf_data.t) ->
        if List.length a.Perf_data.records > List.length best.Perf_data.records
        then a
        else best)
      (List.hd archives) archives
  in
  let path = Filename.temp_file "hbbp-bench-recovery" ".hbbp" in
  let paths = Perf_data.save_sharded archive ~shards ~path in
  let ckpt = path ^ ".ckpt" in
  let identical = ref true in
  let time f =
    Gc.full_major ();
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  in
  let partial_bytes = function
    | Ok ((_ : Perf_data.t), r) ->
        Pipeline.Partial.serialize r.Pipeline.r_partial
    | Error msg -> failwith ("BENCH recovery: " ^ msg)
  in
  let baseline () = partial_bytes (Pipeline.analyze_archives paths) in
  let driver () =
    partial_bytes
      (Recover.analyze_archives ~checkpoint_every:max_int ~checkpoint:ckpt
         paths)
  in
  let checkpointed () =
    partial_bytes
      (Recover.analyze_archives ~checkpoint_every:1 ~checkpoint:ckpt paths)
  in
  (* Untimed warmup of every variant: the first series otherwise pays
     for page-cache population and major-heap growth on behalf of all
     three, skewing the comparison by far more than the 1% gate. *)
  ignore (baseline ());
  ignore (driver ());
  ignore (checkpointed ());
  let runs =
    List.init pairs (fun i ->
        let (base, base_s), (drv, drv_s) =
          if i mod 2 = 0 then
            let b = time baseline in
            (b, time driver)
          else
            let d = time driver in
            (time baseline, d)
        in
        let ckpted, ckpt_s = time checkpointed in
        if not (Bytes.equal base drv && Bytes.equal base ckpted) then
          identical := false;
        if Sys.file_exists ckpt then
          failwith "BENCH recovery: checkpoint survived a successful analysis";
        (base_s, drv_s, ckpt_s))
  in
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths;
  (try Sys.remove (Hbbp_collector.Manifest.path_for path) with Sys_error _ -> ());
  let series f = List.map f runs in
  let median_s f = U.quantile 0.5 (series f) in
  let baseline_s = median_s (fun (b, _, _) -> b)
  and driver_s = median_s (fun (_, d, _) -> d)
  and checkpointed_s = median_s (fun (_, _, c) -> c) in
  let driver_ratios = series (fun (b, d, _) -> (d /. b) -. 1.0) in
  let driver_overhead = U.quantile 0.5 driver_ratios in
  let driver_q1 = U.quantile 0.25 driver_ratios
  and driver_q3 = U.quantile 0.75 driver_ratios in
  let checkpointed_overhead =
    U.quantile 0.5 (series (fun (b, _, c) -> (c /. b) -. 1.0))
  in
  Format.fprintf ppf "archives: %d shards of %s, %d interleaved pairs@." shards
    archive.Perf_data.workload_name pairs;
  Format.fprintf ppf "baseline (Pipeline.analyze_archives): %8.4f s median@."
    baseline_s;
  Format.fprintf ppf
    "idle resumable driver:                %8.4f s  (%+.2f%% median pair, \
     quartiles %+.2f%% .. %+.2f%%)@."
    driver_s (100.0 *. driver_overhead) (100.0 *. driver_q1)
    (100.0 *. driver_q3);
  Format.fprintf ppf "checkpoint every archive:             %8.4f s  (%+.2f%%)@."
    checkpointed_s
    (100.0 *. checkpointed_overhead);
  Format.fprintf ppf "reconstructions byte-identical: %b@." !identical;
  if not !identical then
    failwith "BENCH recovery: resumable driver changed the reconstruction";
  U.write_out "BENCH_recovery.json"
    {|{
  %s,
  "workload": "%s",
  "shards": %d,
  "pairs": %d,
  "baseline_s": %.4f,
  "driver_s": %.4f,
  "checkpointed_s": %.4f,
  "driver_overhead": %.4f,
  "driver_overhead_q1": %.4f,
  "driver_overhead_q3": %.4f,
  "checkpointed_overhead": %.4f,
  "reconstructions_identical": %b
}
|}
    (U.json_header ~bench:"recovery")
    archive.Perf_data.workload_name shards pairs baseline_s driver_s
    checkpointed_s driver_overhead driver_q1 driver_q3 checkpointed_overhead
    !identical;
  Format.fprintf ppf "wrote BENCH_recovery.json@.";
  (* CI gate: resumability you do not use must be free.  The idle driver
     is the same streaming fold plus a should_stop poll per archive —
     a median pair beyond 1% is a real regression of the disarmed
     path. *)
  if driver_overhead > 0.01 then
    failwith
      (Printf.sprintf
         "BENCH recovery: idle resumable-driver overhead %.2f%% (median \
          of %d pairs) exceeds the 1%% budget"
         (100.0 *. driver_overhead) pairs)
