(* Performance trend bench: times the full table sweep at -j 1 vs -j N,
   checks that the parallel profiles are byte-identical to the
   sequential ones, measures executor throughput per engine over a
   representative workload set, bare and with [collect]'s observer set
   armed, and writes the results to
   BENCH_pipeline.json so future PRs have a machine-readable perf
   trajectory. *)

open Hbbp_core
module U = Bench_util

let now = Unix.gettimeofday

(* Byte-identity of everything the tables/figures consume. *)
let profiles_equal (a : Pipeline.profile) (b : Pipeline.profile) =
  compare a.stats b.stats = 0
  && a.clean_cycles = b.clean_cycles
  && compare a.reference.counts b.reference.counts = 0
  && compare a.ebs.Hbbp_analyzer.Ebs_estimator.bbec.counts
       b.ebs.Hbbp_analyzer.Ebs_estimator.bbec.counts
     = 0
  && compare a.lbr.Hbbp_analyzer.Lbr_estimator.bbec.counts
       b.lbr.Hbbp_analyzer.Lbr_estimator.bbec.counts
     = 0
  && compare a.hbbp.counts b.hbbp.counts = 0
  && compare a.reference_mix b.reference_mix = 0
  && compare a.pmu_counts b.pmu_counts = 0
  && compare a.sde_total b.sde_total = 0
  && a.sde_lost_kernel = b.sde_lost_kernel
  && compare a.collection_overhead b.collection_overhead = 0
  && compare a.sde_slowdown b.sde_slowdown = 0
  && compare a.records b.records = 0

let sweep ~jobs entries =
  let t0 = now () in
  let profiles =
    Hbbp_util.Domain_pool.run ~jobs
      (fun ((config, w) : Pipeline.config * Workload.t) ->
        Pipeline.run ~config w)
      entries
  in
  (profiles, now () -. t0)

(* Raw Machine.run bench set: one workload per executor stress axis, so
   engine wins can't be overfit to a single code shape. *)
let machine_workloads () =
  [
    ("mcf", "short blocks, pointer-chasing integer code");
    ("test40", "branch-heavy scientific loop nest");
    ("hello", "syscall-heavy user/kernel ping-pong");
    ("fitter-sse", "SSE vector arithmetic");
  ]
  |> List.map (fun (name, axis) -> (Hbbp_workloads.Registry.find name, axis))

(* The reference loop and the engine every real run uses. *)
let engines = Hbbp_cpu.Machine.[ Legacy; Superblock ]

type engine_run = {
  er_workload : string;
  er_engine : string;
  er_retired : int;
  er_seconds : float;
}

(* [collect]'s observer set: one sampling session PMU at the
   workload's simulation periods. *)
let collect_pmu (w : Workload.t) =
  Hbbp_collector.Session.pmu
    (Hbbp_collector.Session.configure Hbbp_cpu.Pmu_model.default
       (Hbbp_collector.Period.simulation w.Workload.runtime_class))

(* Machine.run throughput per engine, best of three: bare (no
   observers), or [~armed:true] with [collect]'s observer set.  The
   engines' repetitions alternate, so a burst of host noise lands on
   both sides of the ratio.  Also cross-checks that every engine
   returns identical run stats (and, armed, the same PMI count) — the
   cheap always-on slice of the differential suite. *)
let machine_throughput ?(armed = false) () =
  let run_once (w : Workload.t) engine =
    let machine =
      Hbbp_cpu.Machine.create ~process:w.Workload.live_process ~engine ()
    in
    let pmu = if armed then Some (collect_pmu w) else None in
    Option.iter
      (fun pmu ->
        Hbbp_cpu.Machine.add_observer machine (Hbbp_cpu.Pmu.observer pmu))
      pmu;
    let t0 = now () in
    let s = Hbbp_cpu.Machine.run machine ~entry:w.Workload.entry () in
    (now () -. t0, (s, Option.map Hbbp_cpu.Pmu.pmi_count pmu))
  in
  List.concat_map
    (fun ((w : Workload.t), _axis) ->
      let best = Array.make (List.length engines) infinity in
      let outcomes = Array.make (List.length engines) None in
      for _ = 1 to 3 do
        List.iteri
          (fun k engine ->
            let dt, o = run_once w engine in
            if dt < best.(k) then best.(k) <- dt;
            outcomes.(k) <- Some o)
          engines
      done;
      let reference = Option.get outcomes.(0) in
      List.mapi
        (fun k engine ->
          let ((s, _) as o) = Option.get outcomes.(k) in
          if compare reference o <> 0 then
            failwith
              (Printf.sprintf
                 "BENCH pipeline: %s engine diverges from legacy on %s"
                 (Hbbp_cpu.Machine.engine_name engine) w.Workload.name);
          {
            er_workload = w.Workload.name;
            er_engine = Hbbp_cpu.Machine.engine_name engine;
            er_retired = s.Hbbp_cpu.Machine.retired;
            er_seconds = best.(k);
          })
        engines)
    (machine_workloads ())

let rate (r : engine_run) = float_of_int r.er_retired /. r.er_seconds

(* Aggregate retired/s of one engine across the bench set (total work
   over total time, so long workloads aren't drowned out). *)
let engine_rate runs name =
  let sel = List.filter (fun r -> String.equal r.er_engine name) runs in
  let retired = List.fold_left (fun a r -> a + r.er_retired) 0 sel in
  let seconds = List.fold_left (fun a r -> a +. r.er_seconds) 0.0 sel in
  float_of_int retired /. seconds

let run ppf =
  U.header ppf "Pipeline sweep: -j 1 vs -j N (writes BENCH_pipeline.json)";
  let entries = U.sweep_entries () in
  let recommended = Domain.recommended_domain_count () in
  let requested_jobs = max 2 !U.jobs in
  (* An under-provisioned host cannot demonstrate domain scaling: -j 2
     on a 1-domain machine just measures scheduler thrash.  Measure at
     the parallelism the host can actually deliver and say so, instead
     of publishing an apples-to-oranges slowdown. *)
  let oversubscribed = requested_jobs > recommended in
  let par_jobs = max 1 (min requested_jobs recommended) in
  if oversubscribed then
    Format.fprintf ppf
      "warning: host recommends %d domain%s; measuring parallel sweep at -j \
       %d instead of the requested -j %d@."
      recommended
      (if recommended = 1 then "" else "s")
      par_jobs requested_jobs;
  let seq, seq_s = sweep ~jobs:1 entries in
  let par, par_s = sweep ~jobs:par_jobs entries in
  let identical = List.for_all2 profiles_equal seq par in
  let retired =
    List.fold_left
      (fun acc (p : Pipeline.profile) ->
        acc + p.stats.Hbbp_cpu.Machine.retired)
      0 seq
  in
  let speedup = seq_s /. par_s in
  let machine_runs = machine_throughput () in
  let armed_runs = machine_throughput ~armed:true () in
  Format.fprintf ppf "%d workloads, %d retired instructions@."
    (List.length entries) retired;
  Format.fprintf ppf "-j 1: %8.2f s  (%.2fM retired/s)@." seq_s
    (float_of_int retired /. seq_s /. 1e6);
  Format.fprintf ppf "-j %d: %8.2f s  (%.2fM retired/s)  speedup %.2fx@."
    par_jobs par_s
    (float_of_int retired /. par_s /. 1e6)
    speedup;
  Format.fprintf ppf "profiles byte-identical across job counts: %b@."
    identical;
  List.iter
    (fun (label, runs) ->
      List.iter
        (fun r ->
          Format.fprintf ppf
            "Machine.run %-5s %-12s %-10s %9.2fM retired/s  (%d retired, \
             %.4f s)@."
            label r.er_workload r.er_engine (rate r /. 1e6) r.er_retired
            r.er_seconds)
        runs;
      List.iter
        (fun e ->
          let name = Hbbp_cpu.Machine.engine_name e in
          Format.fprintf ppf
            "Machine.run %-5s bench-set aggregate %-10s %9.2fM retired/s@."
            label name
            (engine_rate runs name /. 1e6))
        engines)
    [ ("bare", machine_runs); ("armed", armed_runs) ];
  if not identical then
    failwith "BENCH pipeline: parallel profiles differ from sequential";

  let machine_json runs =
    String.concat ",\n"
      (List.map
         (fun r ->
           Printf.sprintf
             {|    { "workload": "%s", "engine": "%s", "retired": %d, "seconds": %.4f, "retired_per_sec": %.0f }|}
             r.er_workload r.er_engine r.er_retired r.er_seconds (rate r))
         runs)
  in
  let aggregate_json runs =
    String.concat ", "
      (List.map
         (fun e ->
           let name = Hbbp_cpu.Machine.engine_name e in
           Printf.sprintf {|"%s": %.0f|} name (engine_rate runs name))
         engines)
  in
  U.write_out "BENCH_pipeline.json"
    {|{
  %s,
  "oversubscribed": %b,
  "workloads": %d,
  "total_retired": %d,
  "sequential": { "jobs": 1, "seconds": %.3f, "retired_per_sec": %.0f },
  "parallel": { "jobs_requested": %d, "jobs": %d, "seconds": %.3f, "retired_per_sec": %.0f },
  "speedup": %.3f,
  "profiles_identical": %b,
  "machine_run": [
%s
  ],
  "machine_run_retired_per_sec": { %s },
  "machine_run_armed": [
%s
  ],
  "machine_run_armed_retired_per_sec": { %s }
}
|}
    (U.json_header ~bench:"pipeline")
    oversubscribed (List.length entries) retired seq_s
    (float_of_int retired /. seq_s)
    requested_jobs par_jobs par_s
    (float_of_int retired /. par_s)
    speedup identical (machine_json machine_runs) (aggregate_json machine_runs)
    (machine_json armed_runs) (aggregate_json armed_runs);
  Format.fprintf ppf "wrote BENCH_pipeline.json@.";
  (* The sweep already profiled everything: seed the shared cache so any
     targets after this one in the same run are free. *)
  List.iter2
    (fun ((_, w) : Pipeline.config * Workload.t) p ->
      if not (Hashtbl.mem U.cache w.Workload.name) then
        Hashtbl.replace U.cache w.Workload.name p)
    entries seq
