(* Tests for the observability additions: the continuous JSONL metric
   stream (Snapshot), the health rollup (Health), per-worker pool
   timelines, and the doctor's parallel-efficiency attribution. *)

open Hbbp_core
module Trace = Hbbp_telemetry.Trace
module Metrics = Hbbp_telemetry.Metrics
module Snapshot = Hbbp_telemetry.Snapshot
module Health = Hbbp_telemetry.Health
module Pool = Hbbp_util.Domain_pool

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let clean f () =
  let finally () =
    Snapshot.finalize ();
    Trace.disable ();
    Trace.reset ();
    Metrics.disable ();
    Metrics.reset ()
  in
  Fun.protect ~finally f

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !lines

let starts_with ~prefix s = String.starts_with ~prefix s

(* ------------------------------------------------------------------ *)
(* Snapshot stream                                                     *)

let test_stream_seq_and_lines () =
  let path = Filename.temp_file "hbbp-test-stream" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Snapshot.configure ~every_spans:1 ~path ();
      checkb "stream active" true (Snapshot.active ());
      checks "path reported" path (Option.get (Snapshot.path ()));
      checkb "configure enabled metrics" true (Metrics.enabled ());
      (* Span recording stays off: the tick arms the site, not the
         buffers. *)
      checkb "tracing not required" false (Trace.enabled ());
      for _ = 1 to 6 do
        Trace.with_span "pulse" (fun () -> ())
      done;
      checki "one line per span at every_spans=1" 6 (Snapshot.seq ());
      checki "no spans recorded" 0 (Trace.span_count ());
      Snapshot.finalize ();
      checkb "inactive after finalize" false (Snapshot.active ());
      (* File holds every line (6 ticks + the final flush), seq gap-free
         from 0. *)
      let lines = read_lines path in
      checki "all lines on disk" 7 (List.length lines);
      List.iteri
        (fun i line ->
          checkb "gap-free monotonic seq" true
            (starts_with ~prefix:(Printf.sprintf "{\"seq\":%d," i) line);
          checkb "line carries a metrics object" true
            (let sub = "\"metrics\":{" in
             let n = String.length sub and m = String.length line in
             let rec go j =
               j + n <= m && (String.sub line j n = sub || go (j + 1))
             in
             go 0))
        lines;
      (* finalize is idempotent. *)
      Snapshot.finalize ())

let test_stream_interval_emission () =
  let path = Filename.temp_file "hbbp-test-stream" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* Huge span threshold, tiny interval: emission must come from the
         clock, not the span count. *)
      Snapshot.configure ~every_spans:1_000_000 ~interval_s:0.01 ~path ();
      Trace.with_span "warm" (fun () -> ());
      Unix.sleepf 0.02;
      Trace.with_span "late" (fun () -> ());
      checkb "interval drove an emission" true (Snapshot.seq () >= 1);
      Snapshot.finalize ())

let test_stream_reconfigure () =
  let p1 = Filename.temp_file "hbbp-test-stream" ".jsonl" in
  let p2 = Filename.temp_file "hbbp-test-stream" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove p1;
      Sys.remove p2)
    (fun () ->
      Snapshot.configure ~every_spans:1 ~path:p1 ();
      Trace.with_span "one" (fun () -> ());
      Snapshot.configure ~every_spans:1 ~path:p2 ();
      checki "seq restarts on reconfigure" 0 (Snapshot.seq ());
      checks "stream moved" p2 (Option.get (Snapshot.path ()));
      Trace.with_span "two" (fun () -> ());
      Snapshot.finalize ();
      checki "first stream kept its lines" 1 (List.length (read_lines p1));
      checki "second stream has tick + final" 2 (List.length (read_lines p2)))

let test_stream_rejects_bad_config () =
  match Snapshot.configure ~every_spans:0 ~path:"/dev/null" () with
  | () -> Alcotest.fail "every_spans=0 must be rejected"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Health rollup                                                       *)

let with_registry f =
  Metrics.reset ();
  Metrics.enable ();
  f ();
  let v = Health.evaluate (Metrics.snapshot ()) in
  Metrics.disable ();
  Metrics.reset ();
  v

let test_health_ok_on_clean_registry () =
  let s = with_registry (fun () -> ()) in
  checks "clean is ok" "ok" (Health.status_name s);
  checki "no reasons" 0 (List.length (Health.reasons s));
  checks "json shape" "{\"status\":\"ok\",\"reasons\":[]}" (Health.to_json s)

let test_health_flow_violation_is_critical () =
  let s =
    with_registry (fun () ->
        Metrics.incr (Metrics.counter "verify.flow_violations"))
  in
  checks "flow violation is critical" "critical" (Health.status_name s);
  checkb "reason names the subsystem" true
    (match Health.reasons s with r :: _ -> starts_with ~prefix:"verify:" r
                               | [] -> false)

let test_health_stream_failure_tiers () =
  let at rate =
    with_registry (fun () ->
        Metrics.set (Metrics.gauge "lbr.stream_failure_rate") rate)
  in
  checks "low failure rate is ok" "ok" (Health.status_name (at 0.05));
  checks "warn tier" "warn" (Health.status_name (at 0.20));
  checks "critical tier" "critical" (Health.status_name (at 0.60))

let test_health_pool_starvation_warns () =
  let s =
    with_registry (fun () ->
        Metrics.add (Metrics.counter "pool.tasks") 100;
        Metrics.set (Metrics.gauge "pool.utilization") 0.25)
  in
  checks "starved pool warns" "warn" (Health.status_name s);
  checkb "points at the doctor" true
    (List.exists
       (fun r ->
         let sub = "hbbp doctor" in
         let n = String.length sub and m = String.length r in
         let rec go i = i + n <= m && (String.sub r i n = sub || go (i + 1)) in
         go 0)
       (Health.reasons s))

let test_health_criticals_listed_first () =
  let s =
    with_registry (fun () ->
        Metrics.incr (Metrics.counter "faults.lost_record");
        Metrics.incr (Metrics.counter "verify.flow_violations"))
  in
  match Health.reasons s with
  | first :: rest ->
      checkb "critical reason first" true (starts_with ~prefix:"verify:" first);
      checkb "warning follows" true
        (List.exists (starts_with ~prefix:"faults:") rest)
  | [] -> Alcotest.fail "expected reasons"

let test_health_gc_promotion_gate () =
  (* Below the volume gate the ratio is not judged at all. *)
  let small =
    with_registry (fun () ->
        Metrics.add (Metrics.counter "gc.allocated_words") 1000;
        Metrics.add (Metrics.counter "gc.promoted_words") 900)
  in
  checks "tiny volume not judged" "ok" (Health.status_name small);
  let big =
    with_registry (fun () ->
        Metrics.add (Metrics.counter "gc.allocated_words") 10_000_000;
        Metrics.add (Metrics.counter "gc.promoted_words") 8_000_000)
  in
  checks "heavy promotion warns" "warn" (Health.status_name big)

(* ------------------------------------------------------------------ *)
(* Pool timelines                                                      *)

let test_pool_timeline () =
  let tasks = 8 in
  let check_timeline jobs =
    Pool.with_pool ~jobs (fun pool ->
        let (_ : unit list) =
          Pool.map pool
            (fun _ -> ignore (Sys.opaque_identity (ref 0)))
            (List.init tasks Fun.id)
        in
        let tl = Pool.timeline pool in
        checki "one timeline per worker" jobs (Array.length tl);
        let total =
          Array.fold_left
            (fun acc (w : Pool.worker_timeline) ->
              acc + Array.length w.intervals)
            0 tl
        in
        checki "every task left an interval" tasks total;
        Array.iter
          (fun (w : Pool.worker_timeline) ->
            checki "nothing dropped" 0 w.dropped;
            Array.iter
              (fun (t0, t1) -> checkb "interval well-formed" true (t1 >= t0))
              w.intervals;
            (* Chronological within a worker. *)
            ignore
              (Array.fold_left
                 (fun prev (t0, _) ->
                   checkb "intervals ordered" true (t0 >= prev);
                   t0)
                 0.0 w.intervals))
          tl)
  in
  (* The sequential path must account intervals too, not return zeros. *)
  check_timeline 1;
  check_timeline 3

(* ------------------------------------------------------------------ *)
(* Doctor                                                              *)

let mk_workload ~seed name =
  let ctx = Hbbp_workloads.Codegen.create_ctx ~seed in
  let funcs =
    Hbbp_workloads.Codegen.synthetic_funcs ctx ~name:("f_" ^ name) ~helpers:2
      {
        Hbbp_workloads.Codegen.blocks = 15;
        mean_len = 5;
        len_jitter = 3;
        iterations = 4000;
        call_rate = 0.2;
        indirect_calls = false;
        profile = Hbbp_workloads.Codegen.int_only;
      }
  in
  Hbbp_workloads.Codegen.user_workload ~name funcs

let test_doctor_report () =
  let w = mk_workload ~seed:0xD0C7L "doc-a" in
  let report = Doctor.run ~max_jobs:2 ~shards:4 w in
  checks "workload recorded" "doc-a" report.Doctor.rep_workload;
  checki "requested shard count" 4 report.Doctor.rep_shards;
  checkb "records counted" true (report.Doctor.rep_records > 0);
  checki "one run per job count" 2 (List.length report.Doctor.rep_runs);
  checkb "reconstruction consistent across job counts" true
    report.Doctor.rep_consistent;
  let r1 = List.hd report.Doctor.rep_runs in
  checki "first run is -j 1" 1 r1.Doctor.jr_jobs;
  Alcotest.(check (float 1e-9)) "j=1 speedup is 1" 1.0 r1.Doctor.jr_speedup;
  List.iter
    (fun (r : Doctor.jobs_run) ->
      checkb "wall covers stream phase" true (r.jr_wall_s >= r.jr_stream_s);
      checkb "efficiency positive" true (r.jr_efficiency > 0.0);
      checkb "utilization in [0,1]" true
        (r.jr_utilization >= 0.0 && r.jr_utilization <= 1.0 +. 1e-9);
      checkb "imbalance at least 1" true (r.jr_imbalance >= 1.0 -. 1e-9);
      checkb "task max >= mean" true (r.jr_task_max_s >= r.jr_task_mean_s);
      checkb "per-domain GC attributed" true (r.jr_domains <> []);
      let dg_tasks =
        List.fold_left (fun a d -> a + d.Doctor.dg_tasks) 0 r.jr_domains
      in
      checki "every task GC-bracketed" report.Doctor.rep_shards dg_tasks)
    report.Doctor.rep_runs;
  checkb "profiler attributed allocation spans" true
    (report.Doctor.rep_alloc_sites <> []);
  List.iter
    (fun (s : Doctor.alloc_site) ->
      checkb "site words positive" true (s.site_words > 0))
    report.Doctor.rep_alloc_sites;
  (* JSON rendering is a single object with the headline fields. *)
  let json = Doctor.to_json report in
  let contains sub =
    let n = String.length sub and m = String.length json in
    let rec go i = i + n <= m && (String.sub json i n = sub || go (i + 1)) in
    go 0
  in
  checkb "json has workload" true (contains "\"workload\"");
  checkb "json has runs" true (contains "\"runs\"");
  checkb "json has consistency bit" true (contains "\"consistent\"");
  checkb "json has alloc sites" true (contains "\"alloc_sites\"")

let test_doctor_leaves_telemetry_off () =
  checkb "metrics off before" false (Metrics.enabled ());
  let w = mk_workload ~seed:0xD0C8L "doc-b" in
  let (_ : Doctor.report) = Doctor.run ~max_jobs:1 ~shards:2 w in
  (* The doctor armed metrics + profiler for itself and must restore the
     caller's (off) state. *)
  checkb "metrics restored to off" false (Metrics.enabled ());
  checkb "profiler restored to off" false
    (Hbbp_telemetry.Runtime_profiler.enabled ())

let () =
  Alcotest.run "observability"
    [
      ( "stream",
        [
          Alcotest.test_case "seq and lines on disk" `Quick
            (clean test_stream_seq_and_lines);
          Alcotest.test_case "interval-driven emission" `Quick
            (clean test_stream_interval_emission);
          Alcotest.test_case "reconfigure moves the stream" `Quick
            (clean test_stream_reconfigure);
          Alcotest.test_case "rejects invalid configuration" `Quick
            (clean test_stream_rejects_bad_config);
        ] );
      ( "health",
        [
          Alcotest.test_case "clean registry is ok" `Quick
            (clean test_health_ok_on_clean_registry);
          Alcotest.test_case "flow violation is critical" `Quick
            (clean test_health_flow_violation_is_critical);
          Alcotest.test_case "stream failure tiers" `Quick
            (clean test_health_stream_failure_tiers);
          Alcotest.test_case "pool starvation warns" `Quick
            (clean test_health_pool_starvation_warns);
          Alcotest.test_case "criticals listed first" `Quick
            (clean test_health_criticals_listed_first);
          Alcotest.test_case "gc promotion volume gate" `Quick
            (clean test_health_gc_promotion_gate);
        ] );
      ( "pool_timeline",
        [
          Alcotest.test_case "per-worker task intervals" `Quick
            (clean test_pool_timeline);
        ] );
      ( "doctor",
        [
          Alcotest.test_case "attribution report" `Quick
            (clean test_doctor_report);
          Alcotest.test_case "restores telemetry state" `Quick
            (clean test_doctor_leaves_telemetry_off);
        ] );
    ]
