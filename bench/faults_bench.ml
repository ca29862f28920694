(* Fault-injection overhead bench: demonstrates that the chaos hooks the
   fault subsystem threads through the PMU, the session and the archive
   writer cost nothing when disarmed, and shows what a mild armed plan
   does to throughput and output.  Writes BENCH_faults.json.

   Three series over the same workloads, measured as interleaved
   triples so drift hits all of them equally:

   - baseline:       faults disarmed (the default state);
   - armed-inert:    the all-zero plan armed — every hook still resolves
     to [None], so this must be byte-identical to baseline and its
     overhead pure run-to-run noise;
   - armed-mild:     a small multi-layer plan (sample drops, LBR
     corruption, record loss) actually injecting.

   Each overhead is the median over the triples of the per-triple time
   ratio against the baseline (the baseline/inert order alternates), with
   its quartiles: two best-of-3 differences of identical code read
   -5.22% and +7.13%, so a single difference carries no information.

   A microbench of the disarmed PMU hook site reports the per-sample
   cost of the [option] load in nanoseconds. *)

open Hbbp_core
module Plan = Hbbp_faults.Fault_plan
module Faults = Hbbp_faults.Faults
module U = Bench_util

let now = Unix.gettimeofday

let workloads () =
  [
    Hbbp_workloads.Fitter.workload Hbbp_workloads.Fitter.Sse;
    Hbbp_workloads.Kernelbench.workload ();
  ]

let run_all ws = List.map (fun w -> Pipeline.run w) ws

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let mild_plan =
  match
    Plan.of_string
      "seed=42,pmu.drop=0.02,lbr.stuck=0.05,rec.drop_sample=0.02,rec.reorder=8"
  with
  | Ok p -> p
  | Error e -> failwith ("BENCH faults: bad mild plan: " ^ e)

(* Per-call cost of the disarmed hook: constructing an injector and
   taking the [None] branch, amortized over [n] calls — the same load
   the PMU performs per delivered sample. *)
let disarmed_hook_ns () =
  let n = 5_000_000 in
  let sink = ref 0 in
  let body () = incr sink in
  let bare () =
    for _ = 1 to n do
      body ()
    done
  in
  let hooked () =
    for _ = 1 to n do
      (match Faults.pmu_injector () with None -> body () | Some _ -> ());
      ()
    done
  in
  bare ();
  hooked ();
  let best f =
    let b = ref infinity in
    for _ = 1 to 3 do
      let (), dt = time f in
      if dt < !b then b := dt
    done;
    !b
  in
  let bare_s = best bare and hooked_s = best hooked in
  (hooked_s -. bare_s) /. float_of_int n *. 1e9

let pairs = 21

let run ppf =
  U.header ppf "Fault-injection overhead (writes BENCH_faults.json)";
  Faults.disarm ();
  Faults.reset_tally ();
  let ws = workloads () in
  (* The untimed warmup run is the reference every baseline and inert
     run is checked against; a timed run's result is dropped once
     checked, so every run executes over the same live heap. *)
  let reference = run_all ws in
  let identical = ref true in
  let timed () =
    Gc.full_major ();
    time (fun () -> run_all ws)
  in
  let checked () =
    let ps, dt = timed () in
    if not (List.for_all2 Perf.profiles_equal reference ps) then
      identical := false;
    dt
  in
  let inert () =
    Faults.arm Plan.none;
    let dt = checked () in
    Faults.disarm ();
    dt
  in
  (* The tally is reset before each mild run, so after the loop it
     holds exactly one mild run's injections. *)
  let degraded = ref 0 in
  let mild () =
    Faults.reset_tally ();
    Faults.arm mild_plan;
    let ps, dt = timed () in
    Faults.disarm ();
    degraded :=
      List.length
        (List.filter
           (fun (p : Pipeline.profile) -> p.quality <> Pipeline.Full)
           ps);
    dt
  in
  let runs =
    List.init pairs (fun i ->
        let base_s, inert_s =
          if i mod 2 = 0 then
            let b = checked () in
            (b, inert ())
          else
            let d = inert () in
            (checked (), d)
        in
        (base_s, inert_s, mild ()))
  in
  let tally = Faults.tally () in
  Faults.reset_tally ();
  let series f = List.map f runs in
  let median f = U.quantile 0.5 (series f) in
  let baseline_s = median (fun (b, _, _) -> b)
  and inert_s = median (fun (_, d, _) -> d)
  and mild_s = median (fun (_, _, m) -> m) in
  let quartiles ratio =
    let rs = series ratio in
    (U.quantile 0.5 rs, U.quantile 0.25 rs, U.quantile 0.75 rs)
  in
  let inert_overhead, inert_q1, inert_q3 =
    quartiles (fun (b, d, _) -> (d /. b) -. 1.0)
  and mild_overhead, mild_q1, mild_q3 =
    quartiles (fun (b, _, m) -> (m /. b) -. 1.0)
  in
  let hook_ns = disarmed_hook_ns () in
  Format.fprintf ppf "%d workloads, %d interleaved pairs@." (List.length ws)
    pairs;
  Format.fprintf ppf "baseline (disarmed):      %8.3f s median@." baseline_s;
  Format.fprintf ppf
    "armed inert plan:         %8.3f s  (%+.2f%% median pair, quartiles \
     %+.2f%% .. %+.2f%% = noise)@."
    inert_s (100.0 *. inert_overhead) (100.0 *. inert_q1) (100.0 *. inert_q3);
  Format.fprintf ppf
    "armed mild plan:          %8.3f s  (%+.2f%% median pair, quartiles \
     %+.2f%% .. %+.2f%%)@."
    mild_s (100.0 *. mild_overhead) (100.0 *. mild_q1) (100.0 *. mild_q3);
  Format.fprintf ppf "disarmed hook cost:       %8.1f ns/site@." hook_ns;
  Format.fprintf ppf "profiles byte-identical with inert plan armed: %b@."
    !identical;
  Format.fprintf ppf "mild plan: %d/%d profiles degraded, tally:@." !degraded
    (List.length ws);
  List.iter
    (fun (k, n) -> Format.fprintf ppf "  %-28s %8d@." k n)
    tally;
  if not !identical then
    failwith "BENCH faults: arming the inert plan changed profile bytes";
  U.write_out "BENCH_faults.json"
    {|{
  %s,
  "workloads": %d,
  "pairs": %d,
  "baseline_s": %.4f,
  "inert_s": %.4f,
  "mild_s": %.4f,
  "inert_overhead": %.4f,
  "inert_overhead_q1": %.4f,
  "inert_overhead_q3": %.4f,
  "mild_overhead": %.4f,
  "mild_overhead_q1": %.4f,
  "mild_overhead_q3": %.4f,
  "disarmed_hook_ns": %.1f,
  "profiles_identical_inert": %b,
  "mild_degraded_profiles": %d,
  "mild_tally": {%s}
}
|}
    (U.json_header ~bench:"faults")
    (List.length ws) pairs baseline_s inert_s mild_s inert_overhead inert_q1
    inert_q3 mild_overhead mild_q1 mild_q3 hook_ns !identical !degraded
    (String.concat ", "
       (List.map (fun (k, n) -> Printf.sprintf {|"%s": %d|} k n) tally));
  Format.fprintf ppf "wrote BENCH_faults.json@."
