(* Telemetry overhead bench: demonstrates that the instrumentation the
   telemetry layer threads through the pipeline costs nothing when
   disabled and stays cheap when enabled, and that enabling it does not
   change a single profile byte.  Writes BENCH_telemetry.json.

   Three series over the same workloads, measured as interleaved
   triples so drift hits all of them equally:

   - baseline:  telemetry disabled (the default state);
   - disabled:  telemetry disabled again — the baseline re-measured, so
     the reported "disabled overhead" is pure run-to-run noise;
   - enabled:   tracing + metrics armed.

   Each overhead is the median over the triples of the per-triple time
   ratio against the baseline (the baseline/disabled order alternates),
   so a burst of host noise moves one pair, not the verdict.

   A microbench of the disabled [with_span] fast path reports the
   per-call cost in nanoseconds. *)

open Hbbp_core
module Trace = Hbbp_telemetry.Trace
module Metrics = Hbbp_telemetry.Metrics
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

(* Per-call cost of a disabled span: with_span around a cheap closure vs
   the closure alone, amortized over [n] calls. *)
let disabled_span_ns () =
  let n = 5_000_000 in
  let sink = ref 0 in
  let body () = incr sink in
  let bare () =
    for _ = 1 to n do
      body ()
    done
  in
  let spanned () =
    for _ = 1 to n do
      Trace.with_span "noop" body
    done
  in
  (* Warm both paths, then best of three each. *)
  bare ();
  spanned ();
  let best f =
    let b = ref infinity in
    for _ = 1 to 3 do
      let (), dt = time f in
      if dt < !b then b := dt
    done;
    !b
  in
  let bare_s = best bare and spanned_s = best spanned in
  (spanned_s -. bare_s) /. float_of_int n *. 1e9

let pairs = 21

let run ppf =
  U.header ppf "Telemetry overhead (writes BENCH_telemetry.json)";
  Trace.disable ();
  Trace.reset ();
  Metrics.disable ();
  Metrics.reset ();
  let ws = workloads () in
  (* The untimed warmup run is also the reference every timed run is
     checked against.  A timed run's own result is dropped as soon as it
     is checked, so every run executes over the same live heap: were the
     first result of a pair kept while the second runs, the second would
     be slower, and with an odd number of pairs that position effect
     biases the median ratio. *)
  let reference = run_all ws in
  let identical = ref true in
  let timed () =
    Gc.full_major ();
    let ps, dt = time (fun () -> run_all ws) in
    if not (List.for_all2 Perf.profiles_equal reference ps) then
      identical := false;
    dt
  in
  let enabled () =
    Trace.reset ();
    Metrics.reset ();
    Trace.enable ();
    Metrics.enable ();
    let dt = timed () in
    Trace.disable ();
    Metrics.disable ();
    dt
  in
  let span_count = ref 0 in
  let runs =
    List.init pairs (fun i ->
        let base_s, disabled_s =
          if i mod 2 = 0 then
            let b = timed () in
            (b, timed ())
          else
            let d = timed () in
            (timed (), d)
        in
        let enabled_s = enabled () in
        span_count := Trace.span_count ();
        (base_s, disabled_s, enabled_s))
  in
  Trace.reset ();
  Metrics.reset ();
  let series f = List.map f runs in
  let median f = U.quantile 0.5 (series f) in
  let baseline_s = median (fun (b, _, _) -> b)
  and disabled_s = median (fun (_, d, _) -> d)
  and enabled_s = median (fun (_, _, e) -> e) in
  let disabled_ratios = series (fun (b, d, _) -> (d /. b) -. 1.0) in
  let disabled_overhead = U.quantile 0.5 disabled_ratios
  and disabled_q1 = U.quantile 0.25 disabled_ratios
  and disabled_q3 = U.quantile 0.75 disabled_ratios in
  let enabled_overhead =
    U.quantile 0.5 (series (fun (b, _, e) -> (e /. b) -. 1.0))
  in
  let span_ns = disabled_span_ns () in
  Format.fprintf ppf "%d workloads, %d interleaved pairs@." (List.length ws)
    pairs;
  Format.fprintf ppf "baseline (telemetry off): %8.3f s median@." baseline_s;
  Format.fprintf ppf
    "disabled re-measure:      %8.3f s  (%+.2f%% median pair, quartiles \
     %+.2f%% .. %+.2f%% = noise)@."
    disabled_s
    (100.0 *. disabled_overhead)
    (100.0 *. disabled_q1) (100.0 *. disabled_q3);
  Format.fprintf ppf "enabled (trace+metrics):  %8.3f s  (%+.2f%%, %d spans)@."
    enabled_s
    (100.0 *. enabled_overhead)
    !span_count;
  Format.fprintf ppf "disabled with_span cost:  %8.1f ns/call@." span_ns;
  Format.fprintf ppf
    "profiles byte-identical across runs, telemetry on and off: %b@."
    !identical;
  if not !identical then
    failwith
      "BENCH telemetry: a run with telemetry on or off changed profile bytes";
  U.write_out "BENCH_telemetry.json"
    {|{
  %s,
  "workloads": %d,
  "pairs": %d,
  "baseline_s": %.4f,
  "disabled_s": %.4f,
  "enabled_s": %.4f,
  "disabled_overhead": %.4f,
  "disabled_overhead_q1": %.4f,
  "disabled_overhead_q3": %.4f,
  "enabled_overhead": %.4f,
  "disabled_span_ns": %.1f,
  "spans": %d,
  "profiles_identical": %b
}
|}
    (U.json_header ~bench:"telemetry")
    (List.length ws) pairs baseline_s disabled_s enabled_s disabled_overhead
    disabled_q1 disabled_q3 enabled_overhead span_ns !span_count !identical;
  Format.fprintf ppf "wrote BENCH_telemetry.json@.";
  (* CI gate: disabled telemetry must be free.  The disabled series is
     the baseline re-measured, so a median pair beyond 1% is a real
     regression of the disabled fast path, not noise — fail loudly. *)
  if disabled_overhead > 0.01 then
    failwith
      (Printf.sprintf
         "BENCH telemetry: disabled-telemetry overhead %.2f%% (median of %d \
          pairs) exceeds the 1%% budget"
         (100.0 *. disabled_overhead)
         pairs)
