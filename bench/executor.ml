(* Executor perf gates: the superblock engine must retire at least
   [required_ratio] times the legacy engine's aggregate rate over the
   machine bench set, both bare (no observers) and armed with
   [collect]'s observer set (one sampling PMU).  The armed gate catches
   a fall-back to per-instruction observer dispatch, which the bare
   gate cannot see.  Each gate is a ratio between two engines measured
   in the same process on the same workloads — host-independent by
   construction — so CI can fail on an executor regression without
   pinning absolute numbers to a runner. *)

let required_ratio = 2.0

(* Prints one gate's runs and ratio; returns whether it passed. *)
let gate ppf label runs =
  List.iter
    (fun (r : Perf.engine_run) ->
      Format.fprintf ppf "%-5s %-12s %-10s %9.2fM retired/s@." label
        r.er_workload r.er_engine
        (Perf.rate r /. 1e6))
    runs;
  let legacy = Perf.engine_rate runs "legacy" in
  let superblock = Perf.engine_rate runs "superblock" in
  let ratio = superblock /. legacy in
  Format.fprintf ppf "%s aggregate: legacy %.2fM/s, superblock %.2fM/s@." label
    (legacy /. 1e6) (superblock /. 1e6);
  Format.fprintf ppf "%s superblock/legacy ratio: %.2fx (gate: >= %.2fx)@."
    label ratio required_ratio;
  let ok = ratio >= required_ratio in
  if not ok then
    Format.fprintf ppf "FAIL: %s superblock engine regressed below %.2fx legacy@."
      label required_ratio;
  ok

let run ppf =
  Bench_util.header ppf
    "Executor perf gates: superblock >= 2x legacy, bare and armed";
  let bare = gate ppf "bare" (Perf.machine_throughput ()) in
  let armed = gate ppf "armed" (Perf.machine_throughput ~armed:true ()) in
  if not (bare && armed) then exit 1;
  Format.fprintf ppf "PASS@."
