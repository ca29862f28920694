(* Executor perf gate: the superblock engine must retire at least
   [required_ratio] times the legacy engine's aggregate rate over the
   machine bench set.  The gate is a ratio between two engines measured
   in the same process on the same workloads — host-independent by
   construction — so CI can fail on an executor regression without
   pinning absolute numbers to a runner. *)

let required_ratio = 2.0

let run ppf =
  Bench_util.header ppf "Executor perf gate: superblock >= 2x legacy";
  let runs = Perf.machine_throughput () in
  List.iter
    (fun (r : Perf.engine_run) ->
      Format.fprintf ppf "%-12s %-10s %9.2fM retired/s@." r.er_workload
        r.er_engine
        (Perf.rate r /. 1e6))
    runs;
  let legacy = Perf.engine_rate runs "legacy" in
  let superblock = Perf.engine_rate runs "superblock" in
  let ratio = superblock /. legacy in
  Format.fprintf ppf "aggregate: legacy %.2fM/s, superblock %.2fM/s@."
    (legacy /. 1e6) (superblock /. 1e6);
  Format.fprintf ppf "superblock/legacy ratio: %.2fx (gate: >= %.2fx)@." ratio
    required_ratio;
  if ratio < required_ratio then begin
    Format.fprintf ppf
      "FAIL: superblock engine regressed below %.2fx legacy@." required_ratio;
    exit 1
  end;
  Format.fprintf ppf "PASS@."
