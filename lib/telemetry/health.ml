(* Health rollup: one typed verdict over the metrics registry.

   Every subsystem already reports what went wrong through its own
   metrics — degraded reconstructions, flow-conservation violations,
   LBR stream failures, injected faults, pool utilization, GC pressure.
   This module is the single place that reads them back and folds them
   into [Ok | Warn | Critical], so the CLI (and CI) ask one question
   instead of re-deriving thresholds per caller. *)

type status = Ok | Warn of string list | Critical of string list

type thresholds = {
  warn_stream_failure : float;
  crit_stream_failure : float;
  warn_pool_utilization : float;
  warn_promotion_share : float;
  min_words_for_gc_verdict : float;
}

(* warn_stream_failure mirrors Pipeline.default_thresholds
   .max_stream_failure (0.10): the same line the analyzer uses to
   declare the LBR channel starved. *)
let default_thresholds =
  {
    warn_stream_failure = 0.10;
    crit_stream_failure = 0.50;
    warn_pool_utilization = 0.50;
    warn_promotion_share = 0.40;
    min_words_for_gc_verdict = 1e6;
  }

let counter snap name =
  match Metrics.find snap name with Some (Metrics.Counter n) -> n | _ -> 0

let gauge snap name =
  match Metrics.find snap name with Some (Metrics.Gauge v) -> Some v | _ -> None

(* Sum of every counter under a dotted prefix, e.g. "faults.". *)
let prefix_sum snap prefix =
  List.fold_left
    (fun acc (name, v) ->
      match v with
      | Metrics.Counter n when String.starts_with ~prefix name -> acc + n
      | _ -> acc)
    0 snap

let evaluate ?(thresholds = default_thresholds) (snap : Metrics.snapshot) =
  let warns = ref [] and crits = ref [] in
  let warn fmt = Printf.ksprintf (fun s -> warns := s :: !warns) fmt in
  let crit fmt = Printf.ksprintf (fun s -> crits := s :: !crits) fmt in

  (* Reconstruction integrity: a flow-conservation violation means the
     fused BBEC is internally inconsistent — nothing downstream of it
     can be trusted. *)
  let flow = counter snap "verify.flow_violations" in
  if flow > 0 then
    crit "verify: %d flow-conservation violation%s (conservation_error %.4f)"
      flow
      (if flow = 1 then "" else "s")
      (Option.value ~default:0.0 (gauge snap "verify.conservation_error"));

  (* Channel health. *)
  (match gauge snap "lbr.stream_failure_rate" with
  | Some r when r >= thresholds.crit_stream_failure ->
      crit "lbr: stream failure rate %.2f >= %.2f" r
        thresholds.crit_stream_failure
  | Some r when r >= thresholds.warn_stream_failure ->
      warn "lbr: stream failure rate %.2f >= %.2f" r
        thresholds.warn_stream_failure
  | Some _ | None -> ());
  let stuck =
    counter snap "pmu.lbr_stuck_snapshots"
    + counter snap "pmu.lbr_misrotated_snapshots"
  in
  if stuck > 0 then
    warn "pmu: %d stuck/misrotated LBR snapshot%s" stuck
      (if stuck = 1 then "" else "s");

  (* Degraded reconstructions: the pipeline already decided these runs
     are below its quality bar; surface the count and the dominant
     causes. *)
  let degraded = counter snap "degrade.reconstructions" in
  if degraded > 0 then begin
    let cause name label =
      let n = counter snap name in
      if n > 0 then Some (Printf.sprintf "%s %d" label n) else None
    in
    let causes =
      List.filter_map Fun.id
        [
          cause "degrade.fallback_ebs_only" "ebs-only-fallback";
          cause "degrade.fallback_lbr_only" "lbr-only-fallback";
          cause "degrade.archive_faults" "archive-faults";
          cause "degrade.lost_records" "lost-records";
          cause "degrade.flow_violations" "flow-violations";
        ]
    in
    warn "degrade: %d degraded reconstruction%s%s" degraded
      (if degraded = 1 then "" else "s")
      (if causes = [] then "" else " (" ^ String.concat ", " causes ^ ")")
  end;

  (* Injected faults are expected in chaos runs but never in a clean
     one — a warning keeps them visible either way. *)
  let faults = prefix_sum snap "faults." in
  if faults > 0 then warn "faults: %d injected fault event%s" faults
      (if faults = 1 then "" else "s");

  (* Resilience: exhausted retry budgets mean a durable write
     ultimately failed; taken retries and resume repair work succeeded
     but point at a flaky or interrupted environment. *)
  let exhausted = counter snap "retry.exhausted" in
  if exhausted > 0 then
    crit "retry: %d retry budget%s exhausted (durable write failed)" exhausted
      (if exhausted = 1 then "" else "s");
  let retries = counter snap "retry.attempts" in
  if retries > 0 then
    warn "retry: %d transient I/O failure%s retried" retries
      (if retries = 1 then "" else "s");
  let rewritten = counter snap "recover.shards_rewritten" in
  if rewritten > 0 then
    warn "recover: %d shard%s rewritten on resume (previous run left them torn or stale)"
      rewritten
      (if rewritten = 1 then "" else "s");
  let restores = counter snap "checkpoint.restores" in
  if restores > 0 then
    warn "checkpoint: resumed from checkpoint (%d restore%s)" restores
      (if restores = 1 then "" else "s");

  (* Parallel efficiency: a busy pool that spent most of its time
     waiting is the signature `hbbp doctor` attributes in depth. *)
  (match (counter snap "pool.tasks", gauge snap "pool.utilization") with
  | tasks, Some u when tasks > 0 && u < thresholds.warn_pool_utilization ->
      warn "pool: utilization %.2f < %.2f over %d tasks (try `hbbp doctor`)" u
        thresholds.warn_pool_utilization tasks
  | _ -> ());

  (* GC pressure: a high promoted/allocated share means the run churns
     mid-life data through the major heap. Only judged once enough words
     have been allocated for the ratio to mean anything. *)
  let allocated = float_of_int (counter snap "gc.allocated_words") in
  let promoted = float_of_int (counter snap "gc.promoted_words") in
  if allocated >= thresholds.min_words_for_gc_verdict then begin
    let share = promoted /. allocated in
    if share >= thresholds.warn_promotion_share then
      warn "gc: promotion share %.2f >= %.2f (%.0f of %.0f words promoted)"
        share thresholds.warn_promotion_share promoted allocated
  end;

  match (List.rev !crits, List.rev !warns) with
  | [], [] -> Ok
  | [], warns -> Warn warns
  | crits, warns -> Critical (crits @ warns)

let status_name = function
  | Ok -> "ok"
  | Warn _ -> "warn"
  | Critical _ -> "critical"

let reasons = function Ok -> [] | Warn rs -> rs | Critical rs -> rs

let to_json status =
  Printf.sprintf "{\"status\":\"%s\",\"reasons\":[%s]}" (status_name status)
    (String.concat ","
       (List.map
          (fun r -> "\"" ^ Metrics.json_escape r ^ "\"")
          (reasons status)))

let pp ppf status =
  Format.fprintf ppf "health: %s@." (status_name status);
  List.iter (fun r -> Format.fprintf ppf "  - %s@." r) (reasons status)
