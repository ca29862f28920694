(* The repository benchmark: [profile], [collect] and [analyze] over the
   whole workload registry, one closed-loop client on one domain.

     perfbench --workload profile|collect|analyze [--seed N]
               [--seconds S] [--trace 0|1]

   End-to-end times are in reference seconds: host seconds scaled by
   the host speed that [Probe] measures around them.  The parent process
   times [setup_reps] or more set-ups (until [setup_seconds] is spent)
   and reports their median, then re-runs this executable as a child
   that does only the measured part, so the child's heap high-water mark
   excludes set-up.  The child runs whole
   passes over the registry until [--seconds] is spent (at least one),
   checks the outputs, and prints one JSON result as its last line: the
   end-to-end metrics, or with [--trace 1] the per-layer metrics of one
   extra traced pass (see LAYERS.md). *)

let now = Span.now
let setup_reps = 3
let setup_seconds = 1.0

(* Variables that would change what is measured: a slower engine, more
   domains, or telemetry armed inside the untraced run. *)
let refused_env =
  [
    "HBBP_ENGINE";
    "HBBP_JOBS";
    "HBBP_TRACE";
    "HBBP_METRICS";
    "HBBP_METRICS_STREAM";
    "HBBP_RUNTIME_PROFILE";
    "HBBP_ALLOC_SAMPLE";
  ]

let end_to_end =
  [
    ("setup_s", "s");
    ("minstr_per_ref_s", "Minstr/ref_s");
    ("peak_heap_mb", "MB");
    ("sim_overhead_pct", "%");
    ("success_rate", "ratio");
  ]

let per_layer =
  [
    ("cpu.exec_s", "s");
    ("cpu.bare_s", "s");
    ("cpu.pmu_sampling_s", "s");
    ("cpu.pmu_counting_s", "s");
    ("instrument.sde_s", "s");
    ("instrument.reference_s", "s");
    ("cpu.retired", "count");
    ("cpu.kernel_retired", "count");
    ("cpu.taken_branches", "count");
    ("cpu.pmis", "count");
    ("cpu.lbr_snapshots", "count");
    ("cpu.alloc_words_per_instr", "words/instr");
    ("collector.records_s", "s");
    ("collector.package_s", "s");
    ("collector.encode_s", "s");
    ("durable.publish_s", "s");
    ("collector.decode_s", "s");
    ("collector.records", "count");
    ("collector.archive_bytes", "bytes");
    ("collector.bytes_per_record", "bytes/record");
    ("analyzer.static_s", "s");
    ("analyzer.ebs_s", "s");
    ("analyzer.lbr_s", "s");
    ("analyzer.bias_s", "s");
    ("analyzer.stream_walks", "count");
    ("analyzer.usable_stream_share", "ratio");
    ("analyzer.alloc_words_per_record", "words/record");
    ("analyzer.mix_error_pct", "%");
    ("core.feed_s", "s");
    ("core.merge_s", "s");
    ("core.finalize_s", "s");
    ("core.fuse_s", "s");
    ("verifier.flow_s", "s");
    ("verifier.repair_s", "s");
    ("verifier.conservation_error", "ratio");
    ("residual_share", "ratio");
    ("trace_overhead", "ratio");
    ("host.minstr_per_s", "Minstr/s");
    ("host.probe_scale", "ratio");
  ]

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)

let workload = ref ""
let seed = ref Hbbp_cpu.Pmu_model.default.seed
let seconds = ref 10.0
let trace = ref 0
let child = ref false
let setup_s = ref nan
let nproc = ref 0
let git_rev = ref "unknown"

let usage =
  "perfbench --workload profile|collect|analyze [--seed N] [--seconds S] \
   [--trace 0|1]"

let specs =
  [
    ("--workload", Arg.Set_string workload, " profile, collect or analyze");
    ( "--seed",
      Arg.String (fun s -> seed := Int64.of_string s),
      " PMU seed (decimal or 0x hex; default 0x5EEDCAFE)" );
    ( "--seconds",
      Arg.Set_float seconds,
      " measured seconds (whole passes, at least one)" );
    ("--trace", Arg.Set_int trace, " 1: per-layer metrics of a traced pass");
    ("--nproc", Arg.Set_int nproc, " host processor count, for the record");
    ("--git-rev", Arg.Set_string git_rev, " source revision, for the record");
    ("--child", Arg.Set child, " (internal) run the measured part");
    ("--setup-s", Arg.Set_float setup_s, " (internal) median set-up reference time");
  ]

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let parse () =
  (try
     Arg.parse_argv Sys.argv (Arg.align specs)
       (fun a -> die "unexpected argument %S" a)
       usage
   with
  | Arg.Bad msg -> die "%s" (String.trim msg)
  | Arg.Help msg ->
      print_string msg;
      exit 0
  | Failure _ -> die "--seed expects an integer");
  let kind =
    match List.assoc_opt !workload Ops.kinds with
    | Some k -> k
    | None -> die "--workload must be profile, collect or analyze (got %S)" !workload
  in
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if not (!seconds > 0.0) then die "--seconds must be positive";
  List.iter
    (fun var ->
      if Sys.getenv_opt var <> None then
        die "refusing to run: %s is set; unset it to measure the default configuration"
          var)
    refused_env;
  kind

(* ------------------------------------------------------------------ *)
(* Statistics and output                                               *)

let sorted xs = List.sort compare xs |> Array.of_list

let median xs =
  let a = sorted xs and n = List.length xs in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quantile q xs =
  let a = sorted xs in
  a.(min (Array.length a - 1) (int_of_float (q *. float_of_int (Array.length a))))

let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = if xs = [] then 0.0 else sum xs /. float_of_int (List.length xs)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The result line; a metric that is not a finite number fails the run. *)
let print_result ~attempted ~failed metrics =
  let bad = List.filter (fun (_, _, v) -> not (Float.is_finite v)) metrics in
  let failed = failed + List.length bad in
  let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
          metrics))

(* Host facts and settings, with the field names of the bench targets'
   BENCH_*.json header. *)
let print_header kind =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.printf
    "{\"schema_version\": 1, \"bench\": \"perfbench\", \"utc\": \
     \"%04d-%02d-%02dT%02d:%02d:%02dZ\", \"nproc\": %d, \
     \"host_recommended_domains\": %d, \"jobs\": 1, \"ocaml_version\": %S, \
     \"git_rev\": %S, \"workload\": %S, \"seed\": \"0x%LX\", \"seconds\": %g, \
     \"trace\": %d, \"engine\": %S, \"programs\": %d}\n%!"
    (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour
    tm.Unix.tm_min tm.Unix.tm_sec !nproc
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !git_rev
    (fst (List.find (fun (_, k) -> k = kind) Ops.kinds))
    !seed !seconds !trace
    (Hbbp_cpu.Machine.engine_name Hbbp_core.Pipeline.default_config.engine)
    (List.length Hbbp_workloads.Registry.names)

(* ------------------------------------------------------------------ *)
(* The measured part (child process)                                   *)

type outcome = {
  label : string;
  time : float;  (** Host seconds. *)
  scale : float;
      (** Mean of the probe scales just before and just after the
          operation: [time *. scale] is its time in reference seconds. *)
  value : (Ops.result * string, string) result;  (** Result and digest. *)
}

(* The probes run before every [probe_every]th operation of a pass,
   starting with the first, and after the last one; [analyze]'s
   operations are short, so every fourth is about 0.2 s apart.  They run
   at fixed places, not on a timer, so that every run allocates in the
   same order and [peak_heap_mb] repeats. *)
let probe_every = function Ops.Profile | Ops.Collect -> 1 | Ops.Analyze -> 4

(* Every operation starts from a collected heap, as it would in a fresh
   process, so garbage left by the previous operation or by a probe
   neither slows it nor raises its heap peak. *)
let run_pass kind targets =
  let n = List.length targets in
  let scales = Array.make (n + 1) nan in
  let probe i = scales.(i) <- Probe.scale () in
  let ops =
    List.mapi
      (fun i (t : Ops.target) ->
        if i mod probe_every kind = 0 then probe i;
        Gc.full_major ();
        let t0 = now () in
        let result = try Ok (t.run ()) with e -> Error (Printexc.to_string e) in
        let time = now () -. t0 in
        let value =
          match result with
          | Error _ as e -> e
          | Ok r -> (
              match Lazy.force r.digest with
              | d -> Ok (r, d)
              | exception e -> Error (Printexc.to_string e))
        in
        (t.label, time, value))
      targets
  in
  probe n;
  let rec before i = if Float.is_nan scales.(i) then before (i - 1) else scales.(i) in
  let rec after i = if Float.is_nan scales.(i) then after (i + 1) else scales.(i) in
  List.mapi
    (fun i (label, time, value) ->
      { label; time; scale = (before i +. after (i + 1)) /. 2.0; value })
    ops

let retired o = match o.value with Ok (r, _) -> r.Ops.retired | Error _ -> 0
let times ops = List.map (fun o -> o.time) ops
let ref_times ops = List.map (fun o -> o.time *. o.scale) ops
let pass_time pass = sum (times pass)
let pass_instr pass = List.fold_left (fun n o -> n + retired o) 0 pass

(* Whole passes while the next one, at the mean pace so far, still fits
   in [seconds]; at least one. *)
let run_passes kind targets =
  let rec go acc spent =
    let pass = run_pass kind targets in
    let spent = spent +. pass_time pass in
    let acc = pass :: acc in
    if spent *. (1.0 +. (1.0 /. float_of_int (List.length acc))) <= !seconds then
      go acc spent
    else List.rev acc
  in
  go [] 0.0

(* Retired instructions over the sum of each operation's median time
   across passes, so that a host stall during one pass moves the figure
   less than it would move a total.  [time] gives an operation's host
   seconds or its reference seconds. *)
let minstr_per ~time passes =
  let per_op =
    List.mapi (fun i _ -> List.map (fun p -> List.nth p i) passes) (List.hd passes)
  in
  let instr op = float_of_int (List.fold_left max 0 (List.map retired op)) in
  sum (List.map instr per_op) /. 1e6 /. sum (List.map (fun op -> median (time op)) per_op)

(* Output checks: every pass reproduces the first pass's digests, and
   [hello]'s sharded analysis equals its unsharded one. *)
let check_outputs kind passes ~fail =
  let first = List.hd passes in
  let digest o = match o.value with Ok (_, d) -> d | Error _ -> "" in
  List.iteri
    (fun i pass ->
      let t = times pass in
      Printf.printf
        "pass %d: %d ops, %.3f s, %.3f Minstr/s, %.3f Minstr/ref_s, op p50 %.4f s, \
         p90 %.4f s, max %.4f s, scale p50 %.4f\n"
        (i + 1) (List.length pass) (pass_time pass)
        (float_of_int (pass_instr pass) /. 1e6 /. pass_time pass)
        (float_of_int (pass_instr pass) /. 1e6 /. sum (ref_times pass))
        (median t) (quantile 0.9 t) (quantile 1.0 t)
        (median (List.map (fun o -> o.scale) pass));
      List.iter2
        (fun o expected ->
          match o.value with
          | Error msg -> fail o.label msg
          | Ok (_, d) ->
              if d <> digest expected then
                fail o.label
                  (Printf.sprintf "pass %d output differs from pass 1" (i + 1)))
        pass first)
    passes;
  List.iter (fun o -> Printf.printf "digest %s %s\n" o.label (digest o)) first;
  if kind = Ops.Analyze then begin
    let find label = digest (List.find (fun o -> o.label = label) first) in
    let sharded = Printf.sprintf "%s/%d-shards" Ops.shard_program Ops.shards in
    if find sharded <> find Ops.shard_program then
      fail sharded "sharded analysis differs from the unsharded one"
  end;
  List.map digest first

(* One traced pass; the per-layer metrics, in [per_layer] order. *)
let traced_pass kind targets expected ~passes ~fail =
  let sp = Span.create () and t = Tally.create () in
  (* Each operation's wall time, and the probe scale before it. *)
  let ops =
    List.map2
      (fun (target : Ops.target) expected ->
        let scale = Probe.scale () in
        Gc.full_major ();
        Span.set_program sp target.label;
        t.stopped <- nan;
        let start = now () in
        (try target.traced sp t ~expected
         with e -> fail target.label (Printexc.to_string e));
        ((if Float.is_nan t.stopped then now () else t.stopped) -. start, scale))
      targets expected
  in
  let wall = sum (List.map fst ops) in
  let scales = List.map snd ops @ [ Probe.scale () ] in
  let ref_wall =
    sum
      (List.mapi
         (fun i (time, before) -> time *. (before +. List.nth scales (i + 1)) /. 2.0)
         ops)
  in
  let untraced_wall = median (List.map pass_time passes) in
  let self = Span.self_time sp in
  let covered = sum (List.map self (Ops.real_path kind)) in
  Printf.printf "traced pass: %.3f s, real-path spans %.3f s, untraced pass %.3f s\n" wall
    covered untraced_wall;
  Span.write sp ~path:(Filename.concat Ops.work_dir ("spans-" ^ !workload ^ ".json"));
  let f = float_of_int in
  let value = function
    | "cpu.retired" -> f t.retired
    | "cpu.kernel_retired" -> f t.kernel_retired
    | "cpu.taken_branches" -> f t.taken_branches
    | "cpu.pmis" -> f t.pmis
    | "cpu.lbr_snapshots" -> f t.lbr_snapshots
    | "cpu.alloc_words_per_instr" -> ratio t.exec_words (f t.retired)
    | "collector.records" -> f t.records
    | "collector.archive_bytes" -> f t.archive_bytes
    | "collector.bytes_per_record" -> ratio (f t.archive_bytes) (f t.records)
    | "analyzer.stream_walks" -> f t.stream_walks
    | "analyzer.usable_stream_share" -> ratio (f t.usable_streams) (f t.stream_walks)
    | "analyzer.alloc_words_per_record" -> ratio t.feed_words (f t.fed_records)
    | "analyzer.mix_error_pct" -> 100.0 *. mean t.mix_errors
    | "verifier.conservation_error" -> mean t.conservation_errors
    | "residual_share" -> (wall -. covered) /. wall
    | "trace_overhead" ->
        (ref_wall /. median (List.map (fun p -> sum (ref_times p)) passes)) -. 1.0
    | "host.minstr_per_s" -> minstr_per ~time:times passes
    | "host.probe_scale" ->
        median (List.concat_map (List.map (fun o -> o.scale)) passes)
    | span -> self span
  in
  List.map (fun (name, unit) -> (name, unit, value name)) per_layer

let measure kind =
  let cfg = Ops.config ~seed:!seed in
  let facts =
    if kind = Ops.Profile then []
    else Ops.read_facts (Filename.concat Ops.work_dir "facts")
  in
  let targets = Ops.targets kind cfg ~facts in
  print_header kind;
  let failures = ref 0 in
  let fail label msg =
    incr failures;
    Printf.printf "FAIL %s: %s\n%!" label msg
  in
  let passes = run_passes kind targets in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let expected = check_outputs kind passes ~fail in
  let attempted = List.length targets * List.length passes in
  if !trace = 0 then
    let overheads =
      List.filter_map
        (fun o -> match o.value with Ok (r, _) -> Some r.Ops.overhead | Error _ -> None)
        (List.hd passes)
    in
    print_result ~attempted ~failed:!failures
      (List.map2
         (fun (name, unit) v -> (name, unit, v))
         end_to_end
         [
           !setup_s;
           minstr_per ~time:ref_times passes;
           float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1e6;
           100.0 *. mean overheads;
           float_of_int (attempted - !failures) /. float_of_int attempted;
         ])
  else
    let metrics = traced_pass kind targets expected ~passes ~fail in
    print_result ~attempted:(attempted + List.length targets) ~failed:!failures metrics

(* ------------------------------------------------------------------ *)
(* Set-up and the child process (parent)                               *)

let rec remove path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> remove (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let remove_archives () =
  List.iter (fun d -> remove (Ops.sub_dir d)) [ "analyze"; "collect"; "traced" ]

let orchestrate kind =
  let cfg = Ops.config ~seed:!seed in
  remove_archives ();
  Ops.mkdir_p Ops.work_dir;
  (* The probes run before each set-up and after the last one; their
     median scales the median host time of a set-up. *)
  let rec setups times scales =
    let scales = Probe.scale () :: scales in
    let t0 = now () in
    let facts = Ops.setup kind cfg in
    let times = (now () -. t0) :: times in
    if List.length times < setup_reps || sum times < setup_seconds then
      setups times scales
    else (times, Probe.scale () :: scales, facts)
  in
  let times, scales, facts = setups [] [] in
  let setup_ref_s = median times *. median scales in
  Printf.printf "setup: %d runs, median %.3f s, %.3f ref_s\n%!" (List.length times)
    (median times) setup_ref_s;
  Ops.write_facts (Filename.concat Ops.work_dir "facts") facts;
  let argv =
    Array.append Sys.argv
      [| "--child"; "--setup-s"; Printf.sprintf "%.17g" setup_ref_s |]
  in
  let pid =
    Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr
  in
  let status = snd (Unix.waitpid [] pid) in
  remove_archives ();
  match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> exit n
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> exit 3

let () =
  let kind = parse () in
  if !child then measure kind else orchestrate kind
