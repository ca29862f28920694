(* Differential tests for the tiered executor: the superblock engine
   (chained closures of compiled kernels) must retire a stream
   bit-identical to the legacy per-instruction loop over [Exec.step].
   Identity is checked at four depths — run statistics, the full
   observer-visible retirement stream (hashed), PMU sample archives
   byte for byte, and fused pipeline reconstructions — over the
   bundled registry workloads, tight-budget Runaway runs and seeded
   random synthetic programs.

   The legacy reference itself is pinned by committed digests (the
   [pinned_*] tables below), so a change to [Exec.step] or the timing
   model that moves both engines together still fails.  On a mismatch
   the failure lists every moved digest in table syntax; an intended
   semantic change updates the tables from that output. *)

open Hbbp_cpu
open Hbbp_core

let checkb = Alcotest.(check bool)
let engines = [ Machine.Superblock ]

(* ------------------------------------------------------------------ *)
(* Harness: run one engine, observer-armed, folding every field the
   observer can see into a rolling hash.  The retirement record is a
   reused scratch buffer, so the fold reads everything before
   returning.  Runaway runs hash their whole prefix, so a budget-capped
   comparison still checks stream identity instruction by
   instruction.                                                        *)

type outcome =
  | Finished of Machine.run_stats
  | Ran_away of int
  | Faulted of string

let mix h v = (h * 0x1000193) lxor v

let run_hashed engine ?max_instructions (w : Workload.t) =
  let machine = Machine.create ~process:w.Workload.live_process ~engine () in
  let hash = ref 0x811c9dc5 and retired = ref 0 in
  Machine.add_observer machine (fun r ->
      incr retired;
      let h = mix !hash r.Machine.node.Exec_graph.addr in
      let h = mix h r.Machine.taken_src in
      let h = mix h r.Machine.taken_tgt in
      let h = mix h r.Machine.retired_index in
      let h = mix h r.Machine.cycles in
      hash := mix h (Bool.to_int r.Machine.shadow_active));
  let outcome =
    match Machine.run machine ~entry:w.Workload.entry ?max_instructions () with
    | stats -> Finished stats
    | exception Machine.Runaway n -> Ran_away n
    | exception Machine.Machine_fault msg -> Faulted msg
  in
  (outcome, !hash, !retired)

let run_bare engine ?max_instructions (w : Workload.t) =
  let machine = Machine.create ~process:w.Workload.live_process ~engine () in
  match Machine.run machine ~entry:w.Workload.entry ?max_instructions () with
  | stats -> Finished stats
  | exception Machine.Runaway n -> Ran_away n
  | exception Machine.Machine_fault msg -> Faulted msg

let pp_outcome = function
  | Finished s ->
      Printf.sprintf "finished retired=%d cycles=%d taken=%d kernel=%d"
        s.Machine.retired s.Machine.cycles s.Machine.taken_branches
        s.Machine.kernel_retired
  | Ran_away n -> Printf.sprintf "runaway %d" n
  | Faulted msg -> Printf.sprintf "fault %s" msg

(* One line per reference run: outcome, stream hash, retirements. *)
let digest_of (outcome, hash, retired) =
  Printf.sprintf "%s hash=%x n=%d" (pp_outcome outcome) hash retired

(* Compare [(name, digest)] pairs against a pinned table, reporting
   every mismatch at once so one failing run shows all moved digests. *)
let check_pinned ~what table got =
  let moved =
    List.filter_map
      (fun (name, d) ->
        match List.assoc_opt name table with
        | Some expected when String.equal expected d -> None
        | Some _ | None -> Some (Printf.sprintf "    (%S,\n     %S);" name d))
      got
  in
  if moved <> [] || List.length table <> List.length got then
    Alcotest.failf "%s: %d of %d pinned digests moved; current values:\n%s"
      what (List.length moved) (List.length got) (String.concat "\n" moved)

(* Compare every engine's (outcome, stream hash, retirement count)
   against the legacy reference; returns the reference's digest. *)
let check_differential ~what ?max_instructions (w : Workload.t) =
  let reference = run_hashed Machine.Legacy ?max_instructions w in
  List.iter
    (fun engine ->
      let got = run_hashed engine ?max_instructions w in
      let ro, rh, rn = reference and go, gh, gn = got in
      if (ro, rh, rn) <> (go, gh, gn) then
        Alcotest.failf "%s: %s engine diverged from legacy: %s / %s (%d vs %d \
                        retirements, hash %x vs %x)"
          what
          (Machine.engine_name engine)
          (pp_outcome go) (pp_outcome ro) gn rn gh rh)
    engines;
  digest_of reference

(* ------------------------------------------------------------------ *)
(* Registry sweep: every bundled workload, budget-capped so the suite
   stays fast.  Workloads larger than the budget raise Runaway at the
   same retirement in every engine (the due-by-N budgeting identity);
   smaller ones finish and compare full stats.                         *)

(* Legacy reference digests at the sweep's 400k budget. *)
let pinned_registry =
  [
    ("perlbench",
     "runaway 400000 hash=73c6620c63126366 n=400000");
    ("bzip2",
     "runaway 400000 hash=7f8f2c29ac034648 n=400000");
    ("gcc",
     "runaway 400000 hash=67608db931b859db n=400000");
    ("mcf",
     "runaway 400000 hash=70d98f27ab819a4 n=400000");
    ("gobmk",
     "runaway 400000 hash=b4449cda8c0b91c n=400000");
    ("hmmer",
     "runaway 400000 hash=39c7b13e02e44d7d n=400000");
    ("sjeng",
     "runaway 400000 hash=7d5d41070d6060e3 n=400000");
    ("libquantum",
     "runaway 400000 hash=76edad76c5a39f18 n=400000");
    ("h264ref",
     "runaway 400000 hash=5a0dafab85f048f7 n=400000");
    ("x264ref",
     "runaway 400000 hash=284b16bdcd89702f n=400000");
    ("omnetpp",
     "runaway 400000 hash=4134df8cb4d31b4e n=400000");
    ("astar",
     "runaway 400000 hash=355bca8c456c90e n=400000");
    ("xalancbmk",
     "runaway 400000 hash=16bc5fd28008b5cd n=400000");
    ("milc",
     "runaway 400000 hash=1cb659d10a3eae2 n=400000");
    ("namd",
     "runaway 400000 hash=1dcdb2d6d49fd76f n=400000");
    ("dealII",
     "runaway 400000 hash=4163b762131657e5 n=400000");
    ("soplex",
     "runaway 400000 hash=4da57cd6cc354c5b n=400000");
    ("povray",
     "runaway 400000 hash=13bf4e12a26df3d n=400000");
    ("gamess",
     "runaway 400000 hash=62ea151af845db60 n=400000");
    ("lbm",
     "runaway 400000 hash=11eb7cb74bb8552d n=400000");
    ("sphinx3",
     "runaway 400000 hash=2cc2f3da4bd74f73 n=400000");
    ("test40",
     "runaway 400000 hash=700369df8e99cbae n=400000");
    ("hydro-post",
     "runaway 400000 hash=74a36d2b18388fb3 n=400000");
    ("hello",
     "runaway 400000 hash=269e302504bda48d n=400000");
    ("fitter-x87",
     "runaway 400000 hash=19613684eb4aa8f3 n=400000");
    ("fitter-sse",
     "runaway 400000 hash=7f2ba2fbc037f4a2 n=400000");
    ("fitter-avx",
     "runaway 400000 hash=dc27e574108274a n=400000");
    ("fitter-avx-noinline",
     "runaway 400000 hash=503ff2c211b73ff6 n=400000");
    ("clforward-before",
     "runaway 400000 hash=2a11d8df3f4d61d3 n=400000");
    ("clforward-after",
     "runaway 400000 hash=6c2f7921ac3e33b2 n=400000");
    ("train-short-int",
     "runaway 400000 hash=40d6babf51dbc750 n=400000");
    ("train-mid-int",
     "runaway 400000 hash=6c0c44823b90e1d0 n=400000");
    ("train-long-fp",
     "runaway 400000 hash=507af235b3202fc7 n=400000");
    ("train-longer",
     "runaway 400000 hash=2503131bf8cfeec8 n=400000");
    ("train-shadow",
     "runaway 400000 hash=6b32badaf929e953 n=400000");
    ("train-branchy",
     "runaway 400000 hash=76e1ffc82f5b730f n=400000");
    ("train-x87",
     "runaway 400000 hash=338af10e5049bdd2 n=400000");
    ("train-mixed",
     "runaway 400000 hash=6c97f3ac5c40df48 n=400000");
  ]

let test_registry_differential () =
  List.map
    (fun name ->
      let w = Hbbp_workloads.Registry.find name in
      (name, check_differential ~what:name ~max_instructions:400_000 w))
    Hbbp_workloads.Registry.names
  |> check_pinned ~what:"registry sweep" pinned_registry

(* Full, uncapped runs on the machine-bench set: short blocks (mcf),
   branch/x87-heavy (test40), syscall-heavy (hello), SSE (fitter-sse). *)
let bench_set = [ "mcf"; "test40"; "hello"; "fitter-sse" ]

(* Legacy reference digests of the uncapped bench-set runs; the
   outcome field is the full [run_stats]. *)
let pinned_bench_set =
  [
    ("mcf",
     "finished retired=2895103 cycles=5045769 taken=259193 kernel=0 hash=51135014d2d3c425 n=2895103");
    ("test40",
     "finished retired=4144249 cycles=7318578 taken=667551 kernel=0 hash=1de3231afaa581c0 n=4144249");
    ("hello",
     "finished retired=18356005 cycles=19420011 taken=4472002 kernel=8584000 hash=6a2ed544342e9ab3 n=18356005");
    ("fitter-sse",
     "finished retired=3161542 cycles=5322572 taken=320513 kernel=0 hash=f7e3c2651dd57cc n=3161542");
  ]

let test_bench_set_full_runs () =
  List.map
    (fun name ->
      let w = Hbbp_workloads.Registry.find name in
      let digest = check_differential ~what:name w in
      (* Bare runs (no observers) take the separate no-observer path;
         their stats must match the armed stats too. *)
      let armed, _, _ = run_hashed Machine.Legacy w in
      List.iter
        (fun engine ->
          let bare = run_bare engine w in
          if bare <> armed then
            Alcotest.failf "%s: bare %s run disagrees with armed legacy: %s \
                            vs %s"
              name
              (Machine.engine_name engine)
              (pp_outcome bare) (pp_outcome armed))
        engines;
      (name, digest))
    bench_set
  |> check_pinned ~what:"bench set full runs" pinned_bench_set

(* Runaway budgeting: sweep awkward budgets (mid-block, block boundary,
   budget 1) and require identical truncation points. *)
let test_runaway_budgets () =
  let w = Hbbp_workloads.Registry.find "hello" in
  List.iter
    (fun budget ->
      ignore
        (check_differential
           ~what:(Printf.sprintf "hello budget=%d" budget)
           ~max_instructions:budget w
          : string))
    [ 1; 2; 3; 7; 100; 1_001; 65_537 ]

(* ------------------------------------------------------------------ *)
(* Archive and reconstruction identity through the pipeline.           *)

let config_for engine =
  { Pipeline.default_config with Pipeline.engine; keep_records = true }

(* MD5 of the legacy [collect_archive] bytes. *)
let pinned_archives =
  [
    ("hello",
     "8972eaa5c88c01fe6e25c40ae8bd70c9");
    ("test40",
     "40783abeebe170fc2b90cfe2fe46db31");
  ]

let test_archives_byte_identical () =
  List.map
    (fun name ->
      let w = Hbbp_workloads.Registry.find name in
      let bytes_of engine =
        Hbbp_collector.Perf_data.to_bytes
          (Pipeline.collect_archive ~config:(config_for engine) w)
      in
      let reference = bytes_of Machine.Legacy in
      List.iter
        (fun engine ->
          checkb
            (Printf.sprintf "%s: %s archive byte-identical to legacy" name
               (Machine.engine_name engine))
            true
            (Bytes.equal (bytes_of engine) reference))
        engines;
      (name, Digest.to_hex (Digest.bytes reference)))
    [ "hello"; "test40" ]
  |> check_pinned ~what:"archive bytes" pinned_archives

let profiles_equal (a : Pipeline.profile) (b : Pipeline.profile) =
  compare a.stats b.stats = 0
  && compare a.pmu_health b.pmu_health = 0
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
  && compare a.records b.records = 0
  && compare a.quality b.quality = 0

let test_reconstructions_identical () =
  let w = Hbbp_workloads.Registry.find "hello" in
  let reference = Pipeline.run ~config:(config_for Machine.Legacy) w in
  List.iter
    (fun engine ->
      let p = Pipeline.run ~config:(config_for engine) w in
      checkb
        (Printf.sprintf "%s profile equals legacy" (Machine.engine_name engine))
        true
        (profiles_equal p reference))
    engines

(* ------------------------------------------------------------------ *)
(* Seeded random-program fuzz: synthetic workloads spanning the
   generator's space (block shapes, FP flavours, indirect calls,
   long-latency density) must agree across engines, full-run.          *)

let fuzz_params seed =
  let module C = Hbbp_workloads.Codegen in
  let bit n = Int64.(to_int (logand (shift_right_logical seed n) 1L)) = 1 in
  let pick n k = Int64.(to_int (rem (shift_right_logical seed n) (of_int k))) in
  {
    C.blocks = 3 + pick 0 14;
    mean_len = 2 + pick 4 9;
    len_jitter = pick 8 4;
    iterations = 200 + (100 * pick 10 8);
    call_rate = float_of_int (pick 13 4) /. 8.0;
    indirect_calls = bit 16;
    profile =
      {
        C.fp =
          [| C.No_fp; C.X87_fp; C.Sse_scalar_fp; C.Sse_packed_fp;
             C.Avx_fp; C.Mixed_fp |].(pick 17 6);
        fp_rate = float_of_int (pick 20 5) /. 8.0;
        mem_rate = float_of_int (pick 23 5) /. 8.0;
        long_rate = float_of_int (pick 26 3) /. 16.0;
        simd_int_rate = float_of_int (pick 28 3) /. 8.0;
      };
  }

let test_fuzz_random_programs () =
  for i = 0 to 11 do
    let seed = Int64.of_int ((i * 0x9e3779b9) + 1) in
    let name = Printf.sprintf "fuzz%d" i in
    let ctx = Hbbp_workloads.Codegen.create_ctx ~seed in
    let funcs =
      Hbbp_workloads.Codegen.synthetic_funcs ctx ~name:("f_" ^ name)
        ~helpers:(1 + (i mod 3))
        (fuzz_params seed)
    in
    let w = Hbbp_workloads.Codegen.user_workload ~name funcs in
    ignore (check_differential ~what:name w : string)
  done

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "executor"
    [
      ( "differential",
        [
          Alcotest.test_case "registry sweep (capped)" `Quick
            test_registry_differential;
          Alcotest.test_case "bench set full runs + bare path" `Quick
            test_bench_set_full_runs;
          Alcotest.test_case "runaway budget sweep" `Quick test_runaway_budgets;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "archives byte-identical" `Quick
            test_archives_byte_identical;
          Alcotest.test_case "reconstructions identical" `Quick
            test_reconstructions_identical;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "random programs" `Quick test_fuzz_random_programs;
        ] );
    ]
