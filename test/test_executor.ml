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
  Machine.add_observer machine
  @@ Machine.per_instruction (fun r ->
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

(* Compare every engine's (outcome, stream hash, retirement count)
   against the legacy reference; returns the reference run. *)
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
  reference

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
      (name, digest_of (check_differential ~what:name ~max_instructions:400_000 w)))
    Hbbp_workloads.Registry.names
  |> Pinned.check ~what:"registry sweep" pinned_registry

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
      let ((armed, _, _) as reference) = check_differential ~what:name w in
      (* Bare runs (no observers) take the separate no-observer path;
         their stats must match the armed stats too. *)
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
      (name, digest_of reference))
    bench_set
  |> Pinned.check ~what:"bench set full runs" pinned_bench_set

(* Runaway budgeting: sweep awkward budgets (mid-block, block boundary,
   budget 1) and require identical truncation points. *)
let runaway_budgets = [ 1; 2; 3; 7; 100; 1_001; 65_537 ]

let test_runaway_budgets () =
  let w = Hbbp_workloads.Registry.find "hello" in
  List.iter
    (fun budget ->
      ignore
        (check_differential
           ~what:(Printf.sprintf "hello budget=%d" budget)
           ~max_instructions:budget w
          : outcome * int * int))
    runaway_budgets

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
  |> Pinned.check ~what:"archive bytes" pinned_archives

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
  List.iter
    (fun name ->
      let w = Hbbp_workloads.Registry.find name in
      let reference = Pipeline.run ~config:(config_for Machine.Legacy) w in
      List.iter
        (fun engine ->
          let p = Pipeline.run ~config:(config_for engine) w in
          checkb
            (Printf.sprintf "%s: %s profile equals legacy" name
               (Machine.engine_name engine))
            true
            (profiles_equal p reference))
        engines)
    bench_set

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

let fuzz_workloads =
  List.init 12 (fun i ->
      let seed = Int64.of_int ((i * 0x9e3779b9) + 1) in
      let name = Printf.sprintf "fuzz%d" i in
      let ctx = Hbbp_workloads.Codegen.create_ctx ~seed in
      let funcs =
        Hbbp_workloads.Codegen.synthetic_funcs ctx ~name:("f_" ^ name)
          ~helpers:(1 + (i mod 3))
          (fuzz_params seed)
      in
      Hbbp_workloads.Codegen.user_workload ~name funcs)

let test_fuzz_random_programs () =
  List.iter
    (fun (w : Workload.t) ->
      ignore
        (check_differential ~what:w.Workload.name w : outcome * int * int))
    fuzz_workloads

(* ------------------------------------------------------------------ *)
(* Block-granular observers.  The hashed observer above sees every
   retirement, so it always steps; these runs arm the real observers,
   whose [due] lets whole blocks through, and compare everything they
   record against the legacy loop.                                     *)

let run_outcome machine ?max_instructions (w : Workload.t) =
  match Machine.run machine ~entry:w.Workload.entry ?max_instructions () with
  | stats -> Finished stats
  | exception Machine.Runaway n -> Ran_away n
  | exception Machine.Machine_fault msg -> Faulted msg

(* Archive bytes of a budget-capped collection at sampling periods of
   7 instructions and 3 taken branches: PMIs, pending skids and shadow
   slides straddle block boundaries all the time, so runs alternate
   between whole blocks and stepped ones. *)
let tight_archive engine (w : Workload.t) =
  let machine = Machine.create ~process:w.Workload.live_process ~engine () in
  let session =
    Hbbp_collector.Session.configure Pmu_model.default
      { Hbbp_collector.Period.ebs = 7; lbr = 3 }
  in
  Machine.add_observer machine
    (Pmu.observer (Hbbp_collector.Session.pmu session));
  let outcome = run_outcome machine ~max_instructions:30_000 w in
  let archive =
    Hbbp_collector.Perf_data.of_session ~workload_name:w.Workload.name
      ~session ~analysis:w.Workload.analysis_process
      ~live:w.Workload.live_process
  in
  (outcome, Hbbp_collector.Perf_data.to_bytes archive)

let tight_workloads () =
  List.map Hbbp_workloads.Registry.find
    [ "mcf"; "test40"; "train-shadow"; "hello" ]
  @ fuzz_workloads

let check_tight_archives ~what =
  List.iter
    (fun (w : Workload.t) ->
      let ro, rb = tight_archive Machine.Legacy w in
      List.iter
        (fun engine ->
          let go, gb = tight_archive engine w in
          if go <> ro || not (Bytes.equal gb rb) then
            Alcotest.failf "%s %s: %s archive differs from legacy (%s / %s)"
              what w.Workload.name
              (Machine.engine_name engine)
              (pp_outcome go) (pp_outcome ro))
        engines)
    (tight_workloads ())

let test_tight_periods () = check_tight_archives ~what:"tight periods"

let test_tight_periods_faults () =
  let plan =
    match
      Hbbp_faults.Fault_plan.of_string
        "seed=7,pmu.drop=0.05,pmu.burst_every=50,pmu.burst_len=4,pmu.skid=2,\
         pmu.jitter=3,lbr.truncate=8,lbr.stuck=0.05,lbr.misrotate=0.05"
    with
    | Ok p -> p
    | Error msg -> Alcotest.failf "bad plan: %s" msg
  in
  Hbbp_faults.Faults.arm plan;
  Fun.protect
    ~finally:(fun () ->
      Hbbp_faults.Faults.disarm ();
      Hbbp_faults.Faults.reset_tally ())
    (fun () -> check_tight_archives ~what:"tight periods + PMU faults")

(* Every observer kind at once: the SDE over the user images, the
   collector's sampling session, and counting PMUs over every event, so
   the per-block count vectors are exercised too.  [cycle_sampler] adds
   a PMU sampling cycles, which must keep every block stepped. *)
type armed = { sde : Hbbp_instrument.Sde.t; pmus : Pmu.t list }

let arm_all ?(cycle_sampler = false) (w : Workload.t) =
  let maps =
    List.filter_map
      (fun (img : Hbbp_program.Image.t) ->
        if Hbbp_program.Ring.equal img.ring Hbbp_program.Ring.User then
          Some (Hbbp_program.Bb_map.of_image_exn img)
        else None)
      (Hbbp_program.Process.images w.Workload.live_process)
  in
  let counting events =
    Pmu.create Pmu_model.default
      (List.map (fun event -> { Pmu.event; mode = Pmu.Counting }) events)
  in
  let session =
    Hbbp_collector.Session.configure Pmu_model.default
      (Hbbp_collector.Period.simulation w.Workload.runtime_class)
  in
  {
    sde = Hbbp_instrument.Sde.create Hbbp_instrument.Sde.default_config maps;
    pmus =
      [
        Hbbp_collector.Session.pmu session;
        Pmu_event.(
          counting
            [ Cpu_clk_unhalted; Fp_comp_ops_sse; Fp_comp_ops_x87;
              Arith_divider_cycles ]);
        Pmu_event.(
          counting
            [ Fp_comp_ops_avx; Simd_int_128; Inst_retired_any;
              Br_inst_retired_near_taken ]);
      ]
      @
      if cycle_sampler then
        [
          Pmu.create Pmu_model.default
            [
              {
                Pmu.event = Pmu_event.Cpu_clk_unhalted;
                mode = Pmu.Sampling { period = 997; lbr = false };
              };
            ];
        ]
      else [];
  }

let attach machine a =
  Machine.add_observer machine (Hbbp_instrument.Sde.observer a.sde);
  List.iter (fun p -> Machine.add_observer machine (Pmu.observer p)) a.pmus

let reset a =
  Hbbp_instrument.Sde.reset a.sde;
  List.iter Pmu.reset a.pmus

(* Everything the observers recorded, in comparable form. *)
let observed a =
  let module Sde = Hbbp_instrument.Sde in
  ( List.map (fun p -> (Pmu.samples p, Pmu.health p, Pmu.counts p)) a.pmus,
    List.map
      (fun (_, (b : Hbbp_program.Basic_block.t), n) -> (b.addr, n))
      (Sde.block_counts a.sde),
    ( Sde.histogram a.sde,
      Sde.total_instructions a.sde,
      Sde.lost_kernel_instructions a.sde,
      Sde.instrumented_cycles a.sde ) )

let armed_run engine ?cycle_sampler ?max_instructions (w : Workload.t) =
  let machine = Machine.create ~process:w.Workload.live_process ~engine () in
  let a = arm_all ?cycle_sampler w in
  attach machine a;
  let outcome = run_outcome machine ?max_instructions w in
  ((outcome, observed a), Machine.coverage machine)

let test_armed_runaway_budgets () =
  let w = Hbbp_workloads.Registry.find "hello" in
  List.iter
    (fun cycle_sampler ->
      List.iter
        (fun budget ->
          let (ro, rs), _ =
            armed_run Machine.Legacy ~cycle_sampler ~max_instructions:budget w
          in
          List.iter
            (fun engine ->
              let (go, gs), coverage =
                armed_run engine ~cycle_sampler ~max_instructions:budget w
              in
              if cycle_sampler && coverage.Machine.batched > 0 then
                Alcotest.failf "hello budget=%d: %d blocks batched under a \
                                cycle sampler"
                  budget coverage.Machine.batched;
              if go <> ro || compare gs rs <> 0 then
                Alcotest.failf
                  "hello budget=%d%s: armed %s run differs from legacy (%s / \
                   %s)"
                  budget
                  (if cycle_sampler then " + cycle sampler" else "")
                  (Machine.engine_name engine)
                  (pp_outcome go) (pp_outcome ro))
            engines)
        runaway_budgets)
    [ false; true ]

(* One set of observers carried through [reset], a second run of the
   same machine (whose blocks already hold the observers' summaries),
   a second machine, and a run without [reset], which accumulates onto
   the previous one.  A machine's memory persists across its runs, so
   the reference replays the same steps under the legacy loop. *)
let test_observer_reuse () =
  let w = Hbbp_workloads.Registry.find "test40" in
  let max_instructions = 200_000 in
  let replay engine =
    let a = arm_all w in
    let machine () =
      let m = Machine.create ~process:w.Workload.live_process ~engine () in
      attach m a;
      m
    in
    let step m =
      let outcome = run_outcome m ~max_instructions w in
      (outcome, observed a)
    in
    let m1 = machine () in
    let first = step m1 in
    reset a;
    let same_machine = step m1 in
    reset a;
    let m2 = machine () in
    let second_machine = step m2 in
    let no_reset = step m2 in
    (* Alone, a counting PMU lets the first block of its next run
       through whole, starting from the previous run's cycle count. *)
    let clock =
      Pmu.create Pmu_model.default
        [ { Pmu.event = Pmu_event.Cpu_clk_unhalted; mode = Pmu.Counting } ]
    in
    let m3 = Machine.create ~process:w.Workload.live_process ~engine () in
    Machine.add_observer m3 (Pmu.observer clock);
    let clock_runs =
      List.init 2 (fun _ ->
          let outcome = run_outcome m3 ~max_instructions w in
          (outcome, Pmu.counts clock))
    in
    ( [
        ("first run", first);
        ("after reset, same machine", same_machine);
        ("after reset, second machine", second_machine);
        ("no reset", no_reset);
      ],
      clock_runs )
  in
  let got, got_clock = replay Machine.Superblock
  and expected, expected_clock = replay Machine.Legacy in
  List.iter2
    (fun (what, got) (_, expected) ->
      checkb what true (compare got expected = 0))
    got expected;
  checkb "counting PMU without reset" true
    (compare got_clock expected_clock = 0)

(* Executor coverage through the metrics registry: on [collect hello]
   nearly every block runs whole. *)
let test_collect_coverage () =
  let module Metrics = Hbbp_telemetry.Metrics in
  Metrics.reset ();
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.disable ();
      Metrics.reset ())
    (fun () ->
      let w = Hbbp_workloads.Registry.find "hello" in
      ignore (Pipeline.collect_archive w : Hbbp_collector.Perf_data.t);
      let value name = Metrics.counter_value (Metrics.counter name) in
      let batched = value "exec.blocks_batched"
      and stepped = value "exec.blocks_stepped" in
      Alcotest.(check int) "exec.retired" 18_356_005 (value "exec.retired");
      checkb
        (Printf.sprintf "%d of %d blocks stepped (< 5%%)" stepped
           (batched + stepped))
        true
        (stepped > 0 && stepped * 20 < batched + stepped))

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
      ( "block observers",
        [
          Alcotest.test_case "archives at periods 7/3" `Quick
            test_tight_periods;
          Alcotest.test_case "archives at periods 7/3 + PMU faults" `Quick
            test_tight_periods_faults;
          Alcotest.test_case "armed runaway budget sweep" `Quick
            test_armed_runaway_budgets;
          Alcotest.test_case "observer reuse" `Quick test_observer_reuse;
          Alcotest.test_case "collect coverage metrics" `Quick
            test_collect_coverage;
        ] );
    ]
