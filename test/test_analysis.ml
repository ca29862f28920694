(* Analyzer outputs pinned by committed digests.

   Every registry workload is collected under a capped instruction
   budget, then analyzed from its archive ([Pipeline.analyze_archive]).
   The table below pins, per workload, digests of the bias flags and
   branch statistics, the bits of the LBR weights, the fused HBBP counts
   and the repaired BBEC.  A refactor of the analysis layer must leave
   every line unchanged; on a mismatch the failure prints every moved
   line in table syntax, so an intended output change updates the table
   from that output. *)

open Hbbp_cpu
open Hbbp_analyzer
open Hbbp_collector
open Hbbp_core

(* ------------------------------------------------------------------ *)
(* Collection under a budget                                           *)

let budget = 300_000

(* The workload's own simulation periods, default PMU model; a run
   longer than [budget] stops there and keeps what was sampled. *)
let capped_archive ?(model = Pmu_model.default) (w : Workload.t) =
  let machine = Machine.create ~process:w.Workload.live_process () in
  let session =
    Session.configure model (Period.simulation w.Workload.runtime_class)
  in
  Machine.add_observer machine (Pmu.observer (Session.pmu session));
  (match
     Machine.run machine ~entry:w.Workload.entry ~max_instructions:budget ()
   with
  | _ | (exception Machine.Runaway _) -> ());
  Perf_data.of_session ~workload_name:w.Workload.name ~session
    ~analysis:w.Workload.analysis_process ~live:w.Workload.live_process

let registry_archives =
  lazy
    (List.map
       (fun name -> (name, capped_archive (Hbbp_workloads.Registry.find name)))
       Hbbp_workloads.Registry.names)

(* ------------------------------------------------------------------ *)
(* Digests                                                             *)

let short_md5 buf =
  String.sub (Digest.to_hex (Digest.string (Buffer.contents buf))) 0 16

let digest_floats a =
  let b = Buffer.create (8 * Array.length a) in
  Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) a;
  short_md5 b

let digest_flags flags =
  let b = Buffer.create (Array.length flags) in
  Array.iter (fun f -> Buffer.add_char b (if f then '1' else '0')) flags;
  short_md5 b

let digest_stats stats =
  let b = Buffer.create 256 in
  List.iter
    (fun (s : Bias.branch_stat) ->
      List.iter
        (fun v -> Buffer.add_int64_le b (Int64.of_int v))
        [ s.src; s.entry0_count; s.deep_count; s.adjacent_streams;
          s.failed_streams ];
      Buffer.add_int64_le b (Int64.bits_of_float s.entry0_share);
      Buffer.add_int64_le b (Int64.bits_of_float s.deep_share))
    stats;
  short_md5 b

let digest_of (r : Pipeline.reconstruction) =
  let repaired =
    match r.Pipeline.r_repair with
    | Some rep -> digest_floats rep.Hbbp_verifier.Repair.repaired.Bbec.counts
    | None -> "none"
  in
  Printf.sprintf
    "snap=%d flagged=%d flags=%s stats=%s weight=%s hbbp=%s repaired=%s"
    r.Pipeline.r_bias.Bias.snapshots
    (List.length (Bias.flagged_blocks r.Pipeline.r_bias))
    (digest_flags r.Pipeline.r_bias.Bias.flags)
    (digest_stats r.Pipeline.r_bias.Bias.stats)
    (digest_floats r.Pipeline.r_lbr.Lbr_estimator.weight)
    (digest_floats r.Pipeline.r_hbbp.Bbec.counts)
    repaired

(* ------------------------------------------------------------------ *)
(* Pinned table                                                        *)

(* Computed at the budget above; one line per registry workload. *)
let pinned_analysis =
  [
    ("perlbench",
     "snap=93 flagged=0 flags=10eab6008d5642cf stats=dda0d31e7f78048c weight=71a435696fb2fd4b hbbp=1e22ce39de6e2cfe repaired=9dc119aad8e8bade");
    ("bzip2",
     "snap=34 flagged=0 flags=cd9e459ea708a948 stats=65c06548e911fd47 weight=a0e280a2b82f85c4 hbbp=aa0e1d8bbfb588f4 repaired=aa0e1d8bbfb588f4");
    ("gcc",
     "snap=90 flagged=71 flags=6f4bd13a5fda2875 stats=1180b0f2956c16ab weight=20d7514d3968e6de hbbp=43f87e2a71c72eaf repaired=625d9c80a6cb7eaf");
    ("mcf",
     "snap=67 flagged=8 flags=de03cc192c1a1510 stats=c535fba1bfb73a13 weight=dcb380bfb47dfe1d hbbp=947940ad85222dc5 repaired=41dd06303dc769c1");
    ("gobmk",
     "snap=99 flagged=27 flags=4f78e5745b2fae41 stats=a0514bc89fb9659d weight=d8a01782cea75726 hbbp=00104f7b73cca07b repaired=7f177081034faa58");
    ("hmmer",
     "snap=32 flagged=0 flags=0e7b9f29a828b6f9 stats=06cc3b9913003bc3 weight=95f90a74d24f3291 hbbp=9a6f56113bbbabd0 repaired=9a6f56113bbbabd0");
    ("sjeng",
     "snap=87 flagged=22 flags=67211f2815c38505 stats=34c2c7d16ee03f9b weight=62831b65c3be8e05 hbbp=6816bb04bfb085e3 repaired=2030f018d8878458");
    ("libquantum",
     "snap=53 flagged=8 flags=3acede1bb0e0375d stats=2dbd1f1101fa994b weight=436b59e9674659f9 hbbp=345bfbbc040d2d68 repaired=00c1ce343386aff1");
    ("h264ref",
     "snap=49 flagged=0 flags=82c66dbf3e73f87f stats=79e294b87fed70c6 weight=3106e8d4bad14970 hbbp=74a8cff741a84b9a repaired=74a8cff741a84b9a");
    ("x264ref",
     "snap=62 flagged=29 flags=2a2c6789a489a269 stats=526c47cb8e5e856a weight=39f66f05bb12e023 hbbp=eb27ac871be6173b repaired=b524283a2ba6d57a");
    ("omnetpp",
     "snap=120 flagged=31 flags=fc3653555b178169 stats=2889eeeaa0dec991 weight=94ec6450c7582d93 hbbp=35bbb911685a81c1 repaired=64f6c4c329f4f4cb");
    ("astar",
     "snap=81 flagged=21 flags=b9be2ac30952c099 stats=b27460abd652c9ce weight=7389a16081034720 hbbp=7564cd01c5be0b3f repaired=8d307021a93e42cf");
    ("xalancbmk",
     "snap=111 flagged=27 flags=52e7ebe274c50a31 stats=0dc7a7da1ed05646 weight=f0f0e9fb3c2066a5 hbbp=b0dbbbe50ba56875 repaired=94f6864ac6e9928e");
    ("milc",
     "snap=26 flagged=0 flags=b28ccfdee4b9f39b stats=d41d8cd98f00b204 weight=fb6d205dcae1d2ca hbbp=e4626ab4d18885be repaired=e4626ab4d18885be");
    ("namd",
     "snap=18 flagged=0 flags=3ea032bf79e8c116 stats=d41d8cd98f00b204 weight=a3ac48737489c01e hbbp=5a0eeb4377d3208d repaired=c287e0f510e2bdbf");
    ("dealII",
     "snap=60 flagged=21 flags=a019d8c8dc26ed93 stats=7b0f46cccfbb3daf weight=df7decf69162d87d hbbp=bdc406c11653ac13 repaired=be9f3b1270664c23");
    ("soplex",
     "snap=36 flagged=0 flags=7f2e1dcfd6e2a3f5 stats=6bb8efd5eddec823 weight=092a5205b350def4 hbbp=e11f958f351c0e06 repaired=e11f958f351c0e06");
    ("povray",
     "snap=80 flagged=22 flags=bb6d25dc1411e355 stats=00f65d2c86b1cbc5 weight=d5742a09bc386e8e hbbp=0847d7506774a6a1 repaired=03b1bec1aeec5925");
    ("gamess",
     "snap=67 flagged=28 flags=08e4e610772b91b3 stats=8a490630d55f7364 weight=0199be47cb5455d3 hbbp=30fe7bafa34c0be7 repaired=c5a532a48c006177");
    ("lbm",
     "snap=15 flagged=0 flags=4aad0d9ff11812eb stats=d41d8cd98f00b204 weight=e24bd589771eb4b4 hbbp=3c4a5080043253d2 repaired=3c4a5080043253d2");
    ("sphinx3",
     "snap=43 flagged=12 flags=1df926985ebdbfaa stats=b8d2fb175a0da821 weight=ae97e9ede812b42a hbbp=42af861545099bde repaired=42af861545099bde");
    ("test40",
     "snap=229 flagged=28 flags=317b67dcb9afe7ae stats=f35db49be281a91e weight=14f6084a4661e022 hbbp=07bc5923d01b85d4 repaired=5ebe6654062dd285");
    ("hydro-post",
     "snap=33 flagged=0 flags=3ea032bf79e8c116 stats=be639540a82841bd weight=c4c9c9d4193b52bf hbbp=7cb23f6ca7a1ed07 repaired=7cb23f6ca7a1ed07");
    ("hello",
     "snap=346 flagged=9 flags=7fe0a9deeee9d03e stats=4c4e94e625fde3b8 weight=1e840961de3dc389 hbbp=c9757e0380122eef repaired=e446076570285837");
    ("fitter-x87",
     "snap=111 flagged=0 flags=1e4a1b03d1b6cd8a stats=6b1530da67d6fccf weight=041d0920f18884dc hbbp=e920968b4f9ed054 repaired=e920968b4f9ed054");
    ("fitter-sse",
     "snap=145 flagged=9 flags=ba405f1ac5f36f7c stats=85b0b564403ac7a8 weight=70bba9b4dbb1de04 hbbp=19734f65780d5a6b repaired=19734f65780d5a6b");
    ("fitter-avx",
     "snap=156 flagged=0 flags=1e4a1b03d1b6cd8a stats=840e4f22cfa40790 weight=5dc548a595bfced3 hbbp=061d46e81b53e4a8 repaired=061d46e81b53e4a8");
    ("fitter-avx-noinline",
     "snap=417 flagged=17 flags=31c25d68e4f3b8f2 stats=d91b1eb06b5122a2 weight=b129b9163308e6d9 hbbp=c41da844b90db6cd repaired=c41da844b90db6cd");
    ("clforward-before",
     "snap=174 flagged=0 flags=29c3eea3f305d6b8 stats=163f5ed9a096cfe6 weight=01e9264996feb4a5 hbbp=7ecf8fdf08bac611 repaired=7ecf8fdf08bac611");
    ("clforward-after",
     "snap=155 flagged=0 flags=29c3eea3f305d6b8 stats=e9b7aa099650031e weight=098ed807bf5c7a50 hbbp=7a27d014c4a51f2f repaired=7a27d014c4a51f2f");
    ("train-short-int",
     "snap=147 flagged=110 flags=5d41e9959b2046aa stats=b04229b62cf2b7c4 weight=bcfea1979ef7444c hbbp=dd2c0246b56fc2d6 repaired=52c99aa18c550144");
    ("train-mid-int",
     "snap=76 flagged=26 flags=7335dd029e18ee9d stats=314716127c170bab weight=b9fc58c2c741f9c7 hbbp=e6facc0763484d17 repaired=1a3ece824784544c");
    ("train-long-fp",
     "snap=26 flagged=0 flags=59c22bb9c6cd3578 stats=d41d8cd98f00b204 weight=0100c16b78b72340 hbbp=467750d70f76ca7d repaired=21de81003eb36a49");
    ("train-longer",
     "snap=20 flagged=0 flags=d7fe636bd28e2ee2 stats=d41d8cd98f00b204 weight=261a8231879953cd hbbp=cd357c44e58ace10 repaired=fc16f05e601e19c2");
    ("train-shadow",
     "snap=55 flagged=21 flags=63c433c867e76b00 stats=81bd8eb5bfb5a31d weight=0719d8fb6b30d5f5 hbbp=d7d534a9043d4a0b repaired=9eaf3c202f90fc18");
    ("train-branchy",
     "snap=182 flagged=38 flags=5282f9bb849fed7c stats=56b125e4e28ca42a weight=d1a30a1752cb21c3 hbbp=08716dab9593a3aa repaired=3377dd84b3197749");
    ("train-x87",
     "snap=97 flagged=0 flags=f1fcad593632f9dc stats=6bb00d2dd8e0933a weight=1c39503a2b1c8b71 hbbp=4db2c746ae179746 repaired=4db2c746ae179746");
    ("train-mixed",
     "snap=76 flagged=94 flags=9b6330b687683f23 stats=e6b6dbb23cb3d2a5 weight=c8ce22d85423ade4 hbbp=69ccdb9e4b90939c repaired=2df264b3852f8042");
  ]

let test_analysis_golden () =
  List.map
    (fun (name, archive) -> (name, digest_of (Pipeline.analyze_archive archive)))
    (Lazy.force registry_archives)
  |> Pinned.check ~what:"analyzer outputs" pinned_analysis

(* ------------------------------------------------------------------ *)
(* Contamination: accumulated triples against a replay of the stream    *)

let lbr_samples (archive : Perf_data.t) =
  Array.of_list
    (List.filter_map
       (function
         | Record.Sample s
           when Pmu_event.equal s.Record.event
                  Pmu_event.Br_inst_retired_near_taken ->
             Some { Sample_db.entries = s.Record.lbr; ring = s.Record.ring }
         | _ -> None)
       archive.Perf_data.records)

(* Reference: contamination as a second pass over the snapshots.  The
   flagged branches are re-derived from [bias.stats]; then every record
   of a flagged branch flags the stream ending at it and the stream
   starting at its target, and flags spill one static hop. *)
let reference_flags ?(params = Bias.default_params) static (bias : Bias.t)
    samples =
  let flags = Array.make (Static.total_blocks static) false in
  let flagged_srcs = Hashtbl.create 16 in
  List.iter
    (fun (st : Bias.branch_stat) ->
      let entry0_symptom =
        st.entry0_count >= params.Bias.min_entry0
        && st.entry0_share >= params.Bias.min_entry0_share
        && st.entry0_share > params.Bias.share_factor *. st.deep_share
      in
      let failure_symptom =
        st.failed_streams >= params.Bias.min_failures
        && st.adjacent_streams > 0
        && float_of_int st.failed_streams /. float_of_int st.adjacent_streams
           > params.Bias.failure_rate
      in
      if entry0_symptom || failure_symptom then begin
        Hashtbl.replace flagged_srcs st.src ();
        Option.iter (fun gid -> flags.(gid) <- true) (Static.find static st.src)
      end)
    bias.Bias.stats;
  let flag_forward_from addr limit =
    match Static.find_starting static addr with
    | None -> ()
    | Some gid0 ->
        let rec go gid k =
          if k < limit then begin
            flags.(gid) <- true;
            match Static.next_in_layout static gid with
            | Some next -> go next (k + 1)
            | None -> ()
          end
        in
        go gid0 0
  in
  let flag_walk ~target ~src =
    match Stream_walk.walk static ~target ~src with
    | Stream_walk.Blocks gids -> List.iter (fun gid -> flags.(gid) <- true) gids
    | Stream_walk.Inconsistent | Stream_walk.Bad ->
        flag_forward_from target 4;
        Option.iter (fun gid -> flags.(gid) <- true) (Static.find static src)
  in
  let contaminate (s : Sample_db.lbr_sample) =
    let n = Array.length s.entries in
    for k = 0 to n - 1 do
      if Hashtbl.mem flagged_srcs s.entries.(k).Lbr.src then begin
        if k >= 1 then
          flag_walk ~target:s.entries.(k - 1).Lbr.tgt ~src:s.entries.(k).Lbr.src;
        if k + 1 < n then
          flag_walk ~target:s.entries.(k).Lbr.tgt ~src:s.entries.(k + 1).Lbr.src
      end
    done
  in
  if Hashtbl.length flagged_srcs > 0 then begin
    Array.iter contaminate samples;
    let seed = Array.copy flags in
    Array.iteri
      (fun gid is_flagged ->
        if is_flagged then begin
          let _, _, block = Static.block static gid in
          let flag_opt = Option.iter (fun g -> flags.(g) <- true) in
          match block.Hbbp_program.Basic_block.term with
          | Hbbp_program.Basic_block.Term_jump a ->
              flag_opt (Static.find_starting static a)
          | Hbbp_program.Basic_block.Term_cond a ->
              flag_opt (Static.find_starting static a);
              flag_opt (Static.next_in_layout static gid)
          | Hbbp_program.Basic_block.Term_fallthrough ->
              flag_opt (Static.next_in_layout static gid)
          | _ -> ()
        end)
      seed
  end;
  flags

let count_flags flags =
  Array.fold_left (fun n f -> if f then n + 1 else n) 0 flags

(* The accumulator-based flags of [r] equal the replay's; returns the
   number of flagged blocks. *)
let check_against_replay ~what (r : Pipeline.reconstruction) samples =
  let expected = reference_flags r.Pipeline.r_static r.Pipeline.r_bias samples in
  if expected <> r.Pipeline.r_bias.Bias.flags then
    Alcotest.failf "%s: flags differ from the replay (%d vs %d flagged)" what
      (count_flags r.Pipeline.r_bias.Bias.flags)
      (count_flags expected);
  count_flags expected

let test_contamination_registry () =
  let flagged =
    List.filter
      (fun (name, archive) ->
        check_against_replay ~what:name (Pipeline.analyze_archive archive)
          (lbr_samples archive)
        > 0)
      (Lazy.force registry_archives)
  in
  (* The comparison must exercise contamination, not only clean runs. *)
  Alcotest.(check bool) "most workloads flag blocks" true
    (List.length flagged >= 15)

(* Lossy LBR: one record in four goes missing after a taken branch, so
   merged streams fail to walk and the failure symptom fires. *)
let lossy_model = { Pmu_model.default with Pmu_model.global_drop_probability = 0.25 }

let test_contamination_dropped_records () =
  List.iter
    (fun name ->
      let archive =
        capped_archive ~model:lossy_model (Hbbp_workloads.Registry.find name)
      in
      let r = Pipeline.analyze_archive archive in
      let p = Bias.default_params in
      let failure_flagged =
        List.filter
          (fun (st : Bias.branch_stat) ->
            st.failed_streams >= p.Bias.min_failures
            && float_of_int st.failed_streams
               /. float_of_int (max 1 st.adjacent_streams)
               > p.Bias.failure_rate)
          r.Pipeline.r_bias.Bias.stats
      in
      Alcotest.(check bool)
        (name ^ ": failure symptom fires") true (failure_flagged <> []);
      ignore (check_against_replay ~what:name r (lbr_samples archive) : int))
    [ "mcf"; "test40"; "hello"; "gcc" ]

(* [n] contiguous chunks of [a]. *)
let split n a =
  let len = Array.length a in
  List.init n (fun i ->
      let lo = i * len / n and hi = (i + 1) * len / n in
      Array.sub a lo (hi - lo))

let bias_acc static samples =
  let acc = Bias.Acc.create () in
  Array.iter (Bias.Acc.add static acc) samples;
  acc

let lbr_acc static samples =
  let acc = Lbr_estimator.Acc.create static in
  Array.iter (Lbr_estimator.Acc.add static acc) samples;
  acc

let check_same_bias ~what (expected : Bias.t) (got : Bias.t) =
  if expected.Bias.flags <> got.Bias.flags
     || compare expected.Bias.stats got.Bias.stats <> 0
     || expected.Bias.snapshots <> got.Bias.snapshots
  then Alcotest.failf "%s: bias result differs" what

let check_same_weights ~what (expected : Lbr_estimator.t) (got : Lbr_estimator.t)
    =
  let bits a = Array.map Int64.bits_of_float a in
  if bits expected.Lbr_estimator.weight <> bits got.Lbr_estimator.weight then
    Alcotest.failf "%s: LBR weights differ" what

(* Shard splits: accumulators over 1, 3 and 7 contiguous chunks, merged
   front to back and back to front, finalize to the replay's flags and
   to the one-shot LBR weights. *)
let test_contamination_shards () =
  List.iter
    (fun (name, archive) ->
      let r = Pipeline.analyze_archive archive in
      let static = r.Pipeline.r_static and samples = lbr_samples archive in
      let expected = r.Pipeline.r_bias in
      if reference_flags static expected samples <> expected.Bias.flags then
        Alcotest.failf "%s: one-shot flags differ from the replay" name;
      List.iter
        (fun n ->
          let chunks = split n samples in
          let merged merge acc_of =
            let accs = List.map (acc_of static) chunks in
            ( List.fold_left merge (List.hd accs) (List.tl accs),
              let rev = List.rev accs in
              List.fold_left (fun a b -> merge b a) (List.hd rev) (List.tl rev) )
          in
          let fwd, bwd = merged Bias.Acc.merge bias_acc in
          check_same_bias ~what:(Printf.sprintf "%s %d shards" name n)
            expected (Bias.finalize static fwd);
          check_same_bias
            ~what:(Printf.sprintf "%s %d shards, reversed merge" name n)
            expected (Bias.finalize static bwd);
          let period = r.Pipeline.r_lbr.Lbr_estimator.period in
          let fwd, bwd = merged Lbr_estimator.Acc.merge lbr_acc in
          check_same_weights ~what:(Printf.sprintf "%s %d shards" name n)
            r.Pipeline.r_lbr (Lbr_estimator.finalize static ~period fwd);
          check_same_weights
            ~what:(Printf.sprintf "%s %d shards, reversed merge" name n)
            r.Pipeline.r_lbr (Lbr_estimator.finalize static ~period bwd))
        [ 1; 3; 7 ])
    (Lazy.force registry_archives)

(* A checkpoint taken mid-stream: export, import, then keep feeding the
   restored accumulator. *)
let test_contamination_roundtrip () =
  List.iter
    (fun (name, archive) ->
      let r = Pipeline.analyze_archive archive in
      let static = r.Pipeline.r_static and samples = lbr_samples archive in
      let half = Array.length samples / 2 in
      let head = Array.sub samples 0 half
      and tail = Array.sub samples half (Array.length samples - half) in
      let bias = Bias.Acc.import (Bias.Acc.export (bias_acc static head)) in
      Array.iter (Bias.Acc.add static bias) tail;
      check_same_bias ~what:(name ^ " mid-stream round trip") r.Pipeline.r_bias
        (Bias.finalize static bias);
      let lbr =
        Lbr_estimator.Acc.import (Lbr_estimator.Acc.export (lbr_acc static head))
      in
      Array.iter (Lbr_estimator.Acc.add static lbr) tail;
      check_same_weights ~what:(name ^ " mid-stream round trip") r.Pipeline.r_lbr
        (Lbr_estimator.finalize static
           ~period:r.Pipeline.r_lbr.Lbr_estimator.period lbr))
    (Lazy.force registry_archives)

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)

module Metrics = Hbbp_telemetry.Metrics

let distinct_pairs samples =
  let seen = Hashtbl.create 256 in
  Array.iter
    (fun (s : Sample_db.lbr_sample) ->
      for k = 1 to Array.length s.entries - 1 do
        Hashtbl.replace seen (s.entries.(k - 1).Lbr.tgt, s.entries.(k).Lbr.src) ()
      done)
    samples;
  Hashtbl.length seen

(* [lbr.distinct_streams] counts the distinct (target, src) streams of
   the whole stream, also when the reconstruction merges two halves. *)
let test_distinct_streams_metric () =
  let archive = List.assoc "gcc" (Lazy.force registry_archives) in
  let expected = distinct_pairs (lbr_samples archive) in
  let published f =
    Metrics.reset ();
    Metrics.enable ();
    Fun.protect
      ~finally:(fun () ->
        Metrics.disable ();
        Metrics.reset ())
      (fun () ->
        ignore (f () : Pipeline.reconstruction);
        Metrics.counter_value (Metrics.counter "lbr.distinct_streams"))
  in
  Alcotest.(check int) "one pass" expected
    (published (fun () -> Pipeline.analyze_archive archive));
  let static = Static.create_exn (Perf_data.analysis_process archive) in
  let records = archive.Perf_data.records in
  let half = List.length records / 2 in
  let reconstruct records =
    Pipeline.reconstruct ~static ~ebs_period:archive.Perf_data.ebs_period
      ~lbr_period:archive.Perf_data.lbr_period records
  in
  let head = reconstruct (List.filteri (fun i _ -> i < half) records)
  and tail = reconstruct (List.filteri (fun i _ -> i >= half) records) in
  Alcotest.(check int) "merged halves" expected
    (published (fun () -> Pipeline.merge_reconstructions head tail))

let () =
  Alcotest.run "analysis"
    [
      ( "golden",
        [
          Alcotest.test_case "registry analyzer outputs" `Quick
            test_analysis_golden;
        ] );
      ( "contamination",
        [
          Alcotest.test_case "registry = replay" `Quick
            test_contamination_registry;
          Alcotest.test_case "dropped LBR records = replay" `Quick
            test_contamination_dropped_records;
          Alcotest.test_case "1/3/7 shards, both merge orders" `Quick
            test_contamination_shards;
          Alcotest.test_case "mid-stream export/import" `Quick
            test_contamination_roundtrip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "lbr.distinct_streams" `Quick
            test_distinct_streams_metric;
        ] );
    ]
