(* Counts the traced run gathers at the layer boundaries, summed over the
   operations of one traced pass. *)

type t = {
  mutable retired : int;
  mutable kernel_retired : int;
  mutable taken_branches : int;
  mutable pmis : int;
  mutable lbr_snapshots : int;
  mutable exec_words : float;  (** Words allocated inside [cpu.exec_s]. *)
  mutable records : int;
  mutable archive_bytes : int;
  mutable fed_records : int;
  mutable feed_words : float;  (** Words allocated inside [core.feed_s]. *)
  mutable stream_walks : int;
  mutable usable_streams : int;
  mutable mix_errors : float list;
  mutable conservation_errors : float list;
  mutable stopped : float;
      (** When the current operation's real path ended; the alone calls
          that follow are outside its wall time. *)
}

let create () =
  {
    retired = 0;
    kernel_retired = 0;
    taken_branches = 0;
    pmis = 0;
    lbr_snapshots = 0;
    exec_words = 0.0;
    records = 0;
    archive_bytes = 0;
    fed_records = 0;
    feed_words = 0.0;
    stream_walks = 0;
    usable_streams = 0;
    mix_errors = [];
    conservation_errors = [];
    stopped = nan;
  }

let stop_clock t = t.stopped <- Span.now ()

let add_stats t (s : Hbbp_cpu.Machine.run_stats) =
  t.retired <- t.retired + s.retired;
  t.kernel_retired <- t.kernel_retired + s.kernel_retired;
  t.taken_branches <- t.taken_branches + s.taken_branches

let add_counts t ~pmis ~lbr_snapshots ~records ~bytes =
  t.pmis <- t.pmis + pmis;
  t.lbr_snapshots <- t.lbr_snapshots + lbr_snapshots;
  t.records <- t.records + records;
  t.archive_bytes <- t.archive_bytes + bytes

let add_session t session ~records ~bytes =
  let h = Hbbp_cpu.Pmu.health (Hbbp_collector.Session.pmu session) in
  add_counts t ~pmis:h.pmi_count ~lbr_snapshots:h.lbr_snapshots ~records ~bytes

let add_reconstruction t (r : Hbbp_core.Pipeline.reconstruction) =
  let l = r.r_lbr in
  t.stream_walks <-
    t.stream_walks + l.usable_streams + l.inconsistent_streams + l.discarded_streams;
  t.usable_streams <- t.usable_streams + l.usable_streams;
  t.conservation_errors <- r.r_flow.conservation_error :: t.conservation_errors
