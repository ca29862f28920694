(** Continuous metric export: full registry snapshots appended to a
    JSONL file while the run executes.

    Emission is driven by span closes (no background thread): a
    snapshot is written when [every_spans] spans have closed since the
    last one, or when [interval_s] seconds have passed — whichever
    comes first.  Each line is

    {v {"seq":N,"elapsed_s":S,"spans_closed":M,"metrics":{...}} v}

    where [seq] increases by exactly 1 per line (a gap-free monotonic
    sequence — a consumer can detect truncation), [elapsed_s] is the
    offset from {!configure}, and [metrics] is one consistent
    {!Metrics.snapshot} pass.  The CLI arms this via
    [--metrics-stream FILE] or [HBBP_METRICS_STREAM]. *)

(** [configure ~path ()] — open (truncate) [path], enable the metrics
    registry, and install the span-close tick.  [every_spans] defaults
    to 64, [interval_s] to 1.0.  Reconfiguring closes the previous
    stream. *)
val configure :
  ?every_spans:int -> ?interval_s:float -> path:string -> unit -> unit

val active : unit -> bool

(** Lines emitted so far (the next line's [seq]). *)
val seq : unit -> int

val path : unit -> string option

(** Emit one final snapshot, close the file, remove the tick.
    Idempotent. *)
val finalize : unit -> unit

val default_every_spans : int
val default_interval_s : float
