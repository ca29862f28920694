(** Runtime introspection: per-domain GC accounting at span boundaries.

    When enabled, every {!Trace.with_span} boundary takes a domain-local
    [Gc.quick_stat] and accounts the delta since the previous boundary
    on that domain:

    - globally, as [gc.minor_collections], [gc.major_collections],
      [gc.compactions], [gc.allocated_words], [gc.promoted_words]
      counters and [gc.heap_words] / [gc.top_heap_words] gauges;
    - {e exclusively} per innermost open span, as
      [alloc.span.<name>.words] counters (nested spans never
      double-count; span totals sum to the global total);
    - in the trace, as per-domain ["gc"] counter tracks (heap size,
      cumulative allocation — Perfetto renders them as graphs aligned
      with the pipeline stages), ["gc.major"] / ["gc.compact"] instant
      markers, and inclusive [gc.*] args on each span.

    The profiler only {e reads} runtime state, so arming it cannot
    change profile bytes (test-enforced).  Overhead is two
    [Gc.quick_stat] calls per span, paid only while enabled; the
    disabled cost of an instrumentation site is unchanged. *)

val enabled : unit -> bool

(** Install the span-boundary probe ({!Trace.set_probe}).  GC metrics
    flow only while {!Metrics.enabled}; trace tracks only while
    {!Trace.enabled}. *)
val enable : unit -> unit

(** Remove the probe.  Call only while no span is in flight. *)
val disable : unit -> unit
