module Trace = Hbbp_telemetry.Trace
module Metrics = Hbbp_telemetry.Metrics

let default_jobs () =
  match Sys.getenv_opt "HBBP_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let now = Unix.gettimeofday

type worker_stats = { tasks : int; busy_s : float; wait_s : float }

let utilization (s : worker_stats) =
  let total = s.busy_s +. s.wait_s in
  if total <= 0.0 then 0.0 else s.busy_s /. total

type worker_timeline = { intervals : (float * float) array; dropped : int }

(* Newest [timeline_capacity] task intervals are kept per worker; older
   ones are counted in [dropped].  4096 tasks ≈ tens of full bench
   sweeps — big enough that a drop means a genuinely task-stormy run. *)
let timeline_capacity = 4096

(* One accounting cell per worker (cell 0 doubles as the caller's cell
   on the single-job sequential path).  Workers update their own cell
   under the pool lock; [stats] reads under the same lock. *)
type cell = {
  mutable c_tasks : int;
  mutable c_busy_s : float;
  mutable c_wait_s : float;
  (* Ring of (start, stop) gettimeofday pairs, oldest overwritten. *)
  t_ring : (float * float) array;
  mutable t_next : int;
  mutable t_len : int;
  mutable t_dropped : int;
}

(* Under the pool lock, alongside the busy/tasks update. *)
let note_interval cell ~t0 ~t1 =
  cell.t_ring.(cell.t_next) <- (t0, t1);
  cell.t_next <- (cell.t_next + 1) mod timeline_capacity;
  if cell.t_len < timeline_capacity then cell.t_len <- cell.t_len + 1
  else cell.t_dropped <- cell.t_dropped + 1

type t = {
  n_jobs : int;
  (* A job returns its completion continuation; the worker accounts the
     task in its cell BEFORE invoking it, so by the time the submitter
     observes completion, [stats] already includes the task. *)
  queue : (unit -> unit -> unit) Queue.t;
  lock : Mutex.t;
  work_ready : Condition.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  cells : cell array;
}

let jobs t = t.n_jobs

let worker pool idx =
  let cell = pool.cells.(idx) in
  let rec next () =
    let arrived = now () in
    Mutex.lock pool.lock;
    let rec await () =
      if not (Queue.is_empty pool.queue) then Some (Queue.pop pool.queue)
      else if pool.closed then None
      else begin
        Condition.wait pool.work_ready pool.lock;
        await ()
      end
    in
    let job = await () in
    cell.c_wait_s <- cell.c_wait_s +. (now () -. arrived);
    Mutex.unlock pool.lock;
    match job with
    | Some run ->
        let t0 = now () in
        let complete = run () in
        let t1 = now () in
        Mutex.lock pool.lock;
        cell.c_tasks <- cell.c_tasks + 1;
        cell.c_busy_s <- cell.c_busy_s +. (t1 -. t0);
        note_interval cell ~t0 ~t1;
        Mutex.unlock pool.lock;
        complete ();
        next ()
    | None -> ()
  in
  next ()

let create ?jobs () =
  let n_jobs =
    match jobs with Some n -> max 1 n | None -> default_jobs ()
  in
  let recommended = Domain.recommended_domain_count () in
  if n_jobs > recommended then
    Printf.eprintf
      "hbbp: warning: %d jobs exceeds the %d recommended domains on this \
       host; expect oversubscription\n\
       %!"
      n_jobs recommended;
  let pool =
    {
      n_jobs;
      queue = Queue.create ();
      lock = Mutex.create ();
      work_ready = Condition.create ();
      closed = false;
      workers = [];
      cells =
        Array.init n_jobs (fun _ ->
            {
              c_tasks = 0;
              c_busy_s = 0.0;
              c_wait_s = 0.0;
              t_ring = Array.make timeline_capacity (0.0, 0.0);
              t_next = 0;
              t_len = 0;
              t_dropped = 0;
            });
    }
  in
  if n_jobs > 1 then
    pool.workers <-
      List.init n_jobs (fun idx -> Domain.spawn (fun () -> worker pool idx));
  pool

let stats pool =
  Mutex.lock pool.lock;
  let out =
    Array.map
      (fun c -> { tasks = c.c_tasks; busy_s = c.c_busy_s; wait_s = c.c_wait_s })
      pool.cells
  in
  Mutex.unlock pool.lock;
  out

let timeline pool =
  Mutex.lock pool.lock;
  let out =
    Array.map
      (fun c ->
        (* Chronological: the ring's oldest entry sits at [t_next] once
           it has wrapped, at 0 before. *)
        let first =
          if c.t_len < timeline_capacity then 0 else c.t_next
        in
        {
          intervals =
            Array.init c.t_len (fun k ->
                c.t_ring.((first + k) mod timeline_capacity));
          dropped = c.t_dropped;
        })
      pool.cells
  in
  Mutex.unlock pool.lock;
  out

(* Fold the pool's lifetime accounting into the metrics registry —
   called once, by the first [shutdown]. *)
let emit_metrics pool =
  if Metrics.enabled () then begin
    let all = stats pool in
    let tasks = Array.fold_left (fun acc s -> acc + s.tasks) 0 all in
    let busy = Array.fold_left (fun acc s -> acc +. s.busy_s) 0.0 all in
    let wait = Array.fold_left (fun acc s -> acc +. s.wait_s) 0.0 all in
    Metrics.add (Metrics.counter "pool.tasks") tasks;
    Metrics.set
      (Metrics.gauge "pool.utilization")
      (if busy +. wait <= 0.0 then 0.0 else busy /. (busy +. wait));
    Array.iteri
      (fun k s ->
        let name part = Printf.sprintf "pool.domain%d.%s" k part in
        Metrics.add (Metrics.counter (name "tasks")) s.tasks;
        Metrics.set (Metrics.gauge (name "busy_s")) s.busy_s;
        Metrics.set (Metrics.gauge (name "wait_s")) s.wait_s;
        Metrics.set (Metrics.gauge (name "utilization")) (utilization s))
      all
  end

(* Replay each worker's retained task intervals as a 0/1 "busy" counter
   track, so Perfetto shows the pool's occupancy as square waves aligned
   with the pipeline spans.  Counter tracks are keyed by name, so each
   worker gets its own; timestamps come from the recorded wall-clock
   pairs, not from emission time. *)
let emit_timeline pool =
  if Trace.enabled () then
    Array.iteri
      (fun k (tl : worker_timeline) ->
        let name = Printf.sprintf "pool.worker%d.busy" k in
        Array.iter
          (fun (t0, t1) ->
            Trace.counter ~ts_us:(Trace.us_of_abs t0) name [ ("busy", 1.0) ];
            Trace.counter ~ts_us:(Trace.us_of_abs t1) name [ ("busy", 0.0) ])
          tl.intervals;
        if tl.dropped > 0 && Metrics.enabled () then
          Metrics.add
            (Metrics.counter (Printf.sprintf "pool.domain%d.timeline_dropped" k))
            tl.dropped)
      (timeline pool)

let shutdown pool =
  Mutex.lock pool.lock;
  if pool.closed then Mutex.unlock pool.lock
  else begin
    pool.closed <- true;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.lock;
    List.iter Domain.join pool.workers;
    pool.workers <- [];
    emit_metrics pool;
    emit_timeline pool
  end

(* The fan-out engine: [apply x] runs one task.  Failures surface by
   the lowest-index law, whatever the scheduling. *)
let map_core pool apply xs =
  let n = Array.length xs in
  if pool.closed then invalid_arg "Domain_pool: pool is shut down";
  if n = 0 then [||]
  else if pool.n_jobs = 1 then begin
    (* Sequential path: no domains, but the same accounting as the
       workers so [stats] is equivalent regardless of the job count.
       The first exception propagates immediately — which is the
       lowest-indexed one, since tasks run in order. *)
    let cell = pool.cells.(0) in
    Array.map
      (fun x ->
        let t0 = now () in
        let v = apply x in
        let t1 = now () in
        cell.c_tasks <- cell.c_tasks + 1;
        cell.c_busy_s <- cell.c_busy_s +. (t1 -. t0);
        note_interval cell ~t0 ~t1;
        v)
      xs
  end
  else begin
    let results = Array.make n None in
    let failure = ref None in
    let remaining = ref n in
    let done_lock = Mutex.create () in
    let all_done = Condition.create () in
    let task k () =
      (match apply xs.(k) with
      | v ->
          Mutex.lock done_lock;
          results.(k) <- Some v;
          Mutex.unlock done_lock
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.lock done_lock;
          (* Keep the lowest-indexed failure so the surfaced exception
             does not depend on scheduling. *)
          (match !failure with
          | Some (k0, _, _) when k0 < k -> ()
          | Some _ | None -> failure := Some (k, e, bt));
          Mutex.unlock done_lock);
      fun () ->
        Mutex.lock done_lock;
        decr remaining;
        if !remaining = 0 then Condition.signal all_done;
        Mutex.unlock done_lock
    in
    Mutex.lock pool.lock;
    for k = 0 to n - 1 do
      Queue.add (task k) pool.queue
    done;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.lock;
    Mutex.lock done_lock;
    while !remaining > 0 do
      Condition.wait all_done done_lock
    done;
    Mutex.unlock done_lock;
    match !failure with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        Array.map (function Some v -> v | None -> assert false) results
  end

let map pool f xs =
  Array.to_list
    (map_core pool
       (fun x -> Trace.with_span ~cat:"pool" "task" (fun () -> f x))
       (Array.of_list xs))

let with_pool ?jobs f =
  let pool = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let run ?jobs f xs = with_pool ?jobs (fun pool -> map pool f xs)
