(* In-memory span recorder for the traced run.

   Spans wrap calls into the program's public functions from outside
   (the program itself is not instrumented).  Each span keeps its
   inclusive duration and its self time — inclusive minus the time its
   nested spans cover — so per-layer self times add up to the wall time
   of the work they cover.  Spans stay in memory and are written out as
   Chrome trace_event JSON once the run ends. *)

type span = {
  name : string;
  program : string;
  start : float;
  dur : float;
  parent : int;  (** Index of the enclosing span; -1 at top level. *)
}

type t = {
  origin : float;
  mutable spans : span list;  (** Newest first. *)
  mutable count : int;
  mutable stack : (int * float ref) list;
      (** Open spans: index and accumulated child time. *)
  self : (string, float) Hashtbl.t;
  mutable program : string;
}

let now = Unix.gettimeofday

let create () =
  {
    origin = now ();
    spans = [];
    count = 0;
    stack = [];
    self = Hashtbl.create 32;
    program = "";
  }

(* Label subsequent spans with the program they work on. *)
let set_program t name = t.program <- name

let add_self t name dt =
  Hashtbl.replace t.self name
    (dt +. Option.value ~default:0.0 (Hashtbl.find_opt t.self name))

let with_span t name f =
  let index = t.count in
  t.count <- t.count + 1;
  let parent = match t.stack with (i, _) :: _ -> i | [] -> -1 in
  let children = ref 0.0 in
  t.stack <- (index, children) :: t.stack;
  let start = now () in
  Fun.protect f ~finally:(fun () ->
      let dur = now () -. start in
      t.stack <- List.tl t.stack;
      (match t.stack with (_, c) :: _ -> c := !c +. dur | [] -> ());
      add_self t name (dur -. !children);
      t.spans <- { name; program = t.program; start; dur; parent } :: t.spans)

(* Summed self time of every span called [name]; 0 when none ran. *)
let self_time t name = Option.value ~default:0.0 (Hashtbl.find_opt t.self name)

let write t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\": [\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": \
             %.1f, \"dur\": %.1f, \"args\": {\"program\": %S, \"parent\": %d}}\n"
            (if i = 0 then "" else ",")
            s.name
            ((s.start -. t.origin) *. 1e6)
            (s.dur *. 1e6) s.program s.parent)
        (List.rev t.spans);
      output_string oc "]}\n")
