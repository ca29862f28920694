(* Two fixed reference computations, timed between operations, that
   measure how fast the host runs at that moment.

   On a shared virtual machine the host's speed drifts by tens of
   percent over seconds to minutes, as neighbours contend for caches and
   memory bandwidth, and process CPU time drifts with it.  Each host time
   is therefore multiplied by the scale that the probes measured around
   it: a reference second is the time in which the probes would run
   [1 / nominal] times.  The probes are the benchmark's own code, so a
   change to the program does not move them.

   Their work resembles the program's: hash-table lookups and updates
   over a small table with a pseudo-random access pattern, and building
   a balanced tree out of short-lived allocations. *)

let table_bits = 15
let table = Array.init (1 lsl table_bits) (fun i -> i * 31 land ((1 lsl table_bits) - 1))

let lookups () =
  let mask = (1 lsl table_bits) - 1 in
  let h = Hashtbl.create 1024 in
  let x = ref 1 and acc = ref 0 in
  for i = 1 to 300_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = table.(!x land mask) in
    table.(!x land mask) <- (j + i) land mask;
    match Hashtbl.find_opt h (j land 0x3FF) with
    | Some v -> acc := !acc + v
    | None -> Hashtbl.replace h (j land 0x3FF) i
  done;
  !acc

module Int_map = Map.Make (Int)

let tree () =
  let m = ref Int_map.empty and x = ref 7 in
  for i = 1 to 20_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    m := Int_map.add (!x land 0xFFFFF) i !m
  done;
  Int_map.cardinal !m

(* Host seconds of each probe on an idle 2-vCPU Intel Xeon virtual
   machine; they fix only the unit of the reference second. *)
let nominal_lookups = 0.012
let nominal_tree = 0.014

let time f =
  let t0 = Span.now () in
  ignore (Sys.opaque_identity (f ()));
  Span.now () -. t0

(* Reference seconds per host second now: the geometric mean of the two
   probes' nominal over measured times.  The probes start from a
   collected heap, so that garbage left by the program does not slow
   them. *)
let scale () =
  Gc.full_major ();
  let a = time lookups in
  let b = time tree in
  sqrt (nominal_lookups /. a *. (nominal_tree /. b))
