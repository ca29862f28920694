(* Linear probing over a power-of-two slot array holding ids (-1 =
   empty); the pairs themselves live in id order in [firsts]/[seconds],
   so growing the slot array rehashes ids without touching the pairs. *)
type t = {
  mutable slots : int array;
  mutable firsts : int array;
  mutable seconds : int array;
  mutable length : int;
}

let create () =
  {
    slots = Array.make 64 (-1);
    firsts = Array.make 32 0;
    seconds = Array.make 32 0;
    length = 0;
  }

let length t = t.length
let fst t id = t.firsts.(id)
let snd t id = t.seconds.(id)

let hash a b =
  let h = (a * 0x9E3779B1) + b in
  let h = h * 0x2545F491 in
  h lxor (h lsr 29)

(* The probe loops are top-level functions, not local closures, so a
   lookup allocates nothing. *)
let rec probe t mask a b i =
  let id = t.slots.(i) in
  if id < 0 then -1
  else if t.firsts.(id) = a && t.seconds.(id) = b then id
  else probe t mask a b ((i + 1) land mask)

let find t a b =
  let mask = Array.length t.slots - 1 in
  probe t mask a b (hash a b land mask)

let rec place_at slots mask id i =
  if slots.(i) < 0 then slots.(i) <- id
  else place_at slots mask id ((i + 1) land mask)

let place slots id a b =
  let mask = Array.length slots - 1 in
  place_at slots mask id (hash a b land mask)

let grow_pairs t =
  let n = Array.length t.firsts in
  let extend a =
    let b = Array.make (2 * n) 0 in
    Array.blit a 0 b 0 n;
    b
  in
  t.firsts <- extend t.firsts;
  t.seconds <- extend t.seconds

(* Keep the load factor at or below 1/2. *)
let rehash t =
  let slots = Array.make (2 * Array.length t.slots) (-1) in
  for id = 0 to t.length - 1 do
    place slots id t.firsts.(id) t.seconds.(id)
  done;
  t.slots <- slots

let add t a b =
  let id = t.length in
  if id = Array.length t.firsts then grow_pairs t;
  t.firsts.(id) <- a;
  t.seconds.(id) <- b;
  t.length <- id + 1;
  if 2 * t.length > Array.length t.slots then rehash t
  else place t.slots id a b;
  id
