(* Standard reflected CRC-32, polynomial 0xEDB88320, slicing-by-8.

   [tables] holds eight 256-entry tables back to back: table 0 is the
   classic byte-at-a-time table, and entry [n] of table [k] is the CRC
   of byte [n] followed by [k] zero bytes.  The main loop then folds 8
   input bytes per step with 8 independent lookups instead of 8
   dependent ones; the head and tail of a slice that is not a multiple
   of 8 go through table 0 byte by byte. *)

let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
         else c := !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
       done
     done;
     t)

type state = int

let init () = 0xFFFFFFFF

external unsafe_get32 : bytes -> int -> int32 = "%caml_bytes_get32u"

(* Little-endian 32-bit load as a non-negative int.  The native-endian
   load is the little-endian one on a little-endian host; elsewhere the
   checked little-endian accessor does the swap.  Callers have already
   range-checked the slice. *)
let[@inline] load32 data i =
  (if Sys.big_endian then Int32.to_int (Bytes.get_int32_le data i)
   else Int32.to_int (unsafe_get32 data i))
  land 0xFFFFFFFF

let[@inline] step t crc byte = t.((crc lxor byte) land 0xFF) lxor (crc lsr 8)

let update st ?(off = 0) ?len data =
  let len = match len with Some l -> l | None -> Bytes.length data - off in
  if off < 0 || len < 0 || off + len > Bytes.length data then
    invalid_arg "Crc32.update: slice out of range";
  let t = Lazy.force tables in
  let crc = ref st and i = ref off in
  let stop = off + len in
  (* Head: byte-wise up to an 8-byte boundary of the buffer, so the
     word loads below are aligned. *)
  while !i < stop && !i land 7 <> 0 do
    crc := step t !crc (Bytes.unsafe_get data !i |> Char.code);
    incr i
  done;
  while !i + 8 <= stop do
    let one = !crc lxor load32 data !i and two = load32 data (!i + 4) in
    crc :=
      Array.unsafe_get t ((7 * 256) + (one land 0xFF))
      lxor Array.unsafe_get t ((6 * 256) + ((one lsr 8) land 0xFF))
      lxor Array.unsafe_get t ((5 * 256) + ((one lsr 16) land 0xFF))
      lxor Array.unsafe_get t ((4 * 256) + (one lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + (two land 0xFF))
      lxor Array.unsafe_get t ((2 * 256) + ((two lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((two lsr 16) land 0xFF))
      lxor Array.unsafe_get t (two lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    crc := step t !crc (Bytes.unsafe_get data !i |> Char.code);
    incr i
  done;
  !crc

let finish st = st lxor 0xFFFFFFFF

let bytes ?off ?len data = finish (update (init ()) ?off ?len data)
let string s = bytes (Bytes.unsafe_of_string s)
