(* The container shared by analysis checkpoints and serialized
   partials: magic, version byte, then CRC-guarded sections, each an
   int64-LE payload length, the int64-LE CRC-32 of the payload and the
   payload itself — the archive's v2 section discipline. *)

exception Bad of string

let w_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

let w_str buf s =
  w_i64 buf (String.length s);
  Buffer.add_string buf s

(* Each payload is written in place behind a zeroed 16-byte header,
   which is patched once the final bytes exist, so no payload is copied
   out of the buffer. *)
let to_bytes ~magic ~version sections =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_uint8 buf version;
  let spans =
    List.fold_left
      (fun acc write_payload ->
        let at = Buffer.length buf in
        w_i64 buf 0;
        w_i64 buf 0;
        write_payload buf;
        (at, Buffer.length buf - at - 16) :: acc)
      [] sections
  in
  let out = Buffer.to_bytes buf in
  List.iter
    (fun (at, len) ->
      Bytes.set_int64_le out at (Int64.of_int len);
      Bytes.set_int64_le out (at + 8)
        (Int64.of_int (Hbbp_util.Crc32.bytes ~off:(at + 16) ~len out)))
    spans;
  out

type cursor = { data : bytes; mutable pos : int; limit : int }

let need c n = if c.pos + n > c.limit then raise (Bad "truncated")

let r_i64 c =
  need c 8;
  let v = Int64.to_int (Bytes.get_int64_le c.data c.pos) in
  c.pos <- c.pos + 8;
  v

let r_u8 c =
  need c 1;
  let v = Bytes.get_uint8 c.data c.pos in
  c.pos <- c.pos + 1;
  v

let r_str c =
  let n = r_i64 c in
  if n < 0 then raise (Bad "negative string length");
  need c n;
  let s = Bytes.sub_string c.data c.pos n in
  c.pos <- c.pos + n;
  s

(* One CRC-guarded section: bounds the cursor to the payload, runs the
   parser, then checks the parser consumed exactly the payload. *)
let r_section c parse =
  let len = r_i64 c in
  if len < 0 then raise (Bad "negative section length");
  let crc = r_i64 c in
  need c len;
  if Hbbp_util.Crc32.bytes ~off:c.pos ~len c.data <> crc then
    raise (Bad "section CRC mismatch");
  let sub = { data = c.data; pos = c.pos; limit = c.pos + len } in
  let v = parse sub in
  if sub.pos <> sub.limit then raise (Bad "trailing section bytes");
  c.pos <- c.pos + len;
  v

let of_bytes ~what ~magic ~version data parse =
  try
    let m = String.length magic in
    if Bytes.length data < m + 1 then raise (Bad "truncated header");
    if not (String.equal (Bytes.sub_string data 0 m) magic) then
      raise (Bad "bad magic");
    (match Bytes.get_uint8 data m with
    | v when v = version -> ()
    | v -> raise (Bad (Printf.sprintf "unsupported version %d" v)));
    let c = { data; pos = m + 1; limit = Bytes.length data } in
    let v = parse c in
    if c.pos <> c.limit then raise (Bad "trailing bytes");
    Ok v
  with Bad msg -> Error (what ^ ": " ^ msg)
