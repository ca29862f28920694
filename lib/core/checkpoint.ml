(* Checkpoint file for a resumable streaming analysis: which archive
   paths have been fully folded in, plus the serialized merged partial
   ({!Pipeline.Partial.serialize}), in the same {!Framing} as the
   partial blob itself.  Published through Durable, so the file on disk
   is always a complete checkpoint — the previous one or the new one. *)

module Durable = Hbbp_durable.Durable
module Metrics = Hbbp_telemetry.Metrics

type t = { done_paths : string list; partial : bytes }

let magic = "HBBPCKPT"
let version = 1

let to_bytes t =
  Framing.to_bytes ~magic ~version
    [
      (fun p ->
        Framing.w_i64 p (List.length t.done_paths);
        List.iter (Framing.w_str p) t.done_paths);
      (fun p -> Buffer.add_bytes p t.partial);
    ]

let of_bytes data =
  Framing.of_bytes ~what:"checkpoint" ~magic ~version data (fun c ->
      let done_paths =
        Framing.r_section c (fun s ->
            let n = Framing.r_i64 s in
            if n < 0 then raise (Framing.Bad "negative path count");
            List.init n (fun _ -> Framing.r_str s))
      in
      let partial =
        Framing.r_section c (fun s ->
            let b = Bytes.sub s.Framing.data s.pos (s.limit - s.pos) in
            s.pos <- s.limit;
            b)
      in
      { done_paths; partial })

let save t ~path =
  let data = to_bytes t in
  Durable.write_bytes ~path data;
  Metrics.add (Metrics.counter "checkpoint.saves") 1;
  Metrics.add (Metrics.counter "checkpoint.bytes") (Bytes.length data)

let load ~path =
  if not (Sys.file_exists path) then None
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error e -> Some (Error e)
    | text -> Some (of_bytes (Bytes.of_string text))

let remove ~path = if Sys.file_exists path then Sys.remove path
