open Hbbp_program
open Hbbp_analyzer
module Metrics = Hbbp_telemetry.Metrics

let schema_version = 1

(* Finite floats only; counts are sums of finite samples, but guard the
   serialization anyway — NaN/inf would produce invalid JSON. *)
let flt v = Printf.sprintf "%.17g" (if Float.is_finite v then v else 0.)

type fn = {
  fn_name : string;
  fn_image : string;
  fn_ring : string;
  fn_entry : int;
  mutable fn_blocks : (int * int * float) list;  (* addr, instrs, count *)
  mutable fn_branches : (int * int * float * float) list;
      (* branch addr, taken target, taken count, not-taken count *)
}

let to_json ?(workload = "") ?repair static (bbec : Bbec.t) =
  let fns = Hashtbl.create 64 in
  let order = ref [] in
  let fn_of (img : Image.t) (b : Basic_block.t) =
    let name, entry =
      match Image.symbol_at img b.Basic_block.addr with
      | Some (s : Symbol.t) -> (s.Symbol.name, s.Symbol.addr)
      | None -> (img.Image.name, img.Image.base)
    in
    let key = (img.Image.name, entry) in
    match Hashtbl.find_opt fns key with
    | Some fn -> fn
    | None ->
        let fn =
          {
            fn_name = name;
            fn_image = img.Image.name;
            fn_ring =
              (if Ring.equal img.Image.ring Ring.User then "user"
               else "kernel");
            fn_entry = entry;
            fn_blocks = [];
            fn_branches = [];
          }
        in
        Hashtbl.add fns key fn;
        order := key :: !order;
        fn
  in
  let total_flow = ref 0. in
  Static.iter
    (fun gid img b ->
      let c = Bbec.count bbec gid in
      total_flow := !total_flow +. c;
      let fn = fn_of img b in
      fn.fn_blocks <-
        (b.Basic_block.addr, Array.length b.Basic_block.instrs, c)
        :: fn.fn_blocks;
      match b.Basic_block.term with
      | Basic_block.Term_cond target ->
          let count_at gid_opt =
            match gid_opt with
            | Some g -> Bbec.count bbec g
            | None -> 0.
          in
          let taken = count_at (Static.find_starting static target) in
          let not_taken = count_at (Static.next_in_layout static gid) in
          let branch_addr =
            let addrs = b.Basic_block.addrs in
            if Array.length addrs > 0 then addrs.(Array.length addrs - 1)
            else b.Basic_block.addr
          in
          fn.fn_branches <-
            (branch_addr, target, taken, not_taken) :: fn.fn_branches
      | _ -> ())
    static;
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add "{\n";
  add (Printf.sprintf "  \"schema_version\": %d,\n" schema_version);
  add "  \"format\": \"hbbp-pgo\",\n";
  add
    (Printf.sprintf "  \"workload\": \"%s\",\n"
       (Metrics.json_escape workload));
  add
    (Printf.sprintf "  \"method\": \"%s\",\n"
       (Metrics.json_escape
          (Bbec.method_to_string bbec.Bbec.method_)));
  add (Printf.sprintf "  \"total_flow\": %s,\n" (flt !total_flow));
  (match repair with
  | None -> add "  \"repair\": null,\n"
  | Some (applied, (r : Hbbp_verifier.Repair.report)) ->
      add
        (Printf.sprintf
           "  \"repair\": {\"applied\": %b, \"converged\": %b, \
            \"iterations\": %d, \"adjusted_blocks\": %d, \"moved_mass\": \
            %s, \"pre_conservation_error\": %s, \
            \"post_conservation_error\": %s},\n"
           applied r.Hbbp_verifier.Repair.converged
           r.Hbbp_verifier.Repair.iterations
           r.Hbbp_verifier.Repair.adjusted_blocks
           (flt r.Hbbp_verifier.Repair.moved_mass)
           (flt
              r.Hbbp_verifier.Repair.pre
                .Hbbp_verifier.Flow.conservation_error)
           (flt
              r.Hbbp_verifier.Repair.post
                .Hbbp_verifier.Flow.conservation_error)));
  add "  \"functions\": [";
  let keys = List.rev !order in
  List.iteri
    (fun i key ->
      let fn = Hashtbl.find fns key in
      let blocks = List.sort compare (List.rev fn.fn_blocks) in
      let branches = List.sort compare (List.rev fn.fn_branches) in
      let entry_count =
        match Static.find_starting static fn.fn_entry with
        | Some g -> Bbec.count bbec g
        | None -> 0.
      in
      let total =
        List.fold_left (fun acc (_, _, c) -> acc +. c) 0. blocks
      in
      if i > 0 then add ",";
      add "\n    {\n";
      add
        (Printf.sprintf "      \"name\": \"%s\",\n"
           (Metrics.json_escape fn.fn_name));
      add
        (Printf.sprintf "      \"image\": \"%s\",\n"
           (Metrics.json_escape fn.fn_image));
      add (Printf.sprintf "      \"ring\": \"%s\",\n" fn.fn_ring);
      add (Printf.sprintf "      \"entry_address\": %d,\n" fn.fn_entry);
      add
        (Printf.sprintf "      \"entry_count\": %s,\n" (flt entry_count));
      add (Printf.sprintf "      \"total_count\": %s,\n" (flt total));
      add "      \"blocks\": [";
      List.iteri
        (fun j (addr, len, c) ->
          if j > 0 then add ",";
          add
            (Printf.sprintf
               "\n        {\"address\": %d, \"instructions\": %d, \
                \"count\": %s}"
               addr len (flt c)))
        blocks;
      add "\n      ],\n";
      add "      \"branches\": [";
      List.iteri
        (fun j (addr, target, taken, not_taken) ->
          if j > 0 then add ",";
          let all = taken +. not_taken in
          let p = if all > 0. then taken /. all else 0.5 in
          add
            (Printf.sprintf
               "\n        {\"address\": %d, \"taken_target\": %d, \
                \"taken\": %s, \"not_taken\": %s, \"probability\": %s}"
               addr target (flt taken) (flt not_taken) (flt p)))
        branches;
      add "\n      ]\n    }")
    keys;
  add "\n  ]\n}\n";
  Buffer.contents buf
