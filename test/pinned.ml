(* Committed digest tables: compare [(name, digest)] pairs against a
   pinned table, reporting every mismatch at once so one failing run
   shows all moved digests, in table syntax. *)
let check ~what table got =
  let moved =
    List.filter_map
      (fun (name, d) ->
        match List.assoc_opt name table with
        | Some expected when String.equal expected d -> None
        | Some _ | None -> Some (Printf.sprintf "    (%S,\n     %S);" name d))
      got
  in
  if moved <> [] || List.length table <> List.length got then
    Alcotest.failf "%s: %d of %d pinned digests moved; current values:\n%s"
      what (List.length moved) (List.length got) (String.concat "\n" moved)
