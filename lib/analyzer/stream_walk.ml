open Hbbp_program

type result = Blocks of int list | Inconsistent | Bad

let max_walk = 512

let walk static ~target ~src =
  if src < target then Bad
  else
    match Static.find_starting static target with
    | None -> Bad
    | Some start_gid ->
        let rec go gid acc steps =
          if steps > max_walk then Bad
          else
            let _, _, block = Static.block static gid in
            if Basic_block.contains block src then Blocks (List.rev (gid :: acc))
            else
              (* The stream claims execution fell through this block. *)
              match block.term with
              | Basic_block.Term_cond _ | Basic_block.Term_fallthrough -> (
                  match Static.next_in_layout static gid with
                  | Some next -> go next (gid :: acc) (steps + 1)
                  | None -> Bad)
              | Basic_block.Term_jump _ | Basic_block.Term_indirect_jump
              | Basic_block.Term_call _ | Basic_block.Term_ret
              | Basic_block.Term_syscall | Basic_block.Term_sysret
              | Basic_block.Term_halt ->
                  Inconsistent
        in
        go start_gid [] 0

module Memo = struct
  type memo = { keys : Pair_table.t; mutable results : result array }

  let create () = { keys = Pair_table.create (); results = [||] }
  let length memo = Pair_table.length memo.keys
  let result memo id = memo.results.(id)
  let target memo id = Pair_table.fst memo.keys id
  let src memo id = Pair_table.snd memo.keys id

  let intern memo static ~target ~src =
    let id = Pair_table.find memo.keys target src in
    if id >= 0 then id
    else begin
      let id = Pair_table.add memo.keys target src in
      if id = Array.length memo.results then begin
        let grown = Array.make (max 32 (2 * id)) Bad in
        Array.blit memo.results 0 grown 0 id;
        memo.results <- grown
      end;
      memo.results.(id) <- walk static ~target ~src;
      id
    end
end
