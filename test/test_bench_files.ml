(* The committed BENCH_*.json files are evidence, so each must be a
   well-formed document that carries the shared bench header: this suite
   parses every one at the repository root and checks that it has a
   numeric [schema_version] and names its own bench. *)

type json =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of json list
  | Object of (string * json) list

exception Syntax of int * string

(* A strict recursive-descent reader for the JSON the bench writers
   emit: RFC 8259 without \u escapes, which no writer produces. *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Syntax (!pos, what)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          (match peek () with
          | ('"' | '\\' | '/') as c -> Buffer.add_char b c
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | _ -> fail "bad escape");
          incr pos;
          go ()
      | '\000' -> fail "unterminated string"
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let is_num = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while is_num (peek ()) do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f when Float.is_finite f -> Number f
    | _ -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    let v =
      match peek () with
      | '{' ->
          incr pos;
          Object (members '}' (fun () ->
              skip_ws ();
              let k = string_lit () in
              skip_ws ();
              expect ':';
              (k, value ())))
      | '[' ->
          incr pos;
          Array (members ']' value)
      | '"' -> String (string_lit ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> number ()
    in
    skip_ws ();
    v
  and members : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    skip_ws ();
    if peek () = close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | ',' ->
            incr pos;
            go acc
        | c when c = close ->
            incr pos;
            List.rev acc
        | _ -> fail "expected , or closing bracket"
      in
      go []
  in
  let v = value () in
  if !pos <> n then fail "trailing data";
  v

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [dune test] runs the suite in its build directory, one level below
   the copies of the bench files its stanza depends on. *)
let root = ".."

let bench_files () =
  Sys.readdir root |> Array.to_list
  |> List.filter (fun f ->
         String.starts_with ~prefix:"BENCH_" f
         && Filename.check_suffix f ".json")
  |> List.sort compare

let test_parser () =
  let ok s = match parse s with _ -> true | exception Syntax _ -> false in
  Alcotest.(check bool) "nested document" true
    (ok {|{ "a": [1, -2.5e-3, true, null], "b": { "c": "x\"y" } }|});
  List.iter
    (fun s -> Alcotest.(check bool) s false (ok s))
    [ {|{ "a": 1, }|}; {|{ "a" 1 }|}; {|[1 2]|}; {|{ "a": nan }|}; {|{} x|} ]

let test_every_file () =
  let files = bench_files () in
  (* The eight benches that publish a file. *)
  Alcotest.(check (list string)) "committed bench files"
    (List.map
       (fun b -> "BENCH_" ^ b ^ ".json")
       [ "doctor"; "faults"; "pipeline"; "recovery"; "repair"; "streaming";
         "telemetry"; "verifier" ])
    files;
  List.iter
    (fun f ->
      let fields =
        match parse (read_file (Filename.concat root f)) with
        | Object fields -> fields
        | _ -> Alcotest.failf "%s: top level is not an object" f
        | exception Syntax (at, what) ->
            Alcotest.failf "%s: byte %d: %s" f at what
      in
      (match List.assoc_opt "schema_version" fields with
      | Some (Number _) -> ()
      | _ -> Alcotest.failf "%s: no numeric schema_version" f);
      let bench =
        Filename.chop_suffix (String.sub f 6 (String.length f - 6)) ".json"
      in
      match List.assoc_opt "bench" fields with
      | Some (String b) ->
          Alcotest.(check string) (f ^ " names its bench") bench b
      | _ -> Alcotest.failf "%s: no bench name" f)
    files

let () =
  Alcotest.run "bench_files"
    [
      ( "bench files",
        [
          Alcotest.test_case "json reader" `Quick test_parser;
          Alcotest.test_case "every file parses with a header" `Quick
            test_every_file;
        ] );
    ]
