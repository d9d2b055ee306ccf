(* The little JSON the ledger reads and writes: BENCHMARK.json, the
   one-line result of a workload run, and the run files --compare reads.
   Numbers are floats; non-finite numbers are refused on output because
   JSON cannot carry them. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let error fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

(* ---- printing ---------------------------------------------------- *)

let number v =
  if not (Float.is_finite v) then error "cannot write %f as JSON" v
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num v -> Buffer.add_string b (number v)
  | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (Metrics.json_escape s);
      Buffer.add_char b '"'
  | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          to_buffer b v)
        items;
      Buffer.add_char b ']'
  | Obj members ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          to_buffer b (Str k);
          Buffer.add_string b ": ";
          to_buffer b v)
        members;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

(* ---- parsing ----------------------------------------------------- *)

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then incr pos
    else error "expected %C at byte %d" c !pos
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub text !pos l = word then begin
      pos := !pos + l;
      v
    end
    else error "bad literal at byte %d" !pos
  in
  let utf8 b code =
    if code < 0x80 then Buffer.add_char b (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> error "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
          if !pos + 1 >= n then error "unterminated escape";
          let c = text.[!pos + 1] in
          pos := !pos + 2;
          (match c with
          | '"' | '\\' | '/' -> Buffer.add_char b c
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              if !pos + 4 > n then error "short \\u escape";
              (match int_of_string_opt ("0x" ^ String.sub text !pos 4) with
              | Some code -> utf8 b code
              | None -> error "bad \\u escape at byte %d" !pos);
              pos := !pos + 4
          | c -> error "bad escape \\%c" c);
          go ()
      | Some c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
          incr pos;
          go ()
      | _ -> ()
    in
    go ();
    let lexeme = String.sub text start (!pos - start) in
    match float_of_string_opt lexeme with
    | Some v when lexeme <> "" -> Num v
    | _ -> error "bad number %S at byte %d" lexeme start
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then (incr pos; Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = string () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; members ((k, v) :: acc)
            | Some '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
            | _ -> error "expected , or } at byte %d" !pos
          in
          members []
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; items (v :: acc)
            | Some ']' -> incr pos; Arr (List.rev (v :: acc))
            | _ -> error "expected , or ] at byte %d" !pos
          in
          items []
    | Some '"' -> Str (string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> number ()
    | None -> error "unexpected end of input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then error "trailing data at byte %d" !pos;
  v

let of_file path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  try parse text with Error m -> error "%s: %s" path m

let to_file path v =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_string v);
      output_char oc '\n')

(* ---- access ------------------------------------------------------ *)

let member key = function
  | Obj members -> (
      match List.assoc_opt key members with
      | Some v -> v
      | None -> error "missing key %S" key)
  | _ -> error "expected an object holding %S" key

let to_num = function Num v -> v | _ -> error "expected a number"
let to_str = function Str s -> s | _ -> error "expected a string"
let to_bool = function Bool b -> b | _ -> error "expected a boolean"
let to_list = function Arr items -> items | _ -> error "expected an array"
let to_obj = function Obj members -> members | _ -> error "expected an object"
