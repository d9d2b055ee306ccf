exception Parse_error of { offset : int; reason : string }

let () =
  Printexc.register_printer (function
    | Parse_error { offset; reason } ->
        Some (Printf.sprintf "Csv.Parse_error at offset %d: %s" offset reason)
    | _ -> None)

let needs_quoting s =
  String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s

let escape_field s =
  if needs_quoting s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let encode_row fields = String.concat "," (List.map escape_field fields)

let encode rows =
  let buf = Buffer.create 1024 in
  List.iter
    (fun row ->
      Buffer.add_string buf (encode_row row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

(* One-pass parser over the full text, so quoted fields may span
   lines. *)
let decode text =
  let rows = ref [] and row = ref [] and field = Buffer.create 32 in
  let flush_field () =
    row := Buffer.contents field :: !row;
    Buffer.clear field
  in
  let flush_row () =
    flush_field ();
    rows := List.rev !row :: !rows;
    row := []
  in
  let n = String.length text in
  let rec plain i =
    if i >= n then (if Buffer.length field > 0 || !row <> [] then flush_row ())
    else
      match text.[i] with
      | ',' ->
          flush_field ();
          plain (i + 1)
      | '\n' ->
          flush_row ();
          plain (i + 1)
      | '\r' -> plain (i + 1)
      | '"' when Buffer.length field = 0 -> quoted ~start:i (i + 1)
      | c ->
          Buffer.add_char field c;
          plain (i + 1)
  and quoted ~start i =
    if i >= n then
      raise (Parse_error { offset = start; reason = "unterminated quoted field" })
    else
      match text.[i] with
      | '"' ->
          if i + 1 < n && text.[i + 1] = '"' then begin
            Buffer.add_char field '"';
            quoted ~start (i + 2)
          end
          else after_quote (i + 1)
      | c ->
          Buffer.add_char field c;
          quoted ~start (i + 1)
  and after_quote i =
    if i >= n then flush_row ()
    else
      match text.[i] with
      | ',' ->
          flush_field ();
          plain (i + 1)
      | '\n' ->
          flush_row ();
          plain (i + 1)
      | '\r' -> after_quote (i + 1)
      | c ->
          (* Tolerate junk after a closing quote by keeping it. *)
          Buffer.add_char field c;
          plain (i + 1)
  in
  plain 0;
  List.rev !rows

let write_file path rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (encode rows))

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      decode (really_input_string ic len))
