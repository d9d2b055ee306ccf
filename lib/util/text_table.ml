type t = {
  title : string;
  header : string list;
  mutable rows : string list list;  (* reverse order *)
}

let create ~title ~header = { title; header; rows = [] }

let add_row t row =
  if List.length row <> List.length t.header then
    invalid_arg "Text_table.add_row: arity mismatch with header";
  t.rows <- row :: t.rows

let cell_of_float x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else begin
    (* Trim trailing zeros of a fixed 3-decimal rendering. *)
    let s = Printf.sprintf "%.3f" x in
    let rec trim i = if i > 0 && s.[i] = '0' then trim (i - 1) else i in
    let last = trim (String.length s - 1) in
    let last = if s.[last] = '.' then last - 1 else last in
    String.sub s 0 (last + 1)
  end

let render t =
  let rows = List.rev t.rows in
  let all = t.header :: rows in
  let arity = List.length t.header in
  let widths = Array.make arity 0 in
  let note_widths row =
    List.iteri (fun i cell -> widths.(i) <- Stdlib.max widths.(i) (String.length cell)) row
  in
  List.iter note_widths all;
  let buf = Buffer.create 256 in
  let pad i cell =
    let missing = widths.(i) - String.length cell in
    (* Right-align numeric-looking cells, left-align labels. *)
    let numeric =
      String.length cell > 0
      && (match cell.[0] with '0' .. '9' | '-' | '+' | '.' -> true | _ -> false)
    in
    if numeric then String.make missing ' ' ^ cell
    else cell ^ String.make missing ' '
  in
  let emit_row row =
    Buffer.add_string buf "| ";
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf " | ";
        Buffer.add_string buf (pad i cell))
      row;
    Buffer.add_string buf " |\n"
  in
  let total_width =
    Array.fold_left ( + ) 0 widths + (3 * (arity - 1)) + 4
  in
  let rule = String.make total_width '-' ^ "\n" in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  Buffer.add_string buf rule;
  emit_row t.header;
  Buffer.add_string buf rule;
  List.iter emit_row rows;
  Buffer.add_string buf rule;
  Buffer.contents buf

let print t = print_string (render t)
