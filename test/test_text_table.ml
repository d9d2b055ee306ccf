(* Tests for the report table renderer. *)

let checks = Alcotest.(check string)

let test_float_cells () =
  checks "integer" "12" (Text_table.cell_of_float 12.0);
  checks "negative integer" "-3" (Text_table.cell_of_float (-3.0));
  checks "trims zeros" "1.5" (Text_table.cell_of_float 1.5);
  checks "three decimals" "0.333" (Text_table.cell_of_float (1.0 /. 3.0));
  checks "trailing dot removed" "2" (Text_table.cell_of_float 2.0004)

let test_arity_checked () =
  let t = Text_table.create ~title:"t" ~header:[ "a"; "b" ] in
  Alcotest.check_raises "short row"
    (Invalid_argument "Text_table.add_row: arity mismatch with header")
    (fun () -> Text_table.add_row t [ "only one" ])

let test_render_shape () =
  let t = Text_table.create ~title:"demo" ~header:[ "name"; "value" ] in
  Text_table.add_row t [ "alpha"; "1" ];
  Text_table.add_row t [ "beta"; Text_table.cell_of_float 2.5 ];
  let rendered = Text_table.render t in
  let lines = String.split_on_char '\n' rendered in
  checks "title first" "demo" (List.nth lines 0);
  (* All body lines share one width. *)
  let widths =
    List.filter (fun l -> String.length l > 0) (List.tl lines)
    |> List.map String.length
  in
  Alcotest.(check bool) "uniform width" true
    (List.for_all (fun w -> w = List.hd widths) widths);
  Alcotest.(check bool) "contains row" true
    (String.length rendered > 0
    &&
    let contains needle haystack =
      let n = String.length needle and h = String.length haystack in
      let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
      go 0
    in
    contains "alpha" rendered && contains "2.5" rendered)

let test_row_order_preserved () =
  let t = Text_table.create ~title:"o" ~header:[ "x" ] in
  List.iter (fun r -> Text_table.add_row t [ r ]) [ "first"; "second"; "third" ];
  let rendered = Text_table.render t in
  let pos needle =
    let n = String.length needle in
    let rec go i =
      if i + n > String.length rendered then -1
      else if String.sub rendered i n = needle then i
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "order" true
    (pos "first" < pos "second" && pos "second" < pos "third")

let suite =
  [
    ("float cells", `Quick, test_float_cells);
    ("arity checked", `Quick, test_arity_checked);
    ("render shape", `Quick, test_render_shape);
    ("row order preserved", `Quick, test_row_order_preserved);
  ]
