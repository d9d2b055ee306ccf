(* Tests for CSV encoding and dataset persistence. *)

let checks = Alcotest.(check string)
let checkb = Alcotest.(check bool)

let test_escape () =
  checks "plain untouched" "hello" (Csv.escape_field "hello");
  checks "comma quoted" "\"a,b\"" (Csv.escape_field "a,b");
  checks "quote doubled" "\"he said \"\"hi\"\"\"" (Csv.escape_field "he said \"hi\"");
  checks "newline quoted" "\"a\nb\"" (Csv.escape_field "a\nb")

let test_row_roundtrip () =
  let rows =
    [
      [ "id"; "name"; "note" ];
      [ "1"; "plain"; "nothing special" ];
      [ "2"; "with,comma"; "and \"quotes\"" ];
      [ "3"; "multi\nline"; "" ];
    ]
  in
  Alcotest.(check (list (list string)))
    "roundtrip" rows
    (Csv.decode (Csv.encode rows))

let test_decode_variants () =
  Alcotest.(check (list (list string)))
    "crlf" [ [ "a"; "b" ]; [ "c"; "d" ] ]
    (Csv.decode "a,b\r\nc,d\r\n");
  Alcotest.(check (list string)) "single row" [ "x"; "y" ] (Csv.decode_row "x,y");
  Alcotest.(check (list (list string))) "empty text" [] (Csv.decode "");
  Alcotest.(check (list (list string)))
    "empty fields" [ [ ""; ""; "" ] ] (Csv.decode ",,\n");
  Alcotest.check_raises "unterminated quote"
    (Csv.Parse_error { offset = 0; reason = "unterminated quoted field" })
    (fun () -> ignore (Csv.decode "\"abc"))

let test_decode_unterminated_quote () =
  (* The reported offset is that of the opening quote, even when the
     bad field starts mid-text or spans line breaks. *)
  let check_offset name text offset =
    Alcotest.check_raises name
      (Csv.Parse_error { offset; reason = "unterminated quoted field" })
      (fun () -> ignore (Csv.decode text))
  in
  check_offset "at start" "\"abc" 0;
  check_offset "mid-row" "a,b,\"oops" 4;
  check_offset "later row" "a,b\nc,\"un\nterminated" 6;
  (* A doubled quote does not terminate the field. *)
  check_offset "escaped quote only" "\"he said \"\"hi" 0;
  (* Properly terminated fields must not raise. *)
  Alcotest.(check (list (list string)))
    "terminated ok"
    [ [ "a"; "b c" ] ]
    (Csv.decode "a,\"b c\"\n")

let test_file_roundtrip () =
  let path = Filename.temp_file "imprecise_csv" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let rows = [ [ "a"; "b" ]; [ "1"; "2,3" ] ] in
      Csv.write_file path rows;
      Alcotest.(check (list (list string))) "file roundtrip" rows (Csv.read_file path))

let test_synthetic_roundtrip () =
  let data =
    Synthetic.generate (Rng.create 5) (Synthetic.config ~total:300 ())
  in
  let back = Dataset_io.synthetic_of_rows (Dataset_io.synthetic_to_rows data) in
  Alcotest.(check int) "length" (Array.length data) (Array.length back);
  Array.iteri
    (fun i (o : Synthetic.obj) ->
      let b : Synthetic.obj = back.(i) in
      checkb "identical" true
        (o.id = b.id && Tvl.equal o.label b.label && o.laxity = b.laxity
        && o.success = b.success && o.probe_yes = b.probe_yes
        && o.resolved = b.resolved))
    data

let test_synthetic_file_roundtrip () =
  let path = Filename.temp_file "imprecise_syn" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let data =
        Synthetic.generate (Rng.create 6) (Synthetic.config ~total:100 ())
      in
      Dataset_io.write_synthetic path data;
      let back = Dataset_io.read_synthetic path in
      checkb "same exact-set size" true
        (Synthetic.exact_size data = Synthetic.exact_size back))

let test_synthetic_bad_input () =
  Alcotest.check_raises "bad header"
    (Failure "Dataset_io: unexpected header nope") (fun () ->
      ignore (Dataset_io.synthetic_of_rows [ [ "nope" ] ]));
  let rows = [ Dataset_io.synthetic_header; [ "1"; "YES"; "x"; "1"; "1"; "0" ] ] in
  Alcotest.check_raises "bad float"
    (Failure "Dataset_io: bad float in laxity: \"x\"") (fun () ->
      ignore (Dataset_io.synthetic_of_rows rows))

let test_records_roundtrip () =
  let records =
    Interval_data.uniform_intervals (Rng.create 7) ~n:200
      ~value_range:(Interval.make 0.0 100.0) ~max_width:10.0
  in
  let back = Dataset_io.records_of_rows (Dataset_io.records_to_rows records) in
  Alcotest.(check int) "length" 200 (Array.length back);
  Array.iteri
    (fun i (r : Interval_data.record) ->
      let b : Interval_data.record = back.(i) in
      checkb "identical" true
        (r.id = b.id && r.truth = b.truth
        && Interval.equal (Uncertain.support r.belief) (Uncertain.support b.belief)))
    records

let test_records_reject_gaussian () =
  let records =
    Interval_data.gaussian_beliefs (Rng.create 8) ~n:1 ~mean:0.0 ~stddev:1.0
      ~noise:0.5
  in
  Alcotest.check_raises "gaussian rejected"
    (Invalid_argument
       "Dataset_io.records_to_rows: Gaussian beliefs are not representable \
        in the flat schema") (fun () ->
      ignore (Dataset_io.records_to_rows records))

(* A row that is not a sound imprecise object is a loader error, not a
   crash deep in the query or at its first probe. *)
let test_records_reject_unsound () =
  let reject name row =
    Alcotest.check_raises name
      (Failure
         (Printf.sprintf
            "Dataset_io: record 0: support [%s, %s] is not finite or does \
             not contain the truth %s"
            (List.nth row 1) (List.nth row 2) (List.nth row 3)))
      (fun () ->
        ignore (Dataset_io.records_of_rows [ Dataset_io.records_header; row ]))
  in
  reject "nan bound" [ "0"; "nan"; "2"; "1.5" ];
  reject "reversed support" [ "0"; "3"; "2"; "2.5" ];
  reject "infinite point" [ "0"; "inf"; "inf"; "inf" ];
  reject "nan truth" [ "0"; "1"; "2"; "nan" ];
  reject "infinite truth" [ "0"; "1"; "2"; "inf" ];
  reject "truth below support" [ "0"; "1"; "2"; "0" ];
  reject "truth off a point support" [ "0"; "1"; "1"; "1.5" ];
  let ok =
    Dataset_io.records_of_rows
      [ Dataset_io.records_header; [ "0"; "1"; "1"; "1" ]; [ "1"; "1"; "2"; "2" ] ]
  in
  Alcotest.(check int) "sound rows load" 2 (Array.length ok)

(* Arbitrary strings — including quotes, commas, newlines, CRs — must
   round-trip through encode/decode. *)
let prop_csv_roundtrip =
  let cell_gen =
    QCheck2.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; ','; '"'; '\n'; ' ' ]) (int_range 0 12))
  in
  QCheck2.Test.make ~name:"csv encode/decode roundtrip" ~count:300
    QCheck2.Gen.(list_size (int_range 1 6) (list_size (int_range 1 5) cell_gen))
    (fun rows ->
      (* A row of all-empty cells at the end is indistinguishable from a
         trailing newline; normalise by appending a sentinel cell. *)
      let rows = List.map (fun r -> r @ [ "end" ]) rows in
      Csv.decode (Csv.encode rows) = rows)

let suite =
  [
    ("field escaping", `Quick, test_escape);
    QCheck_alcotest.to_alcotest prop_csv_roundtrip;
    ("row roundtrip", `Quick, test_row_roundtrip);
    ("decode variants", `Quick, test_decode_variants);
    ("unterminated quoted field", `Quick, test_decode_unterminated_quote);
    ("file roundtrip", `Quick, test_file_roundtrip);
    ("synthetic roundtrip", `Quick, test_synthetic_roundtrip);
    ("synthetic file roundtrip", `Quick, test_synthetic_file_roundtrip);
    ("synthetic bad input", `Quick, test_synthetic_bad_input);
    ("records roundtrip", `Quick, test_records_roundtrip);
    ("records reject gaussian", `Quick, test_records_reject_gaussian);
    ("records reject unsound rows", `Quick, test_records_reject_unsound);
  ]
