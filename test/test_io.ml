(* Tests for CSV encoding and dataset persistence. *)

let checks = Alcotest.(check string)
let checkb = Alcotest.(check bool)

(* The CSV codec and the loaders are reached through their file entry
   points: each helper below writes and reads one temporary file. *)
let with_temp f =
  let path = Filename.temp_file "imprecise_io" ".csv" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let write_text path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let decode text =
  with_temp (fun path ->
      write_text path text;
      Csv.read_file path)

let encode rows =
  with_temp (fun path ->
      Csv.write_file path rows;
      In_channel.with_open_bin path In_channel.input_all)

let decode_row line = match decode line with [] -> [] | row :: _ -> row

(* A one-field file is the field's encoding and a newline. *)
let escape_field f =
  let text = encode [ [ f ] ] in
  String.sub text 0 (String.length text - 1)

let synthetic_header =
  [ "id"; "label"; "laxity"; "success"; "probe_yes"; "resolved" ]

let records_header = [ "id"; "belief_lo"; "belief_hi"; "truth" ]

let synthetic_to_rows objects =
  with_temp (fun path ->
      Dataset_io.write_synthetic path objects;
      Csv.read_file path)

let synthetic_of_rows rows =
  with_temp (fun path ->
      Csv.write_file path rows;
      Dataset_io.read_synthetic path)

let records_to_rows records =
  with_temp (fun path ->
      Dataset_io.write_records path records;
      Csv.read_file path)

let records_of_rows rows =
  with_temp (fun path ->
      Csv.write_file path rows;
      Dataset_io.read_records path)

let test_escape () =
  checks "plain untouched" "hello" (escape_field "hello");
  checks "comma quoted" "\"a,b\"" (escape_field "a,b");
  checks "quote doubled" "\"he said \"\"hi\"\"\"" (escape_field "he said \"hi\"");
  checks "newline quoted" "\"a\nb\"" (escape_field "a\nb")

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
    (decode (encode rows))

let test_decode_variants () =
  Alcotest.(check (list (list string)))
    "crlf" [ [ "a"; "b" ]; [ "c"; "d" ] ]
    (decode "a,b\r\nc,d\r\n");
  Alcotest.(check (list string)) "single row" [ "x"; "y" ] (decode_row "x,y");
  Alcotest.(check (list (list string))) "empty text" [] (decode "");
  Alcotest.(check (list (list string)))
    "empty fields" [ [ ""; ""; "" ] ] (decode ",,\n");
  Alcotest.check_raises "unterminated quote"
    (Csv.Parse_error { offset = 0; reason = "unterminated quoted field" })
    (fun () -> ignore (decode "\"abc"))

let test_decode_unterminated_quote () =
  (* The reported offset is that of the opening quote, even when the
     bad field starts mid-text or spans line breaks. *)
  let check_offset name text offset =
    Alcotest.check_raises name
      (Csv.Parse_error { offset; reason = "unterminated quoted field" })
      (fun () -> ignore (decode text))
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
    (decode "a,\"b c\"\n")

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
  let back = synthetic_of_rows (synthetic_to_rows data) in
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
      ignore (synthetic_of_rows [ [ "nope" ] ]));
  let rows = [ synthetic_header; [ "1"; "YES"; "x"; "1"; "1"; "0" ] ] in
  Alcotest.check_raises "bad float"
    (Failure "Dataset_io: bad float in laxity: \"x\"") (fun () ->
      ignore (synthetic_of_rows rows));
  (* Fields that parse but make an object Synthetic.make rejects are a
     loader error naming the row, not an escaping Invalid_argument. *)
  List.iter
    (fun (row, reason) ->
      Alcotest.check_raises reason
        (Failure ("Dataset_io: synthetic row 0: Synthetic.make: " ^ reason))
        (fun () ->
          ignore
            (synthetic_of_rows [ synthetic_header; row ])))
    [
      ([ "0"; "MAYBE"; "-1"; "0.5"; "1"; "0" ], "laxity is negative or not finite");
      ([ "0"; "MAYBE"; "nan"; "0.5"; "1"; "0" ], "laxity is negative or not finite");
      ([ "0"; "MAYBE"; "1"; "1.5"; "1"; "0" ], "success outside [0, 1]");
      ([ "0"; "YES"; "1"; "0.5"; "1"; "0" ],
       "YES object must probe YES with success 1");
    ]

let test_records_roundtrip () =
  let records =
    Interval_data.uniform_intervals (Rng.create 7) ~n:200
      ~value_range:(Interval.make 0.0 100.0) ~max_width:10.0
  in
  let back = records_of_rows (records_to_rows records) in
  Alcotest.(check int) "length" 200 (Array.length back);
  Array.iteri
    (fun i (r : Interval_data.record) ->
      let b : Interval_data.record = back.(i) in
      checkb "identical" true
        (r.id = b.id && r.truth = b.truth
        && Uncertain.support r.belief = Uncertain.support b.belief))
    records

let test_records_reject_gaussian () =
  let records =
    Interval_data.gaussian_beliefs (Rng.create 8) ~n:1 ~mean:0.0 ~stddev:1.0
      ~noise:0.5
  in
  Alcotest.check_raises "gaussian rejected"
    (Invalid_argument
       "Dataset_io.write_records: Gaussian beliefs are not representable \
        in the flat schema") (fun () ->
      ignore (records_to_rows records))

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
        ignore (records_of_rows [ records_header; row ]))
  in
  reject "nan bound" [ "0"; "nan"; "2"; "1.5" ];
  reject "reversed support" [ "0"; "3"; "2"; "2.5" ];
  reject "infinite point" [ "0"; "inf"; "inf"; "inf" ];
  reject "nan truth" [ "0"; "1"; "2"; "nan" ];
  reject "infinite truth" [ "0"; "1"; "2"; "inf" ];
  reject "truth below support" [ "0"; "1"; "2"; "0" ];
  reject "truth off a point support" [ "0"; "1"; "1"; "1.5" ];
  let ok =
    records_of_rows
      [ records_header; [ "0"; "1"; "1"; "1" ]; [ "1"; "1"; "2"; "2" ] ]
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
      decode (encode rows) = rows)

(* ---- fuzzing the CSV reader and the loaders on top of it ---------- *)

(* Bytes that steer the CSV and number parsers, plus any byte at all. *)
let csv_byte =
  QCheck2.Gen.(
    frequency
      [
        (6, oneofl [ ','; '"'; '\n'; '\r'; ' ' ]);
        (6, oneofl [ '0'; '1'; '2'; '5'; '9'; '.'; '-'; '+'; 'e'; 'E'; '_'; 'x'; 'p' ]);
        (3, oneofl [ 'n'; 'a'; 'i'; 'f'; 'Y'; 'E'; 'S'; 'N'; 'O'; 'M' ]);
        (2, char);
      ])

(* Fields a loader may choke on: numbers at and beyond the edges,
   non-finite spellings, OCaml-only literals, labels, stray bytes. *)
let loader_field =
  QCheck2.Gen.(
    frequency
      [
        (6, map string_of_int (int_range (-3) 12));
        (4, map (Printf.sprintf "%g") (float_range (-5.0) 15.0));
        ( 4,
          oneofl
            [
              "-0"; "1e308"; "-1e308"; "1e309"; "nan"; "inf"; "-inf";
              "infinity"; "0x1p3"; "1_000"; " 1"; ""; "4611686018427387904";
              "-4611686018427387905"; "YES"; "NO"; "MAYBE"; "maybe"; "true";
            ] );
        (1, string_size ~gen:csv_byte (int_range 0 6));
      ])

(* Random text under one of the loader headers (or a damaged one):
   mostly rows of the header's arity, some quoted, joined by commas and
   line ends. *)
let loader_text header =
  QCheck2.Gen.(
    let arity = List.length header in
    let row =
      frequency
        [
          (6, list_repeat arity loader_field);
          (1, list_size (int_range 0 7) loader_field);
        ]
    in
    let* header =
      frequency [ (8, return header); (1, row); (1, return []) ]
    in
    let* rows = list_size (int_range 0 4) row in
    let* quote = bool in
    let* crlf = bool in
    let field f = if quote then escape_field f else f in
    let line r = String.concat "," (List.map field r) in
    return
      (String.concat (if crlf then "\r\n" else "\n")
         (List.map line (header :: rows))))

(* Each text either parses or fails with the reader's or the loader's
   own error; any other exception fails the property. *)
let parses_or_typed_error f text =
  match f text with
  | _ -> true
  | exception Csv.Parse_error _ -> true
  | exception Failure msg when String.starts_with ~prefix:"Dataset_io: " msg ->
      true
  | exception e ->
      QCheck2.Test.fail_reportf "%S raised %s" text (Printexc.to_string e)

let sound_records text =
  let records = records_of_rows (decode text) in
  Array.iter
    (fun (r : Interval_data.record) ->
      let lo, hi =
        match r.Interval_data.belief with
        | Uncertain.Exact x -> (x, x)
        | Uncertain.Interval i -> (Interval.lo i, Interval.hi i)
        | Uncertain.Gaussian _ -> assert false
      in
      assert (
        Float.is_finite lo && Float.is_finite hi && lo <= r.Interval_data.truth
        && r.Interval_data.truth <= hi))
    records

let prop_csv_random_bytes =
  QCheck2.Test.make ~name:"csv: random bytes parse or raise Parse_error"
    ~count:500 ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(string_size ~gen:csv_byte (int_range 0 200))
    (fun text ->
      match decode text with
      | rows -> List.for_all (fun r -> r <> []) rows
      | exception Csv.Parse_error { offset; _ } ->
          offset >= 0 && offset < String.length text
      | exception e ->
          QCheck2.Test.fail_reportf "raised %s" (Printexc.to_string e))

let prop_record_loader_fuzz =
  QCheck2.Test.make
    ~name:"record loader: random rows load soundly or are a typed error"
    ~count:500 ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(
      oneof
        [
          loader_text records_header;
          string_size ~gen:csv_byte (int_range 0 200);
        ])
    (parses_or_typed_error sound_records)

let prop_synthetic_loader_fuzz =
  QCheck2.Test.make
    ~name:"synthetic loader: random rows load or are a typed error"
    ~count:300 ~print:(Printf.sprintf "%S")
    (loader_text synthetic_header)
    (parses_or_typed_error (fun text ->
         synthetic_of_rows (decode text)))

(* A fuzz property as a test case, all its cases under one timeout: a
   parser that loops fails the case instead of stalling the suite. *)
let fuzz seed prop =
  let (QCheck2.Test.Test cell) = prop in
  let name = QCheck2.Test.get_name cell in
  ( name,
    `Quick,
    fun () ->
      Test_domain_pool.within ~seconds:30.0 name (fun () ->
          QCheck2.Test.check_exn ~rand:(Random.State.make [| seed |]) prop) )

(* The file entry point goes through the same reader and loader. *)
let test_read_records_garbage_file () =
  let path = Filename.temp_file "qaq_fuzz" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let rng = Random.State.make [| 7 |] in
      for _ = 1 to 50 do
        let text =
          QCheck2.Gen.generate1 ~rand:rng (loader_text records_header)
        in
        let oc = open_out_bin path in
        output_string oc text;
        close_out oc;
        Alcotest.(check bool)
          "read_records parses or gives a typed error" true
          (parses_or_typed_error (fun _ -> Dataset_io.read_records path) text)
      done)

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
    fuzz 30 prop_csv_random_bytes;
    fuzz 31 prop_record_loader_fuzz;
    fuzz 32 prop_synthetic_loader_fuzz;
    ("record file loader on garbage", `Quick, test_read_records_garbage_file);
  ]
