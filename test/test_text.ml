(* Tests for the text substrate: edit distance, q-gram bounds and
   quality-aware document selection. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_distance_known_values () =
  checki "kitten/sitting" 3 (Edit_distance.distance "kitten" "sitting");
  checki "flaw/lawn" 2 (Edit_distance.distance "flaw" "lawn");
  checki "identical" 0 (Edit_distance.distance "same" "same");
  checki "empty left" 5 (Edit_distance.distance "" "hello");
  checki "empty right" 5 (Edit_distance.distance "hello" "");
  checki "both empty" 0 (Edit_distance.distance "" "")

let test_within_known_values () =
  checkb "within exact k" true (Edit_distance.within "kitten" "sitting" 3);
  checkb "below k" false (Edit_distance.within "kitten" "sitting" 2);
  checkb "zero threshold equal" true (Edit_distance.within "abc" "abc" 0);
  checkb "zero threshold diff" false (Edit_distance.within "abc" "abd" 0);
  checkb "length gap prunes" false (Edit_distance.within "ab" "abcdefgh" 3);
  Alcotest.check_raises "negative k"
    (Invalid_argument "Edit_distance.within: k < 0") (fun () ->
      ignore (Edit_distance.within "a" "b" (-1)))

let string_gen =
  QCheck2.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_range 0 24))

let prop_distance_metric =
  QCheck2.Test.make ~name:"edit distance is a metric" ~count:200
    QCheck2.Gen.(triple string_gen string_gen string_gen)
    (fun (a, b, c) ->
      let d = Edit_distance.distance in
      d a b = d b a
      && (d a b = 0) = (a = b)
      && d a c <= d a b + d b c)

let prop_within_agrees_with_distance =
  QCheck2.Test.make ~name:"banded within agrees with full distance"
    ~count:300
    QCheck2.Gen.(triple string_gen string_gen (int_range 0 10))
    (fun (a, b, k) ->
      Edit_distance.within a b k = (Edit_distance.distance a b <= k))

let prop_qgram_bounds_sound =
  QCheck2.Test.make ~name:"q-gram bounds bracket the true distance"
    ~count:300
    QCheck2.Gen.(triple string_gen string_gen (int_range 1 4))
    (fun (a, b, q) ->
      let pa = Qgram.profile ~q a and pb = Qgram.profile ~q b in
      let d = Edit_distance.distance a b in
      Qgram.min_edit_distance pa pb <= d && d <= Qgram.max_edit_distance pa pb)

let corpus rng pattern n =
  (* A mix: near-duplicates of the pattern, moderately edited copies,
     and unrelated strings. *)
  let mutate s edits =
    let bytes = Bytes.of_string s in
    for _ = 1 to edits do
      if Bytes.length bytes > 0 then begin
        let i = Rng.int rng (Bytes.length bytes) in
        Bytes.set bytes i (Char.chr (Char.code 'a' + Rng.int rng 26))
      end
    done;
    Bytes.to_string bytes
  in
  Array.init n (fun id ->
      let u = Rng.uniform rng in
      let text =
        if u < 0.15 then mutate pattern (Rng.int rng 3)
        else if u < 0.3 then mutate pattern (4 + Rng.int rng 6)
        else
          String.init
            (20 + Rng.int rng 20)
            (fun _ -> Char.chr (Char.code 'a' + Rng.int rng 26))
      in
      Text_query.make_item ~id ~q:3 text)

let test_classification_sound () =
  let rng = Rng.create 42 in
  let pattern = "approximate selection queries" in
  let items = corpus rng pattern 500 in
  let qy = Text_query.query ~q:3 ~pattern ~k:5 in
  let instance = Text_query.instance qy in
  Array.iter
    (fun item ->
      match instance.classify item with
      | Tvl.Yes -> checkb "yes sound" true (Text_query.in_exact qy item)
      | Tvl.No -> checkb "no sound" false (Text_query.in_exact qy item)
      | Tvl.Maybe -> ())
    items

let test_end_to_end_selection () =
  let rng = Rng.create 43 in
  let pattern = "quality aware query evaluation" in
  let items = corpus rng pattern 1000 in
  let qy = Text_query.query ~q:3 ~pattern ~k:6 in
  let requirements =
    Quality.requirements ~precision:1.0 ~recall:0.6 ~laxity:0.0
  in
  let report =
    Operator.run ~rng ~instance:(Text_query.instance qy)
      ~cascade:(Cascade.of_driver (Probe_driver.scalar Text_query.probe))
      ~policy:Policy.stingy
      ~requirements
      (Operator.source_of_array items)
  in
  checkb "meets" true (Quality.meets report.guarantees requirements);
  List.iter
    (fun (e : Text_query.item Operator.emitted) ->
      checkb "every answer truly matches" true (Text_query.in_exact qy e.obj))
    report.answer;
  checkb "found matches" true (report.answer_size > 0);
  (* The sketches must have spared most distance computations: probes
     happen only on candidates the q-gram filter could not reject. *)
  checkb "sketch filter saves probes" true
    (report.counts.probes < Array.length items / 2)

let test_probe_resolves () =
  let item = Text_query.make_item ~id:0 ~q:2 "hello world" in
  let qy = Text_query.query ~q:2 ~pattern:"hello wurld" ~k:1 in
  let instance = Text_query.instance qy in
  let probed = Text_query.probe item in
  checkb "definite" true (Tvl.is_definite (instance.classify probed));
  Alcotest.(check (float 0.0)) "laxity zero" 0.0 (instance.laxity probed);
  checkb "correct verdict" true
    (Tvl.equal (instance.classify probed) Tvl.Yes)

let suite =
  [
    ("distance known values", `Quick, test_distance_known_values);
    ("within known values", `Quick, test_within_known_values);
    QCheck_alcotest.to_alcotest prop_distance_metric;
    QCheck_alcotest.to_alcotest prop_within_agrees_with_distance;
    QCheck_alcotest.to_alcotest prop_qgram_bounds_sound;
    ("classification sound on a corpus", `Quick, test_classification_sound);
    ("end-to-end document selection", `Quick, test_end_to_end_selection);
    ("probe resolves", `Quick, test_probe_resolves);
  ]
