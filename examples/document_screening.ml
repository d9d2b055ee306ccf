(* Document screening by edit distance: the expensive-predicate barrier.

   A corpus of 5 000 documents is stored as q-gram profiles (a fraction
   of the text).  The query: documents within edit distance 6 of a
   pattern, with perfect precision.  Here the probe is not a network
   fetch — it is running the O(n·m) edit distance itself (§1.1's
   querying barrier); the profiles' count-filtering bound rejects most
   of the corpus without ever paying it.

   Run with:  dune exec examples/document_screening.exe *)

let random_letter rng = Char.chr (Char.code 'a' + Rng.int rng 26)

let () =
  let rng = Rng.create 1992 in
  let pattern = "approximate selection over imprecise data" in
  let mutate s edits =
    let bytes = Bytes.of_string s in
    for _ = 1 to edits do
      Bytes.set bytes (Rng.int rng (Bytes.length bytes)) (random_letter rng)
    done;
    Bytes.to_string bytes
  in
  let corpus =
    Array.init 5000 (fun id ->
        let u = Rng.uniform rng in
        let text =
          if u < 0.08 then mutate pattern (Rng.int rng 4)
          else if u < 0.16 then mutate pattern (5 + Rng.int rng 8)
          else String.init (30 + Rng.int rng 25) (fun _ -> random_letter rng)
        in
        Text_query.make_item ~id ~q:3 text)
  in
  let qy = Text_query.query ~q:3 ~pattern ~k:6 in
  Printf.printf "corpus: %d documents; truly within distance %d: %d\n"
    (Array.length corpus) qy.k (Text_query.exact_size qy corpus);

  (* How much the sketches already know, before any distance run. *)
  let verdicts =
    Array.map (fun i -> (Text_query.instance qy).classify i) corpus
  in
  let count v =
    Array.fold_left
      (fun acc x -> if Tvl.equal x v then acc + 1 else acc)
      0 verdicts
  in
  Printf.printf
    "q-gram filter: %d certain non-matches, %d candidates to consider\n"
    (count Tvl.No) (count Tvl.Maybe);

  let requirements = Quality.requirements ~precision:1.0 ~recall:0.7 ~laxity:0.0 in
  let report =
    Operator.run ~rng ~instance:(Text_query.instance qy)
      ~cascade:(Cascade.of_driver (Probe_driver.scalar Text_query.probe))
      ~policy:Policy.stingy
      ~requirements
      (Operator.source_of_array corpus)
  in
  Printf.printf
    "answer: %d documents (all verified matches); distance computations: %d \
     of %d documents\n"
    report.answer_size report.counts.probes (Array.length corpus);
  Printf.printf "guarantees: p^G=%.2f r^G=%.2f\n" report.guarantees.precision
    report.guarantees.recall;
  assert (Quality.meets report.guarantees requirements);
  List.iter
    (fun (e : Text_query.item Operator.emitted) ->
      assert (Text_query.in_exact qy e.obj))
    report.answer
