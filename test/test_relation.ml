(* Tests for multi-attribute tuples, Kleene conditions with
   normalisation, attribute-level probe planning and relational
   selection. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let tvl = Alcotest.testable (Fmt.of_to_string Tvl.to_string) Tvl.equal

let s2 = Relation.schema [ "temp"; "battery" ]

let mk ?(id = 0) beliefs truths =
  Relation.tuple ~id ~beliefs:(Array.of_list beliefs)
    ~truths:(Array.of_list truths)

(* Ground truth: the condition over the tuple's hidden precise values. *)
let rec eval_truth (c : Relation.condition) (t : Relation.tuple) =
  match c with
  | Atom (i, p) -> Predicate.eval p t.truths.(i)
  | Not c -> not (eval_truth c t)
  | And (a, b) -> eval_truth a t && eval_truth b t
  | Or (a, b) -> eval_truth a t || eval_truth b t

let test_schema () =
  checki "arity" 2 (Array.length s2.Relation.names);
  let p = Predicate.ge 1.0 in
  checkb "attr index" true (Relation.atom s2 "battery" p = Relation.Atom (1, p));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Relation.schema: duplicate attribute \"a\"") (fun () ->
      ignore (Relation.schema [ "a"; "a" ]));
  checkb "missing raises" true
    (try
       ignore (Relation.atom s2 "nope" p);
       false
     with Not_found -> true)

let test_tuple_validation () =
  Alcotest.check_raises "arity"
    (Invalid_argument "Relation.tuple: arity mismatch") (fun () ->
      ignore (mk [ Uncertain.exact 1.0 ] [ 1.0; 2.0 ]));
  Alcotest.check_raises "truth outside belief"
    (Invalid_argument "Relation.tuple: truth of attribute 0 outside its belief")
    (fun () -> ignore (mk [ Uncertain.interval 0.0 1.0 ] [ 5.0 ]))

let cond_hot_low =
  (* temp >= 30 AND battery <= 20 *)
  Relation.And
    (Relation.atom s2 "temp" (Predicate.ge 30.0),
     Relation.atom s2 "battery" (Predicate.le 20.0))

let test_classify_kleene () =
  let t = mk [ Uncertain.interval 35.0 40.0; Uncertain.interval 10.0 15.0 ] [ 37.0; 12.0 ] in
  Alcotest.check tvl "both yes" Tvl.Yes (Relation.classify cond_hot_low t);
  let t = mk [ Uncertain.interval 25.0 35.0; Uncertain.interval 10.0 15.0 ] [ 33.0; 12.0 ] in
  Alcotest.check tvl "one maybe" Tvl.Maybe (Relation.classify cond_hot_low t);
  let t = mk [ Uncertain.interval 10.0 20.0; Uncertain.interval 10.0 15.0 ] [ 15.0; 12.0 ] in
  Alcotest.check tvl "one no kills and" Tvl.No (Relation.classify cond_hot_low t)

let test_normalisation_recovers_tautology () =
  (* (temp >= 10) OR (temp <= 20) is a tautology; naive Kleene over two
     separate atoms would say MAYBE for a belief straddling both
     thresholds. *)
  let tautology =
    Relation.Or
      (Relation.atom s2 "temp" (Predicate.ge 10.0),
       Relation.atom s2 "temp" (Predicate.le 20.0))
  in
  let t = mk [ Uncertain.interval 5.0 25.0; Uncertain.exact 50.0 ] [ 15.0; 50.0 ] in
  Alcotest.check tvl "tautology detected" Tvl.Yes (Relation.classify tautology t);
  (* Same with a contradiction under AND. *)
  let contradiction =
    Relation.And
      (Relation.atom s2 "temp" (Predicate.ge 20.0),
       Relation.atom s2 "temp" (Predicate.Lt 10.0))
  in
  Alcotest.check tvl "contradiction detected" Tvl.No
    (Relation.classify contradiction t);
  (* Negation pushes to the atom. *)
  let negated = Relation.Not (Relation.atom s2 "temp" (Predicate.ge 30.0)) in
  let cool = mk [ Uncertain.interval 0.0 10.0; Uncertain.exact 0.0 ] [ 5.0; 0.0 ] in
  Alcotest.check tvl "negation" Tvl.Yes (Relation.classify negated cool)

let test_success_independent_product () =
  (* temp MAYBE with mass 0.5, battery MAYBE with mass 0.25:
     conjunction success = 0.125 under independence. *)
  let t =
    mk [ Uncertain.interval 25.0 35.0; Uncertain.interval 15.0 35.0 ] [ 30.0; 20.0 ]
  in
  Alcotest.(check (float 1e-9)) "product" 0.125
    (Relation.success cond_hot_low t);
  (* Definite conditions pin to 0/1. *)
  let yes = mk [ Uncertain.exact 40.0; Uncertain.exact 10.0 ] [ 40.0; 10.0 ] in
  Alcotest.(check (float 0.0)) "yes" 1.0 (Relation.success cond_hot_low yes)

let test_laxity_over_mentioned () =
  let t =
    mk [ Uncertain.interval 0.0 10.0; Uncertain.interval 0.0 4.0 ] [ 5.0; 2.0 ]
  in
  Alcotest.(check (float 0.0)) "max over mentioned" 10.0
    (Relation.laxity cond_hot_low t);
  let only_battery = Relation.atom s2 "battery" (Predicate.le 20.0) in
  Alcotest.(check (float 0.0)) "unmentioned ignored" 4.0
    (Relation.laxity only_battery t)

let test_probe_planning_prefers_decisive () =
  (* battery is certainly low; temp decides the conjunction.  The plan
     must fetch temp, not battery. *)
  let t =
    mk [ Uncertain.interval 25.0 35.0; Uncertain.interval 10.0 15.0 ] [ 33.0; 12.0 ]
  in
  Alcotest.(check (option int)) "probes temp" (Some 0)
    (Relation.next_probe cond_hot_low t);
  (* Conversely when temp is settled. *)
  let t =
    mk [ Uncertain.interval 35.0 40.0; Uncertain.interval 15.0 30.0 ] [ 37.0; 22.0 ]
  in
  Alcotest.(check (option int)) "probes battery" (Some 1)
    (Relation.next_probe cond_hot_low t);
  (* Nothing to probe when definite. *)
  let t = mk [ Uncertain.exact 40.0; Uncertain.exact 10.0 ] [ 40.0; 10.0 ] in
  Alcotest.(check (option int)) "definite" None
    (Relation.next_probe cond_hot_low t)

let test_resolve_stops_early_on_no () =
  (* A conjunction that dies on the first fetch: both attributes are
     MAYBE, but the first fetched (temp, truth 27 < 30) settles NO, so
     battery is never fetched. *)
  let t =
    mk [ Uncertain.interval 25.0 35.0; Uncertain.interval 0.0 40.0 ] [ 27.0; 30.0 ]
  in
  let meter = Cost_meter.create () in
  let resolved = Relation.resolve ~meter cond_hot_low t in
  Alcotest.check tvl "resolved no" Tvl.No (Relation.classify cond_hot_low resolved);
  checki "single fetch" 1 (Cost_meter.counts meter).probes;
  (* A YES resolution fetches everything mentioned (emittable objects
     must reach laxity 0). *)
  let t =
    mk [ Uncertain.interval 28.0 42.0; Uncertain.interval 0.0 40.0 ] [ 40.0; 10.0 ]
  in
  let meter = Cost_meter.create () in
  let resolved = Relation.resolve ~meter cond_hot_low t in
  Alcotest.check tvl "resolved yes" Tvl.Yes (Relation.classify cond_hot_low resolved);
  checki "both fetched" 2 (Cost_meter.counts meter).probes;
  Alcotest.(check (float 0.0)) "laxity zero" 0.0
    (Relation.laxity cond_hot_low resolved)

let random_tuples seed n =
  let rng = Rng.create seed in
  Array.init n (fun id ->
      let attr_belief () =
        let truth = Rng.float rng 100.0 in
        let w = Rng.float rng 30.0 in
        let off = Rng.float rng w in
        (Uncertain.interval (truth -. off) (truth -. off +. w), truth)
      in
      let b0, t0 = attr_belief () and b1, t1 = attr_belief () in
      Relation.tuple ~id ~beliefs:[| b0; b1 |] ~truths:[| t0; t1 |])

let test_select_end_to_end () =
  let tuples = random_tuples 9 3000 in
  let requirements = Quality.requirements ~precision:0.9 ~recall:0.7 ~laxity:25.0 in
  let report =
    Relation.select ~rng:(Rng.create 10) ~requirements cond_hot_low tuples
  in
  checkb "meets" true (Quality.meets report.guarantees requirements);
  let answer_in_exact =
    List.length
      (List.filter
         (fun e -> eval_truth cond_hot_low e.Operator.obj)
         report.answer)
  in
  let exact =
    Array.to_list tuples
    |> List.filter (eval_truth cond_hot_low)
    |> List.length
  in
  let actual_p =
    Quality.Diagnostics.precision ~answer_size:report.answer_size
      ~answer_in_exact
  in
  let actual_r =
    Quality.Diagnostics.recall ~exact_size:exact ~answer_in_exact
  in
  checkb "actual precision dominates" true
    (actual_p >= report.guarantees.precision -. 1e-9);
  checkb "actual recall dominates" true
    (actual_r >= report.guarantees.recall -. 1e-9);
  (* Attribute-level accounting: fetches can exceed probe actions (two
     attributes) but never exceed 2x. *)
  checkb "fetch accounting sane" true
    (report.counts.probes >= report.probe_actions
    && report.counts.probes <= 2 * report.probe_actions)

(* Fuzz: classification and success are sound against ground truth for
   random conditions over random tuples. *)
let cond_gen =
  QCheck2.Gen.(
    let atom_gen =
      let* i = int_range 0 1 in
      let* thr = float_range 10.0 90.0 in
      let* dir = bool in
      return (Relation.Atom (i, if dir then Predicate.ge thr else Predicate.le thr))
    in
    sized @@ fix (fun self n ->
        if n <= 1 then atom_gen
        else
          oneof
            [
              atom_gen;
              map2 (fun a b -> Relation.And (a, b)) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> Relation.Or (a, b)) (self (n / 2)) (self (n / 2));
              map (fun a -> Relation.Not a) (self (n - 1));
            ]))

let prop_classification_sound =
  QCheck2.Test.make ~name:"relation classification sound vs ground truth"
    ~count:300
    QCheck2.Gen.(pair cond_gen (int_range 0 5000))
    (fun (cond, seed) ->
      let tuples = random_tuples seed 30 in
      Array.for_all
        (fun t ->
          let truth = eval_truth cond t in
          let ok_verdict =
            match Relation.classify cond t with
            | Tvl.Yes -> truth
            | Tvl.No -> not truth
            | Tvl.Maybe -> true
          in
          let s = Relation.success cond t in
          ok_verdict && s >= 0.0 && s <= 1.0)
        tuples)

let prop_resolve_definite =
  QCheck2.Test.make ~name:"resolve always reaches a definite verdict"
    ~count:200
    QCheck2.Gen.(pair cond_gen (int_range 0 5000))
    (fun (cond, seed) ->
      let tuples = random_tuples seed 10 in
      Array.for_all
        (fun t ->
          let resolved = Relation.resolve cond t in
          let verdict = Relation.classify cond resolved in
          Tvl.is_definite verdict
          && (not (Tvl.equal verdict Tvl.Yes)
             || Relation.laxity cond resolved = 0.0))
        tuples)

let suite =
  [
    ("schema", `Quick, test_schema);
    ("tuple validation", `Quick, test_tuple_validation);
    ("kleene classification", `Quick, test_classify_kleene);
    ("normalisation recovers per-attribute tautologies", `Quick, test_normalisation_recovers_tautology);
    ("success under independence", `Quick, test_success_independent_product);
    ("laxity over mentioned attributes", `Quick, test_laxity_over_mentioned);
    ("probe planning prefers the decisive attribute", `Quick, test_probe_planning_prefers_decisive);
    ("resolve stops early on NO", `Quick, test_resolve_stops_early_on_no);
    ("select end to end", `Quick, test_select_end_to_end);
    QCheck_alcotest.to_alcotest prop_classification_sound;
    QCheck_alcotest.to_alcotest prop_resolve_definite;
  ]
