(* Tests for the operator's counter state, including the paper's worked
   example from §2.3 and the guarantee-direction table (Table 1). *)

let checkf tol = Alcotest.(check (float tol))
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_initial_state () =
  let c = Counters.create ~total:100 in
  checki "unseen" 100 (Counters.unseen c);
  checkf 0.0 "precision starts at 1 (empty answer)" 1.0
    ((Counters.guarantees c).precision);
  checkf 0.0 "recall starts at 0" 0.0 (Counters.recall_guarantee c);
  (* Empty input: both guarantees are vacuous. *)
  let empty = Counters.create ~total:0 in
  checkf 0.0 "empty input recall" 1.0 (Counters.recall_guarantee empty);
  Alcotest.check_raises "negative total"
    (Invalid_argument "Counters.create: total < 0") (fun () ->
      ignore (Counters.create ~total:(-1)))

let test_paper_worked_example () =
  (* §2.3: |T| = 1000, 200 objects seen: 100 YES (80 forwarded, 20
     ignored), 50 MAYBE (20 probed: 10 YES + 10 NO; 20 forwarded; 10
     ignored), 50 NO. *)
  let c = Counters.create ~total:1000 in
  for _ = 1 to 80 do
    Counters.forward_yes c ~laxity:1.0
  done;
  for _ = 1 to 20 do
    Counters.ignore_yes c
  done;
  for _ = 1 to 10 do
    Counters.probe_maybe_yes c
  done;
  for _ = 1 to 10 do
    Counters.probe_maybe_no c
  done;
  for _ = 1 to 20 do
    Counters.forward_maybe c ~laxity:2.0
  done;
  for _ = 1 to 10 do
    Counters.ignore_maybe c
  done;
  for _ = 1 to 50 do
    Counters.saw_no c
  done;
  checki "unseen" 800 (Counters.unseen c);
  checki "|Y| = 110" 110 (Counters.yes_seen c);
  checki "|A∩Y| = 90" 90 (Counters.answer_yes c);
  checki "|A| = 110" 110 (Counters.answer_size c);
  checki "|M_s - A| = 10" 10 (Counters.maybe_ignored c);
  (* p^G = 90/110 ≈ 0.81 as in the paper.  For r^G Eq. 9 gives
     |A∩Y| / (|Y| + |M_ns| + |M_s−A|) = 90 / (110 + 800 + 10) = 90/920:
     the paper's prose tallies 90/930 by adding the 20 ignored YES
     objects again, but those are already inside |Y| = 110 — an
     arithmetic slip in the example, not in Eq. 9 (both round to the
     0.097 the paper reports). *)
  checkf 1e-9 "p^G" (90.0 /. 110.0) ((Counters.guarantees c).precision);
  checkf 1e-9 "r^G (Eq. 9)" (90.0 /. 920.0) (Counters.recall_guarantee c);
  checkf 1e-9 "l^max" 2.0 ((Counters.guarantees c).max_laxity)

(* Table 1: the direction each event moves each guarantee. *)
let test_guarantee_directions () =
  let base () =
    let c = Counters.create ~total:100 in
    Counters.forward_yes c ~laxity:5.0;
    Counters.forward_maybe c ~laxity:3.0;
    Counters.ignore_maybe c;
    c
  in
  let observe event =
    let c = base () in
    let p0 = (Counters.guarantees c).precision in
    let r0 = Counters.recall_guarantee c in
    let l0 = (Counters.guarantees c).max_laxity in
    event c;
    ( compare ((Counters.guarantees c).precision) p0,
      compare (Counters.recall_guarantee c) r0,
      compare ((Counters.guarantees c).max_laxity) l0 )
  in
  let checkdir name expected event =
    Alcotest.(check (triple int int int)) name expected (observe event)
  in
  checkdir "NO: p= r+ l=" (0, 1, 0) Counters.saw_no;
  checkdir "YES forward (low laxity): p+ r+ l=" (1, 1, 0) (fun c ->
      Counters.forward_yes c ~laxity:1.0);
  checkdir "YES forward (high laxity): p+ r+ l+" (1, 1, 1) (fun c ->
      Counters.forward_yes c ~laxity:9.0);
  checkdir "YES probe: p+ r+ l=" (1, 1, 0) Counters.probe_yes;
  checkdir "YES ignore: p= r= l=" (0, 0, 0) Counters.ignore_yes;
  checkdir "MAYBE forward: p- r+ l=" (-1, 1, 0) (fun c ->
      Counters.forward_maybe c ~laxity:1.0);
  checkdir "MAYBE probe->YES: p+ r+ l=" (1, 1, 0) Counters.probe_maybe_yes;
  checkdir "MAYBE probe->NO: p= r+ l=" (0, 1, 0) Counters.probe_maybe_no;
  checkdir "MAYBE ignore: p= r= l=" (0, 0, 0) Counters.ignore_maybe

let test_worst_case_final_recall () =
  let c = Counters.create ~total:10 in
  Counters.forward_yes c ~laxity:1.0;
  (* 1 answered YES of 1 seen YES: worst case 1. *)
  checkf 0.0 "perfect so far" 1.0 (Counters.worst_case_final_recall c);
  Counters.ignore_yes c;
  checkf 1e-12 "half after ignoring a YES" 0.5 (Counters.worst_case_final_recall c);
  Counters.ignore_maybe c;
  checkf 1e-12 "third after ignoring a MAYBE" (1.0 /. 3.0)
    (Counters.worst_case_final_recall c)

(* Random event sequences: the recall guarantee never decreases, the
   worst-case final recall only decreases via ignores, and the recall
   guarantee is always a lower bound on the worst-case final recall. *)
let prop_guarantee_monotonicity =
  let event_gen = QCheck2.Gen.int_range 0 7 in
  QCheck2.Test.make ~name:"recall guarantee is monotone; bounds ordered"
    ~count:300
    QCheck2.Gen.(list_size (int_range 1 80) event_gen)
    (fun events ->
      let c = Counters.create ~total:100 in
      let ok = ref true in
      let apply i =
        match i with
        | 0 -> Counters.saw_no c
        | 1 -> Counters.forward_yes c ~laxity:1.0
        | 2 -> Counters.probe_yes c
        | 3 -> Counters.ignore_yes c
        | 4 -> Counters.forward_maybe c ~laxity:2.0
        | 5 -> Counters.probe_maybe_yes c
        | 6 -> Counters.probe_maybe_no c
        | _ -> Counters.ignore_maybe c
      in
      List.iteri
        (fun n i ->
          if n < 100 then begin
            let r_before = Counters.recall_guarantee c in
            apply i;
            if Counters.recall_guarantee c < r_before -. 1e-12 then ok := false;
            if
              Counters.recall_guarantee c
              > Counters.worst_case_final_recall c +. 1e-12
            then ok := false
          end)
        events;
      !ok)

let test_copy_is_independent () =
  let a = Counters.create ~total:10 in
  Counters.forward_yes a ~laxity:1.0;
  let b = Counters.copy a in
  Counters.forward_yes a ~laxity:1.0;
  checki "copy frozen" 1 (Counters.answer_size b);
  checki "original advanced" 2 (Counters.answer_size a)

let suite =
  [
    ("initial state", `Quick, test_initial_state);
    ("paper worked example (section 2.3)", `Quick, test_paper_worked_example);
    ("Table 1 guarantee directions", `Quick, test_guarantee_directions);
    ("worst-case final recall", `Quick, test_worst_case_final_recall);
    ("copy independence", `Quick, test_copy_is_independent);
    QCheck_alcotest.to_alcotest prop_guarantee_monotonicity;
  ]
