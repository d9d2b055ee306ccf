(* Tests for the Theorem 3.1 feasibility rules. *)

let req ?(p = 0.9) ?(r = 0.5) ?(l = 50.0) () =
  Quality.requirements ~precision:p ~recall:r ~laxity:l

let action =
  Alcotest.testable
    (Fmt.of_to_string (function
      | Decision.Forward -> "forward"
      | Decision.Probe -> "probe"
      | Decision.Ignore -> "ignore"))
    Decision.equal_action
let checkb = Alcotest.(check bool)

let test_rule_a_laxity () =
  let c = Counters.create ~total:100 in
  let r = req ~l:10.0 () in
  checkb "YES below bound forwardable" true
    (Decision.can_forward c r ~verdict:Tvl.Yes ~laxity:10.0);
  checkb "YES above bound not forwardable" false
    (Decision.can_forward c r ~verdict:Tvl.Yes ~laxity:10.01);
  checkb "MAYBE above bound not forwardable" false
    (Decision.can_forward c r ~verdict:Tvl.Maybe ~laxity:11.0)

let test_rule_b_precision () =
  (* One YES in an answer of one: forwarding a MAYBE gives p^G = 1/2. *)
  let c = Counters.create ~total:100 in
  Counters.forward_yes c ~laxity:1.0;
  checkb "MAYBE blocked at p_q = 0.9" false
    (Decision.can_forward c (req ~p:0.9 ()) ~verdict:Tvl.Maybe ~laxity:1.0);
  checkb "MAYBE allowed at p_q = 0.5" true
    (Decision.can_forward c (req ~p:0.5 ()) ~verdict:Tvl.Maybe ~laxity:1.0);
  (* YES forwarding is never precision-blocked. *)
  checkb "YES never precision-blocked" true
    (Decision.can_forward c (req ~p:1.0 ()) ~verdict:Tvl.Yes ~laxity:1.0)

let test_rule_b_paper_example () =
  (* §3.2's last scenario: |Y| = |A∩Y| = 1, p_q = 1.  A MAYBE cannot be
     forwarded (precision), and with r_q = 0.02 ignoring is allowed. *)
  let c = Counters.create ~total:100 in
  Counters.forward_yes c ~laxity:0.5;
  let r = req ~p:1.0 ~r:0.02 ~l:1.0 () in
  checkb "cannot forward MAYBE" false
    (Decision.can_forward c r ~verdict:Tvl.Maybe ~laxity:0.5);
  checkb "can ignore (recall slack: 1/2 >= 0.02)" true
    (Decision.can_ignore c r ~verdict:Tvl.Maybe)

let test_rule_c_recall () =
  let c = Counters.create ~total:100 in
  (* Nothing answered yet: ignoring drops worst-case recall to 0/1. *)
  checkb "cannot ignore with r_q > 0" false
    (Decision.can_ignore c (req ~r:0.5 ()) ~verdict:Tvl.Yes);
  checkb "can ignore with r_q = 0" true
    (Decision.can_ignore c (req ~r:0.0 ()) ~verdict:Tvl.Yes);
  (* After answering two YES, one ignore keeps worst case at 2/3. *)
  Counters.forward_yes c ~laxity:1.0;
  Counters.forward_yes c ~laxity:1.0;
  checkb "ignore ok at 2/3 >= 0.5" true
    (Decision.can_ignore c (req ~r:0.5 ()) ~verdict:Tvl.Maybe);
  checkb "ignore blocked at 0.7 > 2/3" false
    (Decision.can_ignore c (req ~r:0.7 ()) ~verdict:Tvl.Maybe);
  (* NO objects are always 'ignorable' (they are simply discarded). *)
  checkb "NO discard always fine" true
    (Decision.can_ignore c (req ~r:1.0 ()) ~verdict:Tvl.No)

let test_feasible_always_contains_probe () =
  let c = Counters.create ~total:10 in
  let r = req ~p:1.0 ~r:1.0 ~l:0.0 () in
  (* Strictest possible requirements: forwarding and ignoring both die. *)
  let feasible = Decision.feasible c r ~verdict:Tvl.Maybe ~laxity:5.0 in
  Alcotest.(check (list action)) "probe only" [ Decision.Probe ] feasible

let test_first_feasible_fallback () =
  let c = Counters.create ~total:10 in
  let r = req ~p:1.0 ~r:1.0 ~l:0.0 () in
  Alcotest.check action "falls through to probe" Decision.Probe
    (Decision.first_feasible c r ~verdict:Tvl.Maybe ~laxity:5.0
       ~preference:[ Decision.Forward; Decision.Ignore; Decision.Probe ]);
  Alcotest.check action "empty preference still probes" Decision.Probe
    (Decision.first_feasible c r ~verdict:Tvl.Maybe ~laxity:5.0 ~preference:[]);
  (* When forward is legal it is taken first. *)
  let relaxed = req ~p:0.0 ~r:0.0 ~l:10.0 () in
  Alcotest.check action "prefers forward" Decision.Forward
    (Decision.first_feasible c relaxed ~verdict:Tvl.Maybe ~laxity:5.0
       ~preference:[ Decision.Forward; Decision.Probe ])

let test_no_never_forwarded () =
  let c = Counters.create ~total:10 in
  Alcotest.check_raises "NO forward is a programming error"
    (Invalid_argument "Decision.can_forward: NO objects are never forwarded")
    (fun () ->
      ignore (Decision.can_forward c (req ()) ~verdict:Tvl.No ~laxity:1.0))

(* Safety property behind Theorem 3.1(c): if every ignore is vetted by
   can_ignore, then however the remaining input turns out, final recall
   (with everything else forwarded) meets r_q. *)
let prop_vetted_ignores_preserve_recall =
  QCheck2.Test.make ~name:"vetted ignores keep worst-case recall above r_q"
    ~count:300
    QCheck2.Gen.(
      pair (float_range 0.0 1.0) (list_size (int_range 1 60) (int_range 0 2)))
    (fun (r_q, events) ->
      let r = req ~r:r_q () in
      let c = Counters.create ~total:100 in
      let n = ref 0 in
      List.iter
        (fun e ->
          if !n < 100 then begin
            incr n;
            match e with
            | 0 -> Counters.forward_yes c ~laxity:1.0
            | 1 ->
                if Decision.can_ignore c r ~verdict:Tvl.Yes then
                  Counters.ignore_yes c
                else Counters.forward_yes c ~laxity:1.0
            | _ ->
                if Decision.can_ignore c r ~verdict:Tvl.Maybe then
                  Counters.ignore_maybe c
                else Counters.probe_maybe_yes c
          end)
        events;
      Counters.worst_case_final_recall c >= r_q -. 1e-12)

let suite =
  [
    ("rule (a): laxity", `Quick, test_rule_a_laxity);
    ("rule (b): precision", `Quick, test_rule_b_precision);
    ("rule (b): paper scenario", `Quick, test_rule_b_paper_example);
    ("rule (c): recall", `Quick, test_rule_c_recall);
    ("probe always feasible", `Quick, test_feasible_always_contains_probe);
    ("first_feasible fallback", `Quick, test_first_feasible_fallback);
    ("NO is never forwarded", `Quick, test_no_never_forwarded);
    QCheck_alcotest.to_alcotest prop_vetted_ignores_preserve_recall;
  ]
