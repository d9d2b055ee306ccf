(* Unit tests for the batched probe driver. *)

let checki = Alcotest.(check int)

let value = function
  | Probe_driver.Resolved x -> x
  | Probe_driver.Shrunk _ | Probe_driver.Failed _ ->
      Alcotest.fail "expected a Resolved outcome"

let resolved_batch f objs =
  Array.map (fun o -> Probe_driver.Resolved o) (f objs)

let test_scalar_flushes_immediately () =
  let d = Probe_driver.scalar (fun x -> x * 2) in
  checki "batch size" 1 (Probe_driver.batch_size d);
  let got = ref 0 in
  Probe_driver.submit_outcome d 7 (fun r -> got := value r);
  checki "resolved synchronously" 14 !got;
  checki "no pending" 0 (Probe_driver.pending d);
  checki "probes" 1 (Probe_driver.probes d);
  checki "batches" 1 (Probe_driver.batches d)

let test_auto_flush_at_batch_size () =
  let batches_seen = ref [] in
  let d =
    Probe_driver.create_outcomes ~batch_size:3
      (resolved_batch (fun objs ->
           batches_seen := Array.to_list objs :: !batches_seen;
           Array.map (fun x -> x + 1) objs))
  in
  let out = ref [] in
  List.iter
    (fun x -> Probe_driver.submit_outcome d x (fun r -> out := value r :: !out))
    [ 1; 2; 3; 4 ];
  checki "one auto flush" 1 (Probe_driver.batches d);
  checki "one pending" 1 (Probe_driver.pending d);
  Alcotest.(check (list (list int)))
    "first batch intact" [ [ 1; 2; 3 ] ] !batches_seen;
  Alcotest.(check (list int))
    "callbacks in submission order" [ 2; 3; 4 ] (List.rev !out);
  Probe_driver.flush d;
  checki "explicit flush drains" 0 (Probe_driver.pending d);
  checki "two batches" 2 (Probe_driver.batches d);
  checki "four probes" 4 (Probe_driver.probes d);
  Alcotest.(check (list int))
    "partial batch delivered" [ 2; 3; 4; 5 ] (List.rev !out);
  Probe_driver.flush d;
  checki "empty flush is free" 2 (Probe_driver.batches d)

let test_stats_before_callbacks () =
  (* Accounting is committed before completions run, so a callback may
     read consistent stats. *)
  let d = Probe_driver.of_scalar ~batch_size:2 Fun.id in
  let seen = ref (-1, -1) in
  Probe_driver.submit_outcome d 1 (fun _ -> ());
  Probe_driver.submit_outcome d 2 (fun _ ->
      seen := (Probe_driver.probes d, Probe_driver.batches d));
  Alcotest.(check (pair int int)) "stats visible in callback" (2, 1) !seen

let test_callback_may_resubmit () =
  (* Completions run outside the resolving section, so follow-up probes
     from a callback are legal. *)
  let d = Probe_driver.of_scalar ~batch_size:1 (fun x -> x + 1) in
  let final = ref 0 in
  Probe_driver.submit_outcome d 0 (fun r ->
      Probe_driver.submit_outcome d (value r) (fun r2 -> final := value r2));
  checki "chained probe" 2 !final;
  checki "two batches" 2 (Probe_driver.batches d)

let test_resolve () =
  let d = Probe_driver.of_scalar ~batch_size:8 (fun x -> x * x) in
  let got = ref 0 in
  Probe_driver.submit_outcome d 5 (fun r -> got := value r);
  checki "below the batch size" 1 (Probe_driver.pending d);
  Probe_driver.flush d;
  checki "flush resolves a partial batch" 25 !got;
  checki "no pending" 0 (Probe_driver.pending d);
  checki "one batch" 1 (Probe_driver.batches d)

let test_validation () =
  Alcotest.check_raises "batch_size < 1"
    (Invalid_argument "Probe_driver.create_outcomes: batch_size < 1")
    (fun () ->
      ignore
        (Probe_driver.create_outcomes ~batch_size:0
           (resolved_batch (fun (o : int array) -> o))));
  let bad =
    Probe_driver.create_outcomes ~batch_size:2
      (resolved_batch (fun _ -> ([||] : int array)))
  in
  Probe_driver.submit_outcome bad 1 (fun _ -> ());
  Alcotest.check_raises "resolver changed the length"
    (Invalid_argument "Probe_driver.flush: resolver changed the batch length")
    (fun () -> Probe_driver.submit_outcome bad 2 (fun _ -> ()))

let test_reentrant_flush_rejected () =
  let self = ref None in
  let d =
    Probe_driver.create_outcomes ~batch_size:1
      (resolved_batch (fun objs ->
           (match !self with Some d -> Probe_driver.flush d | None -> ());
           objs))
  in
  self := Some d;
  Alcotest.check_raises "reentrant flush"
    (Invalid_argument "Probe_driver.flush: reentrant flush") (fun () ->
      Probe_driver.submit_outcome d 1 (fun _ -> ()))

let suite =
  [
    ("scalar flushes immediately", `Quick, test_scalar_flushes_immediately);
    ("auto-flush at batch size", `Quick, test_auto_flush_at_batch_size);
    ("stats committed before callbacks", `Quick, test_stats_before_callbacks);
    ("callback may resubmit", `Quick, test_callback_may_resubmit);
    ("resolve flushes a partial batch", `Quick, test_resolve);
    ("validation", `Quick, test_validation);
    ("reentrant flush rejected", `Quick, test_reentrant_flush_rejected);
  ]
