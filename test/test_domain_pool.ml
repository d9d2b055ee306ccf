(* Tests for the worker-domain pool: parallel_map must equal Array.map
   for every lane count and chunking, exceptions must surface in the
   caller, and pools must start up and shut down cleanly. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_map_matches_sequential () =
  Domain_pool.with_pool ~domains:4 (fun pool ->
      List.iter
        (fun n ->
          let arr = Array.init n (fun i -> i) in
          let expect = Array.map (fun x -> (x * 37) + 1) arr in
          let got = Domain_pool.parallel_map pool (fun x -> (x * 37) + 1) arr in
          Alcotest.(check (array int))
            (Printf.sprintf "map over %d elements" n)
            expect got)
        [ 0; 1; 2; 7; 64; 1000 ])

(* Float results exercise the flat float-array representation: the
   per-chunk merge must produce a well-formed float array. *)
let test_map_floats () =
  Domain_pool.with_pool ~domains:3 (fun pool ->
      let arr = Array.init 513 float_of_int in
      let f x = (x *. 1.5) -. 7.0 in
      let got = Domain_pool.parallel_map pool f arr in
      Alcotest.(check (array (float 0.0))) "float map" (Array.map f arr) got)

let prop_map_equals_array_map =
  QCheck2.Test.make ~name:"parallel_map equals Array.map" ~count:200
    QCheck2.Gen.(
      triple (int_range 0 500) (int_range 1 64) (int_range 1 6))
    (fun (n, chunk, domains) ->
      Domain_pool.with_pool ~domains (fun pool ->
          let arr = Array.init n (fun i -> (i * 13) mod 97) in
          let f x = (x * x) - (3 * x) in
          Domain_pool.parallel_map pool ~chunk_size:chunk f arr
          = Array.map f arr))

let test_single_domain_fallback () =
  (* domains = 1 spawns nothing and still computes everything. *)
  Domain_pool.with_pool ~domains:1 (fun pool ->
      checki "one lane" 1 (Domain_pool.domains pool);
      let arr = Array.init 100 (fun i -> i) in
      Alcotest.(check (array int))
        "sequential fallback" (Array.map succ arr)
        (Domain_pool.parallel_map pool succ arr);
      checki "busy array length" 1 (Array.length (Domain_pool.busy_seconds pool)))

let test_exception_propagates () =
  Domain_pool.with_pool ~domains:4 (fun pool ->
      let arr = Array.init 300 (fun i -> i) in
      Alcotest.check_raises "worker exception reaches the caller"
        (Failure "boom") (fun () ->
          ignore
            (Domain_pool.parallel_map pool ~chunk_size:8
               (fun x -> if x = 217 then failwith "boom" else x)
               arr));
      (* The pool survives a failed map. *)
      Alcotest.(check (array int))
        "pool usable after failure" (Array.map succ arr)
        (Domain_pool.parallel_map pool succ arr))

let test_run_all () =
  Domain_pool.with_pool ~domains:4 (fun pool ->
      let thunks = Array.init 17 (fun i () -> i * i) in
      Alcotest.(check (array int))
        "thunk results in input order"
        (Array.init 17 (fun i -> i * i))
        (Domain_pool.run_all pool thunks))

let test_busy_seconds () =
  Domain_pool.with_pool ~domains:3 (fun pool ->
      checki "one entry per lane" 3
        (Array.length (Domain_pool.busy_seconds pool));
      ignore
        (Domain_pool.parallel_map pool ~chunk_size:1 (fun x -> x * 2)
           (Array.init 64 (fun i -> i)));
      Array.iter
        (fun b -> checkb "busy time non-negative" true (b >= 0.0))
        (Domain_pool.busy_seconds pool))

let test_shutdown_idempotent () =
  let pool = Domain_pool.create ~domains:3 () in
  ignore (Domain_pool.parallel_map pool succ (Array.init 10 (fun i -> i)));
  Domain_pool.shutdown pool;
  Domain_pool.shutdown pool;
  (* Repeated create/shutdown cycles must not leak or wedge. *)
  for _ = 1 to 10 do
    Domain_pool.with_pool ~domains:2 (fun p ->
        ignore (Domain_pool.parallel_map p succ (Array.init 32 (fun i -> i))))
  done

let test_invalid_arguments () =
  Alcotest.check_raises "create domains < 1"
    (Invalid_argument "Domain_pool.create: domains < 1") (fun () ->
      ignore (Domain_pool.create ~domains:0 ()));
  Alcotest.check_raises "resolve domains < 1"
    (Invalid_argument "Domain_pool.resolve: domains < 1") (fun () ->
      ignore (Domain_pool.resolve ~domains:0 ()));
  Domain_pool.with_pool ~domains:2 (fun pool ->
      Alcotest.check_raises "chunk_size < 1"
        (Invalid_argument "Domain_pool.parallel_map: chunk_size < 1")
        (fun () ->
          ignore
            (Domain_pool.parallel_map pool ~chunk_size:0 succ [| 1; 2; 3 |])))

let test_resolve_env () =
  checki "explicit wins" 3 (Domain_pool.resolve ~domains:3 ());
  Unix.putenv Domain_pool.env_var "4";
  checki "env consulted" 4 (Domain_pool.resolve ());
  checki "explicit beats env" 2 (Domain_pool.resolve ~domains:2 ());
  Unix.putenv Domain_pool.env_var "nonsense";
  checkb "invalid env rejected" true
    (match Domain_pool.resolve () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Unix.putenv Domain_pool.env_var "";
  checki "empty env means one" 1 (Domain_pool.resolve ())

(* Run [f] on a domain of its own and fail the test if it has not
   returned within [seconds]: a lane that deadlocks fails its test
   instead of stalling the suite.  Returns [f]'s result, or re-raises
   its exception. *)
let within ?(seconds = 5.0) what f =
  let finished = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Fun.protect ~finally:(fun () -> Atomic.set finished true) f)
  in
  let deadline = Unix.gettimeofday () +. seconds in
  while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  if not (Atomic.get finished) then
    Alcotest.failf "%s did not finish within %g s" what seconds;
  Domain.join d

(* One lane, eight tasks that each wait 20 ms on "I/O": the lane lends
   itself out at every wait, so the waits overlap, and the results still
   come back in input order. *)
let test_lane_overlaps_io () =
  let got, seconds =
    within "eight blocking tasks on one lane" (fun () ->
        let t0 = Unix.gettimeofday () in
        let got =
          Domain_pool.run_lanes ~lanes:1
            (Array.init 8 (fun i () ->
                 Domain_pool.blocking (fun () -> Unix.sleepf 0.02);
                 i * i))
        in
        (got, Unix.gettimeofday () -. t0))
  in
  Alcotest.(check (array int))
    "results in input order"
    (Array.init 8 (fun i -> i * i))
    got;
  checkb
    (Printf.sprintf "the waits overlap (%.0f ms, serial is 160 ms)"
       (seconds *. 1000.0))
    true (seconds < 0.1)

(* A raising task does not cut the run short: every other task
   finishes first, and the lowest-indexed exception is the one that
   reaches the caller. *)
let test_lane_raise_after_all () =
  List.iter
    (fun lanes ->
      let finished = Atomic.make 0 in
      let tasks =
        Array.init 6 (fun i () ->
            if i = 1 then failwith "first"
            else if i = 4 then failwith "second"
            else begin
              Domain_pool.blocking (fun () -> Unix.sleepf 0.01);
              Atomic.incr finished
            end)
      in
      let outcome =
        within "a raising run" (fun () ->
            match Domain_pool.run_lanes ~lanes tasks with
            | _ -> Ok ()
            | exception Failure msg -> Error (msg, Atomic.get finished))
      in
      match outcome with
      | Error (msg, done_) ->
          Alcotest.(check string)
            (Printf.sprintf "%d lanes: lowest index wins" lanes)
            "first" msg;
          checki
            (Printf.sprintf "%d lanes: the others finished first" lanes)
            4 done_
      | Ok () -> Alcotest.failf "%d lanes: the run must raise" lanes)
    [ 1; 2 ]

(* Outside a lane, [blocking] and [wait] are the plain calls, and
   [run_lanes] validates its lane count. *)
let test_lane_edges () =
  checki "blocking outside a lane" 7 (Domain_pool.blocking (fun () -> 7));
  Alcotest.(check (array int)) "no tasks" [||] (Domain_pool.run_lanes ~lanes:3 [||]);
  Alcotest.(check (array int))
    "more lanes than tasks" [| 0; 1 |]
    (Domain_pool.run_lanes ~lanes:4 [| (fun () -> 0); (fun () -> 1) |]);
  Alcotest.check_raises "lanes < 1"
    (Invalid_argument "Domain_pool.run_lanes: lanes < 1") (fun () ->
      ignore (Domain_pool.run_lanes ~lanes:0 [| (fun () -> 0) |]))

let suite =
  [
    ("parallel_map matches Array.map", `Quick, test_map_matches_sequential);
    ("parallel_map over floats", `Quick, test_map_floats);
    QCheck_alcotest.to_alcotest prop_map_equals_array_map;
    ("single-domain fallback", `Quick, test_single_domain_fallback);
    ("exception propagation", `Quick, test_exception_propagates);
    ("run_all ordering", `Quick, test_run_all);
    ("busy accounting", `Quick, test_busy_seconds);
    ("shutdown idempotent, pools cycle", `Quick, test_shutdown_idempotent);
    ("invalid arguments", `Quick, test_invalid_arguments);
    ("resolve and QAQ_DOMAINS", `Quick, test_resolve_env);
    ("a lane overlaps its tasks' I/O waits", `Quick, test_lane_overlaps_io);
    ("a raising lane task re-raises after the others", `Quick,
     test_lane_raise_after_all);
    ("lane edge cases", `Quick, test_lane_edges);
  ]
