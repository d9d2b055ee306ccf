(* Tests for the process-wide lane pool: [map] must equal [Array.map]
   for every lane count and chunking, [run] must return results in
   input order, exceptions must surface in the caller by the lowest
   index, and calls may nest, run concurrently and reuse the pool's
   domains. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

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

let test_map_matches_sequential () =
  List.iter
    (fun n ->
      let arr = Array.init n (fun i -> i) in
      let expect = Array.map (fun x -> (x * 37) + 1) arr in
      let got = Domain_pool.map ~lanes:4 (fun x -> (x * 37) + 1) arr in
      Alcotest.(check (array int))
        (Printf.sprintf "map over %d elements" n)
        expect got)
    [ 0; 1; 2; 7; 64; 1000 ]

(* Float results exercise the flat float-array representation: the
   per-chunk merge must produce a well-formed float array. *)
let test_map_floats () =
  let arr = Array.init 513 float_of_int in
  let f x = (x *. 1.5) -. 7.0 in
  let got = Domain_pool.map ~lanes:3 f arr in
  Alcotest.(check (array (float 0.0))) "float map" (Array.map f arr) got

let prop_map_equals_array_map =
  QCheck2.Test.make ~name:"map equals Array.map" ~count:200
    QCheck2.Gen.(
      triple (int_range 0 500) (int_range 1 64) (int_range 1 6))
    (fun (n, chunk, lanes) ->
      let arr = Array.init n (fun i -> (i * 13) mod 97) in
      let f x = (x * x) - (3 * x) in
      Domain_pool.map ~lanes ~chunk_size:chunk f arr = Array.map f arr)

let test_single_domain_fallback () =
  (* One lane involves no other domain and still computes everything. *)
  let arr = Array.init 100 (fun i -> i) in
  Alcotest.(check (array int))
    "sequential fallback" (Array.map succ arr)
    (Domain_pool.map ~lanes:1 succ arr);
  let seen = ref [] in
  Alcotest.(check (array int))
    "one-lane run" (Array.map succ arr)
    (Domain_pool.run
       ~on_task:(fun ~lane ~start:_ ~finish:_ -> seen := lane :: !seen)
       ~lanes:1
       (Array.map (fun x () -> succ x) arr));
  checkb "every task on lane 0" true
    (List.length !seen = 100 && List.for_all (( = ) 0) !seen)

let test_exception_propagates () =
  let arr = Array.init 300 (fun i -> i) in
  Alcotest.check_raises "worker exception reaches the caller"
    (Failure "boom") (fun () ->
      ignore
        (Domain_pool.map ~lanes:4 ~chunk_size:8
           (fun x -> if x = 217 then failwith "boom" else x)
           arr));
  (* The pool survives a failed map. *)
  Alcotest.(check (array int))
    "pool usable after failure" (Array.map succ arr)
    (Domain_pool.map ~lanes:4 succ arr);
  (* One error rule for [run] and [map]: the lowest raising index wins,
     even when a later element raises first. *)
  let arr = Array.init 64 (fun i -> i) in
  let raised =
    within ~seconds:20.0 "maps with two raising elements" (fun () ->
        List.init 50 (fun _ ->
            match
              Domain_pool.map ~lanes:2
                (fun x ->
                  if x = 3 then begin
                    Unix.sleepf 0.001;
                    failwith "three"
                  end
                  else if x = 40 then failwith "forty"
                  else x)
                arr
            with
            | _ -> "no exception"
            | exception Failure msg -> msg))
  in
  List.iteri
    (fun round msg ->
      Alcotest.(check string)
        (Printf.sprintf "run %d: element 3's exception" round)
        "three" msg)
    raised

let test_run_ordering () =
  let thunks = Array.init 17 (fun i () -> i * i) in
  Alcotest.(check (array int))
    "thunk results in input order"
    (Array.init 17 (fun i -> i * i))
    (Domain_pool.run ~lanes:4 thunks)

(* The engine charges lane busy-seconds from [on_task]: every task
   reports a lane of the call and a forward interval. *)
let test_busy_accounting () =
  let lock = Mutex.create () and intervals = ref [] in
  let on_task ~lane ~start ~finish =
    Mutex.protect lock (fun () ->
        intervals := (lane, start, finish) :: !intervals)
  in
  ignore
    (Domain_pool.map ~on_task ~lanes:3 ~chunk_size:1 (fun x -> x * 2)
       (Array.init 64 (fun i -> i)));
  checki "one interval per task" 64 (List.length !intervals);
  List.iter
    (fun (lane, start, finish) ->
      checkb "lane within the call" true (lane >= 0 && lane < 3);
      checkb "busy time non-negative" true (finish >= start))
    !intervals

let test_invalid_arguments () =
  Alcotest.check_raises "run lanes < 1"
    (Invalid_argument "Domain_pool.run: lanes < 1") (fun () ->
      ignore (Domain_pool.run ~lanes:0 [| (fun () -> 0) |]));
  Alcotest.check_raises "map lanes < 1"
    (Invalid_argument "Domain_pool.map: lanes < 1") (fun () ->
      ignore (Domain_pool.map ~lanes:0 succ [| 1 |]));
  Alcotest.check_raises "resolve domains < 1"
    (Invalid_argument "Domain_pool.resolve: domains < 1") (fun () ->
      ignore (Domain_pool.resolve ~domains:0 ()));
  Alcotest.check_raises "chunk_size < 1"
    (Invalid_argument "Domain_pool.map: chunk_size < 1")
    (fun () ->
      ignore (Domain_pool.map ~lanes:2 ~chunk_size:0 succ [| 1; 2; 3 |]))

(* Every count is capped at the cores, since no call runs more lanes. *)
let test_resolve_env () =
  let cores = Domain.recommended_domain_count () in
  checki "explicit wins" (min 3 cores) (Domain_pool.resolve ~domains:3 ());
  checki "capped at the cores" cores
    (Domain_pool.resolve ~domains:(cores + 2) ());
  Unix.putenv "QAQ_DOMAINS" "4";
  checki "env consulted" (min 4 cores) (Domain_pool.resolve ());
  checki "explicit beats env" 1 (Domain_pool.resolve ~domains:1 ());
  Unix.putenv "QAQ_DOMAINS" "nonsense";
  checkb "invalid env rejected" true
    (match Domain_pool.resolve () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Unix.putenv "QAQ_DOMAINS" "";
  checki "empty env means one" 1 (Domain_pool.resolve ())

(* One lane, eight tasks that each wait 20 ms on "I/O": the lane lends
   itself out at every wait, so the waits overlap, and the results still
   come back in input order. *)
let test_lane_overlaps_io () =
  let got, seconds =
    within "eight blocking tasks on one lane" (fun () ->
        let t0 = Unix.gettimeofday () in
        let got =
          Domain_pool.run ~lanes:1
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
            match Domain_pool.run ~lanes tasks with
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
   [run] validates its lane count. *)
let test_lane_edges () =
  checki "blocking outside a lane" 7 (Domain_pool.blocking (fun () -> 7));
  Alcotest.(check (array int)) "no tasks" [||] (Domain_pool.run ~lanes:3 [||]);
  Alcotest.(check (array int))
    "more lanes than tasks" [| 0; 1 |]
    (Domain_pool.run ~lanes:4 [| (fun () -> 0); (fun () -> 1) |]);
  Alcotest.check_raises "lanes < 1"
    (Invalid_argument "Domain_pool.run: lanes < 1") (fun () ->
      ignore (Domain_pool.run ~lanes:0 [| (fun () -> 0) |]))

(* Every task of a two-lane run maps its own array on two lanes: a
   nested call takes the idle lanes it can and never waits for one. *)
let test_nested_calls () =
  let inner k = Array.init (50 + k) (fun i -> (i * k) + 1) in
  let f x = (x * 3) - 1 in
  let got =
    within "nested calls" (fun () ->
        Domain_pool.run ~lanes:2
          (Array.init 8 (fun k () -> Domain_pool.map ~lanes:2 f (inner k))))
  in
  Array.iteri
    (fun k a ->
      Alcotest.(check (array int))
        (Printf.sprintf "task %d's map" k)
        (Array.map f (inner k))
        a)
    got

(* Two domains call at once, 100 times each. *)
let test_concurrent_callers () =
  let caller seed () =
    let ok = ref true in
    for round = 1 to 100 do
      let arr = Array.init (64 + round) (fun i -> i + seed) in
      let f x = (x * 7) + seed in
      if Domain_pool.map ~lanes:2 f arr <> Array.map f arr then ok := false
    done;
    !ok
  in
  let a, b =
    within "concurrent callers" (fun () ->
        let da = Domain.spawn (caller 1) and db = Domain.spawn (caller 2) in
        (Domain.join da, Domain.join db))
  in
  checkb "first caller's maps" true a;
  checkb "second caller's maps" true b

(* The live thread count of this process, where /proc says it. *)
let threads () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
            match Scanf.sscanf line "Threads: %d" Fun.id with
            | n -> Some n
            | exception _ -> scan ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let trivial = Array.init 4 (fun i () -> i)

(* Calls reuse the pool's domains: once a call has warmed the pool up,
   20 more start no thread, and their tasks run on no more domains than
   there are cores. *)
let test_lanes_reused () =
  let seen = ref [] and lock = Mutex.create () in
  let task () =
    Unix.sleepf 0.001;
    let d = (Domain.self () :> int) in
    Mutex.protect lock (fun () ->
        if not (List.mem d !seen) then seen := d :: !seen)
  in
  let counts =
    within "repeated calls" (fun () ->
        ignore (Domain_pool.run ~lanes:2 trivial);
        (* A new domain's runtime threads may start just after it does. *)
        Unix.sleepf 0.05;
        let before = threads () in
        for _ = 1 to 20 do
          ignore (Domain_pool.run ~lanes:2 (Array.make 4 task))
        done;
        (before, threads ()))
  in
  checkb
    (Printf.sprintf "tasks ran on %d domains" (List.length !seen))
    true
    (List.length !seen <= Domain.recommended_domain_count ());
  match counts with
  | Some before, Some after -> checki "Threads: after 20 more calls" before after
  | _ -> () (* no /proc/self/status here *)

(* One lane is the caller alone: no domain, no thread. *)
let test_one_lane_starts_nothing () =
  match
    within "one-lane calls" (fun () ->
        let before = threads () in
        ignore (Domain_pool.run ~lanes:1 trivial);
        ignore (Domain_pool.map ~lanes:1 succ (Array.init 1000 Fun.id));
        (before, threads ()))
  with
  | Some before, Some after -> checki "Threads: unchanged" before after
  | _ -> ()

(* Lane indices belong to the call, not to the pool's domains. *)
let test_lane_indices_per_call () =
  let lanes_seen = ref [] and lock = Mutex.create () in
  let on_task ~lane ~start:_ ~finish:_ =
    Mutex.protect lock (fun () -> lanes_seen := lane :: !lanes_seen)
  in
  within "a two-lane call after a four-lane one" (fun () ->
      ignore
        (Domain_pool.map ~lanes:4 ~chunk_size:1 succ (Array.init 64 Fun.id));
      ignore
        (Domain_pool.map ~on_task ~lanes:2 ~chunk_size:1 succ
           (Array.init 64 Fun.id)));
  checki "one report per chunk" 64 (List.length !lanes_seen);
  checkb "every lane in [0, 2)" true
    (List.for_all (fun l -> l >= 0 && l < 2) !lanes_seen)

let suite =
  [
    ("map matches Array.map", `Quick, test_map_matches_sequential);
    ("map over floats", `Quick, test_map_floats);
    QCheck_alcotest.to_alcotest prop_map_equals_array_map;
    ("single-domain fallback", `Quick, test_single_domain_fallback);
    ("exception propagation", `Quick, test_exception_propagates);
    ("run ordering", `Quick, test_run_ordering);
    ("busy accounting", `Quick, test_busy_accounting);
    ("lanes reused across calls", `Quick, test_lanes_reused);
    ("invalid arguments", `Quick, test_invalid_arguments);
    ("resolve and QAQ_DOMAINS", `Quick, test_resolve_env);
    ("a lane overlaps its tasks' I/O waits", `Quick, test_lane_overlaps_io);
    ("a raising lane task re-raises after the others", `Quick,
     test_lane_raise_after_all);
    ("lane edge cases", `Quick, test_lane_edges);
    ("nested calls", `Quick, test_nested_calls);
    ("concurrent callers", `Quick, test_concurrent_callers);
    ("one lane starts nothing", `Quick, test_one_lane_starts_nothing);
    ("lane indices per call", `Quick, test_lane_indices_per_call);
  ]
