type t = {
  domains : int;  (* lanes, including the caller's lane 0 *)
  mutex : Mutex.t;
  work : Condition.t;
  queue : (unit -> unit) Queue.t;
  busy : float array;  (* per-lane task seconds; written under [mutex] *)
  on_task : (lane:int -> start:float -> finish:float -> unit) option;
  mutable closing : bool;
  mutable workers : unit Domain.t list;
}

let now = Unix.gettimeofday

let note_task t lane t0 t1 =
  Mutex.lock t.mutex;
  t.busy.(lane) <- t.busy.(lane) +. (t1 -. t0);
  Mutex.unlock t.mutex;
  (* The hook runs outside the mutex (it may fire on any lane
     concurrently) and must not unwind a worker: a tracing hook that
     throws would kill the lane, not the run. *)
  match t.on_task with
  | None -> ()
  | Some f -> ( try f ~lane ~start:t0 ~finish:t1 with _ -> ())

(* Tasks are always the chunk closures built by [parallel_map], which
   capture their own exceptions — a worker never unwinds. *)
let rec worker_loop t lane =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.closing do
    Condition.wait t.work t.mutex
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.mutex
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    let t0 = now () in
    task ();
    note_task t lane t0 (now ());
    worker_loop t lane
  end

let create ?on_task ?domains () =
  let domains =
    match domains with Some d -> d | None -> Domain.recommended_domain_count ()
  in
  if domains < 1 then invalid_arg "Domain_pool.create: domains < 1";
  let t =
    {
      domains;
      mutex = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      busy = Array.make domains 0.0;
      on_task;
      closing = false;
      workers = [];
    }
  in
  t.workers <-
    List.init (domains - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let domains t = t.domains

let busy_seconds t =
  Mutex.lock t.mutex;
  let b = Array.copy t.busy in
  Mutex.unlock t.mutex;
  b

let shutdown t =
  Mutex.lock t.mutex;
  if t.closing then Mutex.unlock t.mutex
  else begin
    t.closing <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let with_pool ?on_task ?domains f =
  let t = create ?on_task ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Aim for several chunks per lane so a slow chunk cannot leave the
   other lanes idle for long, without paying queue traffic per element. *)
let default_chunk t n = Stdlib.max 1 ((n + (8 * t.domains) - 1) / (8 * t.domains))

let parallel_map (type b) t ?chunk_size f arr =
  let n = Array.length arr in
  let chunk =
    match chunk_size with
    | Some c ->
        if c < 1 then invalid_arg "Domain_pool.parallel_map: chunk_size < 1"
        else c
    | None -> default_chunk t n
  in
  if n = 0 then [||]
  else if t.domains = 1 || n <= chunk then Array.map f arr
  else begin
    let nchunks = (n + chunk - 1) / chunk in
    (* One result array per chunk, merged by chunk index at the end: the
       deterministic merge that makes the map equal to [Array.map]
       regardless of which lane ran which chunk.  (Per-chunk arrays also
       sidestep writing a shared ['b array] before knowing a ['b].) *)
    let parts : b array option array = Array.make nchunks None in
    let first_error = Atomic.make None in
    let remaining = Atomic.make nchunks in
    let run_chunk c () =
      (try
         let lo = c * chunk in
         let len = Stdlib.min chunk (n - lo) in
         parts.(c) <- Some (Array.init len (fun k -> f arr.(lo + k)))
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         ignore (Atomic.compare_and_set first_error None (Some (e, bt))));
      (* The decrement publishes the part write: the caller reads
         [parts] only after observing [remaining = 0]. *)
      ignore (Atomic.fetch_and_add remaining (-1))
    in
    Mutex.lock t.mutex;
    for c = 0 to nchunks - 1 do
      Queue.add (run_chunk c) t.queue
    done;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    (* Lane 0: the caller works the queue rather than blocking on it. *)
    let rec help () =
      Mutex.lock t.mutex;
      let task =
        if Queue.is_empty t.queue then None else Some (Queue.pop t.queue)
      in
      Mutex.unlock t.mutex;
      match task with
      | Some task ->
          let t0 = now () in
          task ();
          note_task t 0 t0 (now ());
          help ()
      | None -> ()
    in
    help ();
    while Atomic.get remaining > 0 do
      Domain.cpu_relax ()
    done;
    match Atomic.get first_error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        Array.concat
          (Array.to_list
             (Array.map
                (function Some p -> p | None -> assert false)
                parts))
  end

let run_all t thunks = parallel_map t ~chunk_size:1 (fun g -> g ()) thunks

(* ---- lanes ------------------------------------------------------- *)

(* A lane is one domain's share of a [run_lanes] call.  Its threads (the
   domain's own, plus helper systhreads) run task code only while they
   hold [token], so the lane computes on one thread at a time and
   switches threads only where a holder gives the token up: in
   [blocking] and in [wait].  Every field but [queued]/[step] is read
   and written by the token holder only. *)
type lane = {
  token : Mutex.t;
  mutable holder : int;  (* [Thread.id] of the thread holding [token], or -1 *)
  mutable idle : int;  (* helpers started that have not taken [token] yet *)
  mutable threads : int;  (* live threads of the lane, its own included *)
  mutable helpers : Thread.t list;
  queued : unit -> bool;  (* is a task still waiting for a lane? *)
  step : unit -> bool;  (* run the next task; [false] once none is left *)
}

(* The most threads one lane keeps alive: a lane lends itself only this
   many times over, however many tasks are queued behind it. *)
let max_lane_threads = 16

(* Domain-local: a domain's helper threads share their lane with it. *)
let current : lane option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let[@inline] self () = Thread.id (Thread.self ())

let take lane =
  Mutex.lock lane.token;
  lane.holder <- self ()

let give lane =
  lane.holder <- -1;
  Mutex.unlock lane.token

let rec drain lane = if lane.step () then drain lane

let helper lane () =
  take lane;
  lane.idle <- lane.idle - 1;
  drain lane;
  lane.threads <- lane.threads - 1;
  give lane

(* A helper takes the token (and the next task) only once its lender
   gives the token up, so starting one before giving up is safe. *)
let lend lane =
  if lane.idle = 0 && lane.threads < max_lane_threads && lane.queued () then
    match Thread.create (helper lane) () with
    | th ->
        lane.idle <- lane.idle + 1;
        lane.threads <- lane.threads + 1;
        lane.helpers <- th :: lane.helpers
    | exception Sys_error _ -> (* no thread to spare: just wait *) ()

let blocking f =
  match Domain.DLS.get current with
  | Some lane when lane.holder = self () -> (
      lend lane;
      give lane;
      match f () with
      | v ->
          take lane;
          v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          take lane;
          Printexc.raise_with_backtrace e bt)
  | Some _ | None -> f ()

let wait cond m =
  match Domain.DLS.get current with
  | Some lane when lane.holder = self () ->
      give lane;
      Condition.wait cond m;
      (* Token first, [m] second: a thread waiting for the token never
         holds [m], so the token's holder can always take [m]. *)
      Mutex.unlock m;
      take lane;
      Mutex.lock m
  | Some _ | None -> Condition.wait cond m

let run_lanes ~lanes tasks =
  if lanes < 1 then invalid_arg "Domain_pool.run_lanes: lanes < 1";
  let n = Array.length tasks in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let queued () = Atomic.get next < n in
  let step () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then
      results.(i) <-
        Some
          (match tasks.(i) () with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()));
    i < n
  in
  let run_lane () =
    let lane =
      {
        token = Mutex.create ();
        holder = -1;
        idle = 0;
        threads = 1;
        helpers = [];
        queued;
        step;
      }
    in
    let outer = Domain.DLS.get current in
    Domain.DLS.set current (Some lane);
    take lane;
    drain lane;
    (* The queue is empty, so no thread of this lane starts another
       helper: the list is complete. *)
    let helpers = lane.helpers in
    give lane;
    List.iter Thread.join helpers;
    Domain.DLS.set current outer
  in
  let spawned =
    List.init
      (Stdlib.max 0 (Stdlib.min lanes n - 1))
      (fun _ -> Domain.spawn run_lane)
  in
  run_lane ();
  List.iter Domain.join spawned;
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> assert false)
    results

let env_var = "QAQ_DOMAINS"

let resolve ?domains () =
  match domains with
  | Some d ->
      if d < 1 then invalid_arg "Domain_pool.resolve: domains < 1";
      d
  | None -> (
      match Sys.getenv_opt env_var with
      | None | Some "" -> 1
      | Some s -> (
          match int_of_string_opt (String.trim s) with
          | Some d when d >= 1 -> d
          | Some _ | None ->
              invalid_arg
                (Printf.sprintf
                   "Domain_pool.resolve: %s must be a positive integer (got %S)"
                   env_var s)))
