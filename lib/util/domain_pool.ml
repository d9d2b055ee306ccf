let now = Unix.gettimeofday

(* ---- lanes ------------------------------------------------------- *)

(* A lane is one domain's share of a [run] call.  Its threads (the
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

(* Run one lane of a call on the calling thread: take tasks until none
   is left, then wait for the lane's helpers.  The enclosing lane, if
   the call is nested in a task, is the current one again on return. *)
let run_lane ~queued ~step =
  let lane =
    { token = Mutex.create (); holder = -1; idle = 0; threads = 1;
      helpers = []; queued; step }
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

(* ---- the process-wide pool --------------------------------------- *)

(* A call that wants more lanes than its caller's posts a job; an idle
   worker domain that takes it runs one lane of the call and comes back
   for the next job.  [lock] guards every mutable field below and in
   the jobs. *)
type job = {
  wanted : int;  (* worker lanes the call takes *)
  mutable joined : int;
  mutable settled : int;  (* joined lanes that have finished *)
  settle : Condition.t;
  lane : int -> unit;  (* run lane [i >= 1] of the call *)
}

let lock = Mutex.create ()
let work = Condition.create ()
let jobs : job list ref = ref []  (* oldest first *)
let workers = ref 0  (* worker domains spawned *)
let idle = ref 0  (* workers not running a lane *)

(* Every domain beyond the core count would only wait for a core, and an
   idle domain still takes part in every minor collection. *)
let max_lanes = Domain.recommended_domain_count ()

(* A job stays listed while it still wants lanes: the worker that takes
   its last lane, or its caller closing it, unlists it. *)
let rec next_job () =
  match !jobs with
  | [] ->
      Condition.wait work lock;
      next_job ()
  | j :: rest ->
      j.joined <- j.joined + 1;
      if j.joined = j.wanted then jobs := rest;
      j

(* A worker never unwinds: [run] captures every task's exception, and
   [on_task] hooks' exceptions are swallowed. *)
let rec worker () =
  Mutex.lock lock;
  let j = next_job () in
  let i = j.joined in
  decr idle;
  Mutex.unlock lock;
  j.lane i;
  Mutex.lock lock;
  incr idle;
  j.settled <- j.settled + 1;
  Condition.signal j.settle;
  Mutex.unlock lock;
  worker ()

(* Post [j] and spawn the workers its lanes lack, as long as the pool
   stays below the core count; called with [lock] held. *)
let post j =
  jobs := !jobs @ [ j ];
  let demand = List.fold_left (fun d q -> d + q.wanted - q.joined) 0 !jobs in
  let rec spawn k =
    if k > 0 && !workers < max_lanes - 1 then
      match Domain.spawn worker with
      | _ ->
          incr workers;
          incr idle;
          spawn (k - 1)
      | exception Failure _ -> (* no domain to spare: fewer lanes *) ()
  in
  spawn (demand - !idle);
  Condition.broadcast work

let run ?on_task ~lanes tasks =
  if lanes < 1 then invalid_arg "Domain_pool.run: lanes < 1";
  let n = Array.length tasks in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let queued () = Atomic.get next < n in
  let step lane () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      let t0 = match on_task with Some _ -> now () | None -> 0.0 in
      results.(i) <-
        Some
          (match tasks.(i) () with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()));
      match on_task with
      | Some f -> ( try f ~lane ~start:t0 ~finish:(now ()) with _ -> ())
      | None -> ()
    end;
    i < n
  in
  let lane i = run_lane ~queued ~step:(step i) in
  let l = Stdlib.min max_lanes (Stdlib.min lanes n) in
  if l <= 1 then lane 0
  else begin
    let j =
      { wanted = l - 1; joined = 0; settled = 0;
        settle = Condition.create (); lane }
    in
    Mutex.lock lock;
    post j;
    Mutex.unlock lock;
    lane 0;
    (* Close the job, then wait for the lanes that joined: each is
       running a task of this call, so each finishes.  A nested call
       gives its enclosing lane's token up meanwhile. *)
    Mutex.lock lock;
    jobs := List.filter (fun q -> q != j) !jobs;
    while j.settled < j.joined do
      wait j.settle lock
    done;
    Mutex.unlock lock
  end;
  (* Index order: the lowest-indexed raising task's exception wins. *)
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> assert false)
    results

let map ?on_task ~lanes ?chunk_size f arr =
  if lanes < 1 then invalid_arg "Domain_pool.map: lanes < 1";
  let n = Array.length arr in
  let chunk =
    match chunk_size with
    | Some c ->
        if c < 1 then invalid_arg "Domain_pool.map: chunk_size < 1" else c
    | None ->
        (* Several chunks per lane, so a slow chunk cannot leave the
           other lanes idle for long. *)
        Stdlib.max 1 ((n + (8 * lanes) - 1) / (8 * lanes))
  in
  if lanes = 1 || n <= chunk then Array.map f arr
  else
    (* Each chunk maps its slice in index order and the parts join in
       chunk order, so the result is [Array.map f arr] and the first
       raising element of the lowest raising chunk is the lowest raising
       element. *)
    Array.concat
      (Array.to_list
         (run ?on_task ~lanes
            (Array.init ((n + chunk - 1) / chunk) (fun c () ->
                 let lo = c * chunk in
                 Array.init (Stdlib.min chunk (n - lo)) (fun k ->
                     f arr.(lo + k))))))

let env_var = "QAQ_DOMAINS"

(* A lane beyond the cores never runs ([run] caps at [max_lanes]), so
   the count an entry point reports and sizes by stops there too. *)
let resolve ?domains () =
  let requested =
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
  in
  Stdlib.min requested max_lanes
