(* Bounded black-box recorder for run-level trace events.

   One ring keeps the last N run-level events — everything but the
   per-object reads, decisions and probe resolutions, which are dropped
   before the clock is read or the lock taken.  When an anomaly event
   passes through (degradation, breaker trip, budget stop, guarantee
   shortfall) the recorder snapshots the ring — filtered to the
   implicated query's trace ID when the anomaly is attributed — and
   hands it to the dump callback.  Everything is mutex-guarded: the sink
   is designed to sit on a server's shared trace path with queries
   emitting from many domains at once. *)

type stamped = float * Trace.context * Trace.event

type dump = {
  reason : string;
  query : int option;
  tenant : string option;
  at : float;
  events : stamped list;  (* oldest first *)
}

(* A flapping breaker cannot flood the disk: at most this many
   automatic dumps are kept. *)
let max_dumps = 16

type t = {
  clock : unit -> float;
  lock : Mutex.t;
  slots : stamped option array;  (* the ring; oldest overwritten first *)
  mutable next : int;  (* next write position *)
  mutable stored : int;  (* min stored capacity *)
  on_dump : dump -> unit;
  mutable dumps : dump list;  (* newest first *)
  dumped : (string, unit) Hashtbl.t;  (* "(reason,query)" already dumped *)
  mutable recorded : int;
}

let create ?(capacity = 256) ?(clock = Span.default_clock)
    ?(on_dump = fun _ -> ()) () =
  if capacity < 1 then invalid_arg "Flight_recorder.create: capacity < 1";
  {
    clock;
    lock = Mutex.create ();
    slots = Array.make capacity None;
    next = 0;
    stored = 0;
    on_dump;
    dumps = [];
    dumped = Hashtbl.create 8;
    recorded = 0;
  }

let push t s =
  let cap = Array.length t.slots in
  t.slots.(t.next) <- Some s;
  t.next <- (t.next + 1) mod cap;
  if t.stored < cap then t.stored <- t.stored + 1

(* The ring, oldest first, keeping the entries of [query] when given.
   Call with the lock held. *)
let ring ?query t =
  let cap = Array.length t.slots in
  let start = (t.next - t.stored + cap) mod cap in
  let all =
    List.init t.stored (fun i -> Option.get t.slots.((start + i) mod cap))
  in
  match query with
  | None -> all
  | Some q -> List.filter (fun (_, c, _) -> c.Trace.query = Some q) all

(* Which events are anomalies worth a reflexive dump.  A breaker event
   only counts when it reports the trip into "open" — recoveries are
   good news. *)
let anomaly_reason = function
  | Trace.Degraded { forced; _ } -> Some (if forced then "degraded-forced" else "degraded")
  | Trace.Breaker { state; _ } when String.equal state "open" -> Some "breaker-open"
  | Trace.Budget_stop _ -> Some "budget-stop"
  | Trace.Shortfall _ -> Some "shortfall"
  | _ -> None

let record_run_level t (ctx : Trace.context) ev =
  let now = t.clock () in
  let fire =
    Mutex.protect t.lock (fun () ->
        t.recorded <- t.recorded + 1;
        push t (now, ctx, ev);
        match anomaly_reason ev with
        | None -> None
        | Some reason ->
            let key =
              Printf.sprintf "%s/%s" reason
                (match ctx.Trace.query with
                | Some q -> string_of_int q
                | None -> "-")
            in
            if Hashtbl.mem t.dumped key || List.length t.dumps >= max_dumps
            then None
            else begin
              Hashtbl.add t.dumped key ();
              let d =
                {
                  reason;
                  query = ctx.Trace.query;
                  tenant = ctx.Trace.tenant;
                  at = now;
                  events = ring ?query:ctx.Trace.query t;
                }
              in
              t.dumps <- d :: t.dumps;
              Some (d, t.on_dump)
            end)
  in
  (* The callback runs outside the lock: it may format JSON, write a
     file, or log — none of which should stall other recording domains
     (or deadlock by re-entering the recorder). *)
  match fire with None -> () | Some (d, f) -> f d

let record t ctx ev =
  match ev with
  | Trace.Read _ | Trace.Decision _ | Trace.Probe_resolved _
  | Trace.Probe_shrunk _ ->
      ()
  | _ -> record_run_level t ctx ev

let sink t = Trace.callback_ctx (fun ctx ev -> record t ctx ev)
let entries ?query t = Mutex.protect t.lock (fun () -> ring ?query t)
let dumps t = Mutex.protect t.lock (fun () -> List.rev t.dumps)
let recorded t = Mutex.protect t.lock (fun () -> t.recorded)

let manual_dump ?query t ~reason =
  let now = t.clock () in
  { reason; query; tenant = None; at = now; events = entries ?query t }

let dump_to_json d = Chrome_trace.json_of_entries d.events

let dump_filename d =
  Printf.sprintf "flight-%s-%s.json"
    (match d.query with Some q -> Printf.sprintf "q%d" q | None -> "global")
    d.reason
