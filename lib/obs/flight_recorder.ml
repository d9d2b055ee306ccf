(* Bounded black-box recorder for trace events.

   One global ring plus one ring per query trace ID keep the last N
   events each; when an anomaly event passes through (degradation,
   breaker trip, budget stop, guarantee shortfall) the recorder
   snapshots the implicated query's ring — or the global ring for
   uncorrelated anomalies — and hands it to the dump callback as a
   chrome-trace JSON document.  Everything is mutex-guarded: the sink
   is designed to sit on a server's shared trace path with queries
   emitting from many domains at once. *)

type stamped = float * Trace.context * Trace.event

(* Fixed-capacity ring; oldest overwritten first.  [to_list] returns
   oldest -> newest. *)
type ring = {
  slots : stamped option array;
  mutable next : int;  (* next write position *)
  mutable stored : int;  (* min stored capacity *)
}

let ring_create capacity = { slots = Array.make capacity None; next = 0; stored = 0 }

let ring_push r s =
  let cap = Array.length r.slots in
  r.slots.(r.next) <- Some s;
  r.next <- (r.next + 1) mod cap;
  if r.stored < cap then r.stored <- r.stored + 1

let ring_to_list r =
  let cap = Array.length r.slots in
  let start = (r.next - r.stored + cap * 2) mod cap in
  List.init r.stored (fun i ->
      match r.slots.((start + i) mod cap) with
      | Some s -> s
      | None -> assert false)

type dump = {
  reason : string;
  query : int option;
  tenant : string option;
  at : float;
  events : stamped list;  (* oldest first *)
}

type t = {
  capacity : int;
  clock : unit -> float;
  lock : Mutex.t;
  global : ring;
  per_query : (int, ring) Hashtbl.t;
  mutable query_order : int list;  (* newest first; for LRU-bounded count *)
  max_queries : int;
  on_dump : dump -> unit;
  mutable dumps : dump list;  (* newest first *)
  max_dumps : int;
  dumped : (string, unit) Hashtbl.t;  (* "(reason,query)" already dumped *)
  mutable recorded : int;
}

let create ?(capacity = 256) ?(max_queries = 64) ?(max_dumps = 16)
    ?(clock = Span.default_clock) ?(on_dump = fun _ -> ()) () =
  if capacity < 1 then invalid_arg "Flight_recorder.create: capacity < 1";
  if max_queries < 1 then invalid_arg "Flight_recorder.create: max_queries < 1";
  {
    capacity;
    clock;
    lock = Mutex.create ();
    global = ring_create capacity;
    per_query = Hashtbl.create 16;
    query_order = [];
    max_queries;
    on_dump;
    dumps = [];
    max_dumps;
    dumped = Hashtbl.create 8;
    recorded = 0;
  }

let query_ring t q =
  match Hashtbl.find_opt t.per_query q with
  | Some r -> r
  | None ->
      let r = ring_create t.capacity in
      Hashtbl.add t.per_query q r;
      t.query_order <- q :: List.filter (fun x -> x <> q) t.query_order;
      (* Evict the least recently active query's ring so an immortal
         server cannot grow without bound. *)
      if List.length t.query_order > t.max_queries then begin
        match List.rev t.query_order with
        | oldest :: _ ->
            Hashtbl.remove t.per_query oldest;
            t.query_order <- List.filter (fun x -> x <> oldest) t.query_order
        | [] -> ()
      end;
      r

(* Which events are anomalies worth a reflexive dump.  A breaker event
   only counts when it reports the trip into "open" — recoveries are
   good news. *)
let anomaly_reason = function
  | Trace.Degraded { forced; _ } -> Some (if forced then "degraded-forced" else "degraded")
  | Trace.Breaker { state; _ } when String.equal state "open" -> Some "breaker-open"
  | Trace.Budget_stop _ -> Some "budget-stop"
  | Trace.Shortfall _ -> Some "shortfall"
  | _ -> None

let record t (ctx : Trace.context) ev =
  let now = t.clock () in
  let stamped = (now, ctx, ev) in
  let fire =
    Mutex.protect t.lock (fun () ->
        t.recorded <- t.recorded + 1;
        ring_push t.global stamped;
        (match ctx.Trace.query with
        | Some q -> ring_push (query_ring t q) stamped
        | None -> ());
        match anomaly_reason ev with
        | None -> None
        | Some reason ->
            let key =
              Printf.sprintf "%s/%s" reason
                (match ctx.Trace.query with
                | Some q -> string_of_int q
                | None -> "-")
            in
            if Hashtbl.mem t.dumped key || List.length t.dumps >= t.max_dumps
            then None
            else begin
              Hashtbl.add t.dumped key ();
              let events =
                match ctx.Trace.query with
                | Some q -> ring_to_list (query_ring t q)
                | None -> ring_to_list t.global
              in
              let d =
                {
                  reason;
                  query = ctx.Trace.query;
                  tenant = ctx.Trace.tenant;
                  at = now;
                  events;
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

let sink t = Trace.callback_ctx (fun ctx ev -> record t ctx ev)

let entries ?query t =
  Mutex.protect t.lock (fun () ->
      match query with
      | None -> ring_to_list t.global
      | Some q -> (
          match Hashtbl.find_opt t.per_query q with
          | Some r -> ring_to_list r
          | None -> []))

let dumps t = Mutex.protect t.lock (fun () -> List.rev t.dumps)
let recorded t = Mutex.protect t.lock (fun () -> t.recorded)
let capacity t = t.capacity

let manual_dump ?query t ~reason =
  let now = t.clock () in
  Mutex.protect t.lock (fun () ->
      let events =
        match query with
        | Some q -> (
            match Hashtbl.find_opt t.per_query q with
            | Some r -> ring_to_list r
            | None -> [])
        | None -> ring_to_list t.global
      in
      { reason; query; tenant = None; at = now; events })

let dump_to_json d = Chrome_trace.json_of_entries d.events

let dump_filename d =
  Printf.sprintf "flight-%s-%s.json"
    (match d.query with Some q -> Printf.sprintf "q%d" q | None -> "global")
    d.reason
