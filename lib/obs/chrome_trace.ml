(* Chrome-trace ("catapult") JSON recorder: a Trace sink plus a
   Domain_pool task hook feeding one list — the stamped
   (time, context, event) triples a flight recorder keeps, and pool
   tasks — converted at export, through the renderer flight-recorder
   dumps use, into the trace-event format chrome://tracing and Perfetto
   load directly.
   Spans become complete ("X") slices, per-lane pool tasks become slices
   on their lane's tid, and everything else becomes instants — on lane 0
   (the sequential decision loop) when uncorrelated, or on a dedicated
   per-query row (tid 1000 + trace ID) when the event carries a
   {!Trace.context}, so one tenant's query can be read out of
   interleaved server traffic.  The recorder is mutex-guarded because
   the task hook fires on worker domains. *)

type entry = {
  e_name : string;
  e_ph : [ `Complete | `Instant ];
  e_tid : int;
  e_ts : float;  (* absolute seconds on the recorder's clock *)
  e_dur : float;  (* seconds; [`Complete] only *)
  e_args : (string * string) list;  (* values pre-encoded as JSON *)
}

(* Stamped trace events and pool tasks, in recording order; both become
   entries at export. *)
type item =
  | Event of (float * Trace.context * Trace.event)
  | Task of { lane : int; start : float; finish : float }

type t = {
  clock : unit -> float;
  epoch : float;  (* creation time; exported ts are relative to it *)
  mutex : Mutex.t;
  mutable items : item list;  (* newest first *)
  mutable lanes : int;
}

(* Per-query rows live far above any plausible pool lane count. *)
let query_tid_base = 1000
let query_tid q = query_tid_base + q

let create ?(clock = Span.default_clock) () =
  { clock; epoch = clock (); mutex = Mutex.create (); items = []; lanes = 1 }

let record t item =
  Mutex.lock t.mutex;
  t.items <- item :: t.items;
  Mutex.unlock t.mutex

let declare_lanes t n =
  if n < 1 then invalid_arg "Chrome_trace.declare_lanes: lanes < 1";
  Mutex.lock t.mutex;
  t.lanes <- Stdlib.max t.lanes n;
  Mutex.unlock t.mutex

let on_task t ~lane ~start ~finish = record t (Task { lane; start; finish })
let sink t =
  Trace.callback_ctx (fun ctx ev -> record t (Event (t.clock (), ctx, ev)))

let jstr s = "\"" ^ Metrics.json_escape s ^ "\""

let jfloat v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let query_label q tenant =
  match tenant with
  | Some tn -> Printf.sprintf "query %d (%s)" q tn
  | None -> Printf.sprintf "query %d" q

(* The one event -> (slice name, args) mapping, shared by the live sink
   and the flight-recorder export so both dumps read identically.
   [Phase] is absent: it renders as a slice, not an instant. *)
let describe = function
  | Trace.Read { verdict } ->
      ("read", [ ("verdict", jstr (Trace.verdict_name verdict)) ])
  | Trace.Decision { verdict; action; laxity; success } ->
      ( "decision",
        [
          ("verdict", jstr (Trace.verdict_name verdict));
          ("action", jstr (Trace.action_name action));
          ("laxity", jfloat laxity);
          ("success", jfloat success);
        ] )
  | Trace.Probe_resolved { verdict } ->
      ("probe-resolved", [ ("verdict", jstr (Trace.verdict_name verdict)) ])
  | Trace.Probe_shrunk { verdict } ->
      ("probe-shrunk", [ ("verdict", jstr (Trace.verdict_name verdict)) ])
  | Trace.Probe_failed { attempts } ->
      ("probe-failed", [ ("attempts", string_of_int attempts) ])
  | Trace.Degraded { verdict; action; forced } ->
      ( "degraded",
        [
          ("verdict", jstr (Trace.verdict_name verdict));
          ("action", jstr (Trace.action_name action));
          ("forced", string_of_bool forced);
        ] )
  | Trace.Breaker { state; round } ->
      ("breaker", [ ("state", jstr state); ("round", string_of_int round) ])
  | Trace.Batch { size } -> ("batch", [ ("size", string_of_int size) ])
  | Trace.Early_termination { reads; recall } ->
      ( "early-termination",
        [ ("reads", string_of_int reads); ("recall", jfloat recall) ] )
  | Trace.Budget_stop { reads; recall } ->
      ( "budget-stop",
        [ ("reads", string_of_int reads); ("recall", jfloat recall) ] )
  | Trace.Replan { reads } -> ("replan", [ ("reads", string_of_int reads) ])
  | Trace.Shortfall
      {
        requested_precision;
        requested_recall;
        guaranteed_precision;
        guaranteed_recall;
      } ->
      ( "shortfall",
        [
          ("requested_precision", jfloat requested_precision);
          ("requested_recall", jfloat requested_recall);
          ("guaranteed_precision", jfloat guaranteed_precision);
          ("guaranteed_recall", jfloat guaranteed_recall);
        ] )
  | Trace.Phase { name; seconds } ->
      (* Only reachable through [describe] from instant-style callers;
         keep it total anyway. *)
      ("phase:" ^ name, [ ("seconds", jfloat seconds) ])
  | Trace.Note s -> ("note", [ ("text", jstr s) ])

(* Context attribution rendered as explicit args so a dump is
   self-describing even outside the viewer (the e2e anomaly test greps
   these). *)
let ctx_args (ctx : Trace.context) =
  (match ctx.Trace.query with
  | Some q -> [ ("query", string_of_int q) ]
  | None -> [])
  @
  match ctx.Trace.tenant with
  | Some tn -> [ ("tenant", jstr tn) ]
  | None -> []

(* Turn one contextful event at absolute time [ts] into an entry. *)
let entry_of_event ts (ctx : Trace.context) ev =
  let tid = match ctx.Trace.query with Some q -> query_tid q | None -> 0 in
  match ev with
  | Trace.Phase { name; seconds } ->
      (* A phase arrives at completion; reconstruct its start so it
         renders as a slice covering the work. *)
      {
        e_name = name;
        e_ph = `Complete;
        e_tid = tid;
        e_ts = ts -. Float.max 0.0 seconds;
        e_dur = Float.max 0.0 seconds;
        e_args = ctx_args ctx;
      }
  | ev ->
      let name, args = describe ev in
      {
        e_name = name;
        e_ph = `Instant;
        e_tid = tid;
        e_ts = ts;
        e_dur = 0.0;
        e_args = args @ ctx_args ctx;
      }

(* The one document renderer, shared by the live recorder and the
   flight-recorder dumps.  [items] come in recording order, so events
   with equal timestamps keep it.  Output: lane metadata rows
   0..lanes-1, one named row per query tid (labelled by the query's
   first event), then every entry in timestamp order. *)
let render ~epoch ~lanes items =
  let query_names = Hashtbl.create 8 in
  let entry = function
    | Event (ts, ctx, ev) ->
        (match ctx.Trace.query with
        | Some q ->
            let tid = query_tid q in
            if not (Hashtbl.mem query_names tid) then
              Hashtbl.add query_names tid (query_label q ctx.Trace.tenant)
        | None -> ());
        entry_of_event ts ctx ev
    | Task { lane; start; finish } ->
        {
          e_name = "task";
          e_ph = `Complete;
          e_tid = lane;
          e_ts = start;
          e_dur = Float.max 0.0 (finish -. start);
          e_args = [];
        }
  in
  let entries =
    List.stable_sort
      (fun a b -> Float.compare a.e_ts b.e_ts)
      (List.map entry items)
  in
  let max_lane =
    List.fold_left
      (fun m e -> if e.e_tid < query_tid_base then Stdlib.max m e.e_tid else m)
      (lanes - 1) entries
  in
  let b = Buffer.create 4096 in
  let first = ref true in
  let emit s =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b "\n  ";
    Buffer.add_string b s
  in
  Buffer.add_string b "{\"traceEvents\": [";
  emit
    "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", \
     \"args\": {\"name\": \"qaq\"}}";
  (* Every configured lane is named up front, so the viewer shows a
     timeline row per lane even when a lane received no task. *)
  for tid = 0 to max_lane do
    let label =
      if tid = 0 then "lane 0 (caller)" else Printf.sprintf "lane %d" tid
    in
    emit
      (Printf.sprintf
         "{\"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"name\": \
          \"thread_name\", \"args\": {\"name\": %s}}"
         tid (jstr label))
  done;
  let named =
    Hashtbl.fold (fun tid label acc -> (tid, label) :: acc) query_names []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  List.iter
    (fun (tid, label) ->
      emit
        (Printf.sprintf
           "{\"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"name\": \
            \"thread_name\", \"args\": {\"name\": %s}}"
           tid (jstr label)))
    named;
  List.iter
    (fun e ->
      let ts = Float.max 0.0 ((e.e_ts -. epoch) *. 1e6) in
      let args =
        match e.e_args with
        | [] -> ""
        | kvs ->
            Printf.sprintf ", \"args\": {%s}"
              (String.concat ", "
                 (List.map
                    (fun (k, v) -> Printf.sprintf "%s: %s" (jstr k) v)
                    kvs))
      in
      match e.e_ph with
      | `Complete ->
          emit
            (Printf.sprintf
               "{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \
                \"dur\": %.3f, \"name\": %s%s}"
               e.e_tid ts (e.e_dur *. 1e6) (jstr e.e_name) args)
      | `Instant ->
          emit
            (Printf.sprintf
               "{\"ph\": \"i\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \
                \"s\": \"t\", \"name\": %s%s}"
               e.e_tid ts (jstr e.e_name) args))
    entries;
  Buffer.add_string b "\n], \"displayTimeUnit\": \"ms\"}\n";
  Buffer.contents b

let to_json t =
  Mutex.lock t.mutex;
  let items = List.rev t.items in
  let lanes = t.lanes in
  Mutex.unlock t.mutex;
  render ~epoch:t.epoch ~lanes items

let json_of_entries events =
  let epoch =
    List.fold_left (fun m (ts, _, _) -> Float.min m ts) Float.infinity events
    |> fun m -> if Float.is_finite m then m else 0.0
  in
  render ~epoch ~lanes:1 (List.map (fun s -> Event s) events)

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json t))

let events t =
  Mutex.lock t.mutex;
  let n = List.length t.items in
  Mutex.unlock t.mutex;
  n
