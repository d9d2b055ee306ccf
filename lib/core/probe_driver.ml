type 'o outcome =
  | Resolved of 'o
  | Shrunk of 'o
  | Failed of { attempts : int }

type 'o reply =
  | Ready of 'o outcome array
  | Later of (unit -> 'o outcome array)

type instruments = { i_obs : Obs.t; h_flush : Metrics.histogram }

type 'o t = {
  send : 'o array -> 'o reply;
  batch_size : int;
  ahead : int;
  ins : instruments option;
  mutable queue : ('o * ('o outcome -> unit)) list;  (* newest first *)
  mutable queued : int;
  mutable batches : int;
  mutable resolving : bool;
}

(* One dispatched batch.  [seconds] accumulates the time spent sending
   it and awaiting it, so the flush histogram still observes one
   duration per batch. *)
type 'o ticket = {
  driver : 'o t;
  entries : ('o * ('o outcome -> unit)) array;
  mutable reply : 'o reply;
  mutable seconds : float;
  mutable completed : bool;
}

let make ~name ?obs ~batch_size ~ahead send =
  if batch_size < 1 then invalid_arg (name ^ ": batch_size < 1");
  if ahead < 0 then invalid_arg (name ^ ": ahead < 0");
  let ins =
    Option.map
      (fun o ->
        { i_obs = o; h_flush = Obs.histogram o "probe_driver.flush_seconds" })
      obs
  in
  {
    send;
    batch_size;
    ahead;
    ins;
    queue = [];
    queued = 0;
    batches = 0;
    resolving = false;
  }

let create ?obs ?(batch_size = 1) ?(ahead = 0) send =
  make ~name:"Probe_driver.create" ?obs ~batch_size ~ahead send

let create_outcomes ?obs ?(batch_size = 1) resolve_batch =
  make ~name:"Probe_driver.create_outcomes" ?obs ~batch_size ~ahead:0
    (fun objects -> Ready (resolve_batch objects))

(* A proxy tier: the narrowing function maps every object to a Shrunk
   outcome — still possibly imprecise, so the consumer must re-classify
   and escalate residuals (see Cascade). *)
let shrinking ?batch_size narrow_batch =
  create_outcomes ?batch_size (fun objects ->
      Array.map (fun o -> Shrunk o) (narrow_batch objects))

let of_scalar ?obs ~batch_size probe =
  create_outcomes ?obs ~batch_size (Array.map (fun o -> Resolved (probe o)))

let scalar probe = of_scalar ~batch_size:1 probe
let batch_size t = t.batch_size
let ahead t = t.ahead
let pending t = t.queued

(* [f x], one backend phase of [tk] (the send, or the await of a later
   reply), run as the resolver: reentrancy-guarded and, with [obs], timed
   under the [probe-flush] span into [tk.seconds]. *)
let in_resolver t tk f x =
  t.resolving <- true;
  match
    match t.ins with
    | None -> f x
    | Some i ->
        let t0 = Obs.now i.i_obs in
        let r = Obs.span i.i_obs "probe-flush" (fun () -> f x) in
        tk.seconds <- tk.seconds +. Float.max 0.0 (Obs.now i.i_obs -. t0);
        r
  with
  | r ->
      t.resolving <- false;
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      t.resolving <- false;
      Printexc.raise_with_backtrace e bt

let dispatch t =
  if t.resolving then invalid_arg "Probe_driver.flush: reentrant flush";
  if t.queued = 0 then None
  else begin
    let entries = Array.of_list (List.rev t.queue) in
    t.queue <- [];
    t.queued <- 0;
    let tk =
      { driver = t; entries; reply = Ready [||]; seconds = 0.0;
        completed = false }
    in
    tk.reply <- in_resolver t tk t.send (Array.map fst entries);
    Some tk
  end

let ready tk = match tk.reply with Ready _ -> true | Later _ -> false
let size tk = Array.length tk.entries

let complete tk =
  if not tk.completed then begin
    tk.completed <- true;
    let t = tk.driver in
    let outcomes =
      match tk.reply with
      | Ready outcomes -> outcomes
      | Later await -> in_resolver t tk await ()
    in
    if Array.length outcomes <> Array.length tk.entries then
      invalid_arg "Probe_driver.flush: resolver changed the batch length";
    t.batches <- t.batches + 1;
    (match t.ins with
    | Some i ->
        Metrics.observe i.h_flush tk.seconds;
        if Obs.tracing i.i_obs then begin
          Obs.event i.i_obs (Trace.Batch { size = Array.length outcomes });
          Array.iter
            (function
              | Resolved _ | Shrunk _ -> ()
              | Failed { attempts } ->
                  Obs.event i.i_obs (Trace.Probe_failed { attempts }))
            outcomes
        end
    | None -> ());
    (* Callbacks run after the accounting and outside [resolving], so a
       completion may read [batches] or submit follow-up probes. *)
    Array.iteri (fun i (_, k) -> k outcomes.(i)) tk.entries
  end

let submit t o k =
  t.queue <- (o, k) :: t.queue;
  t.queued <- t.queued + 1;
  if t.queued >= t.batch_size then dispatch t else None

let submit_outcome t o k =
  match submit t o k with Some tk -> complete tk | None -> ()

let flush t = match dispatch t with Some tk -> complete tk | None -> ()
let batches t = t.batches
