type 'o outcome =
  | Resolved of 'o
  | Shrunk of 'o
  | Failed of { attempts : int }

type instruments = {
  i_obs : Obs.t;
  m_probes : Metrics.counter;
  m_batches : Metrics.counter;
  h_flush : Metrics.histogram;
}

type 'o t = {
  resolve_batch : 'o array -> 'o outcome array;
  batch_size : int;
  ins : instruments option;
  mutable queue : ('o * ('o outcome -> unit)) list;  (* newest first *)
  mutable queued : int;
  mutable probes : int;
  mutable shrinks : int;
  mutable failures : int;
  mutable batches : int;
  mutable resolving : bool;
}

let create_outcomes ?obs ?(batch_size = 1) resolve_batch =
  if batch_size < 1 then
    invalid_arg "Probe_driver.create_outcomes: batch_size < 1";
  let ins =
    Option.map
      (fun o ->
        {
          i_obs = o;
          m_probes = Obs.counter o "probe_driver.probes";
          m_batches = Obs.counter o "probe_driver.batches";
          h_flush = Obs.histogram o "probe_driver.flush_seconds";
        })
      obs
  in
  {
    resolve_batch;
    batch_size;
    ins;
    queue = [];
    queued = 0;
    probes = 0;
    shrinks = 0;
    failures = 0;
    batches = 0;
    resolving = false;
  }

(* A proxy tier: the narrowing function maps every object to a Shrunk
   outcome — still possibly imprecise, so the consumer must re-classify
   and escalate residuals (see Cascade). *)
let shrinking ?obs ?batch_size narrow_batch =
  create_outcomes ?obs ?batch_size (fun objects ->
      Array.map (fun o -> Shrunk o) (narrow_batch objects))

let of_scalar ?obs ~batch_size probe =
  create_outcomes ?obs ~batch_size (Array.map (fun o -> Resolved (probe o)))

let scalar ?obs probe = of_scalar ?obs ~batch_size:1 probe
let batch_size t = t.batch_size
let pending t = t.queued

let flush t =
  if t.resolving then invalid_arg "Probe_driver.flush: reentrant flush";
  if t.queued > 0 then begin
    let entries = Array.of_list (List.rev t.queue) in
    t.queue <- [];
    t.queued <- 0;
    let objects = Array.map fst entries in
    t.resolving <- true;
    let outcomes =
      Fun.protect
        ~finally:(fun () -> t.resolving <- false)
        (fun () ->
          match t.ins with
          | None -> t.resolve_batch objects
          | Some i ->
              let t0 = Obs.now i.i_obs in
              let r =
                Obs.span i.i_obs "probe-flush" (fun () ->
                    t.resolve_batch objects)
              in
              Metrics.observe i.h_flush
                (Float.max 0.0 (Obs.now i.i_obs -. t0));
              r)
    in
    if Array.length outcomes <> Array.length objects then
      invalid_arg "Probe_driver.flush: resolver changed the batch length";
    let resolved = ref 0 and shrunk = ref 0 and failed = ref 0 in
    Array.iter
      (function
        | Resolved _ -> incr resolved
        | Shrunk _ -> incr shrunk
        | Failed _ -> incr failed)
      outcomes;
    t.batches <- t.batches + 1;
    t.probes <- t.probes + !resolved;
    t.shrinks <- t.shrinks + !shrunk;
    t.failures <- t.failures + !failed;
    (match t.ins with
    | Some i ->
        Metrics.incr i.m_batches;
        Metrics.add i.m_probes !resolved;
        if Obs.tracing i.i_obs then begin
          Obs.event i.i_obs (Trace.Batch { size = Array.length objects });
          Array.iter
            (function
              | Resolved _ | Shrunk _ -> ()
              | Failed { attempts } ->
                  Obs.event i.i_obs (Trace.Probe_failed { attempts }))
            outcomes
        end
    | None -> ());
    (* Callbacks run after the accounting and outside [resolving], so a
       completion may inspect the stats or submit follow-up probes. *)
    Array.iteri (fun i (_, k) -> k outcomes.(i)) entries
  end

let submit_outcome t o k =
  t.queue <- (o, k) :: t.queue;
  t.queued <- t.queued + 1;
  if t.queued >= t.batch_size then flush t

let probes t = t.probes
let shrinks t = t.shrinks
let failures t = t.failures
let batches t = t.batches
