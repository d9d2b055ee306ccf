(* Shared probe capacity behind a monitor (one mutex + one condition
   variable).  All broker state is touched only with the lock held; the
   backends run outside the lock, and the [in_flight] count keeps at
   most [rounds] dispatch rounds out at once (one by default).

   A round is split-phase.  The client that starts it takes a batch and
   sends it to its tier's backend; a backend that answers [Ready]
   settles the round there and then, while one that answers [Later]
   leaves it [out] for any client that waits on the broker to claim
   and complete: the oldest unclaimed round goes first, so a client
   whose own round is still young completes the older ones ahead of it
   in the time it would wait anyway.

   Liveness invariant: a request a client is waiting on is always
   either (a) in some tenant queue — and whenever fewer than [rounds]
   rounds are out, a waiting client starts one; each settled round
   broadcasts, so a full set of rounds always frees a slot and wakes the
   waiters — or (b) part of a round that is out: a claimed one settles
   and broadcasts, and an unclaimed one is claimed by the next waiting
   client.  A blocked client therefore never depends on another
   *blocked* client, whatever the lane count or [rounds]: the broker is
   deadlock-free even with more clients than domains, and a ticket no
   client ever waits on holds a slot only until another client waits.
   That holds for clients sharing a lane too, because a waiting client
   gives its lane's token up ([Domain_pool.wait]) and retakes it before
   the broker lock, never while holding it. *)

type stats = {
  requests : int;
  admitted : int;
  charged : int;
  failed : int;
  coalesced : int;
  fresh_hits : int;
  rejected : int;
  batches : int;
}

(* One tally of request events, held once per tier and once per
   tenant.  The whole-broker totals are the element-wise sum of the
   per-tier tallies; a tenant's [batches] stays 0 (dispatches are
   shared). *)
type tally = {
  mutable requests : int;
  mutable admitted : int;
  mutable charged : int;
  mutable failed : int;
  mutable coalesced : int;
  mutable fresh_hits : int;
  mutable rejected : int;
  mutable batches : int;
}

let new_tally () =
  {
    requests = 0;
    admitted = 0;
    charged = 0;
    failed = 0;
    coalesced = 0;
    fresh_hits = 0;
    rejected = 0;
    batches = 0;
  }

type tenant = {
  tn_queue : (int * int) Queue.t;
      (* (tier, key), FIFO; requests live in [inflight] *)
  mutable tn_quota : int option;
  tn_tally : tally;
}

type 'o request = {
  rq_obj : 'o;
  rq_key : int;
  rq_tier : int;
  rq_tenant : tenant;
  rq_enqueued_at : float;
  mutable rq_waiters : ('o Probe_driver.outcome -> unit) list;
      (* newest first; each writes one waiter's result slot *)
}

type 'o fresh_entry = { fe_outcome : 'o Probe_driver.outcome; fe_at : float }

(* One probe backend — a cascade tier.  Its outcomes may be
   [Resolved] (an oracle) or [Shrunk] (a proxy that narrowed the
   interval); the broker never interprets the object, only the outcome
   kind, for its freshness rules. *)
type 'o backend = {
  bk_send : 'o array -> 'o Probe_driver.reply;
  bk_batch : int;
  bk_fallible : bool;
}

let backend ~batch resolve =
  {
    bk_send = (fun objects -> Probe_driver.Ready (resolve objects));
    bk_batch = batch;
    bk_fallible = true;
  }

(* A round sent to a backend that answered [Later]. *)
type 'o round = {
  rd_tier : int;
  rd_number : int;  (* breaker clock *)
  rd_batch : 'o request array;
  rd_await : unit -> 'o Probe_driver.outcome array;
  mutable rd_claimed : bool;
}

type instruments = {
  m_registry : Metrics.t;  (* for grouping related increments *)
  m_requests : Metrics.counter;
  m_admitted : Metrics.counter;
  m_charged : Metrics.counter;
  m_coalesced : Metrics.counter;
  m_fresh : Metrics.counter;
  m_rejected : Metrics.counter;
  m_batches : Metrics.counter;
  h_fill : Metrics.histogram;
  h_wait : Metrics.histogram;
}

type 'o t = {
  backends : 'o backend array;  (* cascade tiers; cheapest first *)
  key : 'o -> int;
  freshness : float;
  capacity : int option;
  breaker : Circuit_breaker.t option;
  clock : unit -> float;
  ins : instruments option;
  lock : Mutex.t;
  cond : Condition.t;
  fresh : (int, 'o fresh_entry) Hashtbl.t;
      (* [Resolved] outcomes, keyed by object: a point answers a
         request at ANY tier — an oracle-fresh object never re-pays the
         proxy *)
  shrunk_fresh : (int * int, 'o fresh_entry) Hashtbl.t;
      (* [Shrunk] outcomes, keyed (tier, object): a narrowed interval
         only answers the same proxy tier again — a proxy-fresh object
         requested at the oracle still escalates *)
  inflight : (int * int, 'o request) Hashtbl.t;
      (* (tier, key); queued or dispatching *)
  tenants : (string, tenant) Hashtbl.t;
  tiers : tally array;  (* per backend; their sum is the broker's total *)
  mutable tenant_order : string list;  (* registration order, reversed *)
  mutable rr : int;  (* round-robin start into [tenant_order] *)
  rounds : int;  (* bound on dispatch rounds in flight at once *)
  fallible : bool;  (* can a probe fail: admission, breaker or backend *)
  mutable queued : int;
  mutable in_flight : int;  (* rounds started and not yet settled *)
  mutable out : 'o round list;  (* [Later] rounds not yet settled, oldest first *)
  mutable next_round : int;  (* number of the next round (breaker clock) *)
}

let create ?obs ?clock ?(freshness = infinity) ?capacity ?breaker
    ?(rounds = 1) ~key backends =
  if Array.length backends = 0 then
    invalid_arg "Probe_broker.create: no backends";
  Array.iter
    (fun b ->
      if b.bk_batch < 1 then
        invalid_arg "Probe_broker.create: bk_batch < 1")
    backends;
  if Float.is_nan freshness || freshness < 0.0 then
    invalid_arg "Probe_broker.create: freshness must be non-negative";
  (match capacity with
  | Some c when c < 0 -> invalid_arg "Probe_broker.create: capacity < 0"
  | _ -> ());
  if rounds < 1 then invalid_arg "Probe_broker.create: rounds < 1";
  let clock =
    match (clock, obs) with
    | Some c, _ -> c
    | None, Some o -> Obs.clock o
    | None, None -> Span.default_clock
  in
  let ins =
    Option.map
      (fun o ->
        {
          m_registry = Obs.metrics o;
          m_requests = Obs.counter o Obs.Keys.broker_requests;
          m_admitted = Obs.counter o Obs.Keys.broker_admitted;
          m_charged = Obs.counter o Obs.Keys.broker_charged;
          m_coalesced = Obs.counter o Obs.Keys.broker_coalesced;
          m_fresh = Obs.counter o Obs.Keys.broker_fresh_hits;
          m_rejected = Obs.counter o Obs.Keys.broker_rejected;
          m_batches = Obs.counter o Obs.Keys.broker_batches;
          h_fill = Obs.histogram o Obs.Keys.broker_batch_fill;
          h_wait = Obs.histogram o Obs.Keys.broker_queue_wait;
        })
      obs
  in
  {
    backends;
    key;
    freshness;
    capacity;
    breaker;
    clock;
    ins;
    lock = Mutex.create ();
    cond = Condition.create ();
    fresh = Hashtbl.create 256;
    shrunk_fresh = Hashtbl.create 256;
    inflight = Hashtbl.create 64;
    tenants = Hashtbl.create 8;
    tiers = Array.init (Array.length backends) (fun _ -> new_tally ());
    tenant_order = [];
    rr = 0;
    rounds;
    fallible =
      Option.is_some capacity || Option.is_some breaker
      || Array.exists (fun b -> b.bk_fallible) backends;
    queued = 0;
    in_flight = 0;
    out = [];
    next_round = 0;
  }

(* ---- lock-held helpers ------------------------------------------- *)

let tenant_of t name =
  match Hashtbl.find_opt t.tenants name with
  | Some tn -> tn
  | None ->
      let tn =
        { tn_queue = Queue.create (); tn_quota = None; tn_tally = new_tally () }
      in
      Hashtbl.add t.tenants name tn;
      t.tenant_order <- name :: t.tenant_order;
      tn

let register_quota t name quota =
  Mutex.lock t.lock;
  let tn = tenant_of t name in
  (match (quota, tn.tn_quota) with
  | None, _ -> ()
  | Some q, None -> tn.tn_quota <- Some q
  | Some q, Some q' -> tn.tn_quota <- Some (Stdlib.min q q'))
  (* the tightest registered quota wins *);
  Mutex.unlock t.lock

(* Freshness is asymmetric across tiers: a [Resolved] point (any tier's
   oracle answer) satisfies a request at every tier, while a [Shrunk]
   interval only satisfies the tier that produced it — requesting a
   stronger answer must still pay for it. *)
let fresh_lookup t ~tier k now =
  match Hashtbl.find_opt t.fresh k with
  | Some e when now -. e.fe_at < t.freshness -> Some e.fe_outcome
  | _ -> (
      match Hashtbl.find_opt t.shrunk_fresh (tier, k) with
      | Some e when now -. e.fe_at < t.freshness -> Some e.fe_outcome
      | _ -> None)

let admitted t = Array.fold_left (fun n c -> n + c.admitted) 0 t.tiers

let admissible t tn =
  (match t.capacity with Some c -> admitted t < c | None -> true)
  &&
  match tn.tn_quota with Some q -> tn.tn_tally.admitted < q | None -> true

(* Count one event on its tier's and its tenant's tally. *)
let count t ~tier tn f =
  f t.tiers.(tier);
  f tn.tn_tally

let note t f = match t.ins with Some i -> f i | None -> ()

(* Related increments (a request plus its outcome) done as one
   indivisible step against the registry, so a concurrent
   [Metrics.snapshot] always sees the broker identity
   [requests = admitted + coalesced + fresh_hits + rejected] intact.
   Lock order is broker lock, then registry lock; metrics code never
   calls back into the broker, so no cycle. *)
let note_atomic t f =
  match t.ins with
  | Some i -> Metrics.atomically i.m_registry (fun () -> f i)
  | None -> ()

(* Pack one backend batch: drain tenant queues round-robin, one request
   per tenant per pass, starting after wherever the last dispatch
   stopped — per-tenant FIFO, cross-tenant fair.

   A round serves exactly one tier (one backend, one batch-size limit):
   the target is the tier of the first queued head in RR order, and
   only heads at that tier are taken this round — a tenant whose head
   wants a different tier simply waits for a later round, preserving
   its own FIFO.  With a single backend every head matches and this is
   the old behavior exactly.  Returns [(tier, batch)]; the batch is
   non-empty whenever [t.queued > 0]. *)
let take_batch t =
  let order = Array.of_list (List.rev t.tenant_order) in
  let n = Array.length order in
  let target = ref (-1) in
  (let i = ref 0 in
   while !target < 0 && !i < n do
     let tn = Hashtbl.find t.tenants order.((t.rr + !i) mod n) in
     (match Queue.peek_opt tn.tn_queue with
     | Some (tier, _) -> target := tier
     | None -> ());
     incr i
   done);
  if !target < 0 then (0, [||])
  else begin
    let limit = t.backends.(!target).bk_batch in
    let batch = ref [] in
    let taken = ref 0 in
    let progress = ref true in
    while !taken < limit && t.queued > 0 && !progress do
      progress := false;
      let i = ref 0 in
      while !taken < limit && !i < n do
        let tn = Hashtbl.find t.tenants order.((t.rr + !i) mod n) in
        (match Queue.peek_opt tn.tn_queue with
        | Some (tier, k) when tier = !target ->
            ignore (Queue.pop tn.tn_queue);
            let rq = Hashtbl.find t.inflight (tier, k) in
            batch := rq :: !batch;
            incr taken;
            t.queued <- t.queued - 1;
            t.rr <- (t.rr + !i + 1) mod n;
            progress := true
        | Some _ | None -> ());
        incr i
      done
    done;
    (!target, Array.of_list (List.rev !batch))
  end

let settle t rq outcome =
  Hashtbl.remove t.inflight (rq.rq_tier, rq.rq_key);
  let count = count t ~tier:rq.rq_tier rq.rq_tenant in
  let now = t.clock () in
  (match outcome with
  | Probe_driver.Resolved _ ->
      count (fun c -> c.charged <- c.charged + 1);
      note t (fun i -> Metrics.incr i.m_charged);
      (* A point answers any tier's future request. *)
      Hashtbl.replace t.fresh rq.rq_key { fe_outcome = outcome; fe_at = now }
  | Probe_driver.Shrunk _ ->
      count (fun c -> c.charged <- c.charged + 1);
      note t (fun i -> Metrics.incr i.m_charged);
      (* A narrowed interval only answers this same tier again. *)
      Hashtbl.replace t.shrunk_fresh
        (rq.rq_tier, rq.rq_key)
        { fe_outcome = outcome; fe_at = now }
  | Probe_driver.Failed _ ->
      (* Failures are never cached: a later request retries. *)
      count (fun c -> c.failed <- c.failed + 1));
  note t (fun i ->
      Metrics.observe i.h_wait (Float.max 0.0 (now -. rq.rq_enqueued_at)));
  List.iter (fun k -> k outcome) (List.rev rq.rq_waiters)

(* Emit a breaker transition onto the dispatching caller's trace sink.
   The sink is the *caller's* (typically stamped with that query's
   trace ID), so the flight recorder can attribute the trip to the
   query whose dispatch observed it. *)
let breaker_transition ~trace ~round before after =
  if before <> after && Trace.enabled trace then
    Trace.emit trace
      (Trace.Breaker { state = Circuit_breaker.state_name after; round })

let fail_batch t batch =
  Array.iter (fun rq -> settle t rq (Probe_driver.Failed { attempts = 0 })) batch

(* Settle a round's batch from its backend's outcomes and feed the
   breaker.  Called with the lock held. *)
let finish_round ~trace t ~tier ~round batch outcomes =
  if Array.length outcomes <> Array.length batch then begin
    fail_batch t batch;
    invalid_arg "Probe_broker: resolver changed the batch length"
  end;
  let c = t.tiers.(tier) in
  c.batches <- c.batches + 1;
  note t (fun i ->
      Metrics.incr i.m_batches;
      Metrics.observe i.h_fill (float_of_int (Array.length batch)));
  let any_resolved = ref false in
  Array.iteri
    (fun i oc ->
      (match oc with
      | Probe_driver.Resolved _ | Probe_driver.Shrunk _ -> any_resolved := true
      | Probe_driver.Failed _ -> ());
      settle t batch.(i) oc)
    outcomes;
  match t.breaker with
  | Some b ->
      let before = Circuit_breaker.state b in
      if !any_resolved then Circuit_breaker.record_success b ~round
      else if Array.length batch > 0 then Circuit_breaker.record_failure b ~round;
      breaker_transition ~trace ~round before (Circuit_breaker.state b)
  | None -> ()

(* Run one backend phase with the lock released; a raising backend
   would strand every waiter, so its batch settles as failed and the
   exception re-raises in the client that ran the phase.  Backends
   should not raise — use outcome-based resolvers. *)
let unlocked t batch f =
  Mutex.unlock t.lock;
  let r = try Ok (f ()) with e -> Error (e, Printexc.get_raw_backtrace ()) in
  Mutex.lock t.lock;
  match r with
  | Ok v -> v
  | Error (e, bt) ->
      fail_batch t batch;
      Printexc.raise_with_backtrace e bt

(* A round leaves [in_flight] on every exit, normal or raising, with a
   broadcast: it settled requests, and it freed a slot. *)
let end_round t =
  t.in_flight <- t.in_flight - 1;
  Condition.broadcast t.cond

(* Start one round: take a batch and send it.  Called with the lock
   held, runs unlocked only inside the backend, and returns (or raises)
   with the lock held.  [trace] is the starting client's sink; breaker
   state changes this round causes are emitted there. *)
let start_round ~trace t =
  t.in_flight <- t.in_flight + 1;
  match
    let tier, batch = take_batch t in
    let round = t.next_round in
    t.next_round <- t.next_round + 1;
    let allowed =
      match t.breaker with
      | Some b ->
          let before = Circuit_breaker.state b in
          let allowed = Circuit_breaker.allow b ~round in
          breaker_transition ~trace ~round before (Circuit_breaker.state b);
          allowed
      | None -> true
    in
    if not allowed then begin
      (* Refused round: burn no backend budget, degrade the batch.  The
         refused requests were admitted, so they count against capacity
         — the breaker protects the backend, not the budget. *)
      fail_batch t batch;
      true
    end
    else
      match
        unlocked t batch (fun () ->
            t.backends.(tier).bk_send (Array.map (fun rq -> rq.rq_obj) batch))
      with
      | Probe_driver.Ready outcomes ->
          finish_round ~trace t ~tier ~round batch outcomes;
          true
      | Probe_driver.Later await ->
          t.out <-
            t.out
            @ [ { rd_tier = tier; rd_number = round; rd_batch = batch;
                  rd_await = await; rd_claimed = false } ];
          false
  with
  | true -> end_round t
  | false -> Condition.broadcast t.cond  (* a round to claim *)
  | exception e ->
      end_round t;
      raise e

(* Await a claimed [Later] round and settle it; lock held on entry and
   exit. *)
let complete_round ~trace t rd =
  rd.rd_claimed <- true;
  Fun.protect
    ~finally:(fun () ->
      t.out <- List.filter (fun r -> r != rd) t.out;
      end_round t)
    (fun () ->
      let outcomes = unlocked t rd.rd_batch rd.rd_await in
      finish_round ~trace t ~tier:rd.rd_tier ~round:rd.rd_number rd.rd_batch
        outcomes)

(* ---- the client path --------------------------------------------- *)

(* What one client batch is waiting for: a result slot per object. *)
type 'o ticket = {
  results : 'o Probe_driver.outcome option array;
  mutable remaining : int;
}

(* Drive the monitor one step for a client still waiting: start a round
   while a slot is free and work is queued (ours or anyone's — fair FIFO
   means helping drains the queue towards our own requests), else
   complete the oldest unclaimed round, else wait for a round to
   settle.  Lock held. *)
let step ~trace t =
  if t.in_flight < t.rounds && t.queued > 0 then start_round ~trace t
  else
    match List.find_opt (fun rd -> not rd.rd_claimed) t.out with
    | Some rd -> complete_round ~trace t rd
    | None -> Domain_pool.wait t.cond t.lock

(* [f ()] under the broker lock, released on every exit. *)
let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Enqueue a client batch, start what rounds the free slots allow, and
   answer [Ready] if every request settled on the way (fresh hits,
   rejections, rounds whose backend answered at once), else [Later]
   with the wait. *)
let send ?(trace = Trace.null) ?(tier = 0) t ~tenant objects =
  let n = Array.length objects in
  let tk = { results = Array.make n None; remaining = n } in
  let settled =
    locked t (fun () ->
      let tn = tenant_of t tenant in
      let count = count t ~tier tn in
      let now = t.clock () in
      Array.iteri
        (fun i o ->
          let k = t.key o in
          count (fun c -> c.requests <- c.requests + 1);
          let deliver oc =
            tk.results.(i) <- Some oc;
            tk.remaining <- tk.remaining - 1
          in
          (* Each arm below records the request *and* its outcome in one
             atomic metrics group — a concurrent snapshot never sees a
             request without its classification. *)
          match fresh_lookup t ~tier k now with
          | Some oc ->
              count (fun c -> c.fresh_hits <- c.fresh_hits + 1);
              note_atomic t (fun ins ->
                  Metrics.incr ins.m_requests;
                  Metrics.incr ins.m_fresh);
              deliver oc
          | None -> (
              match Hashtbl.find_opt t.inflight (tier, k) with
              | Some rq ->
                  (* Someone (possibly this very call) already wants this
                     object at this tier: one probe, fanned out. *)
                  count (fun c -> c.coalesced <- c.coalesced + 1);
                  note_atomic t (fun ins ->
                      Metrics.incr ins.m_requests;
                      Metrics.incr ins.m_coalesced);
                  rq.rq_waiters <- deliver :: rq.rq_waiters
              | None ->
                  if not (admissible t tn) then begin
                    (* Saturated: degrade, never block — the PR-5 outcome
                       the operator's fallback already understands. *)
                    count (fun c -> c.rejected <- c.rejected + 1);
                    note_atomic t (fun ins ->
                        Metrics.incr ins.m_requests;
                        Metrics.incr ins.m_rejected);
                    deliver (Probe_driver.Failed { attempts = 0 })
                  end
                  else begin
                    count (fun c -> c.admitted <- c.admitted + 1);
                    note_atomic t (fun ins ->
                        Metrics.incr ins.m_requests;
                        Metrics.incr ins.m_admitted);
                    let rq =
                      {
                        rq_obj = o;
                        rq_key = k;
                        rq_tier = tier;
                        rq_tenant = tn;
                        rq_enqueued_at = now;
                        rq_waiters = [ deliver ];
                      }
                    in
                    Hashtbl.add t.inflight (tier, k) rq;
                    Queue.add (tier, k) tn.tn_queue;
                    t.queued <- t.queued + 1
                  end))
        objects;
      while t.in_flight < t.rounds && t.queued > 0 && tk.remaining > 0 do
        start_round ~trace t
      done;
      tk.remaining = 0)
  in
  let outcomes () =
    Array.map (function Some oc -> oc | None -> assert false) tk.results
  in
  if settled then Probe_driver.Ready (outcomes ())
  else
    Probe_driver.Later
      (fun () ->
        locked t (fun () ->
            while tk.remaining > 0 do
              step ~trace t
            done);
        outcomes ())

let client ?obs ?(tenant = "default") ?quota ?(tier = 0) t =
  (match quota with
  | Some q when q < 0 -> invalid_arg "Probe_broker.client: quota < 0"
  | _ -> ());
  if tier < 0 || tier >= Array.length t.backends then
    invalid_arg "Probe_broker.client: tier out of range";
  register_quota t tenant quota;
  (* [obs] here is the *query's* capability (typically stamped with the
     query's trace context by [Obs.with_context], the same capability
     the query's [Engine.run] runs on): the driver's batch/failure
     events and any breaker transition observed while this client is
     the dispatcher carry that attribution. *)
  let trace = Option.map Obs.trace obs in
  (* A client whose probes can fail completes every batch at dispatch:
     a failure's fallback reads the query's counters where the
     synchronous run would. *)
  let ahead = if t.fallible || Option.is_some quota then 0 else t.rounds in
  Probe_driver.create ?obs ~batch_size:t.backends.(tier).bk_batch ~ahead
    (fun objects -> send ?trace ~tier t ~tenant objects)

(* A per-query cascade whose tier-[i] driver is a tier-pinned broker
   client: escalation decisions stay in the operator, sharing (and
   coalescing) each tier's backend across queries. *)
let cascade_client ?obs ?tenant ?quota ~(specs : Probe_tier.spec array) t =
  Probe_tier.validate specs;
  if Array.length specs <> Array.length t.backends then
    invalid_arg "Probe_broker.cascade_client: specs/backends length mismatch";
  Array.iteri
    (fun i (spec : Probe_tier.spec) ->
      if spec.Probe_tier.batch <> t.backends.(i).bk_batch then
        invalid_arg "Probe_broker.cascade_client: spec batch <> backend batch")
    specs;
  let drivers =
    Array.init (Array.length specs) (fun tier ->
        client ?obs ?tenant ?quota ~tier t)
  in
  Cascade.create ~specs drivers

let fetch t o =
  match send t ~tenant:"default" [| o |] with
  | Probe_driver.Ready outcomes -> outcomes.(0)
  | Probe_driver.Later await -> (await ()).(0)

(* ---- introspection ------------------------------------------------ *)

let is_fresh t k =
  locked t (fun () ->
      let now = t.clock () in
      let tiers = Array.length t.backends in
      let rec any i = i < tiers && (fresh_lookup t ~tier:i k now <> None || any (i + 1)) in
      any 0)

let pending t = locked t (fun () -> t.queued)
let rounds t = t.rounds

let saturated t =
  locked t (fun () ->
      match t.capacity with Some c -> admitted t >= c | None -> false)

let stats_of c : stats =
  {
    requests = c.requests;
    admitted = c.admitted;
    charged = c.charged;
    failed = c.failed;
    coalesced = c.coalesced;
    fresh_hits = c.fresh_hits;
    rejected = c.rejected;
    batches = c.batches;
  }

let stats t =
  locked t (fun () ->
      let sum = new_tally () in
      Array.iter
        (fun c ->
          sum.requests <- sum.requests + c.requests;
          sum.admitted <- sum.admitted + c.admitted;
          sum.charged <- sum.charged + c.charged;
          sum.failed <- sum.failed + c.failed;
          sum.coalesced <- sum.coalesced + c.coalesced;
          sum.fresh_hits <- sum.fresh_hits + c.fresh_hits;
          sum.rejected <- sum.rejected + c.rejected;
          sum.batches <- sum.batches + c.batches)
        t.tiers;
      stats_of sum)

let by_tier t = locked t (fun () -> Array.map stats_of t.tiers)

let tenant_stats t =
  locked t (fun () ->
      Hashtbl.fold (fun name tn acc -> (name, stats_of tn.tn_tally) :: acc)
        t.tenants []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))
