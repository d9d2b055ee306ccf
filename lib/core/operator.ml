type 'o instance = {
  classify : 'o -> Tvl.t;
  laxity : 'o -> float;
  success : 'o -> float;
}

type 'o source = {
  total : int;
  advance : unit -> bool;
  verdict : 'o instance -> Tvl.t;
  laxity : 'o instance -> float;
  success : 'o instance -> float;
  current : unit -> 'o;
}

(* The plain cursor: every question goes to the instance, on the object
   in place, so an array costs no more per read than the instance calls
   themselves. *)
let source_of_array objects =
  let pos = ref (-1) in
  {
    total = Array.length objects;
    advance =
      (fun () ->
        incr pos;
        !pos < Array.length objects);
    verdict = (fun instance -> instance.classify objects.(!pos));
    laxity = (fun instance -> instance.laxity objects.(!pos));
    success = (fun instance -> instance.success objects.(!pos));
    current = (fun () -> objects.(!pos));
  }

type 'o emitted = { obj : 'o; precise : bool }

(* The collected answer.  A batch kept in flight reserves a [slot] at
   its dispatch position, and its completions deliver into the slot, so
   the answer reads in the synchronous run's order whenever the batch
   lands.  [slots] pairs each slot with the number of [items] before
   it; both lists are newest first. *)
type 'o sink = {
  mutable items : 'o emitted list;
  mutable count : int;
  mutable slots : (int * 'o sink) list;
}

let new_sink () = { items = []; count = 0; slots = [] }

(* [s]'s entries in delivery order, slots spliced in, followed by
   [tail]. *)
let rec flatten s tail =
  let rec go items n slots tail =
    match slots with
    | (pos, sub) :: rest when pos >= n -> go items n rest (flatten sub tail)
    | _ -> (
        match items with
        | x :: xs -> go xs (n - 1) slots (x :: tail)
        | [] -> tail)
  in
  go s.items s.count s.slots tail

(* A ticket held in flight: its dispatch position across every tier,
   the answer slot its completions deliver into, and how many of its
   objects are YES-verdict objects at the final tier. *)
type 'o flight = {
  seq : int;
  ticket : 'o Probe_driver.ticket;
  slot : 'o sink;
  yes : int;
}

type degradation = {
  failed_probes : int;
  failed_attempts : int;
  degraded_forwards : int;
  degraded_ignores : int;
  forced_actions : int;
  wasted_cost : float;
  guarantees_before : Quality.guarantees option;
  guarantees_after : Quality.guarantees;
  requirements_met : bool;
}

type 'o report = {
  answer : 'o emitted list;
  guarantees : Quality.guarantees;
  requirements : Quality.requirements;
  counts : Cost_meter.counts;
  yes_seen : int;
  maybe_ignored : int;
  answer_size : int;
  exhausted : bool;
  stopped_early : bool;
  degraded : degradation;
}

exception Inconsistent_probe

let trace_verdict = function
  | Tvl.Yes -> `Yes
  | Tvl.No -> `No
  | Tvl.Maybe -> `Maybe

let trace_action = function
  | Decision.Forward -> `Forward
  | Decision.Probe -> `Probe
  | Decision.Ignore -> `Ignore

let run ~rng ?meter ?obs ?emit ?(collect = true) ?(enforce = true)
    ?should_stop ?on_progress ~(instance : _ instance)
    ~(cascade : _ Cascade.t) ~policy ~(requirements : Quality.requirements)
    source =
  let meter = match meter with Some m -> m | None -> Cost_meter.create () in
  (* A shared meter may carry charges from earlier runs; the report's
     counts cover this run only. *)
  let counts_before = Cost_meter.counts meter in
  let counters = Counters.create ~total:source.total in
  let specs = Cascade.specs cascade in
  let drivers = Cascade.drivers cascade in
  let n = Array.length drivers in
  (* Probe-ahead.  A full batch whose backend answers [Later] stays in
     flight, its ticket queued per tier in dispatch order with an answer
     slot reserved where the synchronous run would deliver it, and the
     scan reads on.  A run stays synchronous — every batch completes at
     dispatch — where the lag could change what it does: a budget or
     deadline prices pending probes, a custom or adaptive policy and
     [on_progress] read the counters, a tier of batch size 1 is the
     scalar loop, and a driver that can fail a probe ([ahead = 0])
     degrades against the counters at its synchronous point. *)
  let ahead =
    Option.is_none should_stop && Option.is_none on_progress
    && (match policy with Policy.Custom _ -> false | _ -> true)
    && Array.for_all
         (fun d -> Probe_driver.ahead d > 0 && Probe_driver.batch_size d > 1)
         drivers
  in
  (* Telemetry tallies: plain run-local counts, bumped at the meter's
     charge sites but apart from the meter (so Cost_meter.reconcile stays
     a cross-check), and written to the registry once per run by
     [publish].  The per-object path takes no lock. *)
  let reads = ref 0
  and probes = ref 0
  and batches = ref 0
  and writes_imprecise = ref 0
  and writes_precise = ref 0
  and failed_probes = ref 0
  and guard_waits = ref 0
  and stop_waits = ref 0 in
  let tier_probes = Array.make n 0
  and tier_batches = Array.make n 0
  and tier_shrinks = Array.make n 0
  and tier_failovers = Array.make n 0 in
  let bump a i = a.(i) <- a.(i) + 1 in
  (* The MAYBE set is what the optimizer gambles on; record the laxity
     and success-probability distributions it actually faced, in two
     run-local tallies.  Guarded observations so a pathological instance
     (negative or non-finite laxity) degrades to "not recorded" rather
     than turning a profiled run into a crashed one.  The registry
     handles resolve here, at run start, so a run registers the same
     keys however it ends; [publish] writes every tally in one
     [atomically] section, so a snapshot sees whole runs only. *)
  let note_maybe, publish =
    match obs with
    | None -> ((fun ~laxity:_ ~success:_ -> ()), fun () -> ())
    | Some o ->
        let laxities = Metrics.tally () and successes = Metrics.tally () in
        let note_maybe ~laxity ~success =
          if Float.is_finite laxity && laxity >= 0.0 then
            Metrics.tally_observe laxities laxity;
          if Float.is_finite success && success >= 0.0 then
            Metrics.tally_observe successes success
        in
        let c = Obs.counter o in
        let r = c Obs.Keys.reads
        and p = c Obs.Keys.probes
        and b = c Obs.Keys.batches
        and wi = c Obs.Keys.writes_imprecise
        and wp = c Obs.Keys.writes_precise
        and d = c Obs.Keys.fault_degraded in
        (* Only a run that can hold tickets can wait on one. *)
        let add_waits =
          if ahead then begin
            let wg = c Obs.Keys.ahead_waits_guard
            and ws = c Obs.Keys.ahead_waits_stop in
            fun () ->
              Metrics.add wg !guard_waits;
              Metrics.add ws !stop_waits
          end
          else ignore
        in
        let tier key =
          Array.map
            (fun (s : Probe_tier.spec) -> c (key s.Probe_tier.name))
            specs
        in
        let tp = tier Obs.Keys.tier_probes
        and tb = tier Obs.Keys.tier_batches
        and ts = tier Obs.Keys.tier_shrinks
        and tf = tier Obs.Keys.tier_failovers in
        let hl = Obs.histogram o Obs.Keys.maybe_laxity
        and hs = Obs.histogram o Obs.Keys.maybe_success in
        let add_all handles counts =
          Array.iteri (fun i h -> Metrics.add h counts.(i)) handles
        in
        let publish () =
          Metrics.atomically (Obs.metrics o) (fun () ->
              Metrics.add r !reads;
              Metrics.add p !probes;
              Metrics.add b !batches;
              Metrics.add wi !writes_imprecise;
              Metrics.add wp !writes_precise;
              Metrics.add d !failed_probes;
              add_waits ();
              add_all tp tier_probes;
              add_all tb tier_batches;
              add_all ts tier_shrinks;
              add_all tf tier_failovers;
              Metrics.merge_tally hl laxities;
              Metrics.merge_tally hs successes)
        in
        (note_maybe, publish)
  in
  let tracing = match obs with Some o -> Obs.tracing o | None -> false in
  let trace_event e = match obs with Some o -> Obs.event o e | None -> () in
  let answer = new_sink () in
  let sink = ref answer in
  let deliver entry =
    (match emit with Some f -> f entry | None -> ());
    if collect then begin
      let s = !sink in
      s.items <- entry :: s.items;
      s.count <- s.count + 1
    end
  in
  let forward_imprecise o =
    Cost_meter.charge_write_imprecise meter;
    incr writes_imprecise;
    deliver { obj = o; precise = false }
  in
  let forward_precise o =
    Cost_meter.charge_write_precise meter;
    incr writes_precise;
    deliver { obj = o; precise = true }
  in
  (* A probe must yield a laxity-0 object whenever the result is going to
     be emitted; an object that resolves to NO is discarded, so residual
     imprecision there is fine (a relational probe may stop fetching
     attributes the moment the condition is decided). *)
  let require_resolved precise =
    if instance.laxity precise > 0.0 then raise Inconsistent_probe
  in
  let choose ~verdict ~laxity preference =
    if enforce then
      Decision.first_feasible counters requirements ~verdict ~laxity
        ~preference
    else
      match preference with a :: _ -> a | [] -> Decision.Probe
  in
  let note_progress () =
    match on_progress with
    | Some f ->
        f ~reads:(source.total - Counters.unseen counters)
          (Counters.guarantees counters)
    | None -> ()
  in
  (* The one settle step: every Forward or Ignore of a YES or MAYBE
     object, from the scan, the degraded fallback and a proxy's definite
     YES.  Only a forward calls [build x] to make the object, so an
     ignored one never has to exist. *)
  let settle action ~verdict ~laxity build x =
    (match action with
    | Decision.Forward ->
        (match verdict with
        | Tvl.Yes -> Counters.forward_yes counters ~laxity
        | Tvl.Maybe | Tvl.No -> Counters.forward_maybe counters ~laxity);
        forward_imprecise (build x)
    | Decision.Ignore -> (
        match verdict with
        | Tvl.Yes -> Counters.ignore_yes counters
        | Tvl.Maybe | Tvl.No -> Counters.ignore_maybe counters)
    | Decision.Probe -> assert false);
    note_progress ()
  in
  (* Probe completions, keyed by the verdict the object was probed on
     (a shrunk MAYBE that escalates as MAYBE keeps its MAYBE completion;
     one that shrank to a definite YES takes the YES completion), built
     once per run rather than once per probe. *)
  let complete_yes precise =
    (* A YES object's precise version must still satisfy λ. *)
    (match instance.classify precise with
    | Tvl.Yes -> ()
    | Tvl.No | Tvl.Maybe -> raise Inconsistent_probe);
    require_resolved precise;
    Counters.probe_yes counters;
    forward_precise precise
  in
  let complete_maybe precise =
    match instance.classify precise with
    | Tvl.Yes ->
        require_resolved precise;
        Counters.probe_maybe_yes counters;
        forward_precise precise
    | Tvl.No -> Counters.probe_maybe_no counters
    | Tvl.Maybe -> raise Inconsistent_probe
  in
  (* Probing is deferred, twice over.  A PROBE decision queues the
     object on its tier's driver, and its counter updates, consistency
     checks and emission run when its batch completes; with probe-ahead
     a full batch's ticket may complete later still, while the scan
     reads on.  Either way the counters lag by the pending probes'
     eventual increments: a YES adds 1 to |A∩Y|, |A| and |Y|, a NO only
     consumes the object.  The Theorem 3.1 guards are monotone in that
     lag — each YES grows the slack of rule (b) by 1 − p_q and of rule
     (c) by 1 − r_q — so a forward or ignore admitted against the lagged
     counters is admissible against the settled ones, and a batch still
     filling is conservative, never unsound.  Probe-ahead must be exact,
     not just sound: it takes the decision the synchronous run takes,
     where every dispatched batch has completed.  So with k outcomes
     the synchronous run may already hold, s of them known YES, a
     decision compares [first_feasible] at y = s and y = k; when the two
     agree every y in between agrees, and otherwise the oldest ticket
     completes and the test repeats ([decide]).  The stop test waits
     for every ticket whenever some outcome mix could end the scan or
     flush a partial batch.  With batch size 1 every submission completes before
     [submit] returns and this operator is the scalar Fig. 1 loop, bit
     for bit. *)
  (* Degradation state: a probe that fails permanently does not abort
     the run — the object is still MAYBE (or YES) and still needs a
     write decision.  The fallback re-enters the Theorem 3.1 guards with
     the probe option gone; when even Forward and Ignore are infeasible
     the operator is forced to act anyway and the final guarantees are
     recomputed honestly from the counters (they may then miss the
     requirements — reported, never hidden). *)
  let failed_attempts = ref 0 in
  let degraded_forwards = ref 0 in
  let forced_actions = ref 0 in
  let guarantees_before = ref None in
  let degrade o ~verdict ~laxity ~attempts preference =
    incr failed_probes;
    failed_attempts := !failed_attempts + attempts;
    if !guarantees_before = None then
      guarantees_before := Some (Counters.guarantees counters);
    (* The policy's preference without the probe, then Forward and
       Ignore: [choose] answers [Probe] only when none is feasible. *)
    let candidates =
      List.filter
        (fun a -> not (Decision.equal_action a Decision.Probe))
        preference
      @ [ Decision.Forward; Decision.Ignore ]
    in
    let action, forced =
      match choose ~verdict ~laxity candidates with
      | Decision.Probe ->
          (* Nothing is guarantee-safe without the probe.  Keep the
             object if its laxity alone is admissible (recall can still
             recover later), drop it otherwise (laxity never heals). *)
          ( (if laxity <= requirements.Quality.laxity then Decision.Forward
             else Decision.Ignore),
            true )
      | (Decision.Forward | Decision.Ignore) as a -> (a, false)
    in
    if forced then incr forced_actions;
    if tracing then
      trace_event
        (Trace.Degraded
           { verdict = trace_verdict verdict; action = trace_action action;
             forced });
    if Decision.equal_action action Decision.Forward then
      incr degraded_forwards;
    settle action ~verdict ~laxity Fun.id o
  in
  (* Probe machinery.  A submission enters the cascade at its starting
     tier; [Resolved] completes the object, [Shrunk] outcomes are
     re-classified (a narrower interval may be definite, saving the
     oracle probe) and residuals escalate tier by tier.  A plain driver
     is the one-tier cascade, where this is exactly the paper's probe. *)
  let batches_seen = Array.map Probe_driver.batches drivers in
  let sync_batches () =
    (* Drivers flush autonomously at batch boundaries; meter their
       dispatches by delta so a shared driver stays accountable. *)
    for i = 0 to n - 1 do
      let b = Probe_driver.batches drivers.(i) in
      for _ = 1 to b - batches_seen.(i) do
        Cost_meter.charge_batch_tier meter i;
        incr batches;
        bump tier_batches i
      done;
      batches_seen.(i) <- b
    done
  in
  let charge_probe_at i =
    Cost_meter.charge_probe_tier meter i;
    incr probes;
    bump tier_probes i
  in
  (* A shrunk object that became definite YES forwards imprecise
     when its residual laxity is admissible — exactly rule (a),
     i.e. [Decision.can_forward ~verdict:Yes].  The policy is not
     re-consulted (no rng draw), so plans and adaptive windows
     see the same decision stream as an oracle-only run. *)
  let forwardable ~laxity = laxity <= requirements.Quality.laxity in
  let caps = Array.map (fun d -> if ahead then Probe_driver.ahead d else 0) drivers in
  let in_flight = Array.init n (fun _ -> Queue.create ()) in
  let flying = ref 0 (* objects in flight over every tier *)
  and known_yes = ref 0 (* YES-verdict objects in flight at the final tier *)
  and queued_yes = ref 0 (* YES-verdict objects queued at the final tier *)
  and dispatches = ref 0 in
  let complete_next i =
    let f = Queue.pop in_flight.(i) in
    flying := !flying - Probe_driver.size f.ticket;
    known_yes := !known_yes - f.yes;
    let outer = !sink in
    sink := f.slot;
    Probe_driver.complete f.ticket;
    sink := outer;
    sync_batches ()
  in
  (* Tickets complete per tier in dispatch order: a tier's submissions
     come from the scan (the start tier) or from the tier below's
     completions only, so each tier sees the synchronous run's stream.
     Across tiers the first dispatched goes first. *)
  let complete_oldest () =
    let oldest = ref (-1) and first = ref max_int in
    Array.iteri
      (fun i q ->
        match Queue.peek_opt q with
        | Some f when f.seq < !first ->
            oldest := i;
            first := f.seq
        | Some _ | None -> ())
      in_flight;
    complete_next !oldest
  in
  let await_all () = while !flying > 0 do complete_oldest () done in
  let dispatched i = function
    | None -> ()
    | Some tk ->
        (* A batch holds its tier's whole queue, so the final tier's
           queued YES objects are all in this one. *)
        let yes =
          if i = n - 1 then begin
            let y = !queued_yes in
            queued_yes := 0;
            y
          end
          else 0
        in
        if caps.(i) = 0
           || (Probe_driver.ready tk && Queue.is_empty in_flight.(i))
        then Probe_driver.complete tk
        else begin
          let slot =
            if collect then begin
              let s = !sink and slot = new_sink () in
              s.slots <- (s.count, slot) :: s.slots;
              slot
            end
            else !sink
          in
          Queue.push
            { seq = !dispatches; ticket = tk; slot; yes }
            in_flight.(i);
          incr dispatches;
          flying := !flying + Probe_driver.size tk;
          known_yes := !known_yes + yes;
          (* The tier's cap: the oldest of its own tickets completes;
             only lower tiers can be completing further up the stack. *)
          if Queue.length in_flight.(i) > caps.(i) then complete_next i
        end
  in
  let rec submit_tier i ~verdict ~laxity ~preference o complete =
    (match verdict with
    | Tvl.Yes when i = n - 1 -> incr queued_yes
    | Tvl.Yes | Tvl.Maybe | Tvl.No -> ());
    dispatched i
    @@ Probe_driver.submit drivers.(i) o (function
      | Probe_driver.Resolved precise ->
          charge_probe_at i;
          if tracing then
            trace_event
              (Trace.Probe_resolved
                 { verdict = trace_verdict (instance.classify precise) });
          complete precise;
          note_progress ()
      | Probe_driver.Shrunk narrowed ->
          charge_probe_at i;
          bump tier_shrinks i;
          (* The final tier is Resolve by construction; a Shrunk
             outcome there is a broken backend. *)
          if i >= n - 1 then raise Inconsistent_probe;
          let laxity' = instance.laxity narrowed in
          (* Shrinking must narrow: more laxity than before means
             the proxy widened the imprecision model. *)
          if laxity' > laxity +. 1e-9 then raise Inconsistent_probe;
          let verdict' = instance.classify narrowed in
          (match (verdict, verdict') with
          | Tvl.Yes, (Tvl.No | Tvl.Maybe) ->
              (* a narrower interval of a YES object stays inside
                 the query region *)
              raise Inconsistent_probe
          | _ -> ());
          if tracing then
            trace_event (Trace.Probe_shrunk { verdict = trace_verdict verdict' });
          (match verdict' with
          | Tvl.No ->
              (* Definite NO: the proxy answered the query; like
                 a probed MAYBE that resolved NO, the object is
                 consumed and never reaches the oracle. *)
              Counters.probe_maybe_no counters;
              note_progress ()
          | Tvl.Yes when forwardable ~laxity:laxity' ->
              settle Decision.Forward ~verdict:Tvl.Yes ~laxity:laxity' Fun.id
                narrowed
          | Tvl.Yes ->
              (* Definite YES, laxity too wide: its precise version
                 must satisfy λ, as a scanned YES's must. *)
              submit_tier (i + 1) ~verdict:Tvl.Yes ~laxity:laxity'
                ~preference narrowed complete_yes
          | Tvl.Maybe ->
              submit_tier (i + 1) ~verdict:Tvl.Maybe ~laxity:laxity'
                ~preference narrowed complete)
      | Probe_driver.Failed { attempts } ->
          if i < n - 1 then begin
            (* Cheap tier down: escalate straight to the next
               tier — the answer only degrades when the oracle
               itself fails. *)
            bump tier_failovers i;
            submit_tier (i + 1) ~verdict ~laxity ~preference o complete
          end
          else degrade o ~verdict ~laxity ~attempts preference)
  in
  let submit_probe ~verdict ~laxity ~preference o complete =
    submit_tier (Cascade.start cascade) ~verdict ~laxity ~preference o
      complete;
    sync_batches ()
  in
  let flush_probes () =
    (* Escalation strictly increases the tier index, so one pass in
       order drains everything a completion re-submits. *)
    await_all ();
    for i = 0 to n - 1 do
      dispatched i (Probe_driver.dispatch drivers.(i));
      await_all ()
    done;
    sync_batches ()
  in
  (* The YES outcomes the synchronous run may hold that this one does
     not: every object in flight, and every object queued above the
     lowest tier with a ticket in flight (the synchronous run may have
     dispatched and resolved those batches already).  Tiers up to that
     one hold the same queues in both runs.  Of these, the [known_yes]
     YES objects in flight at the final tier are certain: the
     synchronous run has completed their tickets, and a YES object's
     precise version satisfies λ or the run raises.  A YES in flight at
     a proxy, or queued above the lowest tier in flight, may still sit
     in the synchronous run's oracle queue, so y ∈ [known_yes, k]. *)
  let lag () =
    if !flying = 0 then 0
    else begin
      let low = ref n in
      for i = n - 1 downto 0 do
        if not (Queue.is_empty in_flight.(i)) then low := i
      done;
      let k = ref !flying in
      for i = !low + 1 to n - 1 do
        k := !k + Probe_driver.pending drivers.(i)
      done;
      !k
    end
  in
  let rec decide ~verdict ~laxity preference =
    if not enforce then choose ~verdict ~laxity preference
    else begin
      let k = lag () and s = !known_yes in
      let action =
        Decision.first_feasible_after ~yes:s counters requirements ~verdict
          ~laxity ~preference
      in
      if
        k = s
        || Decision.equal_action action
             (Decision.first_feasible_after ~yes:k counters requirements
                ~verdict ~laxity ~preference)
      then action
      else begin
        incr guard_waits;
        complete_oldest ();
        decide ~verdict ~laxity preference
      end
    end
  in
  let pending_probes () = Cascade.pending cascade in
  let finished () = Counters.recall_met counters requirements in
  (* A pending resolution can only raise the recall guarantee: a YES
     grows the numerator with the denominator unchanged, a NO shrinks
     the denominator.  Flush as soon as the most favourable outcome mix
     could reach r_q, so batching never reads past the early-termination
     point by more than the probes already in flight. *)
  let pending_could_finish n =
    n > 0
    &&
    let ay = Counters.answer_yes counters in
    let d =
      Counters.yes_seen counters + Counters.unseen counters
      + Counters.maybe_ignored counters
    in
    let ratio num den =
      if den <= 0 then 1.0 else float_of_int num /. float_of_int den
    in
    (* Neither ratio is NaN, so this is [Float.max] of the two against
       r_q, without its sign-bit C call. *)
    let r_q = requirements.Quality.recall in
    ratio (ay + n) d >= r_q || ratio ay (d - n) >= r_q
  in
  (* One object per iteration; Fig. 1's do-loop with the stopping test
     hoisted, so a query whose recall bound is already met reads
     nothing. *)
  let exhausted = ref false in
  let stopped_early = ref false in
  let stop = ref false in
  (* Publish on the way out, on a raise too, so the registry always
     holds what the run charged. *)
  Fun.protect ~finally:publish @@ fun () ->
  while not !stop do
    let pending = pending_probes () in
    if !flying > 0 && pending_could_finish (pending + !flying) then
      (* Some outcome mix of the tickets in flight could end the scan
         or flush a partial batch: settle them, then take the
         synchronous run's test. *)
      begin
        incr stop_waits;
        await_all ()
      end
    else if finished () then stop := true
    else if
      match should_stop with Some f -> f ~pending | None -> false
    then begin
      (* The budget (or deadline) cannot pay for another read: stop
         here, keeping whatever answer has accumulated — the anytime
         contract.  Pending probes were committed before the check and
         still resolve in the final flush below. *)
      stopped_early := true;
      stop := true;
      if tracing then
        trace_event
          (Trace.Budget_stop
             {
               reads = source.total - Counters.unseen counters;
               recall = Counters.recall_guarantee counters;
             })
    end
    else if pending_could_finish pending then flush_probes ()
    else if not (source.advance ()) then begin
      exhausted := true;
      stop := true
    end
    else begin
      Cost_meter.charge_read meter;
      incr reads;
      (* Late materialisation: the verdict, laxity and success come
         from the cursor; the object itself is built only when it is
         forwarded or probed. *)
      let verdict = source.verdict instance in
      if tracing then
        trace_event (Trace.Read { verdict = trace_verdict verdict });
      match verdict with
      | Tvl.No ->
          Counters.saw_no counters;
          note_progress ()
      | Tvl.Yes | Tvl.Maybe -> (
          let laxity = source.laxity instance in
          let success =
            match verdict with
            | Tvl.Maybe ->
                let success = source.success instance in
                note_maybe ~laxity ~success;
                success
            | Tvl.Yes | Tvl.No -> 1.0
          in
          let preference =
            Policy.preference policy ~rng ~requirements ~counters ~verdict
              ~laxity ~success
          in
          let decision =
            if !flying = 0 then choose ~verdict ~laxity preference
            else decide ~verdict ~laxity preference
          in
          if tracing then
            trace_event
              (Trace.Decision
                 {
                   verdict = trace_verdict verdict;
                   action = trace_action decision;
                   laxity;
                   success;
                 });
          match decision with
          | Decision.Probe ->
              submit_probe ~verdict ~laxity ~preference (source.current ())
                (match verdict with
                | Tvl.Yes -> complete_yes
                | Tvl.Maybe | Tvl.No -> complete_maybe)
          | Decision.Forward | Decision.Ignore ->
              settle decision ~verdict ~laxity source.current ())
    end
  done;
  (* Objects already read and committed to a probe must be resolved, on
     early termination as much as on exhaustion: the answer and the
     counters would otherwise be inconsistent.  The extra resolutions
     can only improve the guarantees (precision adds YES-only entries,
     recall rises, probed laxity is 0). *)
  flush_probes ();
  if tracing && Counters.unseen counters > 0 then
    trace_event
      (Trace.Early_termination
         {
           reads = source.total - Counters.unseen counters;
           recall = Counters.recall_guarantee counters;
         });
  let guarantees = Counters.guarantees counters in
  {
    answer = flatten answer [];
    guarantees;
    requirements;
    counts =
      (let after = Cost_meter.counts meter in
       {
         Cost_meter.reads = after.reads - counts_before.reads;
         probes = after.probes - counts_before.probes;
         batches = after.batches - counts_before.batches;
         writes_imprecise =
           after.writes_imprecise - counts_before.writes_imprecise;
         writes_precise = after.writes_precise - counts_before.writes_precise;
       });
    yes_seen = Counters.yes_seen counters;
    maybe_ignored = Counters.maybe_ignored counters;
    answer_size = Counters.answer_size counters;
    exhausted = !exhausted || Counters.unseen counters = 0;
    stopped_early = !stopped_early;
    degraded =
      {
        failed_probes = !failed_probes;
        failed_attempts = !failed_attempts;
        degraded_forwards = !degraded_forwards;
        (* every failed probe settles as one forward or one ignore *)
        degraded_ignores = !failed_probes - !degraded_forwards;
        forced_actions = !forced_actions;
        (* Only the oracle tier can fail permanently (cheaper tiers fail
           over instead), so each burned attempt is backend work the
           meter never charged, priced at the oracle's amortized
           c_p + c_b/B: the rate the solver and meter price completed
           probes at, so degradation reports reconcile with plan
           pricing. *)
        wasted_cost =
          float_of_int !failed_attempts *. Probe_tier.amortized specs.(n - 1);
        guarantees_before = !guarantees_before;
        guarantees_after = guarantees;
        requirements_met = Quality.meets guarantees requirements;
      };
  }

let cost model report = Cost_meter.cost_of_counts model report.counts

let normalized_cost model ~total report =
  if total <= 0 then invalid_arg "Operator.normalized_cost: total <= 0";
  cost model report /. float_of_int total

let trace ~rng ?(every = 1) ~instance ~cascade ~policy ~requirements source =
  if every < 1 then invalid_arg "Operator.trace: every < 1";
  let samples = ref [] in
  let on_progress ~reads guarantees =
    if reads mod every = 0 then samples := (reads, guarantees) :: !samples
  in
  let report =
    run ~rng ~on_progress ~instance ~cascade ~policy ~requirements source
  in
  (report, List.rev !samples)
