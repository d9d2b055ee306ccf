(* The decision loop as it stood before the cursor source: a verbatim
   copy of the item loop — [Operator.run] over a [next : unit -> 'o
   option] source, the pre-classified [item] records of [Scan_pipeline]
   and [Column_scan], and the [premap] wrapper drivers that carried
   probes of items to the unwrapped backend.  The only edits are module
   paths, [Cascade.premap] rebuilt from the public [Cascade.create]
   (the original shared [start] and the failover counts with the
   unmapped cascade; nothing here reads either), and the verdicts the
   probe events carry ([Trace.Probe_resolved], [Trace.Probe_shrunk]).  The equivalence
   properties run the library's loop against this one, bit for bit. *)

module Operator_ref = struct
  type 'o instance = 'o Operator.instance = {
    classify : 'o -> Tvl.t;
    laxity : 'o -> float;
    success : 'o -> float;
  }

  type 'o source = { next : unit -> 'o option; total : int }

  let source_of_array objects =
    let pos = ref 0 in
    let next () =
      if !pos >= Array.length objects then None
      else begin
        let o = objects.(!pos) in
        incr pos;
        Some o
      end
    in
    { next; total = Array.length objects }

  type 'o emitted = 'o Operator.emitted = { obj : 'o; precise : bool }

  type degradation = Operator.degradation = {
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

  type 'o report = 'o Operator.report = {
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

  exception Inconsistent_probe = Operator.Inconsistent_probe

  let trace_verdict = function
    | Tvl.Yes -> `Yes
    | Tvl.No -> `No
    | Tvl.Maybe -> `Maybe

  let trace_action = function
    | Decision.Forward -> `Forward
    | Decision.Probe -> `Probe
    | Decision.Ignore -> `Ignore

  let run ~rng ?meter ?obs ?emit ?(collect = true) ?(enforce = true)
      ?(should_stop = fun ~pending:_ -> false) ?on_progress ~instance
      ~(cascade : _ Cascade.t) ~policy ~(requirements : Quality.requirements)
      source =
    let meter = match meter with Some m -> m | None -> Cost_meter.create () in
    (* A shared meter may carry charges from earlier runs; the report's
       counts cover this run only. *)
    let counts_before = Cost_meter.counts meter in
    let counters = Counters.create ~total:source.total in
    (* Counter handles resolve once per run; with [obs] absent every note
       is a no-op closure, so the per-object path allocates nothing. *)
    let note_read, note_probe, note_batch, note_write_imprecise,
        note_write_precise =
      match obs with
      | None ->
          let nop () = () in
          (nop, nop, nop, nop, nop)
      | Some o ->
          let r = Obs.counter o Obs.Keys.reads
          and p = Obs.counter o Obs.Keys.probes
          and b = Obs.counter o Obs.Keys.batches
          and wi = Obs.counter o Obs.Keys.writes_imprecise
          and wp = Obs.counter o Obs.Keys.writes_precise in
          ( (fun () -> Metrics.incr r),
            (fun () -> Metrics.incr p),
            (fun () -> Metrics.incr b),
            (fun () -> Metrics.incr wi),
            (fun () -> Metrics.incr wp) )
    in
    (* The MAYBE set is what the optimizer gambles on; record the laxity
       and success-probability distributions it actually faced.  Guarded
       observations so a pathological instance (negative or non-finite
       laxity) degrades to "not recorded" rather than turning a profiled
       run into a crashed one. *)
    let note_maybe =
      match obs with
      | None -> fun ~laxity:_ ~success:_ -> ()
      | Some o ->
          let hl = Obs.histogram o Obs.Keys.maybe_laxity
          and hs = Obs.histogram o Obs.Keys.maybe_success in
          fun ~laxity ~success ->
            if Float.is_finite laxity && laxity >= 0.0 then
              Metrics.observe hl laxity;
            if Float.is_finite success && success >= 0.0 then
              Metrics.observe hs success
    in
    let note_degraded =
      match obs with
      | None -> fun () -> ()
      | Some o ->
          let c = Obs.counter o Obs.Keys.fault_degraded in
          fun () -> Metrics.incr c
    in
    let tracing = match obs with Some o -> Obs.tracing o | None -> false in
    let trace_event e = match obs with Some o -> Obs.event o e | None -> () in
    let answer = ref [] in
    let deliver entry =
      (match emit with Some f -> f entry | None -> ());
      if collect then answer := entry :: !answer
    in
    let forward_imprecise o =
      Cost_meter.charge_write_imprecise meter;
      note_write_imprecise ();
      deliver { obj = o; precise = false }
    in
    let forward_precise o =
      Cost_meter.charge_write_precise meter;
      note_write_precise ();
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
    (* Probing is deferred: a PROBE decision submits the object to the
       driver and its counter updates, consistency checks and emission run
       when the batch resolves.  While a probe is pending the counters lag
       by its eventual (answer_yes, yes_seen, unseen) increments — but a
       resolution can only add the same amount to both sides of the
       Theorem 3.1 inequalities (a YES resolution adds 1 to |A∩Y| and to
       |A|, to |A∩Y| and to |Y|; a NO resolution changes nothing), so any
       forward or ignore the guards admit against the lagged counters is
       also admissible against the flushed ones: deferral is conservative,
       never unsound.  With batch size 1 every submission flushes before
       [submit_outcome] returns and this operator is the scalar Fig. 1
       loop, bit for bit. *)
    (* Degradation state: a probe that fails permanently does not abort
       the run — the object is still MAYBE (or YES) and still needs a
       write decision.  The fallback re-enters the Theorem 3.1 guards with
       the probe option gone; when even Forward and Ignore are infeasible
       the operator is forced to act anyway and the final guarantees are
       recomputed honestly from the counters (they may then miss the
       requirements — reported, never hidden). *)
    let failed_probes = ref 0 in
    let failed_attempts = ref 0 in
    let degraded_forwards = ref 0 in
    let degraded_ignores = ref 0 in
    let forced_actions = ref 0 in
    let guarantees_before = ref None in
    let degraded_fallback ~verdict ~laxity preference =
      let candidates =
        List.filter
          (fun a -> not (Decision.equal_action a Decision.Probe))
          preference
        @ [ Decision.Forward; Decision.Ignore ]
      in
      if not enforce then ((match candidates with a :: _ -> a | [] -> assert false), false)
      else
        let ok = function
          | Decision.Forward ->
              Decision.can_forward counters requirements ~verdict ~laxity
          | Decision.Ignore -> Decision.can_ignore counters requirements ~verdict
          | Decision.Probe -> false
        in
        match List.find_opt ok candidates with
        | Some a -> (a, false)
        | None ->
            (* Nothing is guarantee-safe without the probe.  Keep the
               object if its laxity alone is admissible (recall can still
               recover later), drop it otherwise (laxity never heals). *)
            ( (if laxity <= requirements.Quality.laxity then Decision.Forward
               else Decision.Ignore),
              true )
    in
    let degrade o ~verdict ~laxity ~attempts preference =
      incr failed_probes;
      failed_attempts := !failed_attempts + attempts;
      if !guarantees_before = None then
        guarantees_before := Some (Counters.guarantees counters);
      note_degraded ();
      let action, forced = degraded_fallback ~verdict ~laxity preference in
      if forced then incr forced_actions;
      if tracing then
        trace_event
          (Trace.Degraded
             { verdict = trace_verdict verdict; action = trace_action action;
               forced });
      (match (action, verdict) with
      | Decision.Forward, Tvl.Yes ->
          incr degraded_forwards;
          Counters.forward_yes counters ~laxity;
          forward_imprecise o
      | Decision.Forward, (Tvl.Maybe | Tvl.No) ->
          incr degraded_forwards;
          Counters.forward_maybe counters ~laxity;
          forward_imprecise o
      | Decision.Ignore, Tvl.Yes ->
          incr degraded_ignores;
          Counters.ignore_yes counters
      | Decision.Ignore, (Tvl.Maybe | Tvl.No) ->
          incr degraded_ignores;
          Counters.ignore_maybe counters
      | Decision.Probe, _ -> assert false);
      note_progress ()
    in
    (* Probe machinery.  A submission enters the cascade at its starting
       tier; [Resolved] completes the object, [Shrunk] outcomes are
       re-classified (a narrower interval may be definite, saving the
       oracle probe) and residuals escalate tier by tier.  A plain driver
       is the one-tier cascade, where this is exactly the paper's probe. *)
    let specs = Cascade.specs cascade in
    let drivers = Cascade.drivers cascade in
    let n = Array.length drivers in
    let note_tier_probe, note_tier_batch, note_tier_shrink,
        note_tier_failover =
      match obs with
      | None ->
          let nop (_ : int) = () in
          (nop, nop, nop, nop)
      | Some o ->
          let mk key =
            Array.map
              (fun (s : Probe_tier.spec) ->
                Obs.counter o (key s.Probe_tier.name))
              specs
          in
          let p = mk Obs.Keys.tier_probes
          and b = mk Obs.Keys.tier_batches
          and s = mk Obs.Keys.tier_shrinks
          and f = mk Obs.Keys.tier_failovers in
          ( (fun i -> Metrics.incr p.(i)),
            (fun i -> Metrics.incr b.(i)),
            (fun i -> Metrics.incr s.(i)),
            (fun i -> Metrics.incr f.(i)) )
    in
    let batches_seen = Array.map Probe_driver.batches drivers in
    let sync_batches () =
      (* Drivers flush autonomously at batch boundaries; meter their
         dispatches by delta so a shared driver stays accountable. *)
      for i = 0 to n - 1 do
        let b = Probe_driver.batches drivers.(i) in
        for _ = 1 to b - batches_seen.(i) do
          Cost_meter.charge_batch_tier meter i;
          note_batch ();
          note_tier_batch i
        done;
        batches_seen.(i) <- b
      done
    in
    let charge_probe_at i =
      Cost_meter.charge_probe_tier meter i;
      note_probe ();
      note_tier_probe i
    in
    (* A shrunk object that became definite YES forwards imprecise
       when its residual laxity is admissible — exactly rule (a),
       i.e. [Decision.can_forward ~verdict:Yes].  The policy is not
       re-consulted (no rng draw), so plans and adaptive windows
       see the same decision stream as an oracle-only run. *)
    let forwardable ~laxity = laxity <= requirements.Quality.laxity in
    let rec submit_tier i ~verdict ~laxity ~preference o complete =
      Probe_driver.submit_outcome drivers.(i) o (function
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
            note_tier_shrink i;
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
                Counters.forward_yes counters ~laxity:laxity';
                forward_imprecise narrowed;
                note_progress ()
            | Tvl.Yes | Tvl.Maybe ->
                submit_tier (i + 1) ~verdict:verdict' ~laxity:laxity'
                  ~preference narrowed complete)
        | Probe_driver.Failed { attempts } ->
            if i < n - 1 then begin
              (* Cheap tier down: escalate straight to the next
                 tier — the answer only degrades when the oracle
                 itself fails. *)
              Cascade.note_failover cascade i;
              note_tier_failover i;
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
      (* Escalation strictly increases the tier index, so one pass
         in order drains everything a callback re-submits. *)
      Array.iter Probe_driver.flush drivers;
      sync_batches ()
    in
    let pending_probes () = Cascade.pending cascade in
    let finished () =
      Counters.recall_guarantee counters >= requirements.Quality.recall
    in
    (* A pending resolution can only raise the recall guarantee: a YES
       grows the numerator with the denominator unchanged, a NO shrinks
       the denominator.  Flush as soon as the most favourable outcome mix
       could reach r_q, so batching never reads past the early-termination
       point by more than the probes already in flight. *)
    let pending_could_finish () =
      let n = pending_probes () in
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
      Float.max (ratio (ay + n) d) (ratio ay (d - n))
      >= requirements.Quality.recall
    in
    (* One object per iteration; Fig. 1's do-loop with the stopping test
       hoisted, so a query whose recall bound is already met reads
       nothing. *)
    let exhausted = ref false in
    let stopped_early = ref false in
    let stop = ref false in
    while not !stop do
      if finished () then stop := true
      else if should_stop ~pending:(pending_probes ()) then begin
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
      else if pending_could_finish () then flush_probes ()
      else
        match source.next () with
        | None ->
            exhausted := true;
            stop := true
        | Some o -> (
            Cost_meter.charge_read meter;
            note_read ();
            let verdict = instance.classify o in
            if tracing then
              trace_event (Trace.Read { verdict = trace_verdict verdict });
            match verdict with
            | Tvl.No ->
                Counters.saw_no counters;
                note_progress ()
            | Tvl.Yes as verdict -> (
                let laxity = instance.laxity o in
                let preference =
                  Policy.preference policy ~rng ~requirements ~counters ~verdict
                    ~laxity ~success:1.0
                in
                let decision = choose ~verdict ~laxity preference in
                if tracing then
                  trace_event
                    (Trace.Decision
                       {
                         verdict = `Yes;
                         action = trace_action decision;
                         laxity;
                         success = 1.0;
                       });
                match decision with
                | Decision.Forward ->
                    Counters.forward_yes counters ~laxity;
                    forward_imprecise o;
                    note_progress ()
                | Decision.Probe ->
                    submit_probe ~verdict ~laxity ~preference o (fun precise ->
                        (* A YES object's precise version must still
                           satisfy λ. *)
                        (match instance.classify precise with
                        | Tvl.Yes -> ()
                        | Tvl.No | Tvl.Maybe -> raise Inconsistent_probe);
                        require_resolved precise;
                        Counters.probe_yes counters;
                        forward_precise precise)
                | Decision.Ignore ->
                    Counters.ignore_yes counters;
                    note_progress ())
            | Tvl.Maybe as verdict -> (
                let laxity = instance.laxity o in
                let success = instance.success o in
                note_maybe ~laxity ~success;
                let preference =
                  Policy.preference policy ~rng ~requirements ~counters ~verdict
                    ~laxity ~success
                in
                let decision = choose ~verdict ~laxity preference in
                if tracing then
                  trace_event
                    (Trace.Decision
                       {
                         verdict = `Maybe;
                         action = trace_action decision;
                         laxity;
                         success;
                       });
                match decision with
                | Decision.Forward ->
                    Counters.forward_maybe counters ~laxity;
                    forward_imprecise o;
                    note_progress ()
                | Decision.Probe ->
                    submit_probe ~verdict ~laxity ~preference o (fun precise ->
                        match instance.classify precise with
                        | Tvl.Yes ->
                            require_resolved precise;
                            Counters.probe_maybe_yes counters;
                            forward_precise precise
                        | Tvl.No -> Counters.probe_maybe_no counters
                        | Tvl.Maybe -> raise Inconsistent_probe)
                | Decision.Ignore ->
                    Counters.ignore_maybe counters;
                    note_progress ()))
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
      answer = List.rev !answer;
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
          degraded_ignores = !degraded_ignores;
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
end

module Probe_driver_ref = struct
  (* The wrapper batches on its own queue with the inner driver's batch
     size, so a full wrapper batch arrives at the inner driver as one full
     batch: the inner driver flushes exactly when it would have had the
     caller submitted the unwrapped objects directly.  Accounting
     (probes/batches, instruments, latency simulation) therefore happens
     on the inner driver precisely as in the unwrapped case; the wrapper
     mirrors the same counts through its own queue for the consumer's
     delta metering.  Failures pass through untouched, so a degraded
     outcome reaches the consumer with the inner driver's attempt count. *)
  let premap ~into ~back inner =
    Probe_driver.create_outcomes ~batch_size:(Probe_driver.batch_size inner) (fun items ->
        let n = Array.length items in
        let resolved = Array.make n None in
        Array.iteri
          (fun i a ->
            Probe_driver.submit_outcome inner (into a) (fun p -> resolved.(i) <- Some p))
          items;
        Probe_driver.flush inner;
        Array.map
          (function
            | Some (Probe_driver.Resolved p) -> Probe_driver.Resolved (back p)
            | Some (Probe_driver.Shrunk p) -> Probe_driver.Shrunk (back p)
            | Some (Probe_driver.Failed { attempts }) -> Probe_driver.Failed { attempts }
            | None -> assert false)
          resolved)
end

module Cascade_ref = struct
  let premap ~into ~back c =
    Cascade.create ~start:(Cascade.start c) ~specs:(Cascade.specs c)
      (Array.map (Probe_driver_ref.premap ~into ~back) (Cascade.drivers c))
end

module Scan_pipeline_ref = struct
  type 'o item = {
    original : 'o;
    verdict : Tvl.t;
    laxity : float;
    success : float;
  }

  let original it = it.original

  (* Mirror the sequential loop's evaluation pattern exactly: laxity only
     for YES/MAYBE, success only for MAYBE.  This keeps the number and the
     targets of instance calls identical to [Operator_ref.run]'s own (per
     consumed object), so instances that count their calls — or that are
     expensive on one axis only — behave the same under both paths. *)
  let classify_one (instance : 'o Operator_ref.instance) o =
    match instance.classify o with
    | Tvl.No as verdict -> { original = o; verdict; laxity = 0.0; success = 0.0 }
    | Tvl.Yes as verdict ->
        { original = o; verdict; laxity = instance.laxity o; success = 1.0 }
    | Tvl.Maybe as verdict ->
        {
          original = o;
          verdict;
          laxity = instance.laxity o;
          success = instance.success o;
        }

  let item_instance : 'o item Operator_ref.instance =
    {
      classify = (fun it -> it.verdict);
      laxity = (fun it -> it.laxity);
      success = (fun it -> it.success);
    }

  let source ?obs ?(block = 4096) ~lanes ~(instance : 'o Operator_ref.instance) data =
    if block < 1 then invalid_arg "Scan_pipeline.source: block < 1";
    let n = Array.length data in
    let m_chunks =
      Option.map (fun o -> Obs.counter o Obs.Keys.parallel_chunks) obs
    in
    let buf = ref [||] in
    let buf_pos = ref 0 in
    let frontier = ref 0 in
    let rec next () =
      if !buf_pos < Array.length !buf then begin
        let it = (!buf).(!buf_pos) in
        incr buf_pos;
        Some it
      end
      else if !frontier >= n then None
      else begin
        let lo = !frontier in
        let len = Stdlib.min block (n - lo) in
        frontier := lo + len;
        let slice = Array.sub data lo len in
        buf := Domain_pool.map ~lanes (classify_one instance) slice;
        buf_pos := 0;
        (match m_chunks with Some c -> Metrics.incr c | None -> ());
        next ()
      end
    in
    { Operator_ref.next; total = n }

  let strip_report (r : 'o item Operator_ref.report) : 'o Operator_ref.report =
    {
      Operator_ref.answer =
        List.map
          (fun (e : 'o item Operator_ref.emitted) ->
            { Operator_ref.obj = e.obj.original; precise = e.precise })
          r.answer;
      guarantees = r.guarantees;
      requirements = r.requirements;
      counts = r.counts;
      yes_seen = r.yes_seen;
      maybe_ignored = r.maybe_ignored;
      answer_size = r.answer_size;
      exhausted = r.exhausted;
      stopped_early = r.stopped_early;
      degraded = r.degraded;
    }

  (* The decision loop over pre-classified items: probes go through the
     premapped cascade (re-classifying probed objects with [instance] on
     the way back), and emissions and the report are re-expressed over the
     original objects. *)
  let run_items ~rng ?meter ?obs ?emit ?collect ?enforce ?should_stop ~instance
      ~cascade ~policy ~requirements src =
    let cascade' =
      Cascade_ref.premap ~into:original ~back:(classify_one instance) cascade
    in
    let emit' =
      Option.map
        (fun f (e : _ item Operator_ref.emitted) ->
          f { Operator_ref.obj = e.obj.original; precise = e.precise })
        emit
    in
    strip_report
      (Operator_ref.run ~rng ?meter ?obs ?emit:emit' ?collect ?enforce ?should_stop
         ~instance:item_instance ~cascade:cascade' ~policy ~requirements src)
end

module Column_scan_ref = struct
  let source ?obs ?(wave = 16) ?lanes ?(prune = false) ~store ~of_row ~pred () =
    if wave < 1 then invalid_arg "Column_scan.source: wave < 1";
    let chunk_count = Column_store.chunk_count store in
    let surviving =
      if not prune then Array.init chunk_count (fun c -> c)
      else begin
        let keep = ref [] in
        let p = Predicate.source pred in
        for c = chunk_count - 1 downto 0 do
          if not (Column_store.prunable store p c) then keep := c :: !keep
        done;
        Array.of_list !keep
      end
    in
    (match obs with
    | Some o when prune ->
        Metrics.add
          (Obs.counter o Obs.Keys.pruned_pages)
          (chunk_count - Array.length surviving)
    | _ -> ());
    let total =
      Array.fold_left
        (fun acc c -> acc + snd (Column_store.chunk_bounds store c))
        0 surviving
    in
    let m_waves =
      Option.map (fun o -> Obs.counter o Obs.Keys.parallel_chunks) obs
    in
    let cs = Column_store.chunk_size store in
    (* Wave buffers, reused: the consumer drains a wave completely before
       the next is dispatched, so one allocation serves the whole scan. *)
    let cap = wave * cs in
    let verdicts = Bytes.create cap in
    let laxities = Array.make cap 0.0 in
    let successes = Array.make cap 0.0 in
    let chunks = ref [||] in
    (* chunks of the current wave *)
    let chunk_pos = ref 0 in
    (* index into [!chunks] *)
    let row_pos = ref 0 in
    (* row within the current chunk *)
    let frontier = ref 0 in
    (* index into [surviving] *)
    let dispatch () =
      let lo = !frontier in
      let len = Stdlib.min wave (Array.length surviving - lo) in
      frontier := lo + len;
      (* Chunk fetches stay on the caller's lane: a streamed store may do
         file io through a buffer pool, neither of which is domain-safe. *)
      let wave_chunks =
        Array.init len (fun k -> Column_store.chunk store surviving.(lo + k))
      in
      let tasks =
        Array.mapi
          (fun k ch () ->
            Predicate.classify_column pred ~lo:ch.Column_store.lo
              ~hi:ch.Column_store.hi ~len:ch.Column_store.len ~off:(k * cs)
              ~verdicts ~laxities ~successes)
          wave_chunks
      in
      (* Each task writes a disjoint buffer slice indexed by its wave
         position, so the result is scheduling-independent. *)
      (match lanes with
      | Some l when l > 1 -> ignore (Domain_pool.run ~lanes:l tasks)
      | _ -> Array.iter (fun task -> task ()) tasks);
      (match m_waves with Some c -> Metrics.incr c | None -> ());
      chunks := wave_chunks;
      chunk_pos := 0;
      row_pos := 0
    in
    let rec next () =
      if !chunk_pos < Array.length !chunks then begin
        let ch = (!chunks).(!chunk_pos) in
        if !row_pos >= ch.Column_store.len then begin
          incr chunk_pos;
          row_pos := 0;
          next ()
        end
        else begin
          let i = !row_pos in
          incr row_pos;
          let off = (!chunk_pos * cs) + i in
          Some
            {
              Scan_pipeline_ref.original = of_row (Column_store.row ch i);
              verdict = Tvl.of_char (Bytes.unsafe_get verdicts off);
              laxity = Array.unsafe_get laxities off;
              success = Array.unsafe_get successes off;
            }
        end
      end
      else if !frontier >= Array.length surviving then None
      else begin
        dispatch ();
        next ()
      end
    in
    { Operator_ref.next; total }
end
