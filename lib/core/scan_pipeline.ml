type 'o item = {
  original : 'o;
  verdict : Tvl.t;
  laxity : float;
  success : float;
}

let original it = it.original

(* Mirror the sequential loop's evaluation pattern exactly: laxity only
   for YES/MAYBE, success only for MAYBE.  This keeps the number and the
   targets of instance calls identical to [Operator.run]'s own (per
   consumed object), so instances that count their calls — or that are
   expensive on one axis only — behave the same under both paths. *)
let classify_one (instance : 'o Operator.instance) o =
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

let item_instance : 'o item Operator.instance =
  {
    classify = (fun it -> it.verdict);
    laxity = (fun it -> it.laxity);
    success = (fun it -> it.success);
  }

let source ?obs ?(block = 4096) ~pool ~(instance : 'o Operator.instance) data =
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
      buf := Domain_pool.parallel_map pool (classify_one instance) slice;
      buf_pos := 0;
      (match m_chunks with Some c -> Metrics.incr c | None -> ());
      next ()
    end
  in
  { Operator.next; total = n }

let strip_report (r : 'o item Operator.report) : 'o Operator.report =
  {
    Operator.answer =
      List.map
        (fun (e : 'o item Operator.emitted) ->
          { Operator.obj = e.obj.original; precise = e.precise })
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
    Cascade.premap ~into:original ~back:(classify_one instance) cascade
  in
  let emit' =
    Option.map
      (fun f (e : _ item Operator.emitted) ->
        f { Operator.obj = e.obj.original; precise = e.precise })
      emit
  in
  strip_report
    (Operator.run ~rng ?meter ?obs ?emit:emit' ?collect ?enforce ?should_stop
       ~instance:item_instance ~cascade:cascade' ~policy ~requirements src)

let run ~rng ?pool ?block ?meter ?obs ?emit ?collect ?enforce ?should_stop
    ~instance ~cascade ~policy ~requirements data =
  match pool with
  | Some pool when Domain_pool.domains pool > 1 ->
      run_items ~rng ?meter ?obs ?emit ?collect ?enforce ?should_stop
        ~instance ~cascade ~policy ~requirements
        (source ?obs ?block ~pool ~instance data)
  | Some _ | None ->
      Operator.run ~rng ?meter ?obs ?emit ?collect ?enforce ?should_stop
        ~instance ~cascade ~policy ~requirements
        (Operator.source_of_array data)
