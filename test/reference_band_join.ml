(* The band join as it stood before it ran on [Operator.run]: a verbatim
   copy of [Band_join.run] and its private helpers, the join's own
   hand-written Fig. 1 loop over the pair space.  The only edits are the
   re-exported types below, so the reference returns the library's
   [Band_join.report].  The equivalence property in [Test_join] runs the
   library's join against this one, bit for bit. *)

type pair = Band_join.pair = {
  left : Interval_data.record;
  right : Interval_data.record;
}

type report = Band_join.report = {
  answer : pair Operator.emitted list;
  guarantees : Quality.guarantees;
  requirements : Quality.requirements;
  counts : Cost_meter.counts;
  pairs_total : int;
  object_probes : int;
  probe_requests : int;
  answer_size : int;
  exhausted : bool;
}

let supports p =
  (Uncertain.support p.left.Interval_data.belief,
   Uncertain.support p.right.Interval_data.belief)

let instance = Band_join.instance

(* Probe cache: the cross-query {!Probe_broker}, keyed per (side, record
   id), with the join as its only tenant.  With sharing, the broker's
   infinite freshness window makes each object a backend fetch — and a
   meter charge — at most once, however many pairs it appears in; a zero
   window reproduces the unshared (re-fetch every request) accounting.
   The broker's own [requests]/[charged] statistics are the join's
   historical [probe_requests]/[object_probes] counters, unchanged. *)
type cache = {
  broker : (bool * Interval_data.record) Probe_broker.t;
  share : bool;  (* false: re-fetch (and re-charge) on every request *)
}

let side_key ~is_left id = (id lsl 1) lor (if is_left then 1 else 0)

let make_cache ~meter ~share =
  let broker =
    Probe_broker.create
      ~freshness:(if share then infinity else 0.0)
      ~key:(fun (is_left, r) -> side_key ~is_left r.Interval_data.id)
      [|
        Probe_broker.backend ~batch:1
          (Array.map (fun (is_left, r) ->
               Cost_meter.charge_probe meter;
               Probe_driver.Resolved (is_left, Interval_data.probe r)));
      |]
  in
  { broker; share }

(* Resolve one side of a pair.  [r] must be the record as stored in the
   base relation: a record that is imprecise there counts as a probe
   request even when the broker already holds it fresh (that is
   precisely the saving being measured); only a backend fetch is
   charged. *)
let resolve_record cache ~is_left (r : Interval_data.record) =
  if Uncertain.laxity r.Interval_data.belief = 0.0 then r
  else
    match Probe_broker.fetch cache.broker (is_left, r) with
    | Probe_driver.Resolved (_, precise) -> precise
    | Probe_driver.Shrunk _ ->
        (* the single-tier resolver above only ever resolves to points *)
        assert false
    | Probe_driver.Failed _ ->
        (* the in-process resolver above never fails, and the broker has
           no capacity bound or breaker to refuse it *)
        assert false

let is_resolved cache ~is_left (r : Interval_data.record) =
  Uncertain.laxity r.Interval_data.belief = 0.0
  || Probe_broker.is_fresh cache.broker (side_key ~is_left r.Interval_data.id)

(* The current belief of a side, given the cache: pairs are generated
   from the base relations, so a record probed through an earlier pair
   must be seen as resolved here too.  Without sharing, nothing carries
   over — each pair starts from the stored beliefs. *)
let refresh cache p =
  if not cache.share then p
  else begin
    let left =
      if is_resolved cache ~is_left:true p.left then
        Interval_data.probe p.left
      else p.left
    in
    let right =
      if is_resolved cache ~is_left:false p.right then
        Interval_data.probe p.right
      else p.right
    in
    { left; right }
  end

let run ~rng ?meter ?emit ?(collect = true) ?(enforce = true)
    ?(share_probes = true) ?(policy = Policy.stingy)
    ~(requirements : Quality.requirements) ~epsilon ~left ~right () =
  if epsilon < 0.0 then invalid_arg "Band_join.run: epsilon < 0";
  let meter = match meter with Some m -> m | None -> Cost_meter.create () in
  let counts_before = Cost_meter.counts meter in
  let pairs_total = Array.length left * Array.length right in
  let counters = Counters.create ~total:pairs_total in
  let cache = make_cache ~meter ~share:share_probes in
  let inst = instance ~epsilon in
  let answer = ref [] in
  let deliver entry =
    (match emit with Some f -> f entry | None -> ());
    if collect then answer := entry :: !answer
  in
  let forward_imprecise p =
    Cost_meter.charge_write_imprecise meter;
    deliver { Operator.obj = p; precise = false }
  in
  let forward_precise p =
    Cost_meter.charge_write_precise meter;
    deliver { Operator.obj = p; precise = true }
  in
  (* A Probe decision resolves the pair: wider side first (the more
     informative fetch).  If that already settles the verdict to NO the
     second probe is saved — the pair is discarded, so its residual
     laxity is irrelevant.  Otherwise the other side is resolved too,
     because an emitted probed pair must have laxity 0.  [base] is the
     pair as stored in the relations, so cache hits count as requests. *)
  let probe_pair base =
    let width r = Uncertain.laxity r.Interval_data.belief in
    let resolve_left p = { p with left = resolve_record cache ~is_left:true p.left } in
    let resolve_right p =
      { p with right = resolve_record cache ~is_left:false p.right }
    in
    let first, second =
      if width base.left >= width base.right then (resolve_left, resolve_right)
      else (resolve_right, resolve_left)
    in
    let p = first base in
    let l, r = supports p in
    match Pair_distance.classify ~epsilon l r with
    | Tvl.No -> p
    | Tvl.Yes | Tvl.Maybe -> second p
  in
  let choose ~verdict ~laxity preference =
    if enforce then
      Decision.first_feasible counters requirements ~verdict ~laxity ~preference
    else
      match preference with a :: _ -> a | [] -> Decision.Probe
  in
  let finished () = Counters.recall_guarantee counters >= requirements.recall in
  let n_right = Array.length right in
  let pos = ref 0 in
  while !pos < pairs_total && not (finished ()) do
    let base =
      { left = left.(!pos / n_right); right = right.(!pos mod n_right) }
    in
    let p = refresh cache base in
    incr pos;
    Cost_meter.charge_read meter;
    (match inst.classify p with
    | Tvl.No -> Counters.saw_no counters
    | Tvl.Yes as verdict -> (
        let laxity = inst.laxity p in
        let preference =
          Policy.preference policy ~rng ~requirements ~counters ~verdict
            ~laxity ~success:1.0
        in
        match choose ~verdict ~laxity preference with
        | Decision.Forward ->
            Counters.forward_yes counters ~laxity;
            forward_imprecise p
        | Decision.Probe ->
            let resolved = probe_pair base in
            Counters.probe_yes counters;
            forward_precise resolved
        | Decision.Ignore -> Counters.ignore_yes counters)
    | Tvl.Maybe as verdict -> (
        let laxity = inst.laxity p in
        let success = inst.success p in
        let preference =
          Policy.preference policy ~rng ~requirements ~counters ~verdict
            ~laxity ~success
        in
        match choose ~verdict ~laxity preference with
        | Decision.Forward ->
            Counters.forward_maybe counters ~laxity;
            forward_imprecise p
        | Decision.Probe -> (
            let resolved = probe_pair base in
            match inst.classify resolved with
            | Tvl.Yes ->
                Counters.probe_maybe_yes counters;
                forward_precise resolved
            | Tvl.No -> Counters.probe_maybe_no counters
            | Tvl.Maybe -> raise Operator.Inconsistent_probe)
        | Decision.Ignore -> Counters.ignore_maybe counters))
  done;
  let counts_after = Cost_meter.counts meter in
  {
    answer = List.rev !answer;
    guarantees = Counters.guarantees counters;
    requirements;
    counts =
      {
        Cost_meter.reads = counts_after.reads - counts_before.reads;
        probes = counts_after.probes - counts_before.probes;
        batches = counts_after.batches - counts_before.batches;
        writes_imprecise =
          counts_after.writes_imprecise - counts_before.writes_imprecise;
        writes_precise =
          counts_after.writes_precise - counts_before.writes_precise;
      };
    pairs_total;
    object_probes = (Probe_broker.stats cache.broker).charged;
    probe_requests = (Probe_broker.stats cache.broker).requests;
    answer_size = Counters.answer_size counters;
    exhausted = !pos >= pairs_total;
  }

