type pair = { left : Interval_data.record; right : Interval_data.record }

let supports p =
  (Uncertain.support p.left.Interval_data.belief,
   Uncertain.support p.right.Interval_data.belief)

let instance ~epsilon : pair Operator.instance =
  {
    classify =
      (fun p ->
        let l, r = supports p in
        Pair_distance.classify ~epsilon l r);
    laxity =
      (fun p ->
        let l, r = supports p in
        Interval.width (Pair_distance.distance_interval l r));
    success =
      (fun p ->
        let l, r = supports p in
        Pair_distance.success ~epsilon l r);
  }

let in_exact ~epsilon p =
  Float.abs (p.left.Interval_data.truth -. p.right.Interval_data.truth)
  <= epsilon

let exact_size ~epsilon left right =
  let n = ref 0 in
  Array.iter
    (fun l ->
      Array.iter (fun r -> if in_exact ~epsilon { left = l; right = r } then incr n) right)
    left;
  !n

type report = {
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

(* Probe cache: the cross-query {!Probe_broker}, keyed per (side, record
   id), with the join as its only tenant.  With sharing, the broker's
   infinite freshness window makes each object a backend fetch — and a
   charge — at most once, however many pairs it appears in; a zero
   window reproduces the unshared (re-fetch every request) accounting.
   The broker's own [requests]/[charged] statistics are the join's
   [probe_requests]/[object_probes], and [charged] is its probe count.
   With sharing, [fetched] holds the side keys fetched so far — the
   broker's fresh set, which the cursor reads twice per pair, kept here
   so that reading it takes neither the broker's lock nor its clock. *)
type cache = {
  broker : (bool * Interval_data.record) Probe_broker.t;
  fetched : (int, unit) Hashtbl.t option;
      (* None: re-fetch (and re-charge) on every request *)
}

let side_key ~is_left id = (id lsl 1) lor (if is_left then 1 else 0)

let make_cache ~share =
  let fetched = if share then Some (Hashtbl.create 64) else None in
  let key (is_left, r) = side_key ~is_left r.Interval_data.id in
  let broker =
    Probe_broker.create
      ~freshness:(if share then infinity else 0.0)
      ~key
      [|
        Probe_broker.backend ~batch:1
          (Array.map (fun ((is_left, r) as o) ->
               Option.iter (fun f -> Hashtbl.replace f (key o) ()) fetched;
               Probe_driver.Resolved (is_left, Interval_data.probe r)));
      |]
  in
  { broker; fetched }

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

(* Whether a side's current belief is its probed value, given the
   cache: pairs are generated from the base relations, so a record
   probed through an earlier pair must be seen as resolved here too.
   Without sharing, nothing carries over — each pair starts from the
   stored beliefs. *)
let resolved cache ~is_left (r : Interval_data.record) =
  match cache.fetched with
  | None -> false
  | Some fetched ->
      Uncertain.laxity r.belief = 0.0
      || Hashtbl.mem fetched (side_key ~is_left r.id)

(* A Probe decision resolves the pair: wider side first (the more
   informative fetch).  If that already settles the verdict to NO the
   second probe is saved — the pair is discarded, so its residual
   laxity is irrelevant.  Otherwise the other side is resolved too,
   because an emitted probed pair must have laxity 0.  [base] is the
   pair as stored in the relations, so cache hits count as requests. *)
let probe_pair cache ~epsilon base =
  let width r = Uncertain.laxity r.Interval_data.belief in
  let resolve_left p =
    { p with left = resolve_record cache ~is_left:true p.left }
  in
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

(* The pair space as an operator cursor, in block nested-loop order.
   [advance] steps (i, j) and looks the two sides up in the cache once;
   the verdict, laxity and success are those [instance] gives the
   refreshed pair, computed from its two supports, so a pair record is
   built only when [current] is asked to forward or probe it.  [stored]
   is the pair under the cursor as the relations hold it. *)
let pair_cursor cache ~epsilon ~left ~right =
  let n_right = Array.length right in
  let total = Array.length left * n_right in
  let pos = ref (-1) in
  let left_at () = left.(!pos / n_right)
  and right_at () = right.(!pos mod n_right) in
  let stored () = { left = left_at (); right = right_at () } in
  let refresh probed r = if probed then Interval_data.probe r else r in
  let support probed r = Uncertain.support (refresh probed r).belief in
  let l_resolved = ref false and r_resolved = ref false in
  let l = ref (Interval.point 0.0) and r = ref (Interval.point 0.0) in
  let source : pair Operator.source =
    {
      total;
      advance =
        (fun () ->
          incr pos;
          !pos < total
          && begin
               l_resolved := resolved cache ~is_left:true (left_at ());
               r_resolved := resolved cache ~is_left:false (right_at ());
               l := support !l_resolved (left_at ());
               r := support !r_resolved (right_at ());
               true
             end);
      verdict = (fun _ -> Pair_distance.classify ~epsilon !l !r);
      laxity =
        (fun _ -> Interval.width (Pair_distance.distance_interval !l !r));
      success = (fun _ -> Pair_distance.success ~epsilon !l !r);
      current =
        (fun () ->
          {
            left = refresh !l_resolved (left_at ());
            right = refresh !r_resolved (right_at ());
          });
    }
  in
  (source, stored)

let run ~rng ?collect ?(share_probes = true) ?(policy = Policy.stingy)
    ~(requirements : Quality.requirements) ~epsilon ~left ~right () =
  if not (epsilon >= 0.0) then invalid_arg "Band_join.run: epsilon < 0";
  let cache = make_cache ~share:share_probes in
  let source, stored = pair_cursor cache ~epsilon ~left ~right in
  (* The operator submits the refreshed pair, but the probe must resolve
     the stored one: its side widths order the fetches, and a broker hit
     on a stored-imprecise side still counts as a request.  The scalar
     driver resolves at submission, before the operator advances, so
     [stored ()] is still the pair being probed; a batching driver,
     which resolves later, would break this. *)
  let cascade =
    Cascade.of_driver
      (Probe_driver.scalar (fun (_ : pair) ->
           probe_pair cache ~epsilon (stored ())))
  in
  let report =
    Operator.run ~rng ?collect ~instance:(instance ~epsilon) ~cascade
      ~policy ~requirements source
  in
  let broker = Probe_broker.stats cache.broker in
  {
    answer = report.answer;
    guarantees = report.guarantees;
    requirements;
    (* The operator meters one probe and one batch per probed pair; the
       cost-bearing probes are the object fetches the broker charged,
       and the join prices no batch setup. *)
    counts = { report.counts with probes = broker.charged; batches = 0 };
    pairs_total = source.total;
    object_probes = broker.charged;
    probe_requests = broker.requests;
    answer_size = report.answer_size;
    exhausted = report.exhausted;
  }

let cost model report = Cost_meter.cost_of_counts model report.counts
