type record = {
  id : int;
  belief : Uncertain.t;
  truth : float;
}

(* The predicate is compiled once per instance: exact and interval
   beliefs go through the compiled [_bounds] entry points, which are
   bit-for-bit [Predicate.classify]/[success] on those beliefs without
   rebuilding the satisfying set per call.  Gaussian beliefs keep the
   general functions. *)
let instance pred : record Operator.instance =
  let compiled = Predicate.compile pred in
  let on_support flat general r =
    match r.belief with
    | Uncertain.Exact x -> flat compiled ~lo:x ~hi:x
    | Uncertain.Interval i -> flat compiled ~lo:(Interval.lo i) ~hi:(Interval.hi i)
    | Uncertain.Gaussian _ -> general pred r.belief
  in
  {
    classify = on_support Predicate.classify_bounds Predicate.classify;
    laxity = (fun r -> Uncertain.laxity r.belief);
    success = on_support Predicate.success_bounds Predicate.success;
  }

let probe r = { r with belief = Uncertain.exact r.truth }

(* A proxy-tier narrowing: contract the belief interval towards the
   truth, keeping fraction [1 - power] of the distance to each bound.
   The shrunk interval is a subset of the original and still contains
   the truth — a sound imprecise model — so Theorem 3.1 survives
   re-classification; [power = 1] collapses to the exact truth.  Exact
   beliefs are already points and pass through unchanged. *)
let shrink ~power r =
  if not (Float.is_finite power && power >= 0.0 && power <= 1.0) then
    invalid_arg "Interval_data.shrink: power outside [0, 1]";
  match r.belief with
  | Uncertain.Exact _ -> r
  | Uncertain.Interval i ->
      let keep = 1.0 -. power in
      let lo = r.truth -. (keep *. (r.truth -. Interval.lo i))
      and hi = r.truth +. (keep *. (Interval.hi i -. r.truth)) in
      let belief =
        if lo = hi then Uncertain.exact r.truth else Uncertain.interval lo hi
      in
      { r with belief }
  | Uncertain.Gaussian _ ->
      invalid_arg "Interval_data.shrink: gaussian beliefs have no interval shrink"

(* Flat columnar form: the belief support as two floats.  Same encoding
   decision as the CSV codec — a degenerate support round-trips to an
   [Exact] belief — so a record survives record -> row -> record
   whenever it came from the flat schema in the first place. *)
let to_row (r : record) : Column_store.row =
  match r.belief with
  | Uncertain.Exact v -> { Column_store.id = r.id; lo = v; hi = v; truth = r.truth }
  | Uncertain.Interval i ->
      { Column_store.id = r.id; lo = Interval.lo i; hi = Interval.hi i; truth = r.truth }
  | Uncertain.Gaussian _ ->
      invalid_arg "Interval_data.to_row: gaussian beliefs have no flat columnar form"

let of_bounds ~id ~lo ~hi ~truth =
  {
    id;
    belief = (if lo = hi then Uncertain.exact lo else Uncertain.interval lo hi);
    truth;
  }

let of_row (row : Column_store.row) : record =
  of_bounds ~id:row.Column_store.id ~lo:row.Column_store.lo
    ~hi:row.Column_store.hi ~truth:row.Column_store.truth

let to_store ?chunk_size records =
  Column_store.create ?chunk_size (Array.map to_row records)

(* One fetch per chunk, in storage order; each record is built straight
   from the chunk's columns, with no [Column_store.row] in between. *)
let of_store store =
  let out =
    Array.make (Column_store.length store)
      { id = 0; belief = Uncertain.exact 0.0; truth = 0.0 }
  in
  let pos = ref 0 in
  for c = 0 to Column_store.chunk_count store - 1 do
    let ch = Column_store.chunk store c in
    for i = 0 to ch.Column_store.len - 1 do
      out.(!pos) <-
        of_bounds ~id:ch.Column_store.ids.(i)
          ~lo:(Bigarray.Array1.get ch.Column_store.lo i)
          ~hi:(Bigarray.Array1.get ch.Column_store.hi i)
          ~truth:(Bigarray.Array1.get ch.Column_store.truth i);
      incr pos
    done
  done;
  out

let in_exact pred r = Predicate.eval pred r.truth

let exact_size pred records =
  Array.fold_left (fun acc r -> if in_exact pred r then acc + 1 else acc) 0 records

let uniform_intervals rng ~n ~value_range ~max_width =
  if n < 0 then invalid_arg "Interval_data.uniform_intervals: n < 0";
  if max_width <= 0.0 then
    invalid_arg "Interval_data.uniform_intervals: max_width <= 0";
  Array.init n (fun id ->
      let truth = Interval.sample rng value_range in
      let width = Rng.float rng max_width in
      (* Slide the interval uniformly around the truth so that, given the
         interval, the truth is uniform within it. *)
      let offset = Rng.float rng width in
      let belief = Uncertain.interval (truth -. offset) (truth -. offset +. width) in
      { id; belief; truth })

let gaussian_beliefs rng ~n ~mean ~stddev ~noise =
  if n < 0 then invalid_arg "Interval_data.gaussian_beliefs: n < 0";
  if stddev <= 0.0 || noise <= 0.0 then
    invalid_arg "Interval_data.gaussian_beliefs: non-positive scale";
  Array.init n (fun id ->
      let truth = Rng.gaussian rng ~mean ~stddev in
      let rec belief () =
        let observed = Rng.gaussian rng ~mean:truth ~stddev:noise in
        let b = Uncertain.gaussian ~mean:observed ~stddev:noise () in
        if Interval.contains (Uncertain.support b) truth then b else belief ()
      in
      { id; belief = belief (); truth })
