type item = {
  id : int;
  sketch : Paa.t;
  archive : Time_series.t;
  resolved : bool;
}

let make_item ~id ~segments series =
  { id; sketch = Paa.compress ~segments series; archive = series; resolved = false }

type query = { pattern : Time_series.t; epsilon : float }

let query ~pattern ~epsilon =
  if not (epsilon >= 0.0) then invalid_arg "Ts_query.query: epsilon < 0";
  { pattern; epsilon }

let distance_interval q item =
  if item.resolved then
    Interval.point (Time_series.euclidean_distance item.archive q.pattern)
  else Paa.distance_bounds item.sketch q.pattern

let instance q : item Operator.instance =
  {
    classify = (fun item -> Interval.classify_le (distance_interval q item) q.epsilon);
    laxity = (fun item -> Interval.width (distance_interval q item));
    success = (fun item -> Interval.success_le (distance_interval q item) q.epsilon);
  }

let probe item = { item with resolved = true }

let in_exact q item =
  Time_series.euclidean_distance item.archive q.pattern <= q.epsilon

let exact_size q items =
  Array.fold_left (fun acc i -> if in_exact q i then acc + 1 else acc) 0 items
