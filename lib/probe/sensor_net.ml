type sensor = {
  id : int;
  tolerance : float;
  mutable value : float;
  mutable cached : Interval.t;
}

type t = {
  rng : Rng.t;
  sensors : sensor array;
  drift_stddev : float;
  mutable transmissions : int;
}

let create rng ~n ~value_range ~tolerance_range ~drift_stddev =
  if n < 0 then invalid_arg "Sensor_net.create: n < 0";
  if Interval.lo tolerance_range <= 0.0 then
    invalid_arg "Sensor_net.create: tolerances must be positive";
  if not (Float.is_finite drift_stddev && drift_stddev >= 0.0) then
    invalid_arg "Sensor_net.create: drift_stddev negative or not finite";
  let sensors =
    Array.init n (fun id ->
        let value = Interval.sample rng value_range in
        let tolerance = Interval.sample rng tolerance_range in
        {
          id;
          tolerance;
          value;
          cached = Interval.make (value -. tolerance) (value +. tolerance);
        })
  in
  { rng; sensors; drift_stddev; transmissions = 0 }

let size t = Array.length t.sensors

let step t =
  Array.iter
    (fun s ->
      s.value <- s.value +. Rng.gaussian t.rng ~mean:0.0 ~stddev:t.drift_stddev;
      if not (Interval.contains s.cached s.value) then begin
        (* Escape: the sensor transmits a re-centred interval, keeping the
           replica sound. *)
        s.cached <- Interval.make (s.value -. s.tolerance) (s.value +. s.tolerance);
        t.transmissions <- t.transmissions + 1
      end)
    t.sensors

let transmissions t = t.transmissions

type reading = {
  sensor_id : int;
  cached : Interval.t;
  current : float;
  resolved : bool;
}

let snapshot t =
  Array.map
    (fun s ->
      { sensor_id = s.id; cached = s.cached; current = s.value; resolved = false })
    t.sensors

let belief r =
  if r.resolved then Uncertain.exact r.current else Uncertain.Interval r.cached

let instance pred : reading Operator.instance =
  {
    classify = (fun r -> Predicate.classify pred (belief r));
    laxity = (fun r -> Uncertain.laxity (belief r));
    success = (fun r -> Predicate.success pred (belief r));
  }

let probe r = { r with resolved = true }
let in_exact pred r = Predicate.eval pred r.current

let exact_size pred readings =
  Array.fold_left
    (fun acc r -> if in_exact pred r then acc + 1 else acc)
    0 readings
