type estimate = {
  f_y : float;
  f_m : float;
  max_laxity : float;
  sample_size : int;
  yes_laxity : Histogram.Hist1d.t;
  maybe_plane : Histogram.Hist2d.t;
}

(* [Float.max] bit for bit, with no C call unless an argument is NaN
   (DESIGN §4, "Planner kernel"): a running maximum ties on every row
   once it stops growing. *)
let[@inline] fmax x y =
  if x < y then y
  else if y < x then x
  else if x = y then if 1.0 /. x < 0.0 then y else x
  else Float.max x y

(* Histogram resolution, per axis. *)
let bins = 20

let estimate ~(instance : 'o Operator.instance) ?on_task ?(lanes = 1)
    ?laxity_cap sample =
  let n = Array.length sample in
  if n = 0 then invalid_arg "Selectivity.estimate: empty sample";
  (* Per-object evaluation is pure, so it may fan out across domains; the
     histogram accumulation below stays sequential in sample order because
     float summation is not associative — this keeps the parallel estimate
     bit-for-bit equal to the sequential one. *)
  let triple o =
    let v = instance.classify o in
    let l = instance.laxity o in
    let s = match v with Tvl.Maybe -> instance.success o | _ -> 0.0 in
    (v, l, s)
  in
  let triples = Domain_pool.map ?on_task ~lanes triple sample in
  let laxities = Array.map (fun (_, l, _) -> l) triples in
  let cap =
    match laxity_cap with
    | Some l ->
        if not (Float.is_finite l && l > 0.0) then
          invalid_arg "Selectivity.estimate: laxity_cap must be positive";
        l
    | None ->
        let m = ref 0.0 in
        for i = 0 to n - 1 do
          m := fmax !m laxities.(i)
        done;
        if !m > 0.0 then !m else 1.0
  in
  let yes_laxity = Histogram.Hist1d.create ~lo:0.0 ~hi:cap ~bins in
  let maybe_plane =
    Histogram.Hist2d.create ~x_lo:0.0 ~x_hi:1.0 ~x_bins:bins ~y_lo:0.0
      ~y_hi:cap ~y_bins:bins
  in
  let yes = ref 0 and maybe = ref 0 in
  Array.iter
    (fun (v, l, s) ->
      match v with
      | Tvl.Yes ->
          incr yes;
          Histogram.Hist1d.add yes_laxity l
      | Tvl.Maybe ->
          incr maybe;
          Histogram.Hist2d.add maybe_plane ~x:s ~y:l
      | Tvl.No -> ())
    triples;
  let fn = float_of_int n in
  {
    f_y = float_of_int !yes /. fn;
    f_m = float_of_int !maybe /. fn;
    max_laxity = cap;
    sample_size = n;
    yes_laxity;
    maybe_plane;
  }

let bernoulli_sample rng ~fraction objects =
  Array.map (Array.get objects)
    (Scan_pipeline.sample_indices rng ~fraction (Array.length objects))
