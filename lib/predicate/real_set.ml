(* Representation invariant: components sorted by lower bound, pairwise
   disjoint and non-touching (gaps have positive length), each with
   lo <= hi and no NaN.  [normalize] (re)establishes the invariant. *)

type t = (float * float) list

let check_bounds lo hi =
  if Float.is_nan lo || Float.is_nan hi then
    invalid_arg "Real_set: NaN bound";
  if lo > hi then invalid_arg "Real_set: lo > hi"

let segment lo hi =
  check_bounds lo hi;
  [ (lo, hi) ]

let at_least x = segment x infinity
let at_most x = segment neg_infinity x

let normalize components =
  let sorted =
    List.sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (List.filter (fun (lo, hi) -> lo <= hi) components)
  in
  let rec merge = function
    | [] -> []
    | [ c ] -> [ c ]
    | (lo1, hi1) :: (lo2, hi2) :: rest ->
        if lo2 <= hi1 then merge ((lo1, Float.max hi1 hi2) :: rest)
        else (lo1, hi1) :: merge ((lo2, hi2) :: rest)
  in
  merge sorted

let union a b = normalize (a @ b)

let inter a b =
  let overlap (lo1, hi1) (lo2, hi2) =
    let lo = Float.max lo1 lo2 and hi = Float.min hi1 hi2 in
    if lo <= hi then Some (lo, hi) else None
  in
  let pieces =
    List.concat_map (fun ca -> List.filter_map (overlap ca) b) a
  in
  normalize pieces

(* Sweep the gaps between consecutive components.  Closed complements of
   closed sets overlap at single points, which is the documented
   closed-endpoint approximation. *)
let complement t =
  let rec walk lower = function
    | [] -> if lower < infinity then [ (lower, infinity) ] else []
    | (lo, hi) :: rest ->
        let before = if lower < lo then [ (lower, lo) ] else [] in
        before @ walk hi rest
  in
  normalize (walk neg_infinity t)

let mem t x = List.exists (fun (lo, hi) -> lo <= x && x <= hi) t

let covers t i =
  let lo = Interval.lo i and hi = Interval.hi i in
  List.exists (fun (clo, chi) -> clo <= lo && hi <= chi) t

let disjoint t i =
  let lo = Interval.lo i and hi = Interval.hi i in
  not (List.exists (fun (clo, chi) -> clo <= hi && lo <= chi) t)

let components t = t

let measure_within t i =
  let lo = Interval.lo i and hi = Interval.hi i in
  List.fold_left
    (fun acc (clo, chi) ->
      let l = Float.max clo lo and h = Float.min chi hi in
      if l < h then acc +. (h -. l) else acc)
    0.0 t
