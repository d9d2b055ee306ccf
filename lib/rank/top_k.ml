(* Tie order: record a beats record b when value(a) > value(b), or the
   values are equal and a's id is smaller.  Encoding a value-id pair as
   (value, -id) makes "a can end above b" a strict lexicographic
   comparison, so beater counts reduce to binary searches over sorted
   (value, -id) arrays. *)

let support (r : Interval_data.record) = Uncertain.support r.belief

let compare_key (v1, negid1) (v2, negid2) =
  let c = Float.compare v1 v2 in
  if c <> 0 then c else Int.compare negid1 negid2

(* Index of the first element strictly greater than [key]. *)
let upper_bound sorted key =
  let n = Array.length sorted in
  let rec search lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if compare_key sorted.(mid) key <= 0 then search (mid + 1) hi
      else search lo mid
    end
  in
  search 0 n

let classify ~k records =
  let n = Array.length records in
  if k <= 0 || k > n then invalid_arg "Top_k.classify: k out of range";
  let key_of value (r : Interval_data.record) = (value, -r.id) in
  let his =
    Array.map (fun r -> key_of (Interval.hi (support r)) r) records
  in
  let los =
    Array.map (fun r -> key_of (Interval.lo (support r)) r) records
  in
  Array.sort compare_key his;
  Array.sort compare_key los;
  Array.map
    (fun (r : Interval_data.record) ->
      let s = support r in
      let lo = Interval.lo s and hi = Interval.hi s in
      (* Others that could end above r: hi' beats r's minimum. *)
      let can_beat =
        n - upper_bound his (key_of lo r)
        - (if hi > lo then 1 else 0 (* r itself, when imprecise *))
      in
      (* Others certainly above r: lo' beats r's maximum. *)
      let must_beat = n - upper_bound los (key_of hi r) in
      if can_beat < k then Tvl.Yes
      else if must_beat >= k then Tvl.No
      else Tvl.Maybe)
    records

type verdict_counts = { certain : int; impossible : int; open_ : int }

let verdict_counts verdicts =
  Array.fold_left
    (fun acc v ->
      match (v : Tvl.t) with
      | Tvl.Yes -> { acc with certain = acc.certain + 1 }
      | Tvl.No -> { acc with impossible = acc.impossible + 1 }
      | Tvl.Maybe -> { acc with open_ = acc.open_ + 1 })
    { certain = 0; impossible = 0; open_ = 0 }
    verdicts

let exact_top_k ~k records =
  let n = Array.length records in
  if k <= 0 || k > n then invalid_arg "Top_k.exact_top_k: k out of range";
  let sorted = Array.copy records in
  Array.sort
    (fun (a : Interval_data.record) b ->
      let c = Float.compare b.truth a.truth in
      if c <> 0 then c else Int.compare a.id b.id)
    sorted;
  Array.to_list (Array.sub sorted 0 k)

type report = {
  answer : Interval_data.record list;
  guarantees : Quality.guarantees;
  requirements : Quality.requirements;
  counts : Cost_meter.counts;
  k : int;
  certified : int;
  exhausted : bool;
}

(* The k-th largest element of an unsorted float array (1-based k). *)
let kth_largest values k =
  let sorted = Array.copy values in
  Array.sort (fun a b -> Float.compare b a) sorted;
  sorted.(k - 1)

let run ~(requirements : Quality.requirements) ~k records =
  let n = Array.length records in
  if k <= 0 || k > n then invalid_arg "Top_k.run: k out of range";
  let meter = Cost_meter.create () in
  (* Rank needs every record's bounds: one read each. *)
  for _ = 1 to n do
    Cost_meter.charge_read meter
  done;
  let current = Array.copy records in
  let width i = Interval.width (support current.(i)) in
  let probe i =
    Cost_meter.charge_probe meter;
    current.(i) <- Interval_data.probe current.(i)
  in
  (* Members to emit: the smallest count whose guaranteed recall
     (emitted / k) meets the bound. *)
  let needed =
    int_of_float (Float.ceil ((requirements.recall *. float_of_int k) -. 1e-12))
  in
  let rec certify () =
    let verdicts = classify ~k current in
    let certified =
      Array.fold_left
        (fun acc v -> if Tvl.equal v Tvl.Yes then acc + 1 else acc)
        0 verdicts
    in
    if certified >= needed then (verdicts, certified)
    else begin
      (* Probe schedule: widest unresolved support intersecting the
         k-th-rank boundary band [k-th largest lo, k-th largest hi];
         any widest unresolved record if none intersects. *)
      let band_lo = kth_largest (Array.map (fun r -> Interval.lo (support r)) current) k in
      let band_hi = kth_largest (Array.map (fun r -> Interval.hi (support r)) current) k in
      let best = ref None in
      let consider i in_band =
        let w = width i in
        if w > 0.0 then
          match !best with
          | Some (_, best_band, best_w) ->
              if (in_band && not best_band) || (in_band = best_band && w > best_w)
              then best := Some (i, in_band, w)
          | None -> best := Some (i, in_band, w)
      in
      Array.iteri
        (fun i r ->
          let s = support r in
          let in_band =
            Interval.hi s >= band_lo && Interval.lo s <= band_hi
          in
          consider i in_band)
        current;
      match !best with
      | Some (i, _, _) ->
          probe i;
          certify ()
      | None ->
          (* Everything resolved: the tie order is total, so exactly k
             records are certified and the recall target (<= k) holds. *)
          (verdicts, certified)
    end
  in
  let verdicts, certified = certify () in
  (* Assemble the answer: [needed] certified members, preferring those
     already inside the laxity bound (emitting them is free); the rest
     are probed to laxity 0 before emission. *)
  let certified_indices = ref [] in
  Array.iteri
    (fun i v -> if Tvl.equal v Tvl.Yes then certified_indices := i :: !certified_indices)
    verdicts;
  let within, beyond =
    List.partition
      (fun i ->
        Uncertain.laxity current.(i).Interval_data.belief <= requirements.laxity)
      (List.rev !certified_indices)
  in
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  let chosen_within = take needed within in
  let chosen_beyond = take (needed - List.length chosen_within) beyond in
  List.iter probe chosen_beyond;
  let answer =
    List.map (fun i -> current.(i)) (chosen_within @ chosen_beyond)
    |> List.sort (fun (a : Interval_data.record) b ->
           let c =
             Float.compare (Interval.hi (support b)) (Interval.hi (support a))
           in
           if c <> 0 then c else Int.compare a.id b.id)
  in
  List.iter
    (fun (r : Interval_data.record) ->
      if Uncertain.laxity r.belief = 0.0 then
        Cost_meter.charge_write_precise meter
      else Cost_meter.charge_write_imprecise meter)
    answer;
  let max_laxity =
    List.fold_left
      (fun acc (r : Interval_data.record) ->
        Float.max acc (Uncertain.laxity r.belief))
      0.0 answer
  in
  {
    answer;
    guarantees =
      {
        Quality.precision = 1.0;
        recall = float_of_int (List.length answer) /. float_of_int k;
        max_laxity;
      };
    requirements;
    counts = Cost_meter.counts meter;
    k;
    certified;
    exhausted = Array.for_all (fun i -> width i = 0.0) (Array.init n Fun.id);
  }
