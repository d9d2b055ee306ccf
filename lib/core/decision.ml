type action = Forward | Probe | Ignore

let equal_action a b =
  match (a, b) with
  | Forward, Forward | Probe, Probe | Ignore, Ignore -> true
  | (Forward | Probe | Ignore), _ -> false

(* Rules (a)–(c) on the counters as they would stand after [yes] more
   probes resolved YES: each adds 1 to |A∩Y|, |A| and |Y|, so the slack
   of rule (b) grows by yes(1 − p_q) and that of rule (c) by
   yes(1 − r_q). *)
let forward_ok ~yes counters (req : Quality.requirements) ~verdict ~laxity =
  match (verdict : Tvl.t) with
  | No -> false
  | Yes -> laxity <= req.laxity
  | Maybe ->
      laxity <= req.laxity
      (* Rule (b): the post-forward precision guarantee |A∩Y| / (|A|+1)
         must not fall below p_q. *)
      && float_of_int (Counters.answer_yes counters + yes)
         >= req.precision
            *. float_of_int (Counters.answer_size counters + yes + 1)

let ignore_ok ~yes counters (req : Quality.requirements) ~verdict =
  match (verdict : Tvl.t) with
  | No -> true
  | Yes | Maybe ->
      (* Rule (c): after the ignore the worst-case final recall is
         |A∩Y| / (|Y| + |M_s−A| + 1): ignoring a YES grows |Y|, ignoring a
         MAYBE grows |M_s−A| — either way the denominator gains one. *)
      float_of_int (Counters.answer_yes counters + yes)
      >= req.recall
         *. float_of_int
              (Counters.yes_seen counters + yes
              + Counters.maybe_ignored counters + 1)

let can_forward counters req ~verdict ~laxity =
  match (verdict : Tvl.t) with
  | No -> invalid_arg "Decision.can_forward: NO objects are never forwarded"
  | Yes | Maybe -> forward_ok ~yes:0 counters req ~verdict ~laxity

let can_ignore counters req ~verdict = ignore_ok ~yes:0 counters req ~verdict

let feasible counters req ~verdict ~laxity =
  let forward =
    match (verdict : Tvl.t) with
    | No -> []
    | Yes | Maybe ->
        if can_forward counters req ~verdict ~laxity then [ Forward ] else []
  in
  let ignore_ = if can_ignore counters req ~verdict then [ Ignore ] else [] in
  forward @ [ Probe ] @ ignore_

(* A top-level loop rather than [List.find_opt] over a closure: asked
   once per YES/MAYBE read, it allocates nothing. *)
let rec first_feasible_after ~yes counters req ~verdict ~laxity ~preference =
  match preference with
  | [] -> Probe
  | a :: rest ->
      let ok =
        match a with
        | Probe -> true
        | Forward -> forward_ok ~yes counters req ~verdict ~laxity
        | Ignore -> ignore_ok ~yes counters req ~verdict
      in
      if ok then a
      else
        first_feasible_after ~yes counters req ~verdict ~laxity
          ~preference:rest

let first_feasible counters req ~verdict ~laxity ~preference =
  first_feasible_after ~yes:0 counters req ~verdict ~laxity ~preference
