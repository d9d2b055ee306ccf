type t = {
  mutable unseen : int;
  mutable yes_seen : int;
  mutable answer_yes : int;
  mutable answer_size : int;
  mutable maybe_ignored : int;
  mutable max_laxity : float;
}

let create ~total =
  if total < 0 then invalid_arg "Counters.create: total < 0";
  {
    unseen = total;
    yes_seen = 0;
    answer_yes = 0;
    answer_size = 0;
    maybe_ignored = 0;
    max_laxity = 0.0;
  }

let copy t =
  {
    unseen = t.unseen;
    yes_seen = t.yes_seen;
    answer_yes = t.answer_yes;
    answer_size = t.answer_size;
    maybe_ignored = t.maybe_ignored;
    max_laxity = t.max_laxity;
  }

(* Every event consumes exactly one input object. *)
let consume t =
  assert (t.unseen > 0);
  t.unseen <- t.unseen - 1

let note_forward t laxity =
  t.answer_size <- t.answer_size + 1;
  if laxity > t.max_laxity then t.max_laxity <- laxity

let saw_no t = consume t

let forward_yes t ~laxity =
  consume t;
  t.yes_seen <- t.yes_seen + 1;
  t.answer_yes <- t.answer_yes + 1;
  note_forward t laxity

let probe_yes t =
  consume t;
  t.yes_seen <- t.yes_seen + 1;
  t.answer_yes <- t.answer_yes + 1;
  note_forward t 0.0

let ignore_yes t =
  consume t;
  t.yes_seen <- t.yes_seen + 1

let forward_maybe t ~laxity =
  consume t;
  note_forward t laxity

let probe_maybe_yes t =
  consume t;
  t.yes_seen <- t.yes_seen + 1;
  t.answer_yes <- t.answer_yes + 1;
  note_forward t 0.0

let probe_maybe_no t = consume t

let ignore_maybe t =
  consume t;
  t.maybe_ignored <- t.maybe_ignored + 1

let unseen t = t.unseen
let yes_seen t = t.yes_seen
let answer_yes t = t.answer_yes
let answer_size t = t.answer_size
let maybe_ignored t = t.maybe_ignored

let[@inline] ratio num den = if den = 0 then 1.0 else float_of_int num /. float_of_int den

let precision_guarantee t = ratio t.answer_yes t.answer_size

let[@inline] recall_guarantee t =
  ratio t.answer_yes (t.yes_seen + t.unseen + t.maybe_ignored)

let recall_met t (requirements : Quality.requirements) =
  recall_guarantee t >= requirements.recall

let worst_case_final_recall t = ratio t.answer_yes (t.yes_seen + t.maybe_ignored)

let guarantees t : Quality.guarantees =
  {
    precision = precision_guarantee t;
    recall = recall_guarantee t;
    max_laxity = t.max_laxity;
  }
