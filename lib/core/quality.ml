type requirements = { precision : float; recall : float; laxity : float }

let requirements ~precision ~recall ~laxity =
  let check_unit name x =
    if not (Float.is_finite x && x >= 0.0 && x <= 1.0) then
      invalid_arg (Printf.sprintf "Quality.requirements: %s outside [0, 1]" name)
  in
  check_unit "precision" precision;
  check_unit "recall" recall;
  if not (Float.is_finite laxity && laxity >= 0.0) then
    invalid_arg "Quality.requirements: laxity must be finite and >= 0";
  { precision; recall; laxity }

let pp_requirements ppf (r : requirements) =
  Format.fprintf ppf "p_q=%g r_q=%g l_q=%g" r.precision r.recall r.laxity

type guarantees = { precision : float; recall : float; max_laxity : float }

let meets (g : guarantees) (r : requirements) =
  g.precision >= r.precision && g.recall >= r.recall && g.max_laxity <= r.laxity

let pp_guarantees ppf g =
  Format.fprintf ppf "p^G=%g r^G=%g l^max=%g" g.precision g.recall g.max_laxity

module Diagnostics = struct
  let check name cond = if not cond then invalid_arg ("Quality.Diagnostics." ^ name)

  let precision ~answer_size ~answer_in_exact =
    check "precision"
      (answer_size >= 0 && answer_in_exact >= 0 && answer_in_exact <= answer_size);
    if answer_size = 0 then 1.0
    else float_of_int answer_in_exact /. float_of_int answer_size

  let recall ~exact_size ~answer_in_exact =
    check "recall"
      (exact_size >= 0 && answer_in_exact >= 0 && answer_in_exact <= exact_size);
    if exact_size = 0 then 1.0
    else float_of_int answer_in_exact /. float_of_int exact_size
end
