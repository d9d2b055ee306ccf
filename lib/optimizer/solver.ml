type problem = {
  total : int;
  spec : Region_model.spec;
  requirements : Quality.requirements;
  cost : Cost_model.t;
  tiers : Probe_tier.spec array;
  effective : Cost_model.t;
}

(* The objective prices each probe at the cascade's optimal strategy
   price: the expected amortized spend of starting at the best tier and
   escalating through residuals ({!Probe_tier.select}).  The batch
   surcharges are folded into that expectation, so c_b drops to 0 here.
   For the default one-tier oracle that price is the amortized
   c_p + c_b/B the evaluation plan meters.  Priced once per problem: the
   optimizer evaluates the objective thousands of times. *)
let problem ~total ~spec ~requirements ?(cost = Cost_model.paper) ?tiers () =
  if total <= 0 then invalid_arg "Solver.problem: total <= 0";
  let tiers =
    match tiers with
    | Some specs -> specs
    | None -> Probe_tier.oracle_only ~cost ~batch:1 ()
  in
  let price = (Probe_tier.select tiers).Probe_tier.price in
  let effective = { cost with Cost_model.c_p = price; c_b = 0.0 } in
  { total; spec; requirements; cost; tiers; effective }

type evaluation = {
  params : Policy.params;
  fractions : Region_model.fractions;
  feasible : bool;
  violation : float;
  reads : float;
  read_fraction : float;
  cost : float;
  normalized_cost : float;
  expected_precision : float;
}

(* Boundary optima are the norm (constraints bind at the optimum), so a
   small tolerance keeps them classified feasible under rounding. *)
let tolerance = 1e-9

let evaluate t (params : Policy.params) =
  let req = t.requirements in
  let f = Region_model.fractions t.spec ~laxity_bound:req.laxity params in
  let alpha = Region_model.answer_yes_rate f in
  let beta = Region_model.uncertainty_rate f in
  let precision = Region_model.precision_estimate f in
  let total = float_of_int t.total in
  let r_q = req.recall in
  (* With r_q = 0 nothing is read and the answer is empty, which has
     precision 1 by definition (Eq. 3) — the per-read precision ratio is
     irrelevant then. *)
  let precision_violation =
    if r_q <= 0.0 then 0.0 else Float.max 0.0 (req.precision -. precision)
  in
  let gamma = alpha -. (r_q *. (beta -. 1.0)) in
  let reads, recall_violation =
    if r_q <= 0.0 then (0.0, 0.0)
    else if gamma >= r_q -. tolerance then
      (Float.min total (r_q *. total /. Float.max gamma tolerance), 0.0)
    else (total, r_q -. gamma)
  in
  let violation = precision_violation +. recall_violation in
  let feasible = violation <= tolerance in
  let cost = reads *. Region_model.unit_cost t.effective f in
  {
    params;
    fractions = f;
    feasible;
    violation;
    reads;
    read_fraction = reads /. total;
    cost;
    normalized_cost = cost /. total;
    expected_precision = precision;
  }

(* [Float.min] and [Float.max] bit for bit, -0.0 and NaN included, with
   no C call unless an argument is NaN: the stdlib tests sign bits
   ([caml_signbit]) whenever its first comparison fails, and ties are
   the norm (every coordinate clamped onto 0 or 1).  Equal arguments
   differ only if they are zeros of opposite signs, and [1.0 /. x < 0.0]
   tells -0.0 from +0.0.  [Density], [Nelder_mead] and [Histogram] keep
   copies of their own: a library module is compiled [-opaque] in the
   default build, so a helper shared across modules would be a real call
   that boxes its result. *)
let[@inline] fmin x y =
  if x < y then x
  else if y < x then y
  else if x = y then if 1.0 /. x < 0.0 then x else y
  else Float.min x y

let[@inline] fmax x y =
  if x < y then y
  else if y < x then x
  else if x = y then if 1.0 /. x < 0.0 then y else x
  else Float.max x y

let[@inline] clamp01 x = fmin 1.0 (fmax 0.0 x)

let params_of_vector v =
  Policy.params ~s3:(clamp01 v.(0)) ~s5:(clamp01 v.(1)) ~p_py:(clamp01 v.(2))
    ~p_fm:(clamp01 v.(3))

(* {2 The objectives the simplex minimises}

   The simplex evaluates its objective about 23,000 times per solve, so
   the objectives below do not go through [evaluate]: each is one closure
   per problem that hoists every term not depending on the parameters
   (the YES mass above l_q, the MAYBE mass below it, the prices, the
   uniform density's laxity fractions) and computes the rest straight
   from the four coordinates, building no [Policy.params], fractions or
   evaluation record.  Every float operation is the one
   [Region_model.fractions], [Density], the rates and [evaluate] (or
   [evaluate_dual]) perform, in the same order, so the simplex sees
   bit-identical values and returns the same plans; the reference tests
   in [test_optimizer.ml] hold them to that.

   The kernel is this module's [@inline] functions, so an evaluation
   boxes no float and makes no C call and, on the uniform density, no
   call at all: its value goes into the simplex's cell. *)

(* The problem's constants, and what one parameter point implies per
   read: α, β, the expected precision and the unit cost of
   {!Region_model}.  A flat float record; every evaluation overwrites
   the last four fields in place. *)
type rates = {
  f_y : float;
  f_m : float;
  yes_hi : float;  (** YES mass above l_q *)
  yes_forwarded : float;
  below_mass : float;  (** MAYBE mass below l_q *)
  mutable alpha : float;
  mutable beta : float;
  mutable precision : float;
  mutable unit_cost : float;
}

(* How an evaluation gets regions 3 and 5: on the uniform density each
   has a fixed laxity fraction, on a histogram density the two regions
   keep their laxity bounds and the histogram fills them in place. *)
type regions =
  | Uniform_regions of { frac3 : float; frac5 : float }
  | Histogram_regions of {
      plane : Histogram.Hist2d.t;
      r3 : Density.region;
      r5 : Density.region;
    }

(* A coordinate as [clamp01] leaves it, and [Policy.params]' range check
   on it: only NaN fails.  The simplex has already clamped [x] into
   [multistart]'s box, the unit cube, with [clamp01]'s own operations,
   and clamping twice gives the same bits, so [x] is returned as is. *)
let[@inline] coordinate name x =
  if not (x >= 0.0 && x <= 1.0) then
    invalid_arg (Printf.sprintf "Policy.params: %s outside [0, 1]" name);
  x

let rates t =
  let spec = t.spec in
  let f_y = spec.Region_model.f_y and f_m = spec.f_m in
  let lq = t.requirements.Quality.laxity in
  let yes_hi = Density.yes_above spec.density lq in
  let r5 = Density.region ~s_min:0.0 ~l_min:(-1.0) ~l_max:lq in
  Density.maybe_region spec.density r5;
  let rates =
    {
      f_y;
      f_m;
      yes_hi;
      yes_forwarded = Float.max 0.0 (1.0 -. yes_hi) *. f_y;
      below_mass = r5.mass;
      alpha = 0.0;
      beta = 0.0;
      precision = 0.0;
      unit_cost = 0.0;
    }
  in
  let regions =
    match spec.density with
    | Density.Uniform { max_laxity } ->
        Uniform_regions
          {
            frac3 =
              Density.laxity_fraction ~max_laxity ~l_min:lq
                ~l_max:spec.max_laxity;
            frac5 = Density.laxity_fraction ~max_laxity ~l_min:(-1.0) ~l_max:lq;
          }
    | Density.Histogram { maybe_plane; _ } ->
        Histogram_regions
          {
            plane = maybe_plane;
            r3 = Density.region ~s_min:0.0 ~l_min:lq ~l_max:spec.max_laxity;
            r5;
          }
  in
  (rates, regions)

(* Regions 3 and 5 at one parameter point in, the rates at prices [c]
   out. *)
let[@inline] set_rates r (c : Cost_model.t) ~p_py ~p_fm ~m3 ~mean3 ~m5 ~mean5 =
  let r4_mass = fmax 0.0 (r.below_mass -. m5) in
  let p3 = m3 *. r.f_m in
  let p5 = m5 *. r.f_m in
  let yes_probed = p_py *. r.yes_hi *. r.f_y in
  let maybe_probed = p3 +. p5 in
  let maybe_forwarded = p_fm *. r4_mass *. r.f_m in
  let maybe_probe_yes = (mean3 *. p3) +. (mean5 *. p5) in
  let alpha = yes_probed +. r.yes_forwarded +. maybe_probe_yes in
  let answer = alpha +. maybe_forwarded in
  r.alpha <- alpha;
  r.beta <-
    r.f_y +. r.f_m +. maybe_probe_yes -. maybe_probed -. maybe_forwarded;
  r.precision <- (if answer <= 0.0 then 1.0 else alpha /. answer);
  r.unit_cost <-
    c.c_r
    +. ((yes_probed +. maybe_probed) *. c.c_p)
    +. ((r.yes_forwarded +. maybe_forwarded) *. c.c_wi)
    +. ((yes_probed +. maybe_probe_yes) *. c.c_wp)

(* One parameter point's rates.  On the uniform density a region with
   success bound s has mass (1 − s)·fraction and mean success (s + 1)/2
   (0 when empty), as [Density.maybe_region] computes them: [s] is
   clamped already, and clamping again would return it unchanged. *)
let[@inline] fill r c regions v =
  let s3 = coordinate "s3" v.(0) in
  let s5 = coordinate "s5" v.(1) in
  let p_py = coordinate "p_py" v.(2) in
  let p_fm = coordinate "p_fm" v.(3) in
  match regions with
  | Uniform_regions { frac3; frac5 } ->
      let m3 = (1.0 -. s3) *. frac3 and m5 = (1.0 -. s5) *. frac5 in
      set_rates r c ~p_py ~p_fm ~m3
        ~mean3:(if m3 = 0.0 then 0.0 else (s3 +. 1.0) /. 2.0)
        ~m5
        ~mean5:(if m5 = 0.0 then 0.0 else (s5 +. 1.0) /. 2.0)
  | Histogram_regions { plane; r3; r5 } ->
      r3.s_min <- s3;
      Histogram.Hist2d.fill_region plane r3;
      r5.s_min <- s5;
      Histogram.Hist2d.fill_region plane r5;
      set_rates r c ~p_py ~p_fm ~m3:r3.mass ~mean3:r3.mean_s ~m5:r5.mass
        ~mean5:r5.mean_s

let worst_unit (c : Cost_model.t) = c.c_r +. c.c_p +. c.c_wi +. c.c_wp

(* Penalised objective: any infeasible point costs more than any feasible
   one, and more violation costs more, so the simplex is pulled back into
   the feasible set.  Feasible points cost [evaluate]'s [cost]. *)
let[@inline] penalty r ~r_q ~p_q ~total ~ceiling (cell : Nelder_mead.cell) =
  let precision_violation =
    if r_q <= 0.0 then 0.0 else fmax 0.0 (p_q -. r.precision)
  in
  let gamma = r.alpha -. (r_q *. (r.beta -. 1.0)) in
  let reads =
    if r_q <= 0.0 then 0.0
    else if gamma >= r_q -. tolerance then
      fmin total (r_q *. total /. fmax gamma tolerance)
    else total
  in
  let recall_violation =
    if r_q <= 0.0 || gamma >= r_q -. tolerance then 0.0 else r_q -. gamma
  in
  let violation = precision_violation +. recall_violation in
  cell.value <-
    (if violation <= tolerance then reads *. r.unit_cost
     else (2.0 *. ceiling) +. (10.0 *. ceiling *. violation))

let penalized t =
  let r, regions = rates t and c = t.effective in
  let req = t.requirements in
  let r_q = req.Quality.recall and p_q = req.precision in
  let total = float_of_int t.total in
  let ceiling = total *. worst_unit t.effective in
  fun v cell ->
    fill r c regions v;
    penalty r ~r_q ~p_q ~total ~ceiling cell

let default_seeds =
  let corners = ref [] in
  List.iter
    (fun s3 ->
      List.iter
        (fun s5 ->
          List.iter
            (fun p_py ->
              List.iter
                (fun p_fm ->
                  corners := Policy.params ~s3 ~s5 ~p_py ~p_fm :: !corners)
                [ 0.0; 1.0 ])
            [ 0.0; 1.0 ])
        [ 0.0; 1.0 ])
    [ 0.0; 1.0 ];
  Policy.params ~s3:0.5 ~s5:0.5 ~p_py:0.5 ~p_fm:0.5
  :: Policy.stingy_params :: Policy.greedy_params :: !corners

let better a b =
  (* Prefer feasibility, then cost; among infeasible points, less
     violation, with cost as the tie-break so seed order cannot decide
     which of two equally-violating plans is returned. *)
  match (a.feasible, b.feasible) with
  | true, false -> a
  | false, true -> b
  | true, true -> if a.cost <= b.cost then a else b
  | false, false ->
      if a.violation < b.violation then a
      else if b.violation < a.violation then b
      else if a.cost <= b.cost then a
      else b

(* Multistart Nelder–Mead: refine every seed on [objective], [finish]
   each refined point into an evaluation, and keep the [better] of them,
   folding in seed order. *)
let multistart ~objective ~finish ~better =
  let lower = Array.make 4 0.0 and upper = Array.make 4 1.0 in
  let refine (p : Policy.params) =
    let init = [| p.s3; p.s5; p.p_py; p.p_fm |] in
    let result =
      Nelder_mead.minimize
        ~options:{ Nelder_mead.max_iterations = 800; tolerance = 1e-12 }
        ~lower ~upper ~init objective
    in
    finish (params_of_vector result.point)
  in
  match List.map refine default_seeds with
  | first :: rest -> List.fold_left better first rest
  | [] -> assert false (* [default_seeds] is not empty *)

let solve t = multistart ~objective:(penalized t) ~finish:(evaluate t) ~better

(* {2 The dual problem: maximise quality under a cost budget} *)

type dual_evaluation = {
  d_params : Policy.params;
  d_fractions : Region_model.fractions;
  d_feasible : bool;
  d_violation : float;
  target_recall : float;
  d_reads : float;
  d_cost : float;
  d_budget : float;
  budget_limited : bool;
  d_expected_precision : float;
}

let evaluate_dual t ~budget (params : Policy.params) =
  let req = t.requirements in
  let f = Region_model.fractions t.spec ~laxity_bound:req.laxity params in
  let alpha = Region_model.answer_yes_rate f in
  let beta = Region_model.uncertainty_rate f in
  let precision = Region_model.precision_estimate f in
  let total = float_of_int t.total in
  let r_q = req.recall in
  let unit = Region_model.unit_cost t.effective f in
  let budget = Float.max 0.0 budget in
  (* Reads affordable within the budget, capped at |T|. *)
  let r_budget =
    if unit <= 0.0 then total else Float.min total (budget /. unit)
  in
  (* The recall guarantee reachable after R reads: constraint (16) at R
     solved for r gives r(R) = alpha R / ((beta - 1) R + |T|). *)
  let recall_at r =
    if r <= 0.0 then 0.0
    else
      let denom = ((beta -. 1.0) *. r) +. total in
      if denom <= tolerance then 1.0
      else Float.max 0.0 (Float.min 1.0 (alpha *. r /. denom))
  in
  let target = Float.min r_q (recall_at r_budget) in
  (* Reads needed for the capped target — the primal closed form, which
     equals r_budget exactly when the budget binds. *)
  let reads =
    if target <= 0.0 then 0.0
    else
      let gamma = alpha -. (target *. (beta -. 1.0)) in
      if gamma <= tolerance then r_budget
      else Float.min r_budget (target *. total /. gamma)
  in
  let cost = reads *. unit in
  (* An empty answer (target 0) is trivially precise, as in the primal. *)
  let precision_violation =
    if target <= 0.0 then 0.0 else Float.max 0.0 (req.precision -. precision)
  in
  {
    d_params = params;
    d_fractions = f;
    d_feasible = precision_violation <= tolerance;
    d_violation = precision_violation;
    target_recall = target;
    d_reads = reads;
    d_cost = cost;
    d_budget = budget;
    budget_limited = target < r_q -. tolerance;
    d_expected_precision = precision;
  }

let better_dual a b =
  (* Prefer precision-feasibility, then higher reachable recall, then
     lower spend; among infeasible points, less violation then cost. *)
  match (a.d_feasible, b.d_feasible) with
  | true, false -> a
  | false, true -> b
  | true, true ->
      if a.target_recall > b.target_recall +. tolerance then a
      else if b.target_recall > a.target_recall +. tolerance then b
      else if a.d_cost <= b.d_cost then a
      else b
  | false, false ->
      if a.d_violation < b.d_violation then a
      else if b.d_violation < a.d_violation then b
      else if a.d_cost <= b.d_cost then a
      else b

(* Penalised dual objective: feasible points score their negated target
   recall (plus a cost term small enough to only break ties), infeasible
   points sit strictly above every feasible score, scaled by the
   precision violation.  The target and spend are [evaluate_dual]'s. *)
let[@inline] dual_penalty r ~r_q ~p_q ~total ~budget ~ceiling
    (cell : Nelder_mead.cell) =
  let alpha = r.alpha and beta = r.beta and unit = r.unit_cost in
  let r_budget = if unit <= 0.0 then total else fmin total (budget /. unit) in
  let recall_at_budget =
    if r_budget <= 0.0 then 0.0
    else
      let denom = ((beta -. 1.0) *. r_budget) +. total in
      if denom <= tolerance then 1.0
      else fmax 0.0 (fmin 1.0 (alpha *. r_budget /. denom))
  in
  let target = fmin r_q recall_at_budget in
  let precision_violation =
    if target <= 0.0 then 0.0 else fmax 0.0 (p_q -. r.precision)
  in
  cell.value <-
    (if precision_violation <= tolerance then begin
       let reads =
         if target <= 0.0 then 0.0
         else
           let gamma = alpha -. (target *. (beta -. 1.0)) in
           if gamma <= tolerance then r_budget
           else fmin r_budget (target *. total /. gamma)
       in
       -.target +. (1e-4 *. (reads *. unit) /. ceiling)
     end
     else 2.0 +. (10.0 *. precision_violation))

let dual_penalized t ~budget =
  let r, regions = rates t and c = t.effective in
  let req = t.requirements in
  let r_q = req.Quality.recall and p_q = req.precision in
  let total = float_of_int t.total in
  let budget = Float.max 0.0 budget in
  let ceiling = Float.max 1.0 (total *. worst_unit t.effective) in
  fun v cell ->
    fill r c regions v;
    dual_penalty r ~r_q ~p_q ~total ~budget ~ceiling cell

let solve_dual ~budget t =
  let budget = Float.max 0.0 budget in
  (* Fast path: if the primal optimum is affordable, the dual answer is
     the primal one — full requested recall at minimal cost.  This keeps
     ample-budget plans continuous with the unbudgeted planner. *)
  let primal = solve t in
  if primal.feasible && primal.cost <= budget then
    {
      d_params = primal.params;
      d_fractions = primal.fractions;
      d_feasible = true;
      d_violation = 0.0;
      target_recall = t.requirements.Quality.recall;
      d_reads = primal.reads;
      d_cost = primal.cost;
      d_budget = budget;
      budget_limited = false;
      d_expected_precision = primal.expected_precision;
    }
  else
    multistart ~objective:(dual_penalized t ~budget)
      ~finish:(evaluate_dual t ~budget) ~better:better_dual

let pp_evaluation ppf e =
  Format.fprintf ppf
    "%a%s: W=%.4g W/|T|=%.4g R/|T|=%.4g precision~%.4g"
    Policy.pp_params e.params
    (if e.feasible then "" else " (infeasible)")
    e.cost e.normalized_cost e.read_fraction e.expected_precision

let explain t (e : evaluation) =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let f = e.fractions in
  let req = t.requirements in
  add "plan: s3=%.3f s5=%.3f p_py=%.3f p_fm=%.3f%s\n" e.params.s3 e.params.s5
    e.params.p_py e.params.p_fm
    (if e.feasible then "" else "  (INFEASIBLE)");
  add "reads: %.0f of %d objects (%.1f%%)\n" e.reads t.total
    (100.0 *. e.read_fraction);
  let per k = k *. 1000.0 in
  add "per 1000 objects read (expected):\n";
  add "  YES   %4.0f: forward %.0f (region 7), probe %.0f (region 6), ignore %.0f\n"
    (per f.yes) (per f.yes_forwarded) (per f.yes_probed)
    (per (f.yes -. f.yes_forwarded -. f.yes_probed));
  add "  MAYBE %4.0f: probe %.0f (regions 3+5, ~%.0f resolve YES), forward %.0f (region 4), ignore %.0f\n"
    (per f.maybe) (per f.maybe_probed) (per f.maybe_probe_yes)
    (per f.maybe_forwarded)
    (per (f.maybe -. f.maybe_probed -. f.maybe_forwarded));
  add "  NO    %4.0f: discard\n" (per (1.0 -. f.yes -. f.maybe));
  let c = t.effective in
  let reads_cost = e.reads *. c.Cost_model.c_r in
  let probe_cost = e.reads *. (f.yes_probed +. f.maybe_probed) *. c.c_p in
  let write_cost =
    e.reads
    *. (((f.yes_forwarded +. f.maybe_forwarded) *. c.c_wi)
       +. ((f.yes_probed +. f.maybe_probe_yes) *. c.c_wp))
  in
  add "cost W = %.0f (W/|T| = %.3f): read %.0f + probe %.0f + write %.0f\n"
    e.cost e.normalized_cost reads_cost probe_cost write_cost;
  (match t.tiers with
  | [| oracle |] ->
      if oracle.Probe_tier.batch > 1 || oracle.c_b > 0.0 then
        add "probes priced amortized: c_p + c_b/B = %g + %g/%d = %g per probe\n"
          oracle.c_p oracle.c_b oracle.batch c.c_p
  | specs ->
      let plan = Probe_tier.select specs in
      add
        "probes priced via cascade: start at tier %d (%s), expected %g per \
         probe over %d tiers\n"
        plan.Probe_tier.start
        specs.(plan.Probe_tier.start).Probe_tier.name
        plan.Probe_tier.price (Array.length specs));
  add "precision: expected %.4f vs bound %.4f (slack %+.4f)\n"
    e.expected_precision req.Quality.precision
    (e.expected_precision -. req.precision);
  let alpha = Region_model.answer_yes_rate f in
  let beta = Region_model.uncertainty_rate f in
  let gamma = alpha -. (req.recall *. (beta -. 1.0)) in
  add "recall: rate gamma %.4f vs bound %.4f (slack %+.4f)\n" gamma req.recall
    (gamma -. req.recall);
  Buffer.contents b
