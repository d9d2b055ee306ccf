type problem = {
  total : int;
  spec : Region_model.spec;
  requirements : Quality.requirements;
  cost : Cost_model.t;
  batch : int;
  tiers : Probe_tier.spec array option;
  effective : Cost_model.t;
}

(* The objective prices each probe at its amortized cost c_p + c_b/B:
   the evaluation plan dispatches probes in batches of B, so that is the
   marginal price the §4.2.2 objective must see for plan costs to match
   the metered reality.  Under a tiered cascade the probe price is the
   cascade's optimal strategy price instead — the expected amortized
   spend of starting at the best tier and escalating through residuals
   ({!Probe_tier.select}); the batch surcharge is folded into that
   expectation, so c_b drops to 0 here.  Priced once per problem: the
   optimizer evaluates the objective thousands of times. *)
let problem ~total ~spec ~requirements ?(cost = Cost_model.paper)
    ?(batch = 1) ?tiers () =
  if total <= 0 then invalid_arg "Solver.problem: total <= 0";
  if batch < 1 then invalid_arg "Solver.problem: batch < 1";
  let effective =
    match tiers with
    | None -> Cost_model.amortize ~batch cost
    | Some specs ->
        let plan = Probe_tier.select specs in
        Cost_model.amortize ~batch:1
          { cost with Cost_model.c_p = plan.Probe_tier.price; c_b = 0.0 }
  in
  { total; spec; requirements; cost; batch; tiers; effective }

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

(* Penalised objective: any infeasible point costs more than any feasible
   one, and more violation costs more, so the simplex is pulled back into
   the feasible set. *)
let penalized t params =
  let e = evaluate t params in
  if e.feasible then e.cost
  else begin
    let c = t.effective in
    let worst_unit =
      c.Cost_model.c_r +. c.c_p +. c.c_wi +. c.c_wp
    in
    let ceiling = float_of_int t.total *. worst_unit in
    (2.0 *. ceiling) +. (10.0 *. ceiling *. e.violation)
  end

let params_of_vector v =
  let clamp x = Float.min 1.0 (Float.max 0.0 x) in
  Policy.params ~s3:(clamp v.(0)) ~s5:(clamp v.(1)) ~p_py:(clamp v.(2))
    ~p_fm:(clamp v.(3))

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

let solve ?(seeds = default_seeds) t =
  if seeds = [] then invalid_arg "Solver.solve: no seeds";
  let lower = Array.make 4 0.0 and upper = Array.make 4 1.0 in
  let objective v = penalized t (params_of_vector v) in
  let refine (p : Policy.params) =
    let init = [| p.s3; p.s5; p.p_py; p.p_fm |] in
    let result =
      Nelder_mead.minimize
        ~options:{ Nelder_mead.max_iterations = 800; tolerance = 1e-12 }
        ~lower ~upper ~init objective
    in
    evaluate t (params_of_vector result.point)
  in
  let candidates = List.map refine seeds in
  match candidates with
  | [] -> assert false
  | first :: rest -> List.fold_left better first rest

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
   precision violation. *)
let dual_penalized t ~budget params =
  let e = evaluate_dual t ~budget params in
  if e.d_feasible then begin
    let c = t.effective in
    let worst_unit = c.Cost_model.c_r +. c.c_p +. c.c_wi +. c.c_wp in
    let ceiling = Float.max 1.0 (float_of_int t.total *. worst_unit) in
    -.e.target_recall +. (1e-4 *. e.d_cost /. ceiling)
  end
  else 2.0 +. (10.0 *. e.d_violation)

let solve_dual ?(seeds = default_seeds) ~budget t =
  if seeds = [] then invalid_arg "Solver.solve_dual: no seeds";
  let budget = Float.max 0.0 budget in
  (* Fast path: if the primal optimum is affordable, the dual answer is
     the primal one — full requested recall at minimal cost.  This keeps
     ample-budget plans continuous with the unbudgeted planner. *)
  let primal = solve ~seeds t in
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
  else begin
    let lower = Array.make 4 0.0 and upper = Array.make 4 1.0 in
    let objective v = dual_penalized t ~budget (params_of_vector v) in
    let refine (p : Policy.params) =
      let init = [| p.s3; p.s5; p.p_py; p.p_fm |] in
      let result =
        Nelder_mead.minimize
          ~options:{ Nelder_mead.max_iterations = 800; tolerance = 1e-12 }
          ~lower ~upper ~init objective
      in
      evaluate_dual t ~budget (params_of_vector result.point)
    in
    match List.map refine seeds with
    | [] -> assert false
    | first :: rest -> List.fold_left better_dual first rest
  end

let pp_dual_evaluation ppf e =
  Format.fprintf ppf
    "%a%s: budget=%.4g target_recall=%.4g W=%.4g R=%.4g precision~%.4g%s"
    Policy.pp_params e.d_params
    (if e.d_feasible then "" else " (infeasible)")
    e.d_budget e.target_recall e.d_cost e.d_reads e.d_expected_precision
    (if e.budget_limited then " (budget-limited)" else "")

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
  | Some specs ->
      let plan = Probe_tier.select specs in
      add
        "probes priced via cascade: start at tier %d (%s), expected %g per \
         probe over %d tiers\n"
        plan.Probe_tier.start
        specs.(plan.Probe_tier.start).Probe_tier.name
        plan.Probe_tier.price (Array.length specs)
  | None ->
      if t.batch > 1 || t.cost.Cost_model.c_b > 0.0 then
        add "probes priced amortized: c_p + c_b/B = %g + %g/%d = %g per probe\n"
          t.cost.c_p t.cost.c_b t.batch c.c_p);
  add "precision: expected %.4f vs bound %.4f (slack %+.4f)\n"
    e.expected_precision req.Quality.precision
    (e.expected_precision -. req.precision);
  let alpha = Region_model.answer_yes_rate f in
  let beta = Region_model.uncertainty_rate f in
  let gamma = alpha -. (req.recall *. (beta -. 1.0)) in
  add "recall: rate gamma %.4f vs bound %.4f (slack %+.4f)\n" gamma req.recall
    (gamma -. req.recall);
  Buffer.contents b
