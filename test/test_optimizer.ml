(* Tests for the optimization framework: densities, the region model,
   Nelder-Mead, the closed-form read count, and reproduction of the
   paper's §5.1 optimal costs. *)

(* A region-model spec under the uniform density over [0,1] x [0,L]. *)
let uniform_spec ~f_y ~f_m ~max_laxity =
  Region_model.spec ~f_y ~f_m ~max_laxity ~density:(Density.uniform ~max_laxity)

let checkf tol = Alcotest.(check (float tol))
let checkb = Alcotest.(check bool)

(* A fresh region of the plane, filled in by [d]. *)
let maybe_region (d : Density.t) ~s_min ~l_min ~l_max =
  let r = Density.region ~s_min ~l_min ~l_max in
  Density.maybe_region d r;
  r

let test_uniform_density () =
  let d = Density.uniform ~max_laxity:100.0 in
  checkf 1e-12 "yes above" 0.3 (Density.yes_above d 70.0);
  checkf 1e-12 "yes above 0" 1.0 (Density.yes_above d 0.0);
  checkf 1e-12 "yes above L" 0.0 (Density.yes_above d 100.0);
  let r = maybe_region d ~s_min:0.6 ~l_min:20.0 ~l_max:70.0 in
  checkf 1e-12 "region mass" (0.4 *. 0.5) r.mass;
  checkf 1e-12 "region mean s" 0.8 r.mean_s;
  let empty = maybe_region d ~s_min:1.0 ~l_min:0.0 ~l_max:100.0 in
  checkf 1e-12 "empty region" 0.0 empty.mass

let test_histogram_density_approximates_uniform () =
  (* A histogram estimated from a large uniform sample should agree with
     the analytic uniform density. *)
  let sample =
    Synthetic.generate (Rng.create 12)
      (Synthetic.config ~total:30000 ~f_y:0.2 ~f_m:0.3 ~max_laxity:100.0 ())
  in
  let e =
    Selectivity.estimate ~instance:Synthetic.instance ~laxity_cap:100.0 sample
  in
  let d = Density.of_estimate e in
  let u = Density.uniform ~max_laxity:100.0 in
  checkb "yes_above close" true (Float.abs (Density.yes_above d 50.0 -. Density.yes_above u 50.0) < 0.03);
  let rd = maybe_region d ~s_min:0.7 ~l_min:0.0 ~l_max:50.0 in
  let ru = maybe_region u ~s_min:0.7 ~l_min:0.0 ~l_max:50.0 in
  checkb "region mass close" true (Float.abs (rd.mass -. ru.mass) < 0.03);
  checkb "mean s close" true (Float.abs (rd.mean_s -. ru.mean_s) < 0.05)

(* Hand-checked region counts for the paper's varying-laxity point
   l_q = 20 with the paper's reported optimum. *)
let test_region_model_hand_check () =
  let spec = uniform_spec ~f_y:0.2 ~f_m:0.2 ~max_laxity:100.0 in
  let params = Policy.params ~s3:1.0 ~s5:1.0 ~p_py:0.93 ~p_fm:0.53 in
  let f = Region_model.fractions spec ~laxity_bound:20.0 params in
  checkf 1e-9 "Y" 0.2 f.yes;
  checkf 1e-9 "Yf = (l_q/L) Y" 0.04 f.yes_forwarded;
  checkf 1e-9 "Yp = p_py (1-l_q/L) Y" (0.93 *. 0.8 *. 0.2) f.yes_probed;
  checkf 1e-9 "no maybe probes at s3=s5=1" 0.0 f.maybe_probed;
  checkf 1e-9 "Mf = p_fm (l_q/L) M" (0.53 *. 0.2 *. 0.2) f.maybe_forwarded;
  (* Expected precision binds near 0.9, as in the paper. *)
  checkb "precision near bound" true
    (Float.abs (Region_model.precision_estimate f -. 0.9) < 0.01);
  (* Unit cost: c_r + Yp c_p + (Yf+Mf) c_wi + Yp c_wp. *)
  let w = Region_model.unit_cost Cost_model.paper f in
  checkb "unit cost near 16.1" true (Float.abs (w -. 16.1) < 0.2)

let test_region_spec_rejects_non_finite () =
  List.iter
    (fun (f_y, f_m) ->
      Alcotest.check_raises
        (Printf.sprintf "f_y=%g f_m=%g" f_y f_m)
        (Invalid_argument "Region_model.spec: invalid selectivity fractions")
        (fun () ->
          ignore (uniform_spec ~f_y ~f_m ~max_laxity:100.0)))
    [ (nan, 0.2); (0.2, nan); (infinity, 0.0); (0.6, 0.6) ]

let default_problem ?(f_y = 0.2) ?(f_m = 0.2) ?(p = 0.9) ?(r = 0.5) ?(l = 50.0) () =
  Solver.problem ~total:10000
    ~spec:(uniform_spec ~f_y ~f_m ~max_laxity:100.0)
    ~requirements:(Quality.requirements ~precision:p ~recall:r ~laxity:l)
    ()

(* The closed-form minimal R reproduces the only R/|T| column the paper
   reports (varying recall, Stingy-like parameters). *)
let test_closed_form_reads () =
  let evaluate r_q =
    Solver.evaluate (default_problem ~r:r_q ()) Policy.stingy_params
  in
  let e1 = evaluate 0.01 in
  checkb "feasible" true e1.feasible;
  checkf 1e-3 "R/|T| at 0.01" 0.0943 e1.read_fraction;
  let e2 = evaluate 0.1 in
  checkf 1e-3 "R/|T| at 0.1" 0.625 e2.read_fraction;
  checkf 5e-3 "W/|T| at 0.1" 0.6875 e2.normalized_cost;
  (* Stingy alone cannot reach r_q = 0.5. *)
  let e3 = evaluate 0.5 in
  checkb "infeasible at 0.5" false e3.feasible;
  checkb "violation positive" true (e3.violation > 0.0)

let test_zero_recall_is_free () =
  let e = Solver.evaluate (default_problem ~r:0.0 ()) Policy.greedy_params in
  checkb "feasible" true e.feasible;
  checkf 0.0 "no reads" 0.0 e.reads;
  checkf 0.0 "no cost" 0.0 e.cost

(* An objective that returns its value, as [Nelder_mead.minimize] takes
   it: the value goes into the simplex's cell. *)
let into_cell f x (cell : Nelder_mead.cell) = cell.value <- f x

let test_nelder_mead_quadratic () =
  let f x = ((x.(0) -. 0.3) ** 2.0) +. ((x.(1) +. 0.2) ** 2.0) in
  let r =
    Nelder_mead.minimize ~lower:[| -1.0; -1.0 |] ~upper:[| 1.0; 1.0 |]
      ~init:[| 0.9; 0.9 |] (into_cell f)
  in
  checkb "x0" true (Float.abs (r.point.(0) -. 0.3) < 1e-4);
  checkb "x1" true (Float.abs (r.point.(1) +. 0.2) < 1e-4);
  checkb "value" true (r.value < 1e-8)

let test_nelder_mead_respects_box () =
  (* Optimum outside the box: solution must sit on the boundary. *)
  let f x = (x.(0) -. 5.0) ** 2.0 in
  let r =
    Nelder_mead.minimize ~lower:[| 0.0 |] ~upper:[| 1.0 |] ~init:[| 0.5 |]
      (into_cell f)
  in
  checkb "clamped to boundary" true (Float.abs (r.point.(0) -. 1.0) < 1e-6);
  Alcotest.check_raises "dimension mismatch"
    (Invalid_argument "Nelder_mead.minimize: dimension mismatch") (fun () ->
      ignore (Nelder_mead.minimize ~lower:[| 0.0 |] ~upper:[| 1.0; 2.0 |]
                ~init:[| 0.5 |] (into_cell f)))

(* §5.1 reproduction: the solver's optimal cost matches the paper's
   tables within a few percent (the paper's own numbers are rounded). *)
let paper_opt_cases =
  [
    (* (f_y, f_m, p_q, r_q, l_q, paper W/|T|) *)
    (0.2, 0.2, 0.9, 0.5, 1.0, 20.9);
    (0.2, 0.2, 0.9, 0.5, 40.0, 12.2);
    (0.2, 0.2, 0.9, 0.5, 99.0, 1.2);
    (0.2, 0.2, 0.5, 0.5, 50.0, 6.3);
    (0.2, 0.2, 0.99, 0.5, 50.0, 11.1);
    (0.2, 0.2, 0.9, 0.01, 50.0, 0.1);
    (0.2, 0.2, 0.9, 0.99, 50.0, 27.8);
    (0.01, 0.01, 0.9, 0.5, 50.0, 1.5);
    (0.4, 0.4, 0.9, 0.5, 50.0, 19.3);
    (0.2, 0.01, 0.9, 0.5, 50.0, 1.4);
    (0.2, 0.4, 0.9, 0.5, 50.0, 20.3);
  ]

let test_solver_reproduces_paper () =
  List.iter
    (fun (f_y, f_m, p, r, l, paper) ->
      let e = Solver.solve (default_problem ~f_y ~f_m ~p ~r ~l ()) in
      checkb
        (Printf.sprintf "feasible at l=%g p=%g r=%g fm=%g" l p r f_m)
        true e.feasible;
      let tolerance = Float.max 0.05 (0.04 *. paper) in
      checkb
        (Printf.sprintf "W/|T| %.3f within %.2f of paper %.1f"
           e.normalized_cost tolerance paper)
        true
        (Float.abs (e.normalized_cost -. paper) <= tolerance))
    paper_opt_cases

let test_solver_never_beats_evaluate_feasibility () =
  (* Whatever solve returns must evaluate identically: no stale caching. *)
  let p = default_problem () in
  let e = Solver.solve p in
  let re = Solver.evaluate p e.params in
  checkf 1e-9 "re-evaluated cost matches" e.cost re.cost;
  checkb "re-evaluated feasibility matches" true (e.feasible = re.feasible)

let test_grid_cross_check () =
  (* The coarse grid must agree with Nelder-Mead within grid resolution
     on a couple of representative problems. *)
  List.iter
    (fun problem ->
      let nm = Solver.solve problem in
      let grid = Grid.search ~resolution:6 problem in
      checkb "both feasible" true (nm.feasible && grid.feasible);
      checkb
        (Printf.sprintf "grid %.3f vs nm %.3f" grid.normalized_cost
           nm.normalized_cost)
        true
        (nm.normalized_cost <= grid.normalized_cost +. 0.05
        && grid.normalized_cost <= nm.normalized_cost *. 1.10 +. 0.05))
    [ default_problem (); default_problem ~r:0.8 (); default_problem ~l:20.0 () ]

let test_monotone_in_requirements () =
  let cost ?(p = 0.9) ?(r = 0.5) ?(l = 50.0) () =
    (Solver.solve (default_problem ~p ~r ~l ())).normalized_cost
  in
  checkb "stricter recall costs more" true (cost ~r:0.8 () >= cost ~r:0.4 () -. 1e-6);
  checkb "stricter precision costs more" true (cost ~p:0.99 () >= cost ~p:0.6 () -. 1e-6);
  checkb "looser laxity costs less" true (cost ~l:80.0 () <= cost ~l:20.0 () +. 1e-6)

let test_better_tie_break () =
  (* Two infeasible candidates with the same violation used to be
     decided by seed order; cost is the tie-break now, in both argument
     orders. *)
  let p = default_problem ~r:0.99 () in
  let base = Solver.evaluate p Policy.stingy_params in
  let a = { base with Solver.feasible = false; violation = 0.3; cost = 10.0 } in
  let b = { a with Solver.cost = 5.0 } in
  checkf 0.0 "cheaper wins (a, b)" 5.0 (Solver.better a b).Solver.cost;
  checkf 0.0 "cheaper wins (b, a)" 5.0 (Solver.better b a).Solver.cost;
  (* Unequal violations still dominate cost. *)
  let worse = { a with Solver.violation = 0.4; cost = 1.0 } in
  checkf 0.0 "less violation beats cheaper" 0.3
    (Solver.better a worse).Solver.violation;
  (* Feasibility still dominates everything. *)
  let feasible = { base with Solver.feasible = true; violation = 0.0 } in
  checkb "feasible beats infeasible" true
    (Solver.better feasible b).Solver.feasible

(* --- the dual (budgeted) problem ------------------------------------- *)

let test_dual_ample_budget_matches_primal () =
  let p = default_problem () in
  let primal = Solver.solve p in
  let d = Solver.solve_dual ~budget:(primal.Solver.cost *. 2.0) p in
  checkb "feasible" true d.Solver.d_feasible;
  checkb "budget does not bind" false d.Solver.budget_limited;
  checkf 1e-12 "target is the requested recall" 0.5 d.Solver.target_recall;
  checkf 1e-9 "spend is the primal optimum" primal.Solver.cost d.Solver.d_cost;
  checkb "params are the primal params" true
    (d.Solver.d_params = primal.Solver.params)

let test_dual_zero_budget_is_empty () =
  let d = Solver.solve_dual ~budget:0.0 (default_problem ()) in
  checkb "feasible (empty answer)" true d.Solver.d_feasible;
  checkf 0.0 "target 0" 0.0 d.Solver.target_recall;
  checkf 0.0 "no reads" 0.0 d.Solver.d_reads;
  checkf 0.0 "no spend" 0.0 d.Solver.d_cost;
  checkb "budget binds" true d.Solver.budget_limited

let test_dual_monotone_in_budget () =
  let p = default_problem () in
  let budgets = [ 100.0; 1_000.0; 10_000.0; 50_000.0; 1_000_000.0 ] in
  let duals = List.map (fun b -> Solver.solve_dual ~budget:b p) budgets in
  List.iter2
    (fun b d ->
      checkb
        (Printf.sprintf "spend %.1f within budget %.1f" d.Solver.d_cost b)
        true
        (d.Solver.d_cost <= b +. 1e-6);
      checkb "feasible at every budget" true d.Solver.d_feasible;
      checkb "target capped at r_q" true
        (d.Solver.target_recall <= 0.5 +. 1e-9))
    budgets duals;
  let rec pairs = function
    | lo :: (hi :: _ as rest) ->
        checkb
          (Printf.sprintf "target %.4f <= %.4f" lo.Solver.target_recall
             hi.Solver.target_recall)
          true
          (lo.Solver.target_recall <= hi.Solver.target_recall +. 1e-9);
        pairs rest
    | _ -> ()
  in
  pairs duals;
  (* The sweep spans both regimes. *)
  checkb "smallest budget binds" true
    (List.hd duals).Solver.budget_limited;
  checkb "largest budget does not" false
    (List.nth duals (List.length duals - 1)).Solver.budget_limited

let test_explain () =
  let p = default_problem () in
  let e = Solver.solve p in
  let text = Solver.explain p e in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "names the plan" true (contains "plan: s3=");
  Alcotest.(check bool) "reports reads" true (contains "reads:");
  Alcotest.(check bool) "breaks down cost" true (contains "cost W =");
  Alcotest.(check bool) "reports slacks" true (contains "slack");
  Alcotest.(check bool) "feasible plan not flagged" false (contains "INFEASIBLE");
  (* An infeasible evaluation is flagged. *)
  let infeasible =
    Solver.evaluate (default_problem ~r:0.99 ()) Policy.stingy_params
  in
  Alcotest.(check bool) "infeasible flagged" true
    (let t = Solver.explain (default_problem ~r:0.99 ()) infeasible in
     let n = String.length "INFEASIBLE" in
     let rec go i = i + n <= String.length t && (String.sub t i n = "INFEASIBLE" || go (i + 1)) in
     go 0)

(* The probe-price line of [Solver.explain] for the three pricing
   inputs, pinned to the strings the planner printed when it still took
   a batch size beside the cascade: a scalar oracle (B = 1, c_b = 0)
   prints none, a batched oracle the amortized line, and a two-tier
   cascade the cascade line. *)
let test_explain_probe_price () =
  let spec = uniform_spec ~f_y:0.2 ~f_m:0.2 ~max_laxity:50.0 in
  let requirements =
    Quality.requirements ~precision:0.9 ~recall:0.5 ~laxity:10.0
  in
  let price_lines ?cost tiers =
    let t = Solver.problem ~total:1000 ~spec ~requirements ?cost ~tiers () in
    Solver.explain t (Solver.solve t)
    |> String.split_on_char '\n'
    |> List.filter (String.starts_with ~prefix:"probes priced")
  in
  let check = Alcotest.(check (list string)) in
  check "B = 1, c_b = 0 oracle" []
    (price_lines
       (Probe_tier.oracle_only ~cost:Cost_model.paper ~batch:1 ()));
  let cost = { Cost_model.paper with c_b = 200.0 } in
  check "B = 8, c_b = 200 oracle"
    [ "probes priced amortized: c_p + c_b/B = 100 + 200/8 = 125 per probe" ]
    (price_lines ~cost (Probe_tier.oracle_only ~cost ~batch:8 ()));
  check "two-tier cascade"
    [
      "probes priced via cascade: start at tier 0 (proxy), expected 0.45625 \
       per probe over 2 tiers";
    ]
    (price_lines
       (Probe_tier.of_string
          "proxy:cp=0.1,cb=1,B=32,shrink=0.8;oracle:cp=1,cb=5,B=8"))

(* --- reference implementations -------------------------------------- *)

(* The simplex as it was before its inner loop became allocation-free,
   copied unchanged: a tuple per vertex, a fresh array per point and
   [Array.sort] on the vertex values.  The optimised
   [Nelder_mead.minimize] must reproduce it bit for bit. *)
module Reference_nm = struct
  open Nelder_mead

  let alpha = 1.0
  let gamma = 2.0
  let rho = 0.5
  let sigma = 0.5

  let minimize ?(options = { max_iterations = 500; tolerance = 1e-10 }) ~lower ~upper
      ~init f =
    let n = Array.length init in
    if n = 0 then invalid_arg "Nelder_mead.minimize: empty dimension";
    if Array.length lower <> n || Array.length upper <> n then
      invalid_arg "Nelder_mead.minimize: dimension mismatch";
    Array.iteri
      (fun i lo -> if lo > upper.(i) then invalid_arg "Nelder_mead.minimize: box")
      lower;
    let clamp x =
      Array.mapi (fun i v -> Float.min upper.(i) (Float.max lower.(i) v)) x
    in
    let eval x =
      let x = clamp x in
      (x, f x)
    in
    (* Initial simplex: the start plus one vertex per coordinate, stepped by
       10% of the box width. *)
    let vertices =
      Array.init (n + 1) (fun v ->
          let x = clamp (Array.copy init) in
          if v > 0 then begin
            let i = v - 1 in
            let width = upper.(i) -. lower.(i) in
            let step = if width > 0.0 then 0.1 *. width else 0.1 in
            let moved = if x.(i) +. step <= upper.(i) then x.(i) +. step else x.(i) -. step in
            x.(i) <- moved
          end;
          eval x)
    in
    let order () =
      Array.sort (fun (_, fa) (_, fb) -> Float.compare fa fb) vertices
    in
    order ();
    let iterations = ref 0 in
    let spread () =
      let _, best = vertices.(0) and _, worst = vertices.(n) in
      Float.abs (worst -. best)
    in
    let centroid_excluding_worst () =
      let c = Array.make n 0.0 in
      for v = 0 to n - 1 do
        let x, _ = vertices.(v) in
        for i = 0 to n - 1 do
          c.(i) <- c.(i) +. x.(i)
        done
      done;
      Array.map (fun s -> s /. float_of_int n) c
    in
    let combine a wa b wb = Array.mapi (fun i ai -> (wa *. ai) +. (wb *. b.(i))) a in
    while !iterations < options.max_iterations && spread () > options.tolerance do
      incr iterations;
      let c = centroid_excluding_worst () in
      let worst_x, worst_f = vertices.(n) in
      let _, best_f = vertices.(0) in
      let _, second_worst_f = vertices.(n - 1) in
      (* Reflection. *)
      let refl_x, refl_f = eval (combine c (1.0 +. alpha) worst_x (-.alpha)) in
      if refl_f < best_f then begin
        (* Expansion. *)
        let exp_x, exp_f = eval (combine c (1.0 +. gamma) worst_x (-.gamma)) in
        vertices.(n) <- (if exp_f < refl_f then (exp_x, exp_f) else (refl_x, refl_f))
      end
      else if refl_f < second_worst_f then vertices.(n) <- (refl_x, refl_f)
      else begin
        (* Contraction (outside if the reflected point improved on the
           worst, inside otherwise). *)
        let towards, towards_f =
          if refl_f < worst_f then (refl_x, refl_f) else (worst_x, worst_f)
        in
        let con_x, con_f = eval (combine c (1.0 -. rho) towards rho) in
        if con_f < towards_f then vertices.(n) <- (con_x, con_f)
        else begin
          (* Shrink towards the best vertex. *)
          let best_x, _ = vertices.(0) in
          for v = 1 to n do
            let x, _ = vertices.(v) in
            vertices.(v) <- eval (combine best_x (1.0 -. sigma) x sigma)
          done
        end
      end;
      order ()
    done;
    let point, value = vertices.(0) in
    { point; value; iterations = !iterations }
end

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let same_floats a b = List.length a = List.length b && List.for_all2 same_bits a b

let same_result (a : Nelder_mead.result) (b : Nelder_mead.result) =
  same_floats (Array.to_list a.point) (Array.to_list b.point)
  && same_bits a.value b.value
  && a.iterations = b.iterations

(* A box, a start (often outside the box) and an objective.  The shapes
   with plateaus make vertex values tie, and ties decide both the
   centroid's summation order and which vertex is worst. *)
type nm_case = {
  lower : float array;
  upper : float array;
  init : float array;
  shape : [ `Quadratic | `Rounded | `Steps | `Flat | `Taxicab | `Holes ];
  centre : float array;
  grain : float;
  options : Nelder_mead.options;
}

let nm_objective c x =
  let sum f =
    let s = ref 0.0 in
    Array.iteri (fun i xi -> s := !s +. f xi c.centre.(i)) x;
    !s
  in
  let square xi ci = (xi -. ci) *. (xi -. ci) in
  match c.shape with
  | `Quadratic -> sum square
  | `Rounded -> Float.round (sum square /. c.grain) *. c.grain
  | `Steps -> sum (fun xi ci -> Float.floor ((xi -. ci) /. c.grain))
  | `Flat -> 1.0
  | `Taxicab -> Float.round (sum (fun xi ci -> Float.abs (xi -. ci)) /. c.grain)
  | `Holes ->
      (* NaN and infinite values, which rank unlike any finite one. *)
      let q = sum square in
      if q < c.grain then Float.nan else if q > 4.0 then Float.infinity else q

let gen_nm_case =
  let open QCheck2.Gen in
  let* n = int_range 1 5 in
  let coords g = array_size (pure n) g in
  (* Signed zeros as bounds and starts: clamping onto a zero face ties,
     and -0.0 against +0.0 is the one tie whose result has a sign. *)
  let zero = oneofl [ 0.0; -0.0 ] in
  let* lower = coords (frequency [ (1, zero); (4, float_range (-2.0) 2.0) ]) in
  let* widths = coords (frequency [ (1, pure 0.0); (3, float_range 0.01 3.0) ]) in
  let* zero_upper = coords (frequency [ (3, pure None); (1, map Option.some zero) ]) in
  let* init = coords (frequency [ (1, zero); (4, float_range (-3.0) 4.0) ]) in
  let* centre = coords (float_range (-2.0) 2.0) in
  let* shape =
    oneofl [ `Quadratic; `Rounded; `Steps; `Flat; `Taxicab; `Holes ]
  in
  let* grain = oneofl [ 1.0; 0.5; 0.1; 0.01; 1e-3 ] in
  let* max_iterations = int_range 0 400 in
  let* tolerance = oneofl [ 1e-12; 1e-10; 1e-6; 0.0; -1.0 ] in
  return
    {
      lower;
      upper =
        Array.mapi
          (fun i lo ->
            match zero_upper.(i) with
            | Some z when lo <= 0.0 -> z
            | _ -> lo +. widths.(i))
          lower;
      init;
      shape;
      centre;
      grain;
      options = { Nelder_mead.max_iterations; tolerance };
    }

let print_nm_case c =
  let floats a = String.concat "; " (Array.to_list (Array.map string_of_float a)) in
  Printf.sprintf
    "lower [%s] upper [%s] init [%s] centre [%s] grain %g shape %s iterations %d tolerance %g"
    (floats c.lower) (floats c.upper) (floats c.init) (floats c.centre) c.grain
    (match c.shape with
    | `Quadratic -> "quadratic"
    | `Rounded -> "rounded"
    | `Steps -> "steps"
    | `Flat -> "flat"
    | `Taxicab -> "taxicab"
    | `Holes -> "holes")
    c.options.max_iterations c.options.tolerance

let prop_nelder_mead_matches_reference =
  QCheck2.Test.make ~name:"nelder-mead is the reference simplex bit for bit"
    ~count:400 ~print:print_nm_case gen_nm_case (fun c ->
      same_result
        (Nelder_mead.minimize ~options:c.options ~lower:c.lower ~upper:c.upper
           ~init:c.init
           (into_cell (nm_objective c)))
        (Reference_nm.minimize ~options:c.options ~lower:c.lower ~upper:c.upper
           ~init:c.init (nm_objective c)))

(* The planner before its objectives became per-problem closures: the
   reference simplex driving the penalised objectives spelled out over
   [evaluate] and [evaluate_dual], from the same seeds, with the same
   candidate comparators.  Both evaluations are the pinned copies of
   [Reference_density], over a density of that copy built from the same
   inputs as the problem's. *)
module Reference_solver = struct
  open Reference_density

  let params_of_vector v =
    let clamp x = Float.min 1.0 (Float.max 0.0 x) in
    Policy.params ~s3:(clamp v.(0)) ~s5:(clamp v.(1)) ~p_py:(clamp v.(2))
      ~p_fm:(clamp v.(3))

  let worst_unit (t : Solver.problem) =
    let c = t.effective in
    c.Cost_model.c_r +. c.c_p +. c.c_wi +. c.c_wp

  let penalized density (t : Solver.problem) params =
    let e = Solver_ref.evaluate density t params in
    if e.feasible then e.cost
    else begin
      let ceiling = float_of_int t.total *. worst_unit t in
      (2.0 *. ceiling) +. (10.0 *. ceiling *. e.violation)
    end

  let dual_penalized density (t : Solver.problem) ~budget params =
    let e = Solver_ref.evaluate_dual density t ~budget params in
    if e.d_feasible then begin
      let ceiling = Float.max 1.0 (float_of_int t.total *. worst_unit t) in
      -.e.target_recall +. (1e-4 *. e.d_cost /. ceiling)
    end
    else 2.0 +. (10.0 *. e.d_violation)

  (* The default seeds, in [Solver]'s order: the centre, Stingy, Greedy,
     then the 16 corners of the unit hypercube. *)
  let seeds =
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

  let multistart objective finish better =
    let refine (p : Policy.params) =
      let result =
        Reference_nm.minimize
          ~options:{ Nelder_mead.max_iterations = 800; tolerance = 1e-12 }
          ~lower:(Array.make 4 0.0) ~upper:(Array.make 4 1.0)
          ~init:[| p.s3; p.s5; p.p_py; p.p_fm |]
          (fun v -> objective (params_of_vector v))
      in
      finish (params_of_vector result.point)
    in
    match List.map refine seeds with
    | [] -> assert false
    | first :: rest -> List.fold_left better first rest

  let solve density t =
    multistart (penalized density t) (Solver_ref.evaluate density t)
      Solver.better

  let solve_dual density ~budget (t : Solver.problem) =
    let budget = Float.max 0.0 budget in
    let primal = solve density t in
    if primal.feasible && primal.cost <= budget then
      {
        Solver.d_params = primal.params;
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
      multistart
        (dual_penalized density t ~budget)
        (Solver_ref.evaluate_dual density t ~budget)
        Solver.better_dual
end

let params_floats (p : Policy.params) = [ p.s3; p.s5; p.p_py; p.p_fm ]

let same_evaluation (a : Solver.evaluation) (b : Solver.evaluation) =
  a.feasible = b.feasible
  && same_floats
       (params_floats a.params
       @ [ a.violation; a.reads; a.cost; a.expected_precision ])
       (params_floats b.params
       @ [ b.violation; b.reads; b.cost; b.expected_precision ])

let same_dual (a : Solver.dual_evaluation) (b : Solver.dual_evaluation) =
  a.d_feasible = b.d_feasible
  && a.budget_limited = b.budget_limited
  && same_floats
       (params_floats a.d_params
       @ [ a.d_violation; a.target_recall; a.d_reads; a.d_cost; a.d_budget ])
       (params_floats b.d_params
       @ [ b.d_violation; b.target_recall; b.d_reads; b.d_cost; b.d_budget ])

let tier_specs =
  [|
    "proxy:cp=0.1,cb=1,B=32,shrink=0.8;oracle:cp=1,cb=5,B=8";
    "cheap:cp=0.35,cb=2.5,B=16,shrink=0.45;mid:cp=3.7,cb=0.5,B=4,shrink=0.9;oracle:cp=60.5,cb=12.25,B=3";
  |]

(* A random planning problem: uniform or sampled-histogram density,
   fractional prices with a batch surcharge, B in 1..16, sometimes a
   tiered cascade; and a budget that is zero, binding or ample.  With it
   the same density built by [Reference_density]. *)
let random_problem seed =
  let rng = Rng.create seed in
  let f_y = Rng.uniform_in rng 0.02 0.5 in
  let f_m = Rng.uniform_in rng 0.02 (1.0 -. f_y) in
  let max_laxity = Rng.uniform_in rng 10.0 200.0 in
  let spec, reference_density =
    if Int64.logand (Rng.bits64 rng) 1L = 1L then
      ( uniform_spec ~f_y ~f_m ~max_laxity,
        Reference_density.Density_ref.uniform ~max_laxity )
    else begin
      let sample =
        Synthetic.generate (Rng.split rng)
          (Synthetic.config ~total:400 ~f_y ~f_m ~max_laxity ())
      in
      let estimate =
        Selectivity.estimate ~instance:Synthetic.instance ~laxity_cap:max_laxity
          sample
      in
      ( Region_model.spec ~f_y ~f_m ~max_laxity
          ~density:(Density.of_estimate estimate),
        Reference_density.Density_ref.of_estimate estimate )
    end
  in
  let cost =
    Cost_model.make ~c_r:(Rng.uniform_in rng 0.1 3.0)
      ~c_p:(Rng.uniform_in rng 0.5 150.0) ~c_wi:(Rng.uniform_in rng 0.0 2.0)
      ~c_wp:(Rng.uniform_in rng 0.0 2.0)
      ~c_b:(if Rng.int rng 4 = 0 then 0.0 else Rng.uniform_in rng 0.5 40.0)
      ()
  in
  let requirements =
    Quality.requirements ~precision:(Rng.uniform_in rng 0.3 0.99)
      ~recall:(if Rng.int rng 10 = 0 then 0.0 else Rng.uniform_in rng 0.05 0.99)
      ~laxity:(Rng.uniform_in rng 0.0 max_laxity)
  in
  let batch = 1 + Rng.int rng 16 in
  let tiers =
    if Rng.int rng 4 = 0 then
      Probe_tier.of_string tier_specs.(Rng.int rng (Array.length tier_specs))
    else Probe_tier.oracle_only ~cost ~batch ()
  in
  let budget_factor =
    match Rng.int rng 4 with
    | 0 -> 0.0
    | 1 -> Rng.uniform_in rng 1.0 3.0
    | _ -> Rng.uniform_in rng 0.02 0.9
  in
  ( Solver.problem ~total:(100 + Rng.int rng 20_000) ~spec ~requirements ~cost
      ~tiers (),
    reference_density,
    budget_factor )

(* [solve] and [solve_dual] (at [budget_factor] times the primal cost)
   are the reference planner's over the same problem and density. *)
let matches_reference (t, density, budget_factor) =
  let primal = Solver.solve t in
  let budget = budget_factor *. primal.cost in
  same_evaluation primal (Reference_solver.solve density t)
  && same_dual (Solver.solve_dual ~budget t)
       (Reference_solver.solve_dual density ~budget t)

let prop_solver_matches_reference =
  QCheck2.Test.make ~name:"solve and solve_dual are the reference planner bit for bit"
    ~count:60 ~print:(Printf.sprintf "problem seed %d")
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed -> matches_reference (random_problem seed))

(* The histogram's range queries are the pinned copies in
   [Reference_density] bit for bit: random fills (empty ones included,
   values past either edge landing in the boundary bins) queried at
   random bounds, the edges themselves, -0.0, infinities and NaN. *)
let prop_histogram_matches_reference =
  let module R = Reference_density.Histogram_ref in
  QCheck2.Test.make
    ~name:"histogram range queries are the pinned copies bit for bit"
    ~count:200 ~print:(Printf.sprintf "histogram seed %d")
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      let bound lo hi =
        match Rng.int rng 9 with
        | 0 -> Float.nan
        | 1 -> -0.0
        | 2 -> Float.infinity
        | 3 -> Float.neg_infinity
        | 4 -> lo
        | 5 -> hi
        | _ -> Rng.uniform_in rng (lo -. 5.0) (hi +. 5.0)
      in
      let lo = Rng.uniform_in rng (-10.0) 10.0 in
      let hi = lo +. Rng.uniform_in rng 0.5 100.0 in
      let bins = 1 + Rng.int rng 9 in
      let h = Histogram.Hist1d.create ~lo ~hi ~bins
      and r = R.Hist1d.create ~lo ~hi ~bins in
      for _ = 1 to Rng.int rng 60 do
        let v = Rng.uniform_in rng (lo -. 10.0) (hi +. 10.0) in
        Histogram.Hist1d.add h v;
        R.Hist1d.add r v
      done;
      let x_lo = Rng.uniform_in rng (-1.0) 0.5 in
      let x_hi = x_lo +. Rng.uniform_in rng 0.1 2.0 in
      let y_hi = Rng.uniform_in rng 1.0 200.0 in
      let x_bins = 1 + Rng.int rng 9 and y_bins = 1 + Rng.int rng 9 in
      let h2 =
        Histogram.Hist2d.create ~x_lo ~x_hi ~x_bins ~y_lo:0.0 ~y_hi ~y_bins
      and r2 = R.Hist2d.create ~x_lo ~x_hi ~x_bins ~y_lo:0.0 ~y_hi ~y_bins in
      for _ = 1 to Rng.int rng 60 do
        let x = Rng.uniform_in rng (x_lo -. 0.5) (x_hi +. 0.5)
        and y = Rng.uniform_in rng (-10.0) (y_hi +. 10.0) in
        Histogram.Hist2d.add h2 ~x ~y;
        R.Hist2d.add r2 ~x ~y
      done;
      List.for_all
        (fun _ ->
          let a = bound lo hi and b = bound lo hi in
          let x_min = bound x_lo x_hi
          and y_min = bound 0.0 y_hi
          and y_max = bound 0.0 y_hi in
          let live = Histogram.Hist2d.region h2 ~x_min ~y_min ~y_max
          and pinned = R.Hist2d.region r2 ~x_min ~y_min ~y_max in
          same (Histogram.Hist1d.mass_between h a b) (R.Hist1d.mass_between r a b)
          && same (Histogram.Hist1d.mass_above h a) (R.Hist1d.mass_above r a)
          && same live.mass pinned.mass
          && same live.mean_x pinned.mean_x)
        (List.init 40 Fun.id))

(* The simplex allocates nothing per iteration: the objective leaves its
   value in the simplex's cell, points are copied by loops and the
   candidates live in buffers made once per call.  Measured: 0 words per
   iteration on a 4-D quadratic that writes its cell directly; with a
   float-returning objective, 8 words; the simplex that allocated a
   fresh array per point took 276. *)
let test_nelder_mead_allocation () =
  let f x (cell : Nelder_mead.cell) =
    let a = x.(0) -. 0.3 and b = x.(1) -. 0.7 and c = x.(2) and d = x.(3) -. 1.0 in
    cell.value <- (a *. a) +. (b *. b) +. (c *. c) +. (d *. d)
  in
  let words max_iterations =
    (* A negative tolerance never stops the loop early. *)
    let options = { Nelder_mead.max_iterations; tolerance = -1.0 } in
    let before = Gc.minor_words () in
    let r =
      Nelder_mead.minimize ~options ~lower:(Array.make 4 0.0)
        ~upper:(Array.make 4 1.0) ~init:[| 0.5; 0.5; 0.5; 0.5 |] f
    in
    let after = Gc.minor_words () in
    Alcotest.(check int) "ran every iteration" max_iterations r.iterations;
    after -. before
  in
  let per_iteration = (words 1000 -. words 10) /. 990.0 in
  checkb
    (Printf.sprintf "%.1f words per iteration <= 0.1" per_iteration)
    true (per_iteration <= 0.1)

(* The 27 problems shaped like the server's warm workload: |T| =
   10,000, B = 8, paper costs, p x r x l in {0.8, 0.9, 0.95} x
   {0.5, 0.6, 0.8} x {30, 50, 80}. *)
let warm_problems spec =
  List.concat_map
    (fun precision ->
      List.concat_map
        (fun recall ->
          List.map
            (fun laxity ->
              Solver.problem ~total:10_000 ~spec
                ~tiers:(Probe_tier.oracle_only ~cost:Cost_model.paper ~batch:8 ())
                ~requirements:(Quality.requirements ~precision ~recall ~laxity)
                ())
            [ 30.0; 50.0; 80.0 ])
        [ 0.5; 0.6; 0.8 ])
    [ 0.8; 0.9; 0.95 ]

let words_per_solve problems =
  let before = Gc.minor_words () in
  List.iter (fun t -> ignore (Solver.solve t)) problems;
  (Gc.minor_words () -. before) /. float_of_int (List.length problems)

(* A solve allocates only per seed — the simplex's buffers and the
   [evaluate] of its final point — and nothing per evaluation: regions
   are filled in place, the clamps return unboxed and the objective
   writes its value into the simplex's cell.  Over the warm problems
   with the uniform density a solve takes 3,845 words; with the
   objective's value boxed (2 words an evaluation) it took 53,546, with
   a fresh region record per density call and boxed clamps 502,534. *)
let test_solve_allocation () =
  let per_solve =
    words_per_solve
      (warm_problems
         (uniform_spec ~f_y:0.2 ~f_m:0.2 ~max_laxity:100.0))
  in
  checkb
    (Printf.sprintf "%.0f words per solve <= 4,000" per_solve)
    true (per_solve <= 4_000.0)

(* The histogram density a 1% pilot of a 20,000-object workload
   estimates (default bins). *)
let warm_estimate () =
  let sample =
    Synthetic.generate (Rng.create 17)
      (Synthetic.config ~total:200 ~f_y:0.2 ~f_m:0.2 ~max_laxity:100.0 ())
  in
  Selectivity.estimate ~instance:Synthetic.instance ~laxity_cap:100.0 sample

(* The warm problems over [warm_estimate]'s density.  The histogram's
   per-cell clamps and bounds do not call the stdlib's
   [Float.min]/[Float.max] (and through them [caml_signbit]),
   [Hist2d.fill_region] fills the caller's region in place and the
   objective's value goes into the simplex's cell: a solve takes 3,498
   words.  With the value boxed it took 38,414, with boxed bounds and a
   fresh result record per density call 334,699, with the stdlib clamps
   2,742,276. *)
let test_histogram_solve_allocation () =
  let estimate = warm_estimate () in
  let per_solve =
    words_per_solve
      (warm_problems
         (Region_model.spec ~f_y:0.2 ~f_m:0.2 ~max_laxity:100.0
            ~density:(Density.of_estimate estimate)))
  in
  checkb
    (Printf.sprintf "%.0f words per histogram solve <= 3,600" per_solve)
    true (per_solve <= 3_600.0)

(* The warm problems in both densities as fixed cases of
   [prop_solver_matches_reference]: box-corner seeds and clamps onto 0
   and 1 make the kernel's clamps tie on nearly every evaluation.  The
   budgets cycle through binding, zero, nearly ample and ample. *)
let test_warm_problems_match_reference () =
  let estimate = warm_estimate () in
  let densities =
    [
      ( "uniform",
        uniform_spec ~f_y:0.2 ~f_m:0.2 ~max_laxity:100.0,
        Reference_density.Density_ref.uniform ~max_laxity:100.0 );
      ( "histogram",
        Region_model.spec ~f_y:0.2 ~f_m:0.2 ~max_laxity:100.0
          ~density:(Density.of_estimate estimate),
        Reference_density.Density_ref.of_estimate estimate );
    ]
  in
  List.iter
    (fun (name, spec, density) ->
      List.iteri
        (fun i t ->
          let budget_factor = [| 0.5; 0.0; 0.9; 2.0 |].(i mod 4) in
          checkb
            (Printf.sprintf "%s warm problem %d" name i)
            true
            (matches_reference (t, density, budget_factor)))
        (warm_problems spec))
    densities

let suite =
  [
    ("uniform density", `Quick, test_uniform_density);
    ("plan explanation", `Quick, test_explain);
    ("plan explanation prices probes", `Quick, test_explain_probe_price);
    ("histogram density approximates uniform", `Quick, test_histogram_density_approximates_uniform);
    ("region model hand check", `Quick, test_region_model_hand_check);
    ("region spec rejects non-finite fractions", `Quick,
     test_region_spec_rejects_non_finite);
    ("closed-form reads (paper R/|T|)", `Quick, test_closed_form_reads);
    ("zero recall is free", `Quick, test_zero_recall_is_free);
    ("nelder-mead quadratic", `Quick, test_nelder_mead_quadratic);
    ("nelder-mead box constraints", `Quick, test_nelder_mead_respects_box);
    ("nelder-mead allocation per iteration", `Quick, test_nelder_mead_allocation);
    ("solve allocation", `Quick, test_solve_allocation);
    ("histogram solve allocation", `Quick, test_histogram_solve_allocation);
    QCheck_alcotest.to_alcotest prop_nelder_mead_matches_reference;
    QCheck_alcotest.to_alcotest prop_solver_matches_reference;
    ("solve and solve_dual are the reference planner bit for bit: warm problems",
     `Slow, test_warm_problems_match_reference);
    QCheck_alcotest.to_alcotest prop_histogram_matches_reference;
    ("better tie-break on equal violation", `Quick, test_better_tie_break);
    ("dual: ample budget is the primal plan", `Quick,
     test_dual_ample_budget_matches_primal);
    ("dual: zero budget is the empty plan", `Quick,
     test_dual_zero_budget_is_empty);
    ("dual: target monotone in budget", `Slow, test_dual_monotone_in_budget);
    ("solver reproduces paper 5.1", `Slow, test_solver_reproduces_paper);
    ("solve/evaluate agreement", `Quick, test_solver_never_beats_evaluate_feasibility);
    ("grid cross-check", `Slow, test_grid_cross_check);
    ("cost monotone in requirements", `Slow, test_monotone_in_requirements);
  ]
