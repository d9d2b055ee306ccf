(* The histogram's two range queries as they stood before their clamps
   and bounds went through unboxed [fmin]/[fmax]: verbatim copies of
   [Histogram.Hist1d.mass_between] and [Histogram.Hist2d.region], with
   the representation, [create] and [add] they read (the library's
   types are abstract) and without the accessors nothing here calls.
   [test_optimizer.ml] checks the live queries against these bit for
   bit. *)

module Histogram_ref = struct
  let clamp01 x = Float.min 1.0 (Float.max 0.0 x)

  module Hist1d = struct
    type t = {
      lo : float;
      hi : float;
      bins : int;
      width : float;
      counts : int array;
      mutable total : int;
    }

    let create ~lo ~hi ~bins =
      if lo >= hi then invalid_arg "Hist1d.create: lo >= hi";
      if bins < 1 then invalid_arg "Hist1d.create: bins < 1";
      {
        lo;
        hi;
        bins;
        width = (hi -. lo) /. float_of_int bins;
        counts = Array.make bins 0;
        total = 0;
      }

    let bin_of t x =
      (* int_of_float on NaN is 0: a NaN sample would silently land in bin
         0 and corrupt the density the optimizer integrates over. *)
      if not (Float.is_finite x) then invalid_arg "Hist1d.bin_of: non-finite value";
      let i = int_of_float ((x -. t.lo) /. t.width) in
      Stdlib.max 0 (Stdlib.min (t.bins - 1) i)

    let add t x =
      t.counts.(bin_of t x) <- t.counts.(bin_of t x) + 1;
      t.total <- t.total + 1

    let bin_range t i =
      let lo = t.lo +. (float_of_int i *. t.width) in
      (lo, lo +. t.width)

    (* Fraction of bin [i] intersecting (a, b], assuming uniform mass. *)
    let overlap t i a b =
      let lo, hi = bin_range t i in
      let l = Float.max lo a and h = Float.min hi b in
      if h <= l then 0.0 else (h -. l) /. t.width

    let mass_between t a b =
      if t.total = 0 || a > b then 0.0
      else begin
        let acc = ref 0.0 in
        for i = 0 to t.bins - 1 do
          acc := !acc +. (float_of_int t.counts.(i) *. overlap t i a b)
        done;
        clamp01 (!acc /. float_of_int t.total)
      end

    let mass_above t x = mass_between t x t.hi
  end

  module Hist2d = struct
    type cell = { mutable count : int; mutable sum_x : float }

    type t = {
      x_lo : float;
      x_hi : float;
      x_bins : int;
      x_width : float;
      y_lo : float;
      y_hi : float;
      y_bins : int;
      y_width : float;
      cells : cell array array;  (* [x][y] *)
      mutable total : int;
    }

    let create ~x_lo ~x_hi ~x_bins ~y_lo ~y_hi ~y_bins =
      if x_lo >= x_hi || y_lo >= y_hi then invalid_arg "Hist2d.create: bounds";
      if x_bins < 1 || y_bins < 1 then invalid_arg "Hist2d.create: bins";
      {
        x_lo;
        x_hi;
        x_bins;
        x_width = (x_hi -. x_lo) /. float_of_int x_bins;
        y_lo;
        y_hi;
        y_bins;
        y_width = (y_hi -. y_lo) /. float_of_int y_bins;
        cells =
          Array.init x_bins (fun _ ->
              Array.init y_bins (fun _ -> { count = 0; sum_x = 0.0 }));
        total = 0;
      }

    let index lo width bins v =
      if not (Float.is_finite v) then invalid_arg "Hist2d.index: non-finite value";
      let i = int_of_float ((v -. lo) /. width) in
      Stdlib.max 0 (Stdlib.min (bins - 1) i)

    let add t ~x ~y =
      let cx = index t.x_lo t.x_width t.x_bins x in
      let cy = index t.y_lo t.y_width t.y_bins y in
      let cell = t.cells.(cx).(cy) in
      cell.count <- cell.count + 1;
      cell.sum_x <- cell.sum_x +. x;
      t.total <- t.total + 1

    type region_stats = { mass : float; mean_x : float }

    let region t ~x_min ~y_min ~y_max =
      if t.total = 0 then { mass = 0.0; mean_x = 0.0 }
      else begin
        let mass = ref 0.0 and weighted_x = ref 0.0 in
        for cx = 0 to t.x_bins - 1 do
          let x_cell_lo = t.x_lo +. (float_of_int cx *. t.x_width) in
          let x_cell_hi = x_cell_lo +. t.x_width in
          let x_frac = clamp01 ((x_cell_hi -. Float.max x_min x_cell_lo) /. t.x_width) in
          if x_frac > 0.0 then
            for cy = 0 to t.y_bins - 1 do
              let cell = t.cells.(cx).(cy) in
              if cell.count > 0 then begin
                let y_cell_lo = t.y_lo +. (float_of_int cy *. t.y_width) in
                let y_cell_hi = y_cell_lo +. t.y_width in
                let y_overlap =
                  Float.min y_cell_hi y_max -. Float.max y_cell_lo y_min
                in
                let y_frac = clamp01 (y_overlap /. t.y_width) in
                if y_frac > 0.0 then begin
                  let m = float_of_int cell.count *. x_frac *. y_frac in
                  (* Mean x within the region slice: the cell's empirical
                     mean when fully inside, the midpoint of the clipped
                     sub-range when the x_min cut crosses the cell. *)
                  let mx =
                    if x_frac >= 1.0 then cell.sum_x /. float_of_int cell.count
                    else (Float.max x_min x_cell_lo +. x_cell_hi) /. 2.0
                  in
                  mass := !mass +. m;
                  weighted_x := !weighted_x +. (m *. mx)
                end
              end
            done
        done;
        if !mass = 0.0 then { mass = 0.0; mean_x = 0.0 }
        else
          {
            mass = clamp01 (!mass /. float_of_int t.total);
            mean_x = !weighted_x /. !mass;
          }
      end
  end
end

(* The planner's density arithmetic as it stood before [Density] filled
   caller-owned regions in place: verbatim copies of [Density.uniform]
   and [Density.of_estimate], which returned a fresh record per region,
   of [Region_model.fractions] over them, and of [Solver.evaluate] and
   [Solver.evaluate_dual] over those fractions.  The only edits are
   module paths, the [Region_model.fractions] and [Solver] result types
   named where the copies build those records, and a [spec] built from a
   problem with the density passed in.  The reference planner in
   [test_optimizer.ml] evaluates through this copy, so its "bit for bit"
   property does not move with the library code it checks. *)

module Density_ref = struct
  type region_stats = { mass : float; mean_s : float }

  type t = {
    yes_above : float -> float;
    maybe_region : s_min:float -> l_min:float -> l_max:float -> region_stats;
  }

  let clamp01 x = Float.min 1.0 (Float.max 0.0 x)

  let uniform ~max_laxity =
    if not (Float.is_finite max_laxity && max_laxity > 0.0) then
      invalid_arg "Density.uniform: max_laxity <= 0";
    let laxity_fraction l_min l_max =
      let lo = Float.max 0.0 l_min and hi = Float.min max_laxity l_max in
      if hi <= lo then 0.0 else (hi -. lo) /. max_laxity
    in
    {
      yes_above = (fun x -> laxity_fraction x max_laxity);
      maybe_region =
        (fun ~s_min ~l_min ~l_max ->
          let s_min = clamp01 s_min in
          let mass = (1.0 -. s_min) *. laxity_fraction l_min l_max in
          (* Success uniform on (s_min, 1]: mean is the midpoint — exactly
             the paper's (s+1)/2 expected probe success. *)
          let mean_s = if mass = 0.0 then 0.0 else (s_min +. 1.0) /. 2.0 in
          { mass; mean_s });
    }

  let of_estimate (e : Selectivity.estimate) =
    {
      yes_above = (fun x -> Histogram.Hist1d.mass_above e.yes_laxity x);
      maybe_region =
        (fun ~s_min ~l_min ~l_max ->
          let r =
            Histogram.Hist2d.region e.maybe_plane ~x_min:s_min ~y_min:l_min
              ~y_max:l_max
          in
          { mass = r.mass; mean_s = r.mean_x });
    }
end

module Region_model_ref = struct
  type spec = {
    f_y : float;
    f_m : float;
    max_laxity : float;
    density : Density_ref.t;
  }

  let spec density (t : Solver.problem) =
    let s = t.spec in
    { f_y = s.f_y; f_m = s.f_m; max_laxity = s.max_laxity; density }

  let fractions t ~laxity_bound (p : Policy.params) : Region_model.fractions =
    let lq = laxity_bound in
    let yes_hi = t.density.yes_above lq in
    let yes_lo = Float.max 0.0 (1.0 -. yes_hi) in
    (* Region 3: MAYBE above the laxity bound with s > s3, probed. *)
    let r3 = t.density.maybe_region ~s_min:p.s3 ~l_min:lq ~l_max:t.max_laxity in
    (* Region 5: MAYBE below the bound with s > s5, probed. *)
    let r5 = t.density.maybe_region ~s_min:p.s5 ~l_min:(-1.0) ~l_max:lq in
    (* Region 4: the rest of the MAYBEs below the bound. *)
    let below_all = t.density.maybe_region ~s_min:0.0 ~l_min:(-1.0) ~l_max:lq in
    let r4_mass = Float.max 0.0 (below_all.mass -. r5.mass) in
    let p3 = r3.mass *. t.f_m in
    let p5 = r5.mass *. t.f_m in
    {
      yes = t.f_y;
      maybe = t.f_m;
      yes_probed = p.p_py *. yes_hi *. t.f_y;
      yes_forwarded = yes_lo *. t.f_y;
      maybe_probed = p3 +. p5;
      maybe_forwarded = p.p_fm *. r4_mass *. t.f_m;
      maybe_probe_yes = (r3.mean_s *. p3) +. (r5.mean_s *. p5);
    }
end

module Solver_ref = struct
  let tolerance = 1e-9

  let evaluate density (t : Solver.problem) (params : Policy.params) :
      Solver.evaluation =
    let req = t.requirements in
    let f =
      Region_model_ref.fractions
        (Region_model_ref.spec density t)
        ~laxity_bound:req.laxity params
    in
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

  let evaluate_dual density (t : Solver.problem) ~budget
      (params : Policy.params) : Solver.dual_evaluation =
    let req = t.requirements in
    let f =
      Region_model_ref.fractions
        (Region_model_ref.spec density t)
        ~laxity_bound:req.laxity params
    in
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
end
