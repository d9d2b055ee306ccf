let default_prior = (0.2, 0.2)

type pilot = {
  sample_size : int;
  estimate : Selectivity.estimate option;
  f_y : float;
  f_m : float;
  density : Density.t;
  max_laxity : float;
}

let pilot ~rng ~fraction ~instance ?on_task ?lanes ?max_laxity ~prior ~density
    (source : _ Scan_pipeline.t) =
  let sample, max_laxity =
    source.sample ?max_laxity
      (Scan_pipeline.sample_indices rng ~fraction source.length)
  in
  let estimate =
    if Array.length sample = 0 then None
    else
      Some
        (Selectivity.estimate ~instance ?on_task ?lanes ~laxity_cap:max_laxity
           sample)
  in
  let f_y, f_m =
    match estimate with Some e -> (e.f_y, e.f_m) | None -> prior
  in
  let density =
    match (density, estimate) with
    | `Histogram, Some e -> Density.of_estimate e
    | (`Uniform | `Histogram), _ -> Density.uniform ~max_laxity
  in
  { sample_size = Array.length sample; estimate; f_y; f_m; density; max_laxity }

type solution = {
  problem : Solver.problem;
  params : Policy.params;
  evaluation : Solver.evaluation Lazy.t;
  dual : Solver.dual_evaluation option;
}

let solve ~total ~f_y ~f_m ?density ~max_laxity ~requirements ?cost ?tiers
    ?budget () =
  let density =
    match density with Some d -> d | None -> Density.uniform ~max_laxity
  in
  let spec = Region_model.spec ~f_y ~f_m ~max_laxity ~density in
  let problem = Solver.problem ~total ~spec ~requirements ?cost ?tiers () in
  match budget with
  | None ->
      let e = Solver.solve problem in
      { problem; params = e.params; evaluation = Lazy.from_val e; dual = None }
  | Some budget ->
      let d = Solver.solve_dual ~budget problem in
      {
        problem;
        params = d.d_params;
        evaluation = lazy (Solver.evaluate problem d.d_params);
        dual = Some d;
      }
