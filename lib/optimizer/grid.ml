let better a b =
  match (a.Solver.feasible, b.Solver.feasible) with
  | true, false -> a
  | false, true -> b
  | true, true -> if a.Solver.cost <= b.Solver.cost then a else b
  | false, false -> if a.Solver.violation <= b.Solver.violation then a else b

let clamp01 x = Float.min 1.0 (Float.max 0.0 x)

let search_box problem ~resolution (center : Policy.params) ~radius =
  let steps = resolution + 1 in
  let axis c =
    Array.init steps (fun i ->
        let t = float_of_int i /. float_of_int resolution in
        clamp01 (c -. radius +. (2.0 *. radius *. t)))
  in
  let s3s = axis center.s3
  and s5s = axis center.s5
  and p_pys = axis center.p_py
  and p_fms = axis center.p_fm in
  let best = ref None in
  Array.iter
    (fun s3 ->
      Array.iter
        (fun s5 ->
          Array.iter
            (fun p_py ->
              Array.iter
                (fun p_fm ->
                  let e =
                    Solver.evaluate problem (Policy.params ~s3 ~s5 ~p_py ~p_fm)
                  in
                  best :=
                    Some (match !best with None -> e | Some b -> better e b))
                p_fms)
            p_pys)
        s5s)
    s3s;
  match !best with Some e -> e | None -> assert false

let search ?(resolution = 10) problem =
  if resolution < 1 then invalid_arg "Grid.search: resolution < 1";
  let center = Policy.params ~s3:0.5 ~s5:0.5 ~p_py:0.5 ~p_fm:0.5 in
  let incumbent = ref (search_box problem ~resolution center ~radius:0.5) in
  let radius = ref (1.0 /. float_of_int resolution) in
  for _ = 1 to 2 do
    let refined =
      search_box problem ~resolution !incumbent.Solver.params ~radius:!radius
    in
    incumbent := better refined !incumbent;
    radius := !radius /. float_of_int resolution
  done;
  !incumbent
