(* [Float.min] and [Float.max] bit for bit, with no C call unless an
   argument is NaN (DESIGN §4, "Planner kernel"). *)
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

  (* Fraction of bin [i] intersecting (a, b], assuming uniform mass. *)
  let[@inline] overlap t i a b =
    let lo = t.lo +. (float_of_int i *. t.width) in
    let l = fmax lo a and h = fmin (lo +. t.width) b in
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

  type plane_region = {
    mutable s_min : float;
    mutable l_min : float;
    mutable l_max : float;
    mutable mass : float;
    mutable mean_s : float;
  }

  type region_stats = { mass : float; mean_x : float }

  (* The bounds are read once into locals and the two results written
     back, so a call allocates nothing: float arguments and a result
     record would each be boxed. *)
  let fill_region t (r : plane_region) =
    let x_min = r.s_min and y_min = r.l_min and y_max = r.l_max in
    if t.total = 0 then begin
      r.mass <- 0.0;
      r.mean_s <- 0.0
    end
    else begin
      let mass = ref 0.0 and weighted_x = ref 0.0 in
      for cx = 0 to t.x_bins - 1 do
        let x_cell_lo = t.x_lo +. (float_of_int cx *. t.x_width) in
        let x_cell_hi = x_cell_lo +. t.x_width in
        let x_frac = clamp01 ((x_cell_hi -. fmax x_min x_cell_lo) /. t.x_width) in
        if x_frac > 0.0 then
          for cy = 0 to t.y_bins - 1 do
            let cell = t.cells.(cx).(cy) in
            if cell.count > 0 then begin
              let y_cell_lo = t.y_lo +. (float_of_int cy *. t.y_width) in
              let y_cell_hi = y_cell_lo +. t.y_width in
              let y_overlap =
                fmin y_cell_hi y_max -. fmax y_cell_lo y_min
              in
              let y_frac = clamp01 (y_overlap /. t.y_width) in
              if y_frac > 0.0 then begin
                let m = float_of_int cell.count *. x_frac *. y_frac in
                (* Mean x within the region slice: the cell's empirical
                   mean when fully inside, the midpoint of the clipped
                   sub-range when the x_min cut crosses the cell. *)
                let mx =
                  if x_frac >= 1.0 then cell.sum_x /. float_of_int cell.count
                  else (fmax x_min x_cell_lo +. x_cell_hi) /. 2.0
                in
                mass := !mass +. m;
                weighted_x := !weighted_x +. (m *. mx)
              end
            end
          done
      done;
      if !mass = 0.0 then begin
        r.mass <- 0.0;
        r.mean_s <- 0.0
      end
      else begin
        r.mass <- clamp01 (!mass /. float_of_int t.total);
        r.mean_s <- !weighted_x /. !mass
      end
    end

  let region t ~x_min ~y_min ~y_max =
    let r =
      { s_min = x_min; l_min = y_min; l_max = y_max; mass = 0.0; mean_s = 0.0 }
    in
    fill_region t r;
    { mass = r.mass; mean_x = r.mean_s }
end
