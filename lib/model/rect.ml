type point = { x : float; y : float }
type t = { xr : Interval.t; yr : Interval.t }

let make xr yr = { xr; yr }

let of_center { x; y } ~radius =
  if radius < 0.0 then invalid_arg "Rect.of_center: negative radius";
  {
    xr = Interval.make (x -. radius) (x +. radius);
    yr = Interval.make (y -. radius) (y +. radius);
  }

let of_point p = { xr = Interval.point p.x; yr = Interval.point p.y }

let laxity t =
  let w = Interval.width t.xr and h = Interval.width t.yr in
  sqrt ((w *. w) +. (h *. h))

let area t = Interval.width t.xr *. Interval.width t.yr
let contains t p = Interval.contains t.xr p.x && Interval.contains t.yr p.y
let subset a b = Interval.subset a.xr b.xr && Interval.subset a.yr b.yr
let intersects a b = Interval.intersects a.xr b.xr && Interval.intersects a.yr b.yr

let classify_in o window =
  if subset o window then Tvl.Yes
  else if not (intersects o window) then Tvl.No
  else Tvl.Maybe

let success_in o window =
  let a = area o in
  if a = 0.0 then begin
    (* Degenerate object: position is known along at least one axis. *)
    if
      subset o window
      || (intersects o window
         && Interval.is_point o.xr && Interval.is_point o.yr)
    then 1.0
    else if not (intersects o window) then 0.0
    else begin
      (* A segment: covered length fraction along the non-degenerate axis. *)
      let frac i w =
        if Interval.is_point i then 1.0
        else
          match Interval.intersection i w with
          | None -> 0.0
          | Some overlap -> Interval.width overlap /. Interval.width i
      in
      frac o.xr window.xr *. frac o.yr window.yr
    end
  end
  else begin
    match
      (Interval.intersection o.xr window.xr, Interval.intersection o.yr window.yr)
    with
    | Some ox, Some oy -> Interval.width ox *. Interval.width oy /. a
    | None, _ | _, None -> 0.0
  end

let sample rng t =
  { x = Interval.sample rng t.xr; y = Interval.sample rng t.yr }
