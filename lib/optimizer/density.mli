(** Densities over the (s(o), l(o)) decision plane (paper §4.2).

    The optimizer needs, for YES objects, the fraction with laxity above a
    bound, and for MAYBE objects the mass and mean success probability of
    rectangular regions of the plane.  The paper develops its parameter
    setting under a uniformity assumption and notes that a histogram
    estimated from a sample could replace it; both are provided. *)

type region = Histogram.Hist2d.plane_region = {
  mutable s_min : float;
  mutable l_min : float;
  mutable l_max : float;  (** the region: [s > s_min], [l_min < l <= l_max] *)
  mutable mass : float;  (** fraction of MAYBE objects in the region *)
  mutable mean_s : float;
      (** their mean success probability (0 when the region is empty) *)
}
(** A rectangle of the decision plane and what a density says about it.
    The caller owns it and sets the bounds; {!t.maybe_region} fills in
    [mass] and [mean_s].  The optimizer evaluates thousands of regions per
    solve, so it reuses one record rather than getting a fresh one back
    from every call. *)

val region : s_min:float -> l_min:float -> l_max:float -> region
(** A region with these bounds and nothing filled in yet. *)

type t = {
  yes_above : float -> float;
      (** [yes_above x]: fraction of YES objects with laxity > x. *)
  maybe_region : region -> unit;
      (** Sets the region's [mass] and [mean_s] from its bounds. *)
}

val uniform : max_laxity:float -> t
(** The paper's assumption: laxity uniform on [\[0, L\]] for YES and MAYBE
    alike, success uniform on [\[0, 1\]] and independent of laxity.
    @raise Invalid_argument if [max_laxity <= 0]. *)

val of_estimate : Selectivity.estimate -> t
(** Histogram density from a pre-query sample — the §4.2 refinement. *)
