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
    The caller owns it and sets the bounds; {!maybe_region} fills in
    [mass] and [mean_s].  The optimizer evaluates thousands of regions per
    solve, so it reuses one record rather than getting a fresh one back
    from every call. *)

val region : s_min:float -> l_min:float -> l_max:float -> region
(** A region with these bounds and nothing filled in yet. *)

(** A density is data, not closures, so the planner's objective can
    match on its kind once per problem and then fill regions with no
    indirect call: the uniform density's regions have a fixed laxity
    fraction each, and a histogram region is a direct call to
    {!Histogram.Hist2d.fill_region}. *)
type t = private
  | Uniform of { max_laxity : float }
      (** The paper's assumption: laxity uniform on [\[0, L\]] for YES and
          MAYBE alike, success uniform on [\[0, 1\]] and independent of
          laxity.  A region with success bound [s] (clamped into
          [\[0, 1\]]) has mass [(1 − s)·f] and mean success [(s + 1)/2]
          (0 when the mass is 0), where [f] is its {!laxity_fraction}.
          [Solver]'s objective spells that formula out itself, so a float
          never crosses a module boundary per evaluation. *)
  | Histogram of {
      yes_laxity : Histogram.Hist1d.t;
      maybe_plane : Histogram.Hist2d.t;
    }  (** Histograms estimated from a pre-query sample. *)

val uniform : max_laxity:float -> t
(** The uniform density over [\[0, max_laxity\]].
    @raise Invalid_argument if [max_laxity <= 0]. *)

val of_estimate : Selectivity.estimate -> t
(** Histogram density from a pre-query sample — the §4.2 refinement. *)

val yes_above : t -> float -> float
(** [yes_above t x]: fraction of YES objects with laxity > x. *)

val maybe_region : t -> region -> unit
(** Sets the region's [mass] and [mean_s] from its bounds. *)

val laxity_fraction : max_laxity:float -> l_min:float -> l_max:float -> float
(** The uniform density's share of laxities in [(l_min, l_max]]:
    the interval clipped to [\[0, max_laxity\]], over [max_laxity]. *)
