(** Equi-width histograms used as density estimates.

    {!Hist1d} estimates marginal distributions (e.g. laxity of YES
    objects); {!Hist2d} estimates the joint [g(s(o), l(o))] density over
    MAYBE objects that §4.2 needs to size the decision regions.  Both
    support mass queries over sub-ranges with fractional bins (the mass
    inside a bin is assumed uniform), and {!Hist2d} also a first moment
    along its first axis for the expected probe success of a region. *)

module Hist1d : sig
  type t

  val create : lo:float -> hi:float -> bins:int -> t
  (** @raise Invalid_argument if [lo >= hi] or [bins < 1]. *)

  val add : t -> float -> unit
  (** Values outside [\[lo, hi\]] are clamped into the boundary bins.
      @raise Invalid_argument on a non-finite value (a NaN would
      otherwise corrupt bin 0). *)

  val mass_above : t -> float -> float
  (** Fraction of observations with value [> x] (fractional bins; 0 when
      the histogram is empty). *)

  val mass_between : t -> float -> float -> float
  (** Fraction with value in [\[a, b\]]; 0 when empty or [a > b]. *)
end

module Hist2d : sig
  type t

  val create :
    x_lo:float -> x_hi:float -> x_bins:int ->
    y_lo:float -> y_hi:float -> y_bins:int -> t

  val add : t -> x:float -> y:float -> unit
  (** @raise Invalid_argument on a non-finite coordinate. *)

  type plane_region = {
    mutable s_min : float;
    mutable l_min : float;
    mutable l_max : float;  (** the region: [x > s_min], [l_min < y <= l_max] *)
    mutable mass : float;  (** fraction of observations in the region *)
    mutable mean_s : float;  (** mean of [x] within it (0 if empty) *)
  }
  (** A region of the decision plane, with [x] as [s(o)] and [y] as
      [l(o)], that {!fill_region} fills in place; [Density.region] is
      this record. *)

  val fill_region : t -> plane_region -> unit
  (** Sets [mass] and [mean_s] from the bounds, as {!region} computes
      them, allocating nothing. *)

  type region_stats = {
    mass : float;  (** fraction of observations in the region *)
    mean_x : float;  (** mean of the x coordinate within it (0 if empty) *)
  }

  val region : t -> x_min:float -> y_min:float -> y_max:float -> region_stats
  (** Observations with [x > x_min] and [y_min < y <= y_max], with
      fractional boundary bins.  Exactly the region shape of the paper's
      decision plane: [x] plays [s(o)], [y] plays [l(o)].  Allocates
      its result; the optimizer's hot path uses {!fill_region}. *)
end
