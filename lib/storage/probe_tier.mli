(** Tier specifications for tiered probe cascades.

    A cascade is an ordered array of tiers: zero or more cheap
    [Shrink] proxies (each narrows an object's imprecision interval
    with effectiveness [power] — the probability a shrunk object
    becomes definite under the query) followed by exactly one
    [Resolve] oracle tier that returns a point.  Each tier carries its
    own per-probe cost, per-batch cost and batch size, so tier [i]'s
    amortized probe price is [c_p +. c_b /. float batch]. *)

type kind =
  | Resolve  (** returns a point — today's oracle behaviour *)
  | Shrink of { power : float }
      (** returns a narrower interval; [power] in [0,1] is the
          expected fraction of probed objects that become definite *)

type spec = {
  name : string;
      (** distinct, non-empty, only [\[A-Za-z0-9_\]]; used for
          [qaq.probe.tier.*] *)
  kind : kind;
  c_p : float;  (** per-probe cost at this tier *)
  c_b : float;  (** per-batch cost at this tier *)
  batch : int;  (** batch size at this tier, >= 1 *)
}

val amortized : spec -> float
(** [c_p +. c_b /. float batch]. *)

val validate : spec array -> unit
(** Raises [Invalid_argument] unless: non-empty; exactly the last tier
    is [Resolve]; every batch >= 1; every shrink power in [0,1]; all
    costs finite and >= 0; names distinct, non-empty and made only of
    [\[A-Za-z0-9_\]] (any other character would map to ['_'] in the
    Prometheus names of the tier's metrics, so two distinct names could
    collide). *)

type plan = { start : int; price : float }
(** [price] is the expected amortized cost per probed object of
    starting the cascade at tier [start] and escalating residuals to
    the end. *)

val select : spec array -> plan
(** Cheapest starting tier (earliest wins ties).  Validates. *)

val oracle_only : cost:Cost_model.t -> batch:int -> unit -> spec array
(** The one-tier cascade of a plain oracle, named ["oracle"], at [cost]'s [c_p]/[c_b] and
    batch size [batch]: its strategy price is the amortized
    [c_p +. c_b /. float batch].  The planner's default probe
    price is this cascade at [batch = 1]. *)

val of_string : string -> spec array
(** Parses ["proxy:cp=0.1,cb=1,B=32,shrink=0.8;oracle:cp=1,cb=5,B=8"].
    The [shrink] key marks a proxy tier; without it the tier is
    [Resolve].  Raises [Invalid_argument] on bad grammar or an invalid
    cascade. *)

val pp : Format.formatter -> spec array -> unit
(** Prints the {!of_string} grammar. *)
