(** The closed-form expected-count model of §4.2.

    Given the decision-region parameters [(s3, s5, p_py, p_fm)], input
    composition [(f_y, f_m)] and a density over the decision plane, this
    module predicts — per object read — how many objects fall in each
    region and what the operator does with them:

    - region 6 ([YES, l > l_q^max]): probed with probability [p_py];
    - region 7 ([YES, l <= l_q^max]): forwarded;
    - region 3 ([MAYBE, l > l_q^max, s > s3]): probed;
    - region 2 (rest above the bound): ignored;
    - region 5 ([MAYBE, l <= l_q^max, s > s5]): probed;
    - region 4 (rest below the bound): forwarded with probability [p_fm].

    Probes of MAYBE objects succeed with the region's mean success
    probability — the paper's [(s3+1)/2] and [(s5+1)/2] under the uniform
    density.  Everything is per unit read, so all absolute quantities
    scale linearly with the number of objects read [R]. *)

type spec = {
  f_y : float;  (** fraction of YES objects in the input *)
  f_m : float;  (** fraction of MAYBE objects in the input *)
  max_laxity : float;  (** L, the largest laxity in the input *)
  density : Density.t;
}

val spec :
  f_y:float -> f_m:float -> max_laxity:float -> density:Density.t -> spec
(** @raise Invalid_argument if fractions are negative, sum above 1, or
    [max_laxity <= 0]. *)

(** Expected quantities per object read. *)
type fractions = {
  yes : float;  (** Y/R *)
  maybe : float;  (** M/R *)
  yes_probed : float;  (** Y_p/R *)
  yes_forwarded : float;  (** Y_f/R *)
  maybe_probed : float;  (** M_p/R *)
  maybe_forwarded : float;  (** M_f/R *)
  maybe_probe_yes : float;  (** M_py/R *)
}

val fractions : spec -> laxity_bound:float -> Policy.params -> fractions

val precision_estimate : fractions -> float
(** LHS of constraint (15): expected precision of the answer,
    [(Y_p + Y_f + M_py) / (Y_p + Y_f + M_py + M_f)]; 1 when the answer is
    expected empty. *)

val answer_yes_rate : fractions -> float
(** [α = (Y_p + Y_f + M_py)/R] — expected YES answers per object read. *)

val uncertainty_rate : fractions -> float
(** [β = (Y + M + M_py − M_p − M_f)/R] — expected growth per object read
    of the recall-guarantee denominator's "seen" part
    [|Y| + |M_s − A|]. *)

val unit_cost : Cost_model.t -> fractions -> float
(** Expected cost per object read:
    [c_r + (Y_p+M_p)c_p/R + (Y_f+M_f)c_wi/R + (Y_p+M_py)c_wp/R]. *)
