(** Quality requirements, guarantees and diagnostics (paper §2).

    A Quality-Aware Query carries three tolerances: a precision bound
    [p_q], a recall bound [r_q] (set-based accuracy, §2.1) and a laxity
    bound [l_q^max] (value-based accuracy, §2.2).  The evaluation returns
    {e guarantees}: lower bounds on the precision and recall of the
    returned answer with respect to the (unknown) exact set, and the
    actual maximum laxity of the answer (Eqs. 8–10).

    {!Diagnostics} computes the true precision and recall (Eqs. 3–4) when
    ground truth is available — usable only in tests and experiments,
    exactly as the paper uses them. *)

type requirements = private {
  precision : float;  (** p_q in [0, 1] *)
  recall : float;  (** r_q in [0, 1] *)
  laxity : float;  (** l_q^max >= 0 *)
}

val requirements :
  precision:float -> recall:float -> laxity:float -> requirements
(** @raise Invalid_argument if a bound is out of range or not finite.
    [l_q^max = ∞] is not expressible; [p_q = 1, r_q = 1] with laxity
    [max_float] are the requirements under which the answer equals the
    exact set (every MAYBE is probed). *)

val pp_requirements : Format.formatter -> requirements -> unit

type guarantees = {
  precision : float;  (** p^G: the answer's precision is at least this *)
  recall : float;  (** r^G: the answer's recall is at least this *)
  max_laxity : float;  (** l^max: largest laxity in the answer *)
}

val meets : guarantees -> requirements -> bool
(** [p^G >= p_q && r^G >= r_q && l^max <= l_q^max]. *)

val pp_guarantees : Format.formatter -> guarantees -> unit

module Diagnostics : sig
  val precision : answer_size:int -> answer_in_exact:int -> float
  (** Eq. 3: [|A ∩ E| / |A|], 1 when the answer is empty.
      @raise Invalid_argument on negative or inconsistent counts. *)

  val recall : exact_size:int -> answer_in_exact:int -> float
  (** Eq. 4: [|A ∩ E| / |E|], 1 when the exact set is empty.
      @raise Invalid_argument on negative or inconsistent counts. *)
end
