(** Multi-attribute tuples with per-attribute imprecision.

    The paper treats objects as atomic: one belief, one probe.  Real
    records have several uncertain attributes (a sensor's temperature
    {e and} battery level; a vehicle's position {e and} speed), queried
    by Boolean combinations of per-attribute predicates and probed
    {e per attribute} — fetching one attribute of one tuple costs one
    probe, and a conjunction may be decidable after probing just one
    conjunct.

    This module lifts the framework to that setting:

    - a {!schema} names the attributes;
    - a {!tuple} holds one belief per attribute (plus hidden ground
      truth, revealed attribute-by-attribute);
    - a {!condition} combines per-attribute scalar predicates with
      AND/OR/NOT, evaluated in Kleene logic over the per-attribute
      verdicts.  Kleene evaluation is sound (YES/NO verdicts are never
      wrong) but not complete — naively, [x >= 1 OR x <= 2] on one fuzzy
      attribute would stay MAYBE even though it is a tautology.
      Conditions are therefore normalised first: negations are pushed to
      the atoms and same-attribute atoms that are siblings under one
      connective are merged into a single atom whose compound
      {!Predicate.t} has exact satisfying-set semantics, which recovers
      completeness for per-attribute combinations like the above;
    - {!next_probe} picks which single attribute to probe next: the
      MAYBE attribute whose resolution is most likely to decide the
      whole condition, estimated from the belief models.

    The QaQ operator runs unchanged on top via {!select} and
    {!resolve}; condition laxity is the largest laxity among the
    attributes the condition mentions that are still imprecise. *)

type schema = private { names : string array }

val schema : string list -> schema
(** @raise Invalid_argument on an empty or duplicated attribute list. *)

type tuple = private {
  id : int;
  beliefs : Uncertain.t array;
  truths : float array;  (** hidden; revealed per attribute by probes *)
}

val tuple : id:int -> beliefs:Uncertain.t array -> truths:float array -> tuple
(** @raise Invalid_argument on arity mismatch or a truth outside its
    belief's support. *)

(** Conditions over a schema. *)
type condition =
  | Atom of int * Predicate.t  (** attribute index, scalar predicate *)
  | Not of condition
  | And of condition * condition
  | Or of condition * condition

val atom : schema -> string -> Predicate.t -> condition
(** By attribute name.  @raise Not_found if absent. *)

val classify : condition -> tuple -> Tvl.t
(** Kleene evaluation over per-attribute verdicts, with each attribute's
    atoms first normalised into one exact satisfying set. *)

val success : condition -> tuple -> float
(** Probability the condition holds, assuming independent attributes:
    per-atom masses are exact (satisfying-set measure under the
    belief) and are combined through the tree as if subformulas were
    independent — exact whenever, after normalisation, each attribute
    appears in at most one atom, an estimate otherwise.  Always in
    [\[0, 1\]]; 1 on YES and 0 on NO. *)

val laxity : condition -> tuple -> float
(** Largest laxity among mentioned, still-imprecise attributes; 0 when
    every mentioned attribute is precise. *)

val next_probe : condition -> tuple -> int option
(** The attribute {!resolve} would fetch next: among mentioned
    attributes still imprecise, the one with the greatest chance of
    deciding the condition (decision probability estimated by
    resolving that attribute to YES/NO extremes); [None] if the
    condition is already definite or no mentioned attribute is
    imprecise. *)

val resolve : ?meter:Cost_meter.t -> condition -> tuple -> tuple
(** Probe attributes ({!next_probe} order, one [c_p] charge on [meter]
    each) until the condition is definite.  Total fetches bounded by the
    number of mentioned attributes. *)

type report = {
  answer : tuple Operator.emitted list;
  guarantees : Quality.guarantees;
  requirements : Quality.requirements;
  counts : Cost_meter.counts;
      (** [probes] counts {e attribute fetches}, the unit that costs
          [c_p]; one operator-level probe decision may fetch several
          attributes (or, for a decided-by-first-fetch conjunction,
          fewer than the condition mentions) *)
  probe_actions : int;  (** operator-level probe decisions *)
  answer_size : int;
  exhausted : bool;
}

val select :
  rng:Rng.t -> requirements:Quality.requirements -> condition -> tuple array -> report
(** Quality-aware selection over a relation: {!Operator.run} under
    {!Policy.stingy}, with probing delegated to {!resolve}, charging
    [c_p] per attribute fetch.  The guarantee story is unchanged: the
    Theorem 3.1 guards are on, so the requirements always hold. *)
