(** Feasible actions per Theorem 3.1.

    When an object is read and classified YES or MAYBE, the operator can
    {e forward} it, {e probe} it, or {e ignore} it.  Theorem 3.1 rules
    actions out when taking them could make the quality requirements
    unreachable no matter what the operator does later:

    (a) an object with laxity above [l_q^max] can never be forwarded
        (l^max never decreases once in the answer);
    (b) a MAYBE can not be forwarded if that pushes the precision
        guarantee below [p_q] (all remaining objects might be NO);
    (c) an object can not be ignored if the worst-case final recall after
        the ignore would fall below [r_q] (all remaining objects might be
        NO, so nothing later can make up for it).

    Probing is always feasible — it costs, but never endangers quality.
    Consequently the feasible set is never empty, and any policy filtered
    through it yields an operator that meets its requirements on every
    input.  This module is deliberately independent of policies so that
    the safety argument does not depend on how decisions are made. *)

type action = Forward | Probe | Ignore

val equal_action : action -> action -> bool

val can_forward :
  Counters.t -> Quality.requirements -> verdict:Tvl.t -> laxity:float -> bool
(** Rules (a) and (b).  @raise Invalid_argument on a NO verdict (a NO
    object is never forwarded; Fig. 1 line 22). *)

val can_ignore : Counters.t -> Quality.requirements -> verdict:Tvl.t -> bool
(** Rule (c), evaluated on the state {e after} the contemplated ignore
    (for a YES the ignore also adds the object to [|Y|]). *)

val feasible :
  Counters.t -> Quality.requirements -> verdict:Tvl.t -> laxity:float ->
  action list
(** The feasible actions, always containing [Probe]. *)

val first_feasible :
  Counters.t -> Quality.requirements -> verdict:Tvl.t -> laxity:float ->
  preference:action list -> action
(** The first action of [preference] that is feasible; falls back to
    [Probe] if none is. *)

val first_feasible_after :
  yes:int ->
  Counters.t -> Quality.requirements -> verdict:Tvl.t -> laxity:float ->
  preference:action list -> action
(** [first_feasible_after ~yes] is {!first_feasible} on the counters as
    they would stand after [yes] more probes resolved YES (each adds 1
    to [answer_yes], [answer_size] and [yes_seen]).  Rules (b) and (c)
    only loosen as [yes] grows, so when it agrees with [~yes:0] it
    agrees with every [yes] in between — the operator's probe-ahead
    test (see {!Operator.run}). *)
