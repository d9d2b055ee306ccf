(** The constant-memory state of the QaQ selection operator (Fig. 1).

    The operator never stores objects; its entire state is six counters
    from which the quality guarantees of Eqs. 8–10 are computed:

    - [unseen]        — |M_ns|, objects not yet read;
    - [yes_seen]      — |Y|, objects known YES (read as YES, or MAYBE
                        probed to YES);
    - [answer_yes]    — |A ∩ Y|, YES objects forwarded;
    - [answer_size]   — |A|, all objects forwarded;
    - [maybe_ignored] — |M_s − A|, MAYBE objects seen, not probed, not
                        forwarded;
    - [max_laxity]    — l^max, the largest laxity forwarded so far.

    Mutation happens only through the event functions below, which
    implement exactly the updates of Fig. 1 / Table 1. *)

type t

val create : total:int -> t
(** Fresh state for an input of [total] objects ([|M_ns| = |T|]).
    @raise Invalid_argument if [total < 0]. *)

val copy : t -> t

(** {2 Events (one per Fig. 1 case)} *)

val saw_no : t -> unit
(** Read a NO object: it is discarded. *)

val forward_yes : t -> laxity:float -> unit
(** Read a YES object and append it (imprecise) to the answer. *)

val probe_yes : t -> unit
(** Read a YES object, probe it, append the precise version (laxity 0). *)

val ignore_yes : t -> unit
(** Read a YES object and ignore it. *)

val forward_maybe : t -> laxity:float -> unit
(** Read a MAYBE object and append it unresolved. *)

val probe_maybe_yes : t -> unit
(** Read a MAYBE, probe it, it resolved YES: precise version appended. *)

val probe_maybe_no : t -> unit
(** Read a MAYBE, probe it, it resolved NO: discarded. *)

val ignore_maybe : t -> unit
(** Read a MAYBE object and ignore it. *)

(** {2 Observations} *)

val unseen : t -> int
val yes_seen : t -> int
val answer_yes : t -> int
val answer_size : t -> int
val maybe_ignored : t -> int

val recall_guarantee : t -> float
(** Eq. 9: [|A∩Y| / (|Y| + |M_ns| + |M_s−A|)], 1 when the denominator is
    0 (then the exact set is provably empty or fully captured). *)

val recall_met : t -> Quality.requirements -> bool
(** [recall_guarantee t >= requirements.recall], without boxing the
    guarantee: the operator's stopping test, asked before every read. *)

val worst_case_final_recall : t -> float
(** The recall guarantee that would hold if every remaining unseen object
    turned out NO: [|A∩Y| / (|Y| + |M_s−A|)].  This is the quantity
    Theorem 3.1(c) protects: it never decreases under any action except
    ignoring, so an ignore is only safe while it stays at or above
    [r_q]. *)

val guarantees : t -> Quality.guarantees
