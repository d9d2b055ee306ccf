(** Similarity selection over archived documents by edit distance.

    The querying-barrier scenario of §1.1: the predicate itself (edit
    distance to a pattern, at most [k]) is expensive, so the "probe" is
    running the real distance computation against the archived text,
    while the stored q-gram profiles classify cheap certain non-matches
    up front.  Classification is conservative on the YES side — profiles
    alone can never certify a match, so unresolved documents are NO or
    MAYBE; the quality machinery handles that shape exactly like any
    other imprecise input (YES objects simply only appear after
    probes). *)

type item = private {
  id : int;
  sketch : Qgram.t;  (** what the query site stores *)
  text : string;  (** the archived document; touching it = probe *)
  resolved : bool;
}

val make_item : id:int -> q:int -> string -> item

type query = { pattern : string; pattern_sketch : Qgram.t; k : int }

val query : q:int -> pattern:string -> k:int -> query
(** @raise Invalid_argument if [k < 0] or [q < 1] or the q mismatches
    items built with a different q (checked at evaluation time). *)

val instance : query -> item Operator.instance
(** Laxity is the width of the distance bound interval; success is a
    calibrated prior from where [k] falls inside the bounds. *)

val probe : item -> item
(** Run the real edit distance (conceptually: fetch the document and
    evaluate the expensive predicate). *)

val in_exact : query -> item -> bool
val exact_size : query -> item array -> int
