(** Similarity selection over archived time series (paper §1.1, §2.1).

    The query "find the patients whose ECG is within distance ε of
    pattern XYZ" evaluated over PAA sketches: the sketch's distance
    bounds classify each archived series YES/NO/MAYBE, the width of the
    bound interval is the laxity, and a probe fetches the precise series
    from the archive.  This is the paper's high-precision scenario: the
    selected candidates "must definitely" match, while recall may be
    modest. *)

type item = private {
  id : int;
  sketch : Paa.t;  (** what the query site stores *)
  archive : Time_series.t;  (** the precise series; reading it = probe *)
  resolved : bool;
}

val make_item : id:int -> segments:int -> Time_series.t -> item
(** Sketch a series for the archive. *)

(** A similarity query. *)
type query = { pattern : Time_series.t; epsilon : float }

val query : pattern:Time_series.t -> epsilon:float -> query
(** @raise Invalid_argument if [epsilon] is negative or NaN. *)

val instance : query -> item Operator.instance
(** Laxity is the width of the distance-bound interval; success assumes
    the true distance uniform within it (§4.1's recipe). *)

val probe : item -> item
(** Fetch the precise series; classification becomes definite and laxity
    drops to 0. *)

val in_exact : query -> item -> bool
(** Ground truth: is the precise series within ε of the pattern? *)

val exact_size : query -> item array -> int
