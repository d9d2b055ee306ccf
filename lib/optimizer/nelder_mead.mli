(** Derivative-free minimisation (Nelder–Mead downhill simplex).

    Replaces the paper's AMPL/LOQO setup for the 4-parameter problem of
    §4.2.2.  The objective may be discontinuous (feasibility penalties);
    box constraints are handled by clamping candidate points into the
    box before evaluation. *)

type options = {
  max_iterations : int;  (** default 500 *)
  tolerance : float;
      (** stop when the simplex's objective spread falls below this
          (default 1e-10) *)
}

type cell = { mutable value : float }
(** Where the objective leaves its value.  The simplex owns one cell per
    call and reads it after each evaluation, so a value crosses no
    closure boundary and is never boxed. *)

type result = {
  point : float array;  (** the best point found (inside the box) *)
  value : float;
  iterations : int;
}

val minimize :
  ?options:options ->
  lower:float array ->
  upper:float array ->
  init:float array ->
  (float array -> cell -> unit) ->
  result
(** [minimize ~lower ~upper ~init f] runs the simplex from an initial
    point (clamped into the box; the initial simplex steps 10 % of each
    box width, or 0.1 for degenerate widths).

    [f x cell] evaluates the objective at [x], a point already clamped
    into the box, and must set [cell.value] to that value; the simplex
    reads nothing else from it.  [x] is one of the simplex's buffers and
    [cell] is the simplex's: both are reused between calls, so [f] must
    not keep them, and must not change [x].  The buffers are allocated
    once per call, so an iteration allocates nothing but what [f] does,
    and makes no C call: clamps decide ties and signed zeros inline, and
    points are copied by loops.  [point] in the result is a fresh copy.

    Vertices are ranked by value as the stdlib's [Array.sort] would rank
    them, ties included.  The ranking decides the centroid's summation
    order and which vertex is worst, so the points visited and the result
    are those of a simplex that sorts [(point, value)] pairs with
    [Array.sort], bit for bit.

    @raise Invalid_argument on dimension mismatches, an empty dimension,
    or [lower.(i) > upper.(i)]. *)
