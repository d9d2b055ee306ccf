(** Brute-force grid search over the parameter cube.

    An independent cross-check for {!Solver.solve}: enumerate
    [(s3, s5, p_py, p_fm)] on a regular grid, optionally refine around the
    best cell.  Exponentially slower than Nelder–Mead but immune to local
    minima; tests assert the two agree to within grid resolution. *)

val search : ?resolution:int -> Solver.problem -> Solver.evaluation
(** [search problem] evaluates an [(r+1)^4] grid ([resolution] [r]
    defaults to 10, i.e. steps of 0.1), then twice re-grids a shrunken
    cube around the incumbent.
    @raise Invalid_argument if [resolution < 1]. *)
