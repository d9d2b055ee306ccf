(** Columnar storage for interval records — the engine's one stored
    relation layer.

    A row array makes the pre-classification scan chase a pointer per
    object to test one scalar attribute.  This module stores that
    attribute decomposed: one flat [float64] {!Bigarray.Array1} per
    bound — [lo] and [hi] of the belief support — plus the ground truth
    used by probes, split into fixed-size chunks.  The classification
    kernel ([Predicate.classify_column], driven by
    [Scan_pipeline.columnar]) runs directly over the chunk buffers with no
    per-object allocation, which is where the columnar layout earns its
    keep.

    Each chunk carries a zone hull (the interval hull of its rows'
    supports).  The hulls are the store's zone map: a chunk whose hull is
    a definite NO holds only NO rows, so it can be pruned whole — and a
    pruned chunk is never fetched, which matters for the streamed stores
    of [Dataset_io.open_columnar].  This is the paper's §7 index-access
    direction at chunk granularity.

    A store is an abstract [fetch]-by-chunk-index view: {!create} backs
    it with resident columns (chunks are zero-copy sub-views); the io
    layer backs it with decode-on-fetch file reads via {!of_fetch}. *)

type f64 = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type row = { id : int; lo : float; hi : float; truth : float }
(** One record in flattened form: the belief support [{lo; hi}] ([lo =
    hi] for an exact belief) and the ground truth a probe would reveal. *)

type chunk = {
  base : int;  (** global row index of the chunk's first row *)
  len : int;  (** rows in this chunk (the final chunk may be short) *)
  ids : int array;
  lo : f64;
  hi : f64;
  truth : f64;
}
(** Column slices of one chunk; all four arrays have length [len]. *)

type t

val create : ?chunk_size:int -> row array -> t
(** Resident store in arrival order; [chunk_size] defaults to 64 rows.
    Zone hulls are computed per chunk.
    @raise Invalid_argument if [chunk_size < 1] or any row has a
    non-finite or reversed bound pair. *)

val of_fetch :
  length:int ->
  chunk_size:int ->
  zones:Interval.t option array ->
  (int -> chunk) ->
  t
(** A store backed by an external chunk loader — the io layer's streamed
    stores.  [zones] must hold one hull per chunk ([None] only for an
    empty store); pruning consults it without ever calling the loader.
    @raise Invalid_argument if the zone count disagrees with
    [length]/[chunk_size]. *)

val length : t -> int
val chunk_size : t -> int
val chunk_count : t -> int

val chunk_bounds : t -> int -> int * int
(** [(base, len)] of chunk [c] without fetching it. *)

val chunk : t -> int -> chunk
(** Fetch chunk [c].  Resident stores return the chunk cut once at
    {!create} (column views into the store: read them, do not write
    them); streamed stores decode from file (possibly through a buffer
    pool).
    @raise Invalid_argument on out-of-range index. *)

val zone : t -> int -> Interval.t option
(** The chunk's support hull; [None] for an empty store. *)

val zones : t -> Interval.t option array
(** All hulls in chunk order (a copy) — what the codec persists. *)

val prunable : t -> Predicate.t -> int -> bool
(** [prunable t pred c] iff every row of chunk [c] is a guaranteed NO,
    decided from the hull alone ([Predicate.classify_interval] of the
    hull is NO; the [None] hull of an empty store is prunable). *)

val pruned_chunks : t -> Predicate.t -> int
(** Number of chunks {!prunable} would skip. *)

val row : chunk -> int -> row
(** Materialize row [i] of a fetched chunk.
    @raise Invalid_argument on out-of-range index. *)

val get : t -> int -> row
(** Random access by global row index (fetches the owning chunk).
    @raise Invalid_argument on out-of-range index. *)
