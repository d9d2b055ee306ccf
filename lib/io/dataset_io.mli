(** Persistence for generated workloads.

    Serialises the §5.2 synthetic objects and interval-data records to
    CSV so that a workload can be generated once, archived, and replayed
    across runs or shared with other tools.  Round-tripping is exact for
    the label/flag fields and up to shortest-round-trip float printing
    for the numeric ones. *)

val write_synthetic : string -> Synthetic.obj array -> unit
(** A header row [id, label, laxity, success, probe_yes, resolved], then
    one row per object. *)

val read_synthetic : string -> Synthetic.obj array
(** @raise Failure on a malformed header, row arity or field, or on a
    row {!Synthetic.make} rejects (naming the row's id).
    @raise Csv.Parse_error on malformed CSV. *)

val write_records : string -> Interval_data.record array -> unit
(** A header row [id, belief_lo, belief_hi, truth], then one row per
    record.  Interval and exact beliefs only.
    @raise Invalid_argument on a Gaussian belief (not representable in
    this flat schema). *)

val read_records : string -> Interval_data.record array
(** Parse a header and [id, belief_lo, belief_hi, truth] rows (a point
    support is an exact belief).
    @raise Failure ["Dataset_io: ..."] on a bad header, arity or number,
    a support bound that is not finite, a reversed support, or a truth
    that is not finite or lies outside [\[belief_lo, belief_hi\]].
    @raise Csv.Parse_error on malformed CSV. *)

(** {2 Columnar chunk files (QCOL)}

    A binary, chunk-addressable on-disk form of a {!Column_store}: a
    fixed header (magic ["QCOLv001"], row count, chunk size), the
    per-chunk zone hulls, then the chunks themselves — each chunk its
    [id]s followed by the [lo], [hi] and [truth] columns, 32 bytes per
    row, little-endian throughout.  Because every chunk's byte offset is
    computable from the header, an opened file serves chunk fetches
    directly by [seek]: a scan streams chunk by chunk through a
    {!Buffer_pool}, and the scan never reads a chunk pruned by its
    persisted zone hull from disk. *)

exception Corrupt_columnar of { path : string; reason : string }
(** The file is not a well-formed QCOL file: bad magic, impossible
    header fields, a size that disagrees with the declared layout
    (truncated or padded), a malformed zone entry, or a chunk with a
    row whose decoded bounds are non-finite or reversed or whose truth
    lies outside its support.  Raised by
    {!open_columnar} for header damage and by chunk fetches for body
    damage. *)

val save_columnar : string -> Column_store.t -> unit
(** Write the store — resident or itself streamed — chunk by chunk.
    Floats round-trip exactly (bit patterns are stored, not decimal). *)

type columnar_file
(** An open QCOL file: a {!Column_store} whose chunks are decoded from
    disk on fetch, through an LRU {!Buffer_pool} of decoded chunks. *)

val open_columnar : ?obs:Obs.t -> ?pool_capacity:int -> string -> columnar_file
(** Validates the header and zone table eagerly (raising
    {!Corrupt_columnar}) but reads no chunk data.  [pool_capacity]
    (default 8 chunks) sizes the decoded-chunk pool; [obs] instruments
    it ({!Buffer_pool.create}). *)

val columnar_store : columnar_file -> Column_store.t
(** Fetching a chunk after {!close_columnar} raises [Invalid_argument]. *)

val columnar_pool : columnar_file -> Column_store.chunk Buffer_pool.t
(** The decoded-chunk pool, for cache statistics. *)

val close_columnar : columnar_file -> unit

val with_columnar :
  ?obs:Obs.t -> ?pool_capacity:int -> string -> (Column_store.t -> 'a) -> 'a
(** Open, run, close (also on exceptions). *)
