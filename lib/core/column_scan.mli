(** The columnar classification kernel under its old name.  The scan
    itself is {!Scan_pipeline.columnar}; this module is kept only
    because the performance ledger ([bench/ledger]) times the kernel
    through it.  New code calls {!Predicate.classify_column}. *)

val kernel :
  Predicate.compiled ->
  Column_store.chunk ->
  off:int ->
  verdicts:Bytes.t ->
  laxities:float array ->
  successes:float array ->
  unit
(** {!Predicate.classify_column} over the chunk's support columns, into
    buffer slots [off .. off + len - 1]. *)
