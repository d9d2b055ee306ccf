(* The sequential loop's evaluation pattern, into slot [k] of the block
   buffers: laxity only for YES/MAYBE, success only for MAYBE, so the
   instance sees the calls [Operator.source_of_array] would make.  The
   slots the loop never reads are left as they are. *)
let classify_into (instance : 'o Operator.instance) o ~verdicts ~laxities
    ~successes k =
  let v = instance.classify o in
  Array.unsafe_set verdicts k v;
  match v with
  | Tvl.No -> ()
  | Tvl.Yes -> Array.unsafe_set laxities k (instance.laxity o)
  | Tvl.Maybe ->
      Array.unsafe_set laxities k (instance.laxity o);
      Array.unsafe_set successes k (instance.success o)

let pipelined ?obs ~block ~pool ~(instance : 'o Operator.instance) data
    : 'o Operator.source =
  let n = Array.length data in
  let m_chunks =
    Option.map (fun o -> Obs.counter o Obs.Keys.parallel_chunks) obs
  in
  (* Block buffers, reused: the consumer drains a block completely
     before the next is classified, so one allocation serves the whole
     scan. *)
  let cap = Stdlib.min block n in
  let verdicts = Array.make cap Tvl.No in
  let laxities = Array.make cap 0.0 in
  let successes = Array.make cap 0.0 in
  (* About eight slices per lane, so a slow slice cannot leave the other
     lanes idle for long. *)
  let lanes = 8 * Domain_pool.domains pool in
  let pos = ref (-1) in
  (* index into [data] of the current object *)
  let block_lo = ref 0 in
  let frontier = ref 0 in
  (* end of the classified prefix of [data] *)
  let classify_block () =
    let lo = !frontier in
    let len = Stdlib.min block (n - lo) in
    let slice = (len + lanes - 1) / lanes in
    (* Each task writes a disjoint buffer slice, so the result is
       scheduling-independent. *)
    let tasks =
      Array.init ((len + slice - 1) / slice) (fun t () ->
          for k = t * slice to Stdlib.min len ((t + 1) * slice) - 1 do
            classify_into instance data.(lo + k) ~verdicts ~laxities
              ~successes k
          done)
    in
    ignore (Domain_pool.run_all pool tasks);
    block_lo := lo;
    frontier := lo + len;
    match m_chunks with Some c -> Metrics.incr c | None -> ()
  in
  {
    Operator.total = n;
    advance =
      (fun () ->
        incr pos;
        !pos < !frontier || (!pos < n && (classify_block (); true)));
    verdict = (fun _ -> verdicts.(!pos - !block_lo));
    laxity = (fun _ -> laxities.(!pos - !block_lo));
    success = (fun _ -> successes.(!pos - !block_lo));
    current = (fun () -> data.(!pos));
  }

let source ?obs ?(block = 4096) ?pool ~instance data =
  if block < 1 then invalid_arg "Scan_pipeline.source: block < 1";
  match pool with
  | Some pool when Domain_pool.domains pool > 1 ->
      pipelined ?obs ~block ~pool ~instance data
  | Some _ | None -> Operator.source_of_array data
