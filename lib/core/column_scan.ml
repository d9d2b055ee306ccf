(* The vectorized sibling of [Scan_pipeline.source]: instead of mapping
   an instance closure over an object array, classification runs as
   tight loops over column chunks, writing verdict/laxity/success into
   flat wave buffers.  The decision loop reads its answers from those
   buffers; an object is materialized ([of_row]) only when the loop
   forwards or probes it, on the caller's lane. *)

let kernel pred (ch : Column_store.chunk) ~off ~verdicts ~laxities ~successes =
  Predicate.classify_column pred ~lo:ch.Column_store.lo ~hi:ch.Column_store.hi
    ~len:ch.Column_store.len ~off ~verdicts ~laxities ~successes

let source ?obs ?(wave = 16) ?pool ?(prune = false) ~store ~of_row ~pred () =
  if wave < 1 then invalid_arg "Column_scan.source: wave < 1";
  let chunk_count = Column_store.chunk_count store in
  let surviving =
    if not prune then Array.init chunk_count (fun c -> c)
    else begin
      let keep = ref [] in
      let p = Predicate.source pred in
      for c = chunk_count - 1 downto 0 do
        if not (Column_store.prunable store p c) then keep := c :: !keep
      done;
      Array.of_list !keep
    end
  in
  (match obs with
  | Some o when prune ->
      Metrics.add
        (Obs.counter o Obs.Keys.pruned_pages)
        (chunk_count - Array.length surviving)
  | _ -> ());
  let total =
    Array.fold_left
      (fun acc c -> acc + snd (Column_store.chunk_bounds store c))
      0 surviving
  in
  let m_waves =
    Option.map (fun o -> Obs.counter o Obs.Keys.parallel_chunks) obs
  in
  let cs = Column_store.chunk_size store in
  (* Wave buffers, reused: the consumer drains a wave completely before
     the next is dispatched, so one allocation serves the whole scan. *)
  let cap = wave * cs in
  let verdicts = Bytes.create cap in
  let laxities = Array.make cap 0.0 in
  let successes = Array.make cap 0.0 in
  let chunks = ref [||] in
  (* chunks of the current wave *)
  let filled = ref 0 in
  (* rows of the current wave: slots [0, filled) *)
  let off = ref (-1) in
  (* buffer slot of the current object *)
  let frontier = ref 0 in
  (* index into [surviving] *)
  let dispatch () =
    let lo = !frontier in
    let len = Stdlib.min wave (Array.length surviving - lo) in
    frontier := lo + len;
    (* Chunk fetches stay on the caller's lane: a streamed store may do
       file io through a buffer pool, neither of which is domain-safe.
       Only a store's last chunk can be short, so the wave's rows fill
       the slots without gaps; a loader that disagrees with the layout
       would also break [total]. *)
    let wave_chunks =
      Array.init len (fun k ->
          let c = surviving.(lo + k) in
          let ch = Column_store.chunk store c in
          if ch.Column_store.len <> snd (Column_store.chunk_bounds store c) then
            invalid_arg "Column_scan.source: chunk length differs from the layout";
          ch)
    in
    let tasks =
      Array.mapi
        (fun k ch () ->
          kernel pred ch ~off:(k * cs) ~verdicts ~laxities ~successes)
        wave_chunks
    in
    (* Each task writes a disjoint buffer slice indexed by its wave
       position, so the result is scheduling-independent. *)
    (match pool with
    | Some p when Domain_pool.domains p > 1 -> ignore (Domain_pool.run_all p tasks)
    | _ -> Array.iter (fun task -> task ()) tasks);
    (match m_waves with Some c -> Metrics.incr c | None -> ());
    chunks := wave_chunks;
    filled := ((len - 1) * cs) + wave_chunks.(len - 1).Column_store.len;
    off := -1
  in
  {
    Operator.total;
    advance =
      (fun () ->
        incr off;
        !off < !filled
        || (!frontier < Array.length surviving && (dispatch (); incr off; true)));
    verdict = (fun _ -> Tvl.of_char (Bytes.get verdicts !off));
    laxity = (fun _ -> laxities.(!off));
    success = (fun _ -> successes.(!off));
    current =
      (fun () ->
        of_row (Column_store.row (!chunks).(!off / cs) (!off mod cs)));
  }
