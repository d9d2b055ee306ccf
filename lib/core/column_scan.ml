(* The vectorized sibling of [Scan_pipeline.source]: instead of mapping
   an instance closure over an object array, classification runs as
   tight loops over column chunks, writing verdict/laxity/success into
   flat wave buffers.  Objects are only materialized ([of_row]) when the
   decision loop consumes them, on the caller's lane. *)

let kernel (pred : Predicate.compiled) (ch : Column_store.chunk) ~off ~verdicts
    ~laxities ~successes =
  let lo = ch.Column_store.lo and hi = ch.Column_store.hi in
  for i = 0 to ch.Column_store.len - 1 do
    let l = Bigarray.Array1.unsafe_get lo i in
    let h = Bigarray.Array1.unsafe_get hi i in
    let v = Predicate.classify_bounds pred ~lo:l ~hi:h in
    Bytes.unsafe_set verdicts (off + i) (Tvl.to_char v);
    (* Same evaluation pattern as [Scan_pipeline.classify_one]: laxity
       only for YES/MAYBE, success only for MAYBE.  Laxity is the
       support width ([Uncertain.laxity] of an interval or exact
       belief), success mirrors [Predicate.success] on the flat
       schema. *)
    match v with
    | Tvl.No ->
        Array.unsafe_set laxities (off + i) 0.0;
        Array.unsafe_set successes (off + i) 0.0
    | Tvl.Yes ->
        Array.unsafe_set laxities (off + i) (h -. l);
        Array.unsafe_set successes (off + i) 1.0
    | Tvl.Maybe ->
        Array.unsafe_set laxities (off + i) (h -. l);
        Array.unsafe_set successes (off + i)
          (Predicate.success_bounds pred ~lo:l ~hi:h)
  done

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
  let chunk_pos = ref 0 in
  (* index into [!chunks] *)
  let row_pos = ref 0 in
  (* row within the current chunk *)
  let frontier = ref 0 in
  (* index into [surviving] *)
  let dispatch () =
    let lo = !frontier in
    let len = Stdlib.min wave (Array.length surviving - lo) in
    frontier := lo + len;
    (* Chunk fetches stay on the caller's lane: a streamed store may do
       file io through a buffer pool, neither of which is domain-safe. *)
    let wave_chunks =
      Array.init len (fun k -> Column_store.chunk store surviving.(lo + k))
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
    chunk_pos := 0;
    row_pos := 0
  in
  let rec next () =
    if !chunk_pos < Array.length !chunks then begin
      let ch = (!chunks).(!chunk_pos) in
      if !row_pos >= ch.Column_store.len then begin
        incr chunk_pos;
        row_pos := 0;
        next ()
      end
      else begin
        let i = !row_pos in
        incr row_pos;
        let off = (!chunk_pos * cs) + i in
        Some
          {
            Scan_pipeline.original = of_row (Column_store.row ch i);
            verdict = Tvl.of_char (Bytes.unsafe_get verdicts off);
            laxity = Array.unsafe_get laxities off;
            success = Array.unsafe_get successes off;
          }
      end
    end
    else if !frontier >= Array.length surviving then None
    else begin
      dispatch ();
      next ()
    end
  in
  { Operator.next; total }
