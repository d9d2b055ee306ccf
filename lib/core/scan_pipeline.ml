(* The one pre-classifying cursor, over [units] input units (objects or
   chunks) taken [block] at a time.  [fill ~lo ~len] classifies units
   [lo, lo + len) into the flat buffers: it returns the block's slot
   count and its classification tasks, which run on the pool's lanes.
   Each task writes a disjoint slice of the buffers, so the result is
   scheduling-independent.  [current ~lo k] builds the object in slot
   [k] of the block that starts at unit [lo].  The buffers are reused:
   the consumer drains a block completely before the next is
   classified, so one allocation serves the whole scan. *)
let cursor ?obs ?pool ~total ~units ~block ~cap ~fill ~current () :
    'o Operator.source =
  let verdicts = Bytes.create cap in
  let laxities = Array.make cap 0.0 in
  let successes = Array.make cap 0.0 in
  let m_blocks =
    Option.map (fun o -> Obs.counter o Obs.Keys.parallel_chunks) obs
  in
  let block_lo = ref 0 in
  let frontier = ref 0 in
  (* end of the classified prefix of the units *)
  let slot = ref (-1) in
  let filled = ref 0 in
  let refill () =
    !frontier < units
    && begin
         let lo = !frontier in
         let len = Stdlib.min block (units - lo) in
         let slots, tasks = fill ~lo ~len ~verdicts ~laxities ~successes in
         (match pool with
         | Some p when Domain_pool.domains p > 1 ->
             ignore (Domain_pool.run_all p tasks)
         | _ -> Array.iter (fun task -> task ()) tasks);
         Option.iter Metrics.incr m_blocks;
         block_lo := lo;
         frontier := lo + len;
         filled := slots;
         slot := 0;
         true
       end
  in
  {
    Operator.total;
    advance =
      (fun () ->
        incr slot;
        !slot < !filled || refill ());
    verdict = (fun _ -> Tvl.of_char (Bytes.get verdicts !slot));
    laxity = (fun _ -> laxities.(!slot));
    success = (fun _ -> successes.(!slot));
    current = (fun () -> current ~lo:!block_lo !slot);
  }

(* The sequential loop's evaluation pattern, into slot [k] of the
   buffers: laxity only for YES/MAYBE, success only for MAYBE, so the
   instance sees the calls [Operator.source_of_array] would make.  The
   slots the loop never reads are left as they are. *)
let classify_into (instance : 'o Operator.instance) o ~verdicts ~laxities
    ~successes k =
  let v = instance.classify o in
  Bytes.unsafe_set verdicts k (Tvl.to_char v);
  match v with
  | Tvl.No -> ()
  | Tvl.Yes -> Array.unsafe_set laxities k (instance.laxity o)
  | Tvl.Maybe ->
      Array.unsafe_set laxities k (instance.laxity o);
      Array.unsafe_set successes k (instance.success o)

let source ?obs ?(block = 4096) ?pool ~instance data =
  if block < 1 then invalid_arg "Scan_pipeline.source: block < 1";
  match pool with
  | Some pool when Domain_pool.domains pool > 1 ->
      let n = Array.length data in
      (* About eight slices per lane, so a slow slice cannot leave the
         other lanes idle for long. *)
      let lanes = 8 * Domain_pool.domains pool in
      let fill ~lo ~len ~verdicts ~laxities ~successes =
        let slice = (len + lanes - 1) / lanes in
        ( len,
          Array.init ((len + slice - 1) / slice) (fun t () ->
              for k = t * slice to Stdlib.min len ((t + 1) * slice) - 1 do
                classify_into instance data.(lo + k) ~verdicts ~laxities
                  ~successes k
              done) )
      in
      cursor ?obs ~pool ~total:n ~units:n ~block ~cap:(Stdlib.min block n)
        ~fill
        ~current:(fun ~lo k -> data.(lo + k))
        ()
  | Some _ | None -> Operator.source_of_array data

let columnar ?obs ?(wave = 16) ?pool ?(prune = false) ~store ~of_row ~pred ()
    =
  if wave < 1 then invalid_arg "Scan_pipeline.columnar: wave < 1";
  let chunk_count = Column_store.chunk_count store in
  let surviving =
    if not prune then Array.init chunk_count Fun.id
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
  let cs = Column_store.chunk_size store in
  let chunks = ref [||] in
  (* chunks of the current wave *)
  let fill ~lo ~len ~verdicts ~laxities ~successes =
    (* Chunk fetches stay on the caller's lane: a streamed store may do
       file io through a buffer pool, neither of which is domain-safe.
       Only a store's last chunk can be short, so the wave's rows fill
       the slots without gaps; a loader that disagrees with the layout
       would also break [total]. *)
    chunks :=
      Array.init len (fun k ->
          let c = surviving.(lo + k) in
          let ch = Column_store.chunk store c in
          if ch.Column_store.len <> snd (Column_store.chunk_bounds store c)
          then
            invalid_arg
              "Scan_pipeline.columnar: chunk length differs from the layout";
          ch);
    ( ((len - 1) * cs) + (!chunks).(len - 1).Column_store.len,
      Array.mapi
        (fun k (ch : Column_store.chunk) () ->
          Predicate.classify_column pred ~lo:ch.lo ~hi:ch.hi ~len:ch.len
            ~off:(k * cs) ~verdicts ~laxities ~successes)
        !chunks )
  in
  cursor ?obs ?pool ~total ~units:(Array.length surviving) ~block:wave
    ~cap:(wave * cs) ~fill
    ~current:(fun ~lo:_ k ->
      of_row (Column_store.row (!chunks).(k / cs) (k mod cs)))
    ()
