(* The one pre-classifying cursor, over [units] input units (objects or
   chunks) taken [block] at a time.  [fill ~lo ~len] classifies units
   [lo, lo + len) into the flat buffers: it returns the block's slot
   count and its classification tasks, which run on [lanes] lanes.
   Each task writes a disjoint slice of the buffers, so the result is
   scheduling-independent.  [current ~lo k] builds the object in slot
   [k] of the block that starts at unit [lo].  The buffers are reused:
   the consumer drains a block completely before the next is
   classified, so one allocation serves the whole scan. *)
let cursor ?obs ?on_task ~lanes ~total ~units ~block ~cap ~fill ~current () :
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
         if lanes > 1 then ignore (Domain_pool.run ?on_task ~lanes tasks)
         else Array.iter (fun task -> task ()) tasks;
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

type 'o t = {
  length : int;
  sample : ?max_laxity:float -> int array -> 'o array * float;
  cursor :
    ?obs:Obs.t ->
    ?on_task:(lane:int -> start:float -> finish:float -> unit) ->
    ?lanes:int ->
    unit ->
    'o Operator.source;
}

(* [Array.fold_right]'s order, n - 1 down to 0, so the draws are the ones
   a sample built by folding over the objects would make. *)
let sample_indices rng ~fraction n =
  if not (fraction >= 0.0 && fraction <= 1.0) then
    invalid_arg "Scan_pipeline.sample_indices: fraction outside [0, 1]";
  let acc = ref [] in
  for i = n - 1 downto 0 do
    if Rng.bernoulli rng fraction then acc := i :: !acc
  done;
  Array.of_list !acc

(* [Float.max] bit for bit, with no C call unless an argument is NaN
   (DESIGN §4, "Planner kernel"): a running maximum ties on every row
   once it stops growing. *)
let[@inline] fmax x y =
  if x < y then y
  else if y < x then x
  else if x = y then if 1.0 /. x < 0.0 then y else x
  else Float.max x y

(* The laxity cap, from the input's largest laxity when none is given. *)
let laxity_cap ?max_laxity observed =
  match max_laxity with
  | Some l -> l
  | None ->
      let m = observed () in
      if m > 0.0 then m else 1.0

let rows ?(block = 4096) ~(instance : _ Operator.instance) data =
  if block < 1 then invalid_arg "Scan_pipeline.rows: block < 1";
  let n = Array.length data in
  (* The input's largest laxity, folded on the first pilot that needs it
     and kept for every later one.  Not [Lazy]: two server lanes may ask
     at once.  Both then fold the same rows to the same bits, so the one
     whose [set] lands last writes what the other wrote. *)
  let widest_memo = Atomic.make None in
  let widest () =
    match Atomic.get widest_memo with
    | Some m -> m
    | None ->
        let m = ref 0.0 in
        for i = 0 to n - 1 do
          m := fmax !m (instance.laxity data.(i))
        done;
        Atomic.set widest_memo (Some !m);
        !m
  in
  let sample ?max_laxity indices =
    (Array.map (fun i -> data.(i)) indices, laxity_cap ?max_laxity widest)
  in
  let cursor ?obs ?on_task ?(lanes = 1) () =
    if lanes > 1 then
      (* About eight slices per lane, so a slow slice cannot leave the
         other lanes idle for long. *)
      let slices = 8 * lanes in
      let fill ~lo ~len ~verdicts ~laxities ~successes =
        let slice = (len + slices - 1) / slices in
        ( len,
          Array.init ((len + slice - 1) / slice) (fun t () ->
              for k = t * slice to Stdlib.min len ((t + 1) * slice) - 1 do
                classify_into instance data.(lo + k) ~verdicts ~laxities
                  ~successes k
              done) )
      in
      cursor ?obs ?on_task ~lanes ~total:n ~units:n ~block
        ~cap:(Stdlib.min block n) ~fill
        ~current:(fun ~lo k -> data.(lo + k))
        ()
    else Operator.source_of_array data
  in
  { length = n; sample; cursor }

(* Only a store's last chunk can be short, so a wave's rows fill the
   cursor's slots without gaps; a loader that disagrees with the layout
   would misplace rows and break [total]. *)
let fetch store c =
  let ch = Column_store.chunk store c in
  if ch.Column_store.len <> snd (Column_store.chunk_bounds store c) then
    invalid_arg "Scan_pipeline.store: chunk length differs from the layout";
  ch

(* One pass in storage order: every chunk when the laxity maximum is
   wanted, else only the chunks holding sampled rows.  A row's laxity is
   its support width [hi -. lo], [Uncertain.laxity] of its belief. *)
let sample_store store ~of_row ?max_laxity indices =
  let cs = Column_store.chunk_size store in
  let k = Array.length indices in
  let out = ref [] and next = ref 0 and widest = ref 0.0 in
  let visit c =
    let ch = fetch store c in
    if max_laxity = None then begin
      let m = ref !widest in
      for i = 0 to ch.len - 1 do
        let w =
          Bigarray.Array1.unsafe_get ch.hi i -. Bigarray.Array1.unsafe_get ch.lo i
        in
        m := fmax !m w
      done;
      widest := !m
    end;
    while !next < k && indices.(!next) / cs = c do
      out := of_row (Column_store.row ch (indices.(!next) mod cs)) :: !out;
      incr next
    done
  in
  if max_laxity = None then
    for c = 0 to Column_store.chunk_count store - 1 do
      visit c
    done
  else while !next < k do visit (indices.(!next) / cs) done;
  (Array.of_list (List.rev !out), laxity_cap ?max_laxity (fun () -> !widest))

let store ?(wave = 16) ?(prune = false) ~of_row ~pred store =
  if wave < 1 then invalid_arg "Scan_pipeline.store: wave < 1";
  let compiled = Predicate.compile pred in
  let cursor ?obs ?on_task ?(lanes = 1) () =
    let chunk_count = Column_store.chunk_count store in
    let surviving =
      List.init chunk_count Fun.id
      |> List.filter (fun c -> not (prune && Column_store.prunable store pred c))
      |> Array.of_list
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
         file io through a buffer pool, neither of which is domain-safe. *)
      chunks := Array.init len (fun k -> fetch store surviving.(lo + k));
      ( ((len - 1) * cs) + (!chunks).(len - 1).Column_store.len,
        Array.mapi
          (fun k (ch : Column_store.chunk) () ->
            Predicate.classify_column compiled ~lo:ch.lo ~hi:ch.hi ~len:ch.len
              ~off:(k * cs) ~verdicts ~laxities ~successes)
          !chunks )
    in
    cursor ?obs ?on_task ~lanes ~total ~units:(Array.length surviving)
      ~block:wave
      ~cap:(wave * cs) ~fill
      ~current:(fun ~lo:_ k ->
        of_row (Column_store.row (!chunks).(k / cs) (k mod cs)))
      ()
  in
  {
    length = Column_store.length store;
    sample = sample_store store ~of_row;
    cursor;
  }
