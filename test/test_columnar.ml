(* Golden equivalence tests for the columnar engine: the vectorized
   kernel path over a [Column_store] must be bit-for-bit the row path —
   same verdicts, laxities, success probabilities, answers, guarantees,
   metered costs and planner output — for every pool width, batch size,
   backing (resident or streamed from a QCOL file) and fault plan.
   Plus the QCOL codec itself: exact round-trips and typed rejection of
   damaged files. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let check_same label a b = checkb label true (a = b)

let requirements = Quality.requirements ~precision:0.85 ~recall:0.7 ~laxity:8.0

let dataset ?(n = 4000) seed =
  Interval_data.uniform_intervals (Rng.create seed) ~n
    ~value_range:(Interval.make 0.0 100.0) ~max_width:10.0

let pred = Predicate.between 30.0 60.0

(* ---- kernel vs instance -------------------------------------------- *)

(* The kernel must reproduce the instance — verdict, laxity and success,
   with the kernel's fill for the slots the decision loop never reads
   (a NO's laxity is still the support width, its success 0; a YES's
   success 1) — bit for bit, on arbitrary exact/interval records and
   arbitrary predicates. *)
let record_gen =
  QCheck2.Gen.(
    let value = float_range (-50.0) 50.0 in
    let* lo = value in
    let* w = oneof [ return 0.0; float_range 0.0 20.0 ] in
    return (lo, lo +. w))

let pred_gen =
  QCheck2.Gen.(
    let bound = float_range (-40.0) 40.0 in
    oneof
      [
        map Predicate.ge bound;
        map Predicate.le bound;
        map
          (fun (a, b) -> Predicate.between (Float.min a b) (Float.max a b))
          (pair bound bound);
        map
          (fun (a, b) ->
            Predicate.(ge (Float.min a b) &&& not_ (gt (Float.max a b))))
          (pair bound bound);
      ])

let prop_kernel_matches_instance =
  QCheck2.Test.make ~name:"kernel equals instance evaluation" ~count:200
    QCheck2.Gen.(pair pred_gen (list_size (int_range 1 200) record_gen))
    (fun (pred, bounds) ->
      let records =
        Array.of_list bounds
        |> Array.mapi (fun id (lo, hi) ->
               {
                 Interval_data.id;
                 belief =
                   (if lo = hi then Uncertain.exact lo
                    else Uncertain.interval lo hi);
                 truth = lo;
               })
      in
      let store = Interval_data.to_store ~chunk_size:7 records in
      let instance = Interval_data.instance pred in
      let compiled = Predicate.compile pred in
      let n = Array.length records in
      let verdicts = Bytes.create n in
      let laxities = Array.make n nan in
      let successes = Array.make n nan in
      for c = 0 to Column_store.chunk_count store - 1 do
        let ch = Column_store.chunk store c in
        Predicate.classify_column compiled ~lo:ch.Column_store.lo
          ~hi:ch.Column_store.hi ~len:ch.Column_store.len
          ~off:ch.Column_store.base ~verdicts ~laxities ~successes
      done;
      Array.for_all
        (fun (r : Interval_data.record) ->
          let verdict = instance.classify r in
          let success =
            match verdict with
            | Tvl.No -> 0.0
            | Tvl.Yes -> 1.0
            | Tvl.Maybe -> instance.success r
          in
          let i = r.id in
          let bits = Int64.bits_of_float in
          Tvl.equal verdict (Tvl.of_char (Bytes.get verdicts i))
          && bits (instance.laxity r) = bits laxities.(i)
          && bits success = bits successes.(i))
        records)

(* ---- engine equivalence -------------------------------------------- *)

type fingerprint = {
  answer : (int * bool) list;
  guarantees : Quality.guarantees;
  counts : Cost_meter.counts;
  run_counts : Cost_meter.counts;
  yes_seen : int;
  maybe_ignored : int;
  answer_size : int;
  exhausted : bool;
  normalized_cost : float;
  plan_params : Policy.params option;
  degradation : Engine.degradation;
}

let fingerprint (result : Interval_data.record Engine.result) =
  {
    answer =
      List.map
        (fun (e : Interval_data.record Operator.emitted) ->
          (e.obj.id, e.precise))
        result.report.answer;
    guarantees = result.report.guarantees;
    counts = result.counts;
    run_counts = result.report.counts;
    yes_seen = result.report.yes_seen;
    maybe_ignored = result.report.maybe_ignored;
    answer_size = result.report.answer_size;
    exhausted = result.report.exhausted;
    normalized_cost = result.normalized_cost;
    plan_params = Option.map (fun (p : Engine.plan) -> p.params) result.plan;
    degradation = result.degradation;
  }

let columnar ?(prune = false) store =
  { Engine.store; of_row = Interval_data.of_row; pred; prune }

let run ?columnar ?faults ~seed ~batch ~domains data =
  let probe =
    match faults with
    | None -> Probe_driver.of_scalar ~batch_size:batch Interval_data.probe
    | Some fault_seed ->
        let plan =
          Fault_plan.make ~seed:fault_seed ~transient_rate:0.05
            ~permanent_rate:0.1 ~max_retries:2 ()
        in
        Probe_source.driver ~batch_size:batch
          (Probe_source.create ~max_retries:2 ~faults:plan Interval_data.probe)
  in
  fingerprint
    (Engine.execute ~rng:(Rng.create seed) ~max_laxity:10.0 ~batch ~domains
       ?columnar ~instance:(Interval_data.instance pred) ~probe ~requirements
       data)

let test_golden_row_vs_columnar () =
  let data = dataset 11 in
  let store = Interval_data.to_store data in
  List.iter
    (fun batch ->
      List.iter
        (fun domains ->
          let row = run ~seed:21 ~batch ~domains data in
          checkb
            (Printf.sprintf "B=%d d=%d baseline answers" batch domains)
            true (row.answer_size > 0);
          let col =
            run ~columnar:(columnar store) ~seed:21 ~batch ~domains data
          in
          check_same
            (Printf.sprintf "B=%d domains=%d row = columnar" batch domains)
            row col)
        [ 1; 2; 4 ])
    [ 1; 4 ]

let test_golden_under_faults () =
  let data = dataset 13 in
  let store = Interval_data.to_store data in
  List.iter
    (fun domains ->
      let row = run ~faults:99 ~seed:5 ~batch:4 ~domains data in
      let col =
        run ~columnar:(columnar store) ~faults:99 ~seed:5 ~batch:4 ~domains
          data
      in
      checkb "faults actually degraded the run" true
        (row.degradation.Engine.failed_probes > 0);
      check_same
        (Printf.sprintf "faulted domains=%d row = columnar" domains)
        row col)
    [ 1; 4 ]

let test_golden_streamed_store () =
  let data = dataset 17 in
  let resident = Interval_data.to_store ~chunk_size:50 data in
  let path = Filename.temp_file "imprecise_qcol" ".qcol" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dataset_io.save_columnar path resident;
      Dataset_io.with_columnar ~pool_capacity:4 path (fun streamed ->
          let base = run ~columnar:(columnar resident) ~seed:7 ~batch:4
              ~domains:2 data
          in
          let got = run ~columnar:(columnar streamed) ~seed:7 ~batch:4
              ~domains:2 data
          in
          check_same "resident = streamed" base got))

(* Pruning drops whole-NO chunks before the scan: the exact answer is
   untouched (pruned objects are definite NOs), pruned chunks of a
   streamed store are never decoded, and pruned rows are never charged
   as reads.  Pruned objects never consume policy randomness, so the
   surviving objects see the rng stream of the unpruned scan. *)
let test_prune_sound_and_lazy () =
  let chunk_size = 32 in
  let data = dataset 19 in
  let n = Array.length data in
  let resident = Interval_data.to_store ~chunk_size data in
  (* A selective predicate so that many chunk hulls are whole-NO. *)
  let pred = Predicate.between 5.0 9.0 in
  let requirements =
    Quality.requirements ~precision:0.6 ~recall:1.0 ~laxity:10.0
  in
  let run ?obs columnar =
    Engine.execute ~rng:(Rng.create 3) ~max_laxity:10.0 ~domains:1 ?obs
      ~columnar ~planning:(Engine.Fixed Policy.greedy_params)
      ~instance:(Interval_data.instance pred)
      ~probe:(Probe_driver.scalar Interval_data.probe)
      ~requirements data
  in
  let fetched = ref [] in
  let counting =
    Column_store.of_fetch
      ~length:(Column_store.length resident)
      ~chunk_size:(Column_store.chunk_size resident)
      ~zones:(Column_store.zones resident)
      (fun c ->
        fetched := c :: !fetched;
        Column_store.chunk resident c)
  in
  let obs = Obs.create () in
  let result =
    run ~obs
      { Engine.store = counting; of_row = Interval_data.of_row; pred;
        prune = true }
  in
  let unpruned =
    run { Engine.store = resident; of_row = Interval_data.of_row; pred;
          prune = false }
  in
  let pruned = Column_store.pruned_chunks resident pred in
  checkb "predicate prunes some chunks" true (pruned > 0);
  checkb "the last chunk is full" true (n mod chunk_size = 0);
  let ids (r : Interval_data.record Engine.result) =
    List.map
      (fun (e : Interval_data.record Operator.emitted) -> (e.obj.id, e.precise))
      r.Engine.report.Operator.answer
  in
  check_same "same answer as the unpruned scan" (ids unpruned) (ids result);
  checkb "both meet requirements" true
    (Quality.meets unpruned.report.guarantees requirements
    && Quality.meets result.report.guarantees requirements);
  checki "unpruned scan reads everything" n unpruned.report.counts.reads;
  checki "pruned chunks never charged as reads"
    (n - (pruned * chunk_size))
    result.report.counts.reads;
  checki "pruned_pages metric counts pruned chunks" pruned
    (Metrics.count_of (Obs.snapshot obs) Obs.Keys.pruned_pages);
  List.iter
    (fun c ->
      checkb "no pruned chunk was fetched" false
        (Column_store.prunable resident pred c))
    !fetched;
  (* Recall 1 forces a full scan of the surviving chunks, so the answer
     must contain the whole exact set despite the pruning. *)
  let answer_ids =
    List.map
      (fun (e : Interval_data.record Operator.emitted) -> e.obj.id)
      result.Engine.report.Operator.answer
  in
  List.iter
    (fun (r : Interval_data.record) ->
      checkb "exact member survived pruning" true (List.mem r.id answer_ids))
    (Interval_data.exact_set pred data)

(* ---- store/data agreement ----------------------------------------- *)

let test_store_length_mismatch () =
  let data = dataset 29 ~n:100 in
  let store = Interval_data.to_store (Array.sub data 0 99) in
  checkb "length mismatch rejected" true
    (match run ~columnar:(columnar store) ~seed:1 ~batch:1 ~domains:1 data with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---- QCOL codec ---------------------------------------------------- *)

let same_records (a : Interval_data.record array)
    (b : Interval_data.record array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : Interval_data.record) (y : Interval_data.record) ->
         x.id = y.id && x.truth = y.truth
         && Uncertain.equal x.belief y.belief)
       a b

let prop_qcol_roundtrip =
  QCheck2.Test.make ~name:"qcol file roundtrip" ~count:60
    QCheck2.Gen.(
      pair (int_range 1 9) (list_size (int_range 0 120) record_gen))
    (fun (chunk_size, bounds) ->
      let records =
        Array.of_list bounds
        |> Array.mapi (fun id (lo, hi) ->
               {
                 Interval_data.id;
                 belief =
                   (if lo = hi then Uncertain.exact lo
                    else Uncertain.interval lo hi);
                 truth = (lo +. hi) /. 2.0;
               })
      in
      let store = Interval_data.to_store ~chunk_size records in
      let path = Filename.temp_file "imprecise_qcol" ".qcol" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Dataset_io.save_columnar path store;
          Dataset_io.with_columnar path (fun streamed ->
              same_records records (Interval_data.of_store streamed)
              && Column_store.zones streamed = Column_store.zones store)))

let write_file path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let expect_corrupt name f =
  checkb name true
    (match f () with
    | exception Dataset_io.Corrupt_columnar _ -> true
    | _ -> false)

let test_qcol_corruption () =
  let records = dataset 31 ~n:100 in
  let store = Interval_data.to_store ~chunk_size:16 records in
  let path = Filename.temp_file "imprecise_qcol" ".qcol" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dataset_io.save_columnar path store;
      let good = read_file path in
      (* Bad magic. *)
      write_file path ("XCOLv001" ^ String.sub good 8 (String.length good - 8));
      expect_corrupt "bad magic" (fun () ->
          Dataset_io.with_columnar path ignore);
      (* Truncated header. *)
      write_file path (String.sub good 0 10);
      expect_corrupt "truncated header" (fun () ->
          Dataset_io.with_columnar path ignore);
      (* Truncated body: size no longer matches the declared layout. *)
      write_file path (String.sub good 0 (String.length good - 5));
      expect_corrupt "truncated body" (fun () ->
          Dataset_io.with_columnar path ignore);
      (* Trailing garbage is also a size mismatch. *)
      write_file path (good ^ "junk");
      expect_corrupt "padded file" (fun () ->
          Dataset_io.with_columnar path ignore);
      (* Corrupt row bounds: flip a chunk's lo/hi columns so a decoded
         support is reversed.  The header is intact, so the damage only
         surfaces when the chunk is actually fetched. *)
      let header = 8 + 16 + (Column_store.chunk_count store * 17) in
      let body = Bytes.of_string good in
      let len = 16 in
      (* lo column of chunk 0 starts after its ids *)
      let lo_off = header + (len * 8) in
      let hi_off = lo_off + (len * 8) in
      let tmp = Bytes.sub body lo_off (len * 8) in
      Bytes.blit body hi_off body lo_off (len * 8);
      Bytes.blit tmp 0 body hi_off (len * 8);
      write_file path (Bytes.to_string body);
      expect_corrupt "reversed bounds in chunk" (fun () ->
          Dataset_io.with_columnar path (fun s ->
              ignore (Column_store.chunk s 0)));
      (* A truth that is not finite or lies outside its support: the
         first probe of that row would otherwise fail the query. *)
      let truth_off = header + (len * 8 * 3) in
      List.iter
        (fun (name, t) ->
          let body = Bytes.of_string good in
          Bytes.set_int64_le body truth_off (Int64.bits_of_float t);
          write_file path (Bytes.to_string body);
          expect_corrupt name (fun () ->
              Dataset_io.with_columnar path (fun s ->
                  ignore (Column_store.chunk s 0))))
        [ ("nan truth", nan); ("infinite truth", infinity);
          ("truth outside the support", -1.0) ])

(* A header whose layout size wraps round: 2^58 + 1 rows of 32 bytes
   in one chunk of [max_int] rows.  Unchecked, 24 + 17 + (2^58 + 1) * 32
   is exactly this file's 73 bytes, and the file opened as a store of
   2^58 + 1 rows whose first fetch died in [Array.make]. *)
let wrapping_qcol () =
  let b = Buffer.create 73 in
  Buffer.add_string b "QCOLv001";
  Buffer.add_int64_le b (Int64.add (Int64.shift_left 1L 58) 1L);
  Buffer.add_int64_le b (Int64.of_int max_int);
  Buffer.add_char b '\001';
  Buffer.add_int64_le b (Int64.bits_of_float 0.0);
  Buffer.add_int64_le b (Int64.bits_of_float 1.0);
  List.iter
    (fun bits -> Buffer.add_int64_le b bits)
    [ 0L; Int64.bits_of_float 0.0; Int64.bits_of_float 1.0;
      Int64.bits_of_float 0.5 ];
  Buffer.contents b

let test_qcol_layout_overflow () =
  let bytes = wrapping_qcol () in
  checki "the crafted file is 73 bytes" 73 (String.length bytes);
  let path = Filename.temp_file "imprecise_qcol" ".qcol" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path bytes;
      expect_corrupt "overflowing layout rejected at open" (fun () ->
          Dataset_io.with_columnar path Interval_data.of_store))

(* Untrusted QCOL bytes either open and decode every chunk or raise
   [Corrupt_columnar] — never another exception.  Inputs are a small
   valid file with its header fields set to edge values (the file then
   resized to the size the fields would declare with wrapping
   arithmetic, as a crafted file would be), bytes flipped, or cut
   short. *)
let qcol_case_gen =
  QCheck2.Gen.(
    let edge =
      oneof
        [
          oneofl [ 0L; 1L; 2L; Int64.of_int max_int; Int64.shift_left 1L 62;
                   -1L ];
          map
            (fun k -> Int64.add (Int64.shift_left 1L 58) (Int64.of_int k))
            (int_range 0 3);
        ]
    in
    let header =
      map2
        (fun length chunk_size -> `Header (length, chunk_size))
        (opt edge) (opt edge)
    in
    let flips =
      map (fun l -> `Flip l)
        (list_size (int_range 1 4) (pair nat (int_range 1 255)))
    in
    let cut = map (fun k -> `Cut k) nat in
    triple (int_range 1 9)
      (list_size (int_range 0 40) record_gen)
      (oneof [ header; flips; cut ]))

let damage good = function
  | `Header (length, chunk_size) ->
      let b = Bytes.of_string good in
      Option.iter (fun v -> Bytes.set_int64_le b 8 v) length;
      Option.iter (fun v -> Bytes.set_int64_le b 16 v) chunk_size;
      (* The size an unchecked reader would expect, wrapping as [int]
         arithmetic does. *)
      let length = Int64.to_int (Bytes.get_int64_le b 8) in
      let chunk_size = Int64.to_int (Bytes.get_int64_le b 16) in
      let declared =
        if length <= 0 || chunk_size <= 0 then None
        else
          let chunks = ((length - 1) / chunk_size) + 1 in
          Some (24 + (chunks * 17) + (length * 32))
      in
      (match declared with
      | Some size when size >= 24 && size <= 4096 ->
          let padded = Bytes.make size '\000' in
          Bytes.blit b 0 padded 0 (Stdlib.min size (Bytes.length b));
          Bytes.to_string padded
      | _ -> Bytes.to_string b)
  | `Flip flips ->
      let b = Bytes.of_string good in
      List.iter
        (fun (pos, mask) ->
          let i = pos mod Bytes.length b in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask)))
        flips;
      Bytes.to_string b
  | `Cut k -> String.sub good 0 (k mod String.length good)

let prop_qcol_untrusted_bytes =
  QCheck2.Test.make ~name:"qcol bytes decode or raise Corrupt_columnar"
    ~count:500 qcol_case_gen (fun (chunk_size, bounds, how) ->
      let records =
        Array.of_list bounds
        |> Array.mapi (fun id (lo, hi) ->
               {
                 Interval_data.id;
                 belief =
                   (if lo = hi then Uncertain.exact lo
                    else Uncertain.interval lo hi);
                 truth = lo;
               })
      in
      let path = Filename.temp_file "imprecise_qcol" ".qcol" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Dataset_io.save_columnar path
            (Interval_data.to_store ~chunk_size records);
          write_file path (damage (read_file path) how);
          match
            Dataset_io.with_columnar path (fun store ->
                for c = 0 to Column_store.chunk_count store - 1 do
                  ignore (Column_store.chunk store c)
                done;
                ignore (Interval_data.of_store store))
          with
          | () | (exception Dataset_io.Corrupt_columnar _) -> true))

(* Every fetch of an open file decodes through one scratch buffer.  A
   store whose last chunk is short reads back identical columns in any
   fetch order, through a pool small enough to re-decode; a bad row in a
   later chunk still raises [Corrupt_columnar] after good chunks were
   decoded, and good chunks still decode after it. *)
let test_qcol_shared_decode_buffer () =
  let records = dataset 47 ~n:100 in
  let resident = Interval_data.to_store ~chunk_size:16 records in
  let chunks = Column_store.chunk_count resident in
  checki "the last chunk is short" 4 (snd (Column_store.chunk_bounds resident (chunks - 1)));
  let same_chunk (a : Column_store.chunk) (b : Column_store.chunk) =
    a.base = b.base && a.len = b.len && a.ids = b.ids
    && List.for_all
         (fun (x, y) ->
           List.for_all
             (fun i -> Bigarray.Array1.get x i = Bigarray.Array1.get y i)
             (List.init a.len Fun.id))
         [ (a.lo, b.lo); (a.hi, b.hi); (a.truth, b.truth) ]
  in
  let path = Filename.temp_file "imprecise_qcol" ".qcol" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dataset_io.save_columnar path resident;
      Dataset_io.with_columnar ~pool_capacity:1 path (fun streamed ->
          let order =
            (chunks - 1) :: List.init chunks Fun.id
            @ List.rev (List.init chunks Fun.id)
          in
          List.iter
            (fun c ->
              checkb
                (Printf.sprintf "chunk %d reads back" c)
                true
                (same_chunk (Column_store.chunk resident c)
                   (Column_store.chunk streamed c)))
            order);
      (* Reverse row 2 of chunk 3: its hi column takes the lo value
         minus one. *)
      let good = read_file path in
      let body = Bytes.of_string good in
      let header = 8 + 16 + (chunks * 17) in
      let chunk3 = header + (3 * 16 * 32) in
      let lo = Bytes.get_int64_le body (chunk3 + (16 * 8) + (2 * 8)) in
      Bytes.set_int64_le body
        (chunk3 + (32 * 8) + (2 * 8))
        (Int64.bits_of_float (Int64.float_of_bits lo -. 1.0));
      write_file path (Bytes.to_string body);
      Dataset_io.with_columnar ~pool_capacity:1 path (fun streamed ->
          for c = 0 to 2 do
            checkb "good chunk before" true
              (same_chunk (Column_store.chunk resident c)
                 (Column_store.chunk streamed c))
          done;
          expect_corrupt "bad row in chunk 3" (fun () ->
              Column_store.chunk streamed 3);
          checkb "good chunk after" true
            (same_chunk
               (Column_store.chunk resident (chunks - 1))
               (Column_store.chunk streamed (chunks - 1)))))

let test_closed_file_fetch () =
  let records = dataset 37 ~n:50 in
  let store = Interval_data.to_store ~chunk_size:16 records in
  let path = Filename.temp_file "imprecise_qcol" ".qcol" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dataset_io.save_columnar path store;
      let file = Dataset_io.open_columnar path in
      let streamed = Dataset_io.columnar_store file in
      ignore (Column_store.chunk streamed 0);
      Dataset_io.close_columnar file;
      checkb "fetch after close rejected" true
        (match Column_store.chunk streamed 1 with
        | exception Invalid_argument _ -> true
        | _ -> false))

(* The streamed store's chunk pool really caches: re-reading the same
   chunk is a hit, and capacity bounds residency. *)
let test_qcol_pool_caches () =
  let records = dataset 41 ~n:200 in
  let store = Interval_data.to_store ~chunk_size:16 records in
  let path = Filename.temp_file "imprecise_qcol" ".qcol" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dataset_io.save_columnar path store;
      let file = Dataset_io.open_columnar ~pool_capacity:2 path in
      Fun.protect
        ~finally:(fun () -> Dataset_io.close_columnar file)
        (fun () ->
          let streamed = Dataset_io.columnar_store file in
          ignore (Column_store.chunk streamed 0);
          ignore (Column_store.chunk streamed 0);
          ignore (Column_store.chunk streamed 1);
          ignore (Column_store.chunk streamed 2);
          (* capacity 2: chunk 0 evicted *)
          ignore (Column_store.chunk streamed 0);
          let s = Buffer_pool.stats (Dataset_io.columnar_pool file) in
          checki "hits" 1 s.Buffer_pool.hits;
          checki "misses" 4 s.Buffer_pool.misses;
          checki "evictions" 2 s.Buffer_pool.evictions))

(* A pruned scan of a streamed store goes through the chunk pool: the
   first scan loads each unpruned chunk once and never a pruned one, and
   a second scan through the same pool is all hits with the same
   answer. *)
let test_pruned_scan_pooled () =
  let chunk_size = 25 in
  let data = dataset 43 ~n:1000 in
  let resident = Interval_data.to_store ~chunk_size data in
  let pred = Predicate.between 5.0 9.0 in
  let chunks = Column_store.chunk_count resident in
  let kept = chunks - Column_store.pruned_chunks resident pred in
  checkb "some chunks pruned, some kept" true (kept > 0 && kept < chunks);
  let path = Filename.temp_file "imprecise_qcol" ".qcol" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dataset_io.save_columnar path resident;
      let file = Dataset_io.open_columnar ~pool_capacity:chunks path in
      Fun.protect
        ~finally:(fun () -> Dataset_io.close_columnar file)
        (fun () ->
          let store = Dataset_io.columnar_store file in
          let scan () =
            let result =
              Engine.execute ~rng:(Rng.create 5) ~max_laxity:10.0 ~domains:1
                ~columnar:
                  { Engine.store; of_row = Interval_data.of_row; pred;
                    prune = true }
                ~planning:(Engine.Fixed Policy.greedy_params)
                ~instance:(Interval_data.instance pred)
                ~probe:(Probe_driver.scalar Interval_data.probe)
                ~requirements data
            in
            List.map
              (fun (e : Interval_data.record Operator.emitted) ->
                (e.obj.id, e.precise))
              result.Engine.report.Operator.answer
          in
          let pool = Dataset_io.columnar_pool file in
          let first = scan () in
          let s = Buffer_pool.stats pool in
          checki "each unpruned chunk loaded once" kept s.Buffer_pool.misses;
          checki "no hits on the first scan" 0 s.Buffer_pool.hits;
          for c = 0 to chunks - 1 do
            checkb "resident iff unpruned"
              (not (Column_store.prunable resident pred c))
              (Buffer_pool.contains pool c)
          done;
          let second = scan () in
          let s = Buffer_pool.stats pool in
          check_same "second scan gives the same answer" first second;
          checki "no new misses" kept s.Buffer_pool.misses;
          checki "second scan is all hits" kept s.Buffer_pool.hits))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_kernel_matches_instance;
    ("golden row vs columnar", `Quick, test_golden_row_vs_columnar);
    ("golden under faults", `Quick, test_golden_under_faults);
    ("golden streamed store", `Quick, test_golden_streamed_store);
    ("pruning sound and lazy", `Quick, test_prune_sound_and_lazy);
    ("store length mismatch", `Quick, test_store_length_mismatch);
    QCheck_alcotest.to_alcotest prop_qcol_roundtrip;
    ("qcol corruption", `Quick, test_qcol_corruption);
    ("qcol layout overflow", `Quick, test_qcol_layout_overflow);
    QCheck_alcotest.to_alcotest prop_qcol_untrusted_bytes;
    ("qcol shared decode buffer", `Quick, test_qcol_shared_decode_buffer);
    ("fetch after close", `Quick, test_closed_file_fetch);
    ("qcol pool caches", `Quick, test_qcol_pool_caches);
  ]

(* Chunk pruning through the streamed store's pool. *)
let pruning_suite =
  [ ("pruned scan through the chunk pool", `Quick, test_pruned_scan_pooled) ]
