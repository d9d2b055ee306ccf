(* Tests for the storage substrate: cost model/meter, heap files,
   cursors, buffer pool and zone maps. *)

(* How many chunks [Column_store.prunable] would skip. *)
let pruned_chunks store pred =
  List.length
    (List.filter (Column_store.prunable store pred)
       (List.init (Column_store.chunk_count store) Fun.id))

let checkf = Alcotest.(check (float 1e-9))
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_cost_model () =
  let m = Cost_model.paper in
  checkf "paper probe cost" 100.0 m.c_p;
  checkf "paper read cost" 1.0 m.c_r;
  checkf "paper batch cost" 0.0 m.c_b;
  checkf "default batch cost" 0.0
    (Cost_model.make ~c_r:1.0 ~c_p:1.0 ~c_wi:1.0 ~c_wp:1.0 ()).c_b;
  Alcotest.check_raises "negative cost"
    (Invalid_argument "Cost_model.make: c_p must be >= 0") (fun () ->
      ignore (Cost_model.make ~c_r:1.0 ~c_p:(-1.0) ~c_wi:1.0 ~c_wp:1.0 ()));
  Alcotest.check_raises "negative batch cost"
    (Invalid_argument "Cost_model.make: c_b must be >= 0") (fun () ->
      ignore
        (Cost_model.make ~c_r:1.0 ~c_p:1.0 ~c_wi:1.0 ~c_wp:1.0 ~c_b:(-0.5) ()));
  Alcotest.check_raises "NaN batch cost"
    (Invalid_argument "Cost_model.make: c_b must be >= 0") (fun () ->
      ignore
        (Cost_model.make ~c_r:1.0 ~c_p:1.0 ~c_wi:1.0 ~c_wp:1.0 ~c_b:Float.nan
           ()))

let test_cost_model_amortize () =
  let m = Cost_model.make ~c_r:1.0 ~c_p:100.0 ~c_wi:1.0 ~c_wp:1.0 ~c_b:60.0 () in
  checkf "amortized B=1" 160.0 (Cost_model.amortized_probe m ~batch:1);
  checkf "amortized B=4" 115.0 (Cost_model.amortized_probe m ~batch:4);
  Alcotest.check_raises "bad batch"
    (Invalid_argument "Cost_model.amortized_probe: batch < 1") (fun () ->
      ignore (Cost_model.amortized_probe m ~batch:0))

let test_cost_model_roundtrip () =
  let check_roundtrip m =
    match Cost_model.of_string (Format.asprintf "%a" Cost_model.pp m) with
    | Some m' -> checkb "pp/of_string roundtrip" true (m = m')
    | None -> Alcotest.fail "of_string rejected its own pp output"
  in
  check_roundtrip Cost_model.paper;
  check_roundtrip (Cost_model.make ~c_r:1.0 ~c_p:1.0 ~c_wi:1.0 ~c_wp:1.0 ());
  check_roundtrip
    (Cost_model.make ~c_r:0.5 ~c_p:250.0 ~c_wi:2.0 ~c_wp:3.0 ~c_b:12.5 ());
  (* c_b is optional on input (older strings), defaulting to 0. *)
  (match Cost_model.of_string "c_r=1 c_p=100 c_wi=1 c_wp=1" with
  | Some m ->
      checkf "legacy string parses" 100.0 m.c_p;
      checkf "legacy c_b defaults to 0" 0.0 m.c_b
  | None -> Alcotest.fail "legacy string rejected");
  checkb "junk rejected" true (Cost_model.of_string "c_r=1 c_p=oops" = None);
  checkb "missing field rejected" true (Cost_model.of_string "c_r=1" = None);
  checkb "negative rejected" true
    (Cost_model.of_string "c_r=1 c_p=-3 c_wi=1 c_wp=1" = None)

let test_cost_meter () =
  let t = Cost_meter.create () in
  Cost_meter.charge_read t;
  Cost_meter.charge_read t;
  Cost_meter.charge_probe t;
  Cost_meter.charge_batch_tier t 0;
  Cost_meter.charge_write_imprecise t;
  Cost_meter.charge_write_precise t;
  let c = Cost_meter.counts t in
  checki "reads" 2 c.reads;
  checki "probes" 1 c.probes;
  checki "batches" 1 c.batches;
  (* W = 2*1 + 1*100 + 1*1 + 1*1 = 104 under the paper model (c_b = 0:
     the batch charge is free there). *)
  checkf "total cost" 104.0 (Cost_meter.total_cost Cost_model.paper t);
  let batched =
    Cost_model.make ~c_r:1.0 ~c_p:100.0 ~c_wi:1.0 ~c_wp:1.0 ~c_b:7.0 ()
  in
  checkf "batch charge priced" 111.0 (Cost_meter.total_cost batched t)

(* A tier priced at the base model re-prices nothing: under any
   fractional cost model, a meter whose probes and batches are all
   charged to such a tier totals bit-for-bit what [total_cost] does —
   the identity that lets a plain driver run as a one-tier cascade
   without moving a cost by one ulp. *)
let prop_base_priced_tier_exact =
  QCheck2.Test.make ~name:"base-priced tier costs bit-for-bit total_cost"
    ~count:500
    QCheck2.Gen.(
      pair
        (array_size (return 5) (float_range 0.0 1000.0))
        (list_size (int_range 0 400) (int_range 0 4)))
    (fun (c, ops) ->
      let cost =
        Cost_model.make ~c_r:c.(0) ~c_p:c.(1) ~c_wi:c.(2) ~c_wp:c.(3)
          ~c_b:c.(4) ()
      in
      let t = Cost_meter.create () in
      List.iter
        (function
          | 0 -> Cost_meter.charge_read t
          | 1 -> Cost_meter.charge_probe_tier t 0
          | 2 -> Cost_meter.charge_batch_tier t 0
          | 3 -> Cost_meter.charge_write_imprecise t
          | _ -> Cost_meter.charge_write_precise t)
        ops;
      let tiers = Probe_tier.oracle_only ~cost ~batch:1 () in
      Int64.equal
        (Int64.bits_of_float (Cost_meter.tiered_cost cost ~tiers t))
        (Int64.bits_of_float (Cost_meter.total_cost cost t)))

let test_buffer_pool_lru () =
  let pool = Buffer_pool.create ~capacity:2 () in
  let loads = ref [] in
  let load p =
    loads := p :: !loads;
    [| p |]
  in
  ignore (Buffer_pool.fetch pool 1 load);
  ignore (Buffer_pool.fetch pool 2 load);
  ignore (Buffer_pool.fetch pool 1 load);
  (* hit *)
  ignore (Buffer_pool.fetch pool 3 load);
  (* evicts 2, the least recently used *)
  checkb "page 1 kept" true (Buffer_pool.contains pool 1);
  checkb "page 2 evicted" false (Buffer_pool.contains pool 2);
  ignore (Buffer_pool.fetch pool 2 load);
  let s = Buffer_pool.stats pool in
  checki "hits" 1 s.hits;
  checki "misses" 4 s.misses;
  checki "evictions" 2 s.evictions;
  Alcotest.check_raises "capacity" (Invalid_argument "Buffer_pool.create: capacity < 1")
    (fun () -> ignore (Buffer_pool.create ~capacity:0 ()))

(* Regression: a loader that raises must leave the pool exactly as it
   was — in particular the LRU victim must not be evicted for a page
   that never arrived. *)
(* The pool against a list model of LRU (most recent first): over
   random access sequences, with and without raising loads, the same
   pages stay cached and the same hits, misses and evictions are
   counted. *)
let prop_buffer_pool_is_lru =
  QCheck2.Test.make ~name:"buffer pool evicts as an LRU list" ~count:200
    QCheck2.Gen.(
      pair (int_range 1 5)
        (list_size (int_range 0 120) (pair (int_range 0 9) (int_range 0 9))))
    (fun (capacity, accesses) ->
      let pool = Buffer_pool.create ~capacity () in
      let model = ref [] and hits = ref 0 and misses = ref 0 and evictions = ref 0 in
      List.for_all
        (fun (page, roll) ->
          let fails = roll = 0 in
          let load p = if fails then raise Exit else p * 10 in
          (match Buffer_pool.fetch pool page load with
          | v -> assert (v = page * 10)
          | exception Exit -> ());
          if List.mem page !model then begin
            incr hits;
            model := page :: List.filter (( <> ) page) !model
          end
          else begin
            incr misses;
            if not fails then begin
              if List.length !model >= capacity then begin
                incr evictions;
                model := List.filteri (fun i _ -> i < capacity - 1) !model
              end;
              model := page :: !model
            end
          end;
          let s = Buffer_pool.stats pool in
          s.hits = !hits && s.misses = !misses && s.evictions = !evictions
          && List.for_all
               (fun p -> Buffer_pool.contains pool p = List.mem p !model)
               (List.init 10 Fun.id))
        accesses)

(* A hit takes the lock, bumps the clock and returns the page: no
   closure, no [Fun.protect], no option, so no minor words, with or
   without instruments. *)
let test_buffer_pool_hit_allocation () =
  List.iter
    (fun (what, obs) ->
      let pool = Buffer_pool.create ?obs ~capacity:4 () in
      let load p = [| p |] in
      for p = 0 to 3 do
        ignore (Buffer_pool.fetch pool p load)
      done;
      let n = 100_000 in
      let before = Gc.minor_words () in
      for i = 1 to n do
        ignore (Buffer_pool.fetch pool (i land 3) load)
      done;
      let words = (Gc.minor_words () -. before) /. float_of_int n in
      checkb
        (Printf.sprintf "%s: %.4f words per hit <= 0.01" what words)
        true (words <= 0.01);
      checki (what ^ ": all hits") n (Buffer_pool.stats pool).hits)
    [ ("bare", None); ("instrumented", Some (Obs.create ())) ]

let test_buffer_pool_failed_load () =
  let pool = Buffer_pool.create ~capacity:2 () in
  let load p = [| p |] in
  ignore (Buffer_pool.fetch pool 1 load);
  ignore (Buffer_pool.fetch pool 2 load);
  (* Pool is full; the next distinct fetch would evict page 1. *)
  Alcotest.check_raises "loader failure propagates" Not_found (fun () ->
      ignore (Buffer_pool.fetch pool 3 (fun _ -> raise Not_found)));
  checkb "page 1 still cached" true (Buffer_pool.contains pool 1);
  checkb "page 2 still cached" true (Buffer_pool.contains pool 2);
  checkb "failed page not cached" false (Buffer_pool.contains pool 3);
  let s = Buffer_pool.stats pool in
  checki "no eviction for a failed load" 0 s.evictions;
  checki "a failed fetch is still a miss" 3 s.misses;
  (* The pool keeps working: retrying the load now succeeds and evicts
     the true LRU victim (page 1). *)
  ignore (Buffer_pool.fetch pool 3 load);
  checki "eviction after a successful load" 1 (Buffer_pool.stats pool).evictions;
  checkb "page 1 evicted on retry" false (Buffer_pool.contains pool 1);
  checkb "page 3 cached on retry" true (Buffer_pool.contains pool 3)

(* The docs promise the raising-load contract holds identically for the
   chunk-fetch path: the pool is unit-agnostic, a failed chunk decode is
   a miss, nothing is inserted, no eviction is charged, and the hit rate
   counts the failure against the pool. *)
let test_buffer_pool_failed_chunk_load () =
  let pool : Column_store.chunk Buffer_pool.t =
    Buffer_pool.create ~capacity:2 ()
  in
  let store =
    Column_store.create ~chunk_size:4
      (Array.init 12 (fun id ->
           { Column_store.id; lo = 0.0; hi = 1.0; truth = 0.5 }))
  in
  let load c = Column_store.chunk store c in
  ignore (Buffer_pool.fetch pool 0 load);
  ignore (Buffer_pool.fetch pool 1 load);
  Alcotest.check_raises "decode failure propagates" Not_found (fun () ->
      ignore (Buffer_pool.fetch pool 2 (fun _ -> raise Not_found)));
  checkb "chunk 0 still cached" true (Buffer_pool.contains pool 0);
  checkb "chunk 1 still cached" true (Buffer_pool.contains pool 1);
  checkb "failed chunk not cached" false (Buffer_pool.contains pool 2);
  let s = Buffer_pool.stats pool in
  checki "failed decode is a miss" 3 s.misses;
  checki "no eviction for a failed decode" 0 s.evictions;
  checki "hit rate charges the failure: no hit" 0 s.hits;
  ignore (Buffer_pool.fetch pool 2 load);
  checki "retry evicts the true LRU victim" 1 (Buffer_pool.stats pool).evictions

(* The pool is a monitor: two domains hammering the same pages must
   never run the loader twice for one page. *)
let test_buffer_pool_concurrent_single_load () =
  let pages = 8 in
  let pool = Buffer_pool.create ~capacity:pages () in
  let loads = Array.init pages (fun _ -> Atomic.make 0) in
  let load p =
    Atomic.incr loads.(p);
    (* widen the race window a loader outside the lock would lose *)
    Unix.sleepf 0.0005;
    [| p * 3 |]
  in
  let worker () =
    for _ = 1 to 50 do
      for p = 0 to pages - 1 do
        let v = Buffer_pool.fetch pool p load in
        if v.(0) <> p * 3 then Alcotest.fail "wrong page contents"
      done
    done
  in
  let a = Domain.spawn worker and b = Domain.spawn worker in
  Domain.join a;
  Domain.join b;
  for p = 0 to pages - 1 do
    checki (Printf.sprintf "page %d loaded exactly once" p) 1
      (Atomic.get loads.(p))
  done;
  let s = Buffer_pool.stats pool in
  checki "one miss per page" pages s.misses;
  checki "no evictions below capacity" 0 s.evictions

let test_column_store_layout () =
  let rows =
    Array.init 25 (fun id ->
        let lo = float_of_int id in
        { Column_store.id = 1000 + id; lo; hi = lo +. 0.5; truth = lo +. 0.25 })
  in
  let store = Column_store.create ~chunk_size:10 rows in
  checki "length" 25 (Column_store.length store);
  checki "chunk count" 3 (Column_store.chunk_count store);
  checkb "short last chunk" true (Column_store.chunk_bounds store 2 = (20, 5));
  let ch = Column_store.chunk store 1 in
  checki "chunk base" 10 ch.Column_store.base;
  checki "chunk len" 10 ch.Column_store.len;
  checkb "row materializes" true (Column_store.row ch 3 = rows.(13));
  checkb "rows cross chunks" true
    (Column_store.row (Column_store.chunk store 2) 1 = rows.(21));
  (match (Column_store.zones store).(1) with
  | Some hull ->
      checkf "zone lo" 10.0 (Interval.lo hull);
      checkf "zone hi" 19.5 (Interval.hi hull)
  | None -> Alcotest.fail "chunk 1 has a zone");
  Alcotest.check_raises "bad chunk index"
    (Invalid_argument "Column_store.fetch: chunk index") (fun () ->
      ignore (Column_store.chunk store 3));
  Alcotest.check_raises "bad row"
    (Invalid_argument "Column_store.create: bound columns need finite lo <= hi")
    (fun () ->
      ignore
        (Column_store.create
           [| { Column_store.id = 0; lo = 2.0; hi = 1.0; truth = 0.0 } |]));
  Alcotest.check_raises "bad chunk size"
    (Invalid_argument "Column_store.create: chunk_size < 1") (fun () ->
      ignore (Column_store.create ~chunk_size:0 rows));
  Alcotest.check_raises "of_fetch zone mismatch"
    (Invalid_argument
       "Column_store.of_fetch: zone count does not match the layout")
    (fun () ->
      ignore
        (Column_store.of_fetch ~length:25 ~chunk_size:10 ~zones:[| None |]
           (Column_store.chunk store)))

(* Chunk pruning must agree with a zone map rebuilt from the records: a
   chunk is prunable iff the hull of its rows' supports is a definite
   NO. *)
let test_column_store_pruning_matches_zone_map () =
  let records =
    Interval_data.uniform_intervals (Rng.create 53) ~n:500
      ~value_range:(Interval.make 0.0 100.0) ~max_width:5.0
  in
  let midpoint (r : Interval_data.record) =
    let s = Uncertain.support r.belief in
    Interval.lo s +. (Interval.width s /. 2.0)
  in
  Array.sort
    (fun (a : Interval_data.record) b -> compare (midpoint a, a.id) (midpoint b, b.id))
    records;
  let chunk_size = 25 in
  let store = Interval_data.to_store ~chunk_size records in
  let pred = Predicate.ge 60.0 in
  let hull c =
    let supports =
      Array.init chunk_size (fun i ->
          Uncertain.support records.((c * chunk_size) + i).belief)
    in
    Array.fold_left
      (fun h s ->
        Interval.make
          (Float.min (Interval.lo h) (Interval.lo s))
          (Float.max (Interval.hi h) (Interval.hi s)))
      supports.(0) supports
  in
  checki "one chunk per 25 records" 20 (Column_store.chunk_count store);
  let expected = ref 0 in
  for c = 0 to Column_store.chunk_count store - 1 do
    let no = Tvl.equal (Predicate.classify_interval pred (hull c)) Tvl.No in
    if no then incr expected;
    checkb "prunable agrees with the rebuilt zone map" no
      (Column_store.prunable store pred c)
  done;
  checki "pruned counts agree" !expected
    (pruned_chunks store pred);
  checkb "pruning bites on this layout" true
    (pruned_chunks store pred > 0);
  (* Soundness: no pruned chunk holds a YES/MAYBE row. *)
  for c = 0 to Column_store.chunk_count store - 1 do
    if Column_store.prunable store pred c then begin
      let ch = Column_store.chunk store c in
      for i = 0 to ch.Column_store.len - 1 do
        let r = Interval_data.of_row (Column_store.row ch i) in
        checkb "pruned rows are NO" true
          (Tvl.equal (Predicate.classify pred r.belief) Tvl.No)
      done
    end
  done

let test_of_store () =
  let records =
    Interval_data.uniform_intervals (Rng.create 59) ~n:77
      ~value_range:(Interval.make 0.0 10.0) ~max_width:2.0
  in
  let store = Interval_data.to_store ~chunk_size:8 records in
  (* Count the loader's calls through a streamed view of the store. *)
  let fetches = Array.make (Column_store.chunk_count store) 0 in
  let streamed =
    Column_store.of_fetch ~length:(Column_store.length store)
      ~chunk_size:(Column_store.chunk_size store) ~zones:(Column_store.zones store)
      (fun c ->
        fetches.(c) <- fetches.(c) + 1;
        Column_store.chunk store c)
  in
  let rows = Interval_data.of_store streamed in
  checki "length" 77 (Array.length rows);
  checkb "the original data in storage order" true (rows = records);
  checkb "each chunk fetched once" true (Array.for_all (( = ) 1) fetches);
  checki "empty store" 0
    (Array.length (Interval_data.of_store (Interval_data.to_store [||])))

let test_zone_map () =
  (* Values clustered by chunk: chunk c holds supports around 10c. *)
  let rows =
    Array.init 100 (fun id ->
        let x = float_of_int id in
        { Column_store.id; lo = x -. 0.4; hi = x +. 0.4; truth = x })
  in
  let store = Column_store.create ~chunk_size:10 rows in
  checki "zones" 10 (Array.length (Column_store.zones store));
  let pred = Predicate.ge 75.0 in
  (* Chunks 0..6 hold values <= 69.4 < 75: prunable.  Chunk 7 straddles. *)
  checkb "chunk 0 prunable" true (Column_store.prunable store pred 0);
  checkb "chunk 6 prunable" true (Column_store.prunable store pred 6);
  checkb "chunk 7 not prunable" false (Column_store.prunable store pred 7);
  checkb "chunk 9 not prunable" false (Column_store.prunable store pred 9);
  checki "pruned count" 7 (pruned_chunks store pred)

(* Soundness of pruning: no pruned chunk may contain a satisfying row,
   whatever the chunk size and threshold. *)
let prop_zone_map_sound =
  QCheck2.Test.make ~name:"zone-map pruning never drops a YES/MAYBE object"
    ~count:100
    QCheck2.Gen.(
      triple (int_range 1 200) (int_range 1 32) (float_range (-50.0) 50.0))
    (fun (n, chunk_size, threshold) ->
      let rng = Rng.create (n * 31) in
      let rows =
        Array.init n (fun id ->
            let lo = Rng.uniform_in rng (-60.0) 60.0 in
            { Column_store.id; lo; hi = lo +. Rng.float rng 10.0; truth = lo })
      in
      let store = Column_store.create ~chunk_size rows in
      let pred = Predicate.ge threshold in
      let sound = ref true in
      for c = 0 to Column_store.chunk_count store - 1 do
        if Column_store.prunable store pred c then begin
          let ch = Column_store.chunk store c in
          for i = 0 to ch.Column_store.len - 1 do
            let r = Column_store.row ch i in
            match Predicate.classify_interval pred (Interval.make r.lo r.hi) with
            | Tvl.No -> ()
            | Tvl.Yes | Tvl.Maybe -> sound := false
          done
        end
      done;
      !sound)

let suite =
  [
    ("cost model", `Quick, test_cost_model);
    ("cost model amortized pricing", `Quick, test_cost_model_amortize);
    ("cost model pp/of_string roundtrip", `Quick, test_cost_model_roundtrip);
    ("cost meter accounting", `Quick, test_cost_meter);
    ("buffer pool LRU", `Quick, test_buffer_pool_lru);
    ("buffer pool failed load", `Quick, test_buffer_pool_failed_load);
    QCheck_alcotest.to_alcotest prop_buffer_pool_is_lru;
    ("buffer pool hit allocation", `Quick, test_buffer_pool_hit_allocation);
    ("buffer pool failed chunk load", `Quick, test_buffer_pool_failed_chunk_load);
    ("buffer pool concurrent single load", `Quick,
     test_buffer_pool_concurrent_single_load);
    ("column store layout", `Quick, test_column_store_layout);
    ( "column pruning matches zone map",
      `Quick,
      test_column_store_pruning_matches_zone_map );
    ("of_store fetches each chunk once", `Quick, test_of_store);
    ("zone map pruning", `Quick, test_zone_map);
    QCheck_alcotest.to_alcotest prop_zone_map_sound;
    QCheck_alcotest.to_alcotest prop_base_priced_tier_exact;
  ]
