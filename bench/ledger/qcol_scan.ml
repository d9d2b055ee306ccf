(* qcol-scan: the in-process path of [qaq-cli query --layout columnar].
   Every query opens a streamed QCOL file, materializes the row view,
   runs the engine with the columnar scan and closes the file.  The file
   is far larger than the decoded-chunk pool, probes go to the in-memory
   oracle, and neither broker nor server is involved: storage,
   classification and the decision loop do the work. *)

open Measure

let rows = 262_144
let chunk_size = 64
let batch = 16
let warm_up = 2
let rss_after = 36
let decode_sample = 64
let recalls = [| 0.5; 0.8; 0.95 |]
let laxities = [| 2.0; 5.0; 10.0 |]

type query = {
  pred : Predicate.t;
  requirements : Quality.requirements;
  seed : int;
}

(* The mix is a full factorial in a seeded order: every shape (ge / le /
   between / 5-band union) with every r in {0.5, 0.8, 0.95} and l in
   {2, 5, 10}, p = 0.9, over truths in [0, 100] and supports up to 10
   wide, so low-laxity queries must probe.  The seed moves each query's
   threshold or band width only within its own stratum of the shape's
   range: every seed draws the same spread of selectivities, so seeds
   differ in detail but not in difficulty. *)
let make_queries rng =
  let strata = Array.length recalls * Array.length laxities in
  let between lo width = Predicate.between lo (lo +. width) in
  let queries =
    Array.init (4 * strata) (fun i ->
        let k = i mod strata in
        let at lo hi =
          lo +. ((hi -. lo) *. (float_of_int k +. Rng.uniform rng) /. float_of_int strata)
        in
        let pred =
          match i / strata with
          | 0 -> Predicate.ge (at 20.0 80.0)
          | 1 -> Predicate.le (at 20.0 80.0)
          | 2 ->
              let width = at 10.0 20.0 in
              between (Rng.uniform_in rng 10.0 70.0) width
          | _ ->
              let width = at 4.0 8.0 in
              let start = Rng.uniform_in rng 0.0 16.0 in
              let band j = between (start +. (16.0 *. float_of_int j)) width in
              List.fold_left
                (fun p j -> Predicate.( ||| ) p (band j))
                (band 0) [ 1; 2; 3; 4 ]
        in
        let requirements =
          Quality.requirements ~precision:0.9
            ~recall:recalls.(k / Array.length laxities)
            ~laxity:laxities.(k mod Array.length laxities)
        in
        { pred; requirements; seed = Rng.int rng 0x3FFFFFFF })
  in
  Rng.shuffle rng queries;
  queries

(* What a pass keeps of one query; the answer itself is checked and
   dropped, or a run would hold every answer of every query. *)
type sample = {
  latency : float;  (** seconds, client-timed *)
  cost : float;  (** W / |T| *)
  reads : int;  (** pilot sample included *)
  scan_reads : int;
  probes : int;
  batches : int;
  fetches : int;  (** chunk fetches over the whole query *)
  hits : int;
  scan_fetches : int;  (** chunk fetches inside [Engine.execute] *)
  materialize_words : float;
  engine_words : float;
}

(* One query, exactly as the CLI runs it.  With [obs], the benchmark's
   own spans wrap each layer call and the same capability reaches the
   engine, so its plan/scan/probe-flush phases nest under the query. *)
let execute ?obs path q =
  let span name f = match obs with Some o -> Obs.span o name f | None -> f () in
  let t0 = now () in
  let result, sample =
    span "ledger.query" @@ fun () ->
    let file = span "ledger.open" (fun () -> Dataset_io.open_columnar ?obs path) in
    Fun.protect
      ~finally:(fun () -> span "ledger.close" (fun () -> Dataset_io.close_columnar file))
      (fun () ->
        let store = Dataset_io.columnar_store file in
        let pool = Dataset_io.columnar_pool file in
        let w0 = allocated_words () in
        let data = span "ledger.materialize" (fun () -> Interval_data.of_store store) in
        let w1 = allocated_words () in
        let before = Buffer_pool.stats pool in
        let probe = Probe_driver.of_scalar ?obs ~batch_size:batch Interval_data.probe in
        let columnar =
          { Engine.store; of_row = Interval_data.of_row; pred = q.pred; prune = false }
        in
        let r =
          span "ledger.execute" (fun () ->
              Engine.execute ~rng:(Rng.create q.seed) ~cost:Cost_model.paper ~batch
                ~domains:1 ?obs ~columnar
                ~instance:(Interval_data.instance q.pred)
                ~probe ~requirements:q.requirements data)
        in
        let w2 = allocated_words () in
        let after = Buffer_pool.stats pool in
        let fetched (s : Buffer_pool.stats) = s.hits + s.misses in
        let counts = r.Engine.counts in
        ( r,
          {
            latency = 0.0;
            cost = r.Engine.normalized_cost;
            reads = counts.Cost_meter.reads;
            scan_reads = r.Engine.report.Operator.counts.Cost_meter.reads;
            probes = counts.Cost_meter.probes;
            batches = counts.Cost_meter.batches;
            fetches = fetched after;
            hits = after.hits;
            scan_fetches = fetched after - fetched before;
            materialize_words = w1 -. w0;
            engine_words = w2 -. w1;
          } ))
  in
  (result, { sample with latency = now () -. t0 })

(* Ground truth: achieved precision and recall against the exact set,
   whose size was computed from the generated truths in set-up. *)
let audited checks ~what q ~exact (r : Interval_data.record Engine.result) =
  let report = r.Engine.report in
  let in_exact =
    List.fold_left
      (fun n e -> if Interval_data.in_exact q.pred e.Operator.obj then n + 1 else n)
      0 report.Operator.answer
  in
  let answer_size = report.Operator.answer_size in
  let precision = Quality.Diagnostics.precision ~answer_size ~answer_in_exact:in_exact in
  let recall = Quality.Diagnostics.recall ~exact_size:exact ~answer_in_exact:in_exact in
  let req = q.requirements in
  attempt checks
    (List.length report.Operator.answer = answer_size
    && precision >= req.Quality.precision
    && recall >= req.Quality.recall
    && r.Engine.degradation.Engine.requirements_met
    && not (Engine.degraded r))
    "qcol-scan %s: precision %.4f recall %.4f, required %.2f / %.2f" what
    precision recall req.Quality.precision req.Quality.recall

let fingerprint (r : _ Engine.result) =
  ( r.Engine.report.Operator.answer_size,
    r.Engine.report.Operator.guarantees,
    r.Engine.counts,
    r.Engine.normalized_cost )

type setup = {
  path : string;
  queries : query array;
  exact : int array;
  setup_s : float;
  write_s : float;
}

(* Generate the data, write the QCOL file, size every query's exact set
   and run the warm-up queries. *)
let setup checks ~seed ~part ~scale ~dir =
  let t0 = now () in
  let n = max (4 * chunk_size) (rows / scale / chunk_size * chunk_size) in
  let records =
    Interval_data.uniform_intervals (Rng.create (data_seed ~seed ~part)) ~n
      ~value_range:(Interval.make 0.0 100.0) ~max_width:10.0
  in
  let store = Interval_data.to_store ~chunk_size records in
  let path = Filename.concat dir "qcol-scan.qcol" in
  let tw = now () in
  Dataset_io.save_columnar path store;
  let write_s = now () -. tw in
  let queries = make_queries (Rng.create seed) in
  let exact = Array.map (fun q -> Interval_data.exact_size q.pred records) queries in
  for i = 0 to warm_up - 1 do
    let r, _ = execute path queries.(i) in
    audited checks ~what:(Printf.sprintf "warm-up %d" i) queries.(i) ~exact:exact.(i) r
  done;
  { path; queries; exact; setup_s = now () -. t0; write_s }

(* The Column_scan kernel alone, over the chunks one query's scan
   fetched, from a resident copy so no decode is timed: seconds, words
   allocated and rows classified. *)
let time_kernel resident q ~chunks =
  let verdicts = Bytes.create chunk_size in
  let laxities = Array.make chunk_size 0.0 in
  let successes = Array.make chunk_size 0.0 in
  let compiled = Predicate.compile q.pred in
  let fetched =
    Array.init (min chunks (Column_store.chunk_count resident)) (Column_store.chunk resident)
  in
  let w0 = allocated_words () in
  let t0 = now () in
  Array.iter
    (fun c -> Column_scan.kernel compiled c ~off:0 ~verdicts ~laxities ~successes)
    fetched;
  let seconds = now () -. t0 in
  let words = allocated_words () -. w0 in
  (seconds, words, Array.fold_left (fun n (c : Column_store.chunk) -> n + c.len) 0 fetched)

(* Chunk fetches on a freshly opened file: every one is a decode. *)
let time_decode path =
  Dataset_io.with_columnar path (fun store ->
      let count = min decode_sample (Column_store.chunk_count store) in
      let t0 = now () in
      for c = 0 to count - 1 do
        ignore (Column_store.chunk store c)
      done;
      (now () -. t0, count))

type pass = { samples : sample list; wall : float }

(* Closed loop, one client: queries [start], [start + 1], ... of the
   cycled mix until [seconds] have passed.  A query seen before must
   repeat its first answer and cost exactly. *)
let pass checks st ~seen ~start ~seconds ~label ?(rss = rss_probe max_int)
    ?(each = fun _ _ -> ()) obs_for =
  let k = Array.length st.queries in
  let t0 = now () in
  let rec loop i acc =
    rss_tick rss ~answered:(i - start);
    if now () -. t0 >= seconds && acc <> [] then
      { samples = List.rev acc; wall = now () -. t0 }
    else begin
      let qi = i mod k in
      let q = st.queries.(qi) in
      let r, sample = execute ?obs:(obs_for i) st.path q in
      audited checks ~what:(Printf.sprintf "%s query %d" label i) q ~exact:st.exact.(qi) r;
      (match Hashtbl.find_opt seen qi with
      | None -> Hashtbl.add seen qi (fingerprint r)
      | Some fp ->
          recheck checks (fp = fingerprint r)
            "qcol-scan %s query %d: repeat of query %d differs" label i qi);
      each q sample;
      loop (i + 1) (sample :: acc)
    end
  in
  loop start []

let latencies p = List.map (fun s -> s.latency) p.samples

let measure checks ~seed ~part ~seconds ~scale ~dir =
  let st = setup checks ~seed ~part ~scale ~dir in
  (* Each part starts a third of the mix further on. *)
  let start = warm_up + (part * Array.length st.queries / parts) in
  let rss = rss_probe rss_after in
  let p =
    pass checks st ~seen:(Hashtbl.create 64) ~start ~seconds ~label:"timed" ~rss (fun _ -> None)
  in
  (* Every query of the mix once, so the mean is the same on any commit
     that completes one cycle. *)
  let first_cycle = List.filteri (fun i _ -> i < Array.length st.queries) p.samples in
  ({
    setup_s = st.setup_s;
    latencies = latencies p;
    wall = p.wall;
    costs = List.map (fun s -> s.cost) first_cycle;
    peak_rss_mb = rss_read rss;
  } : part)

(* One process: an untraced half, then a traced half over the same
   queries. *)
let trace checks ~seed ~seconds ~scale ~dir =
  let st = setup checks ~seed ~part:0 ~scale ~dir in
  let seen = Hashtbl.create 64 in
  let seconds = seconds /. 2.0 in
  let untraced = pass checks st ~seen ~start:warm_up ~seconds ~label:"timed" (fun _ -> None) in
  let chrome = Chrome_trace.create () in
  let csink = Chrome_trace.sink chrome in
  (* Only phases reach the timeline: per-object events would hold
     hundreds of megabytes by the end of a run. *)
  let sink =
    Trace.callback_ctx (fun ctx ev ->
        match ev with Trace.Phase _ -> Trace.emit_ctx csink ctx ev | _ -> ())
  in
  let obs = Obs.create ~trace:sink () in
  let resident =
    Dataset_io.with_columnar st.path (fun store ->
        Interval_data.to_store ~chunk_size (Interval_data.of_store store))
  in
  let kernel_s = ref 0.0 and kernel_words = ref 0.0 and kernel_rows = ref 0 in
  let decode_s = ref 0.0 and decodes = ref 0 in
  let each q sample =
    let s, w, r = time_kernel resident q ~chunks:sample.scan_fetches in
    kernel_s := !kernel_s +. s;
    kernel_words := !kernel_words +. w;
    kernel_rows := !kernel_rows + r;
    let s, c = time_decode st.path in
    decode_s := !decode_s +. s;
    decodes := !decodes + c
  in
  let obs_for i =
    Some (Obs.with_context obs { Trace.query = Some i; tenant = Some "qcol-scan" })
  in
  let traced = pass checks st ~seen ~start:warm_up ~seconds ~label:"traced" ~each obs_for in
  let snap = Obs.snapshot obs in
  let n = float_of_int (List.length traced.samples) in
  let total f = List.fold_left (fun acc s -> acc +. f s) 0.0 traced.samples in
  let totali f = total (fun s -> float_of_int (f s)) in
  let span = span_seconds snap in
  let wall = sum (latencies traced) in
  let scan_reads = totali (fun s -> s.scan_reads) in
  let probes = totali (fun s -> s.probes) in
  let batches = totali (fun s -> s.batches) in
  let fetches = totali (fun s -> s.fetches) in
  let storage = span "ledger.open" +. span "ledger.materialize" +. span "ledger.close" in
  let scan_self = span "scan" -. span "probe-flush" in
  let common = min (List.length untraced.samples) (List.length traced.samples) in
  let prefix p = List.filteri (fun i _ -> i < common) (latencies p) in
  let rows = float_of_int !kernel_rows in
  Chrome_trace.write chrome (Filename.concat (Filename.dirname st.path) "trace-qcol-scan.json");
  [
    ("storage.open_ms", span "ledger.open" /. n *. 1000.0);
    ("storage.materialize_ms", span "ledger.materialize" /. n *. 1000.0);
    ( "storage.materialize_words_per_row",
      total (fun s -> s.materialize_words) /. (n *. float_of_int (Column_store.length resident)) );
    ("storage.chunk_decode_us", ratio !decode_s (float_of_int !decodes) *. 1e6);
    ("storage.chunk_fetches_per_query", fetches /. n);
    ("storage.pool_hit_rate", ratio (totali (fun s -> s.hits)) fetches);
    ("storage.write_s", st.write_s);
    ("classify.kernel_ns_per_row", ratio !kernel_s rows *. 1e9);
    ("classify.kernel_words_per_row", ratio !kernel_words rows);
    ("classify.rows_per_query", rows /. n);
    ("plan.ms_per_query", span "plan" /. n *. 1000.0);
    ("plan.share", ratio (span "plan") wall);
    ( "plan.sample_reads_per_query",
      float_of_int (Metrics.count_of snap Obs.Keys.sample_reads) /. n );
    ("scan.self_ms_per_query", scan_self /. n *. 1000.0);
    ("scan.self_ns_per_read", ratio scan_self scan_reads *. 1e9);
    ("decide.reads_per_query", scan_reads /. n);
    ("decide.probes_per_read", ratio probes scan_reads);
    ("engine.words_per_read", ratio (total (fun s -> s.engine_words)) (totali (fun s -> s.reads)));
    ("probe.flush_ms_per_query", span "probe-flush" /. n *. 1000.0);
    ("probe.batches_per_query", batches /. n);
    ("probe.fill", ratio probes (batches *. float_of_int batch));
    ("trace.overhead_frac", ratio (sum (prefix traced)) (sum (prefix untraced)) -. 1.0);
    ("trace.coverage", ratio (storage +. span "plan" +. span "scan") wall);
  ]
