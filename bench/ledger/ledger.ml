(* The QaQ performance ledger.

     ledger.exe --seed N --out DIR [--trace 1]   every workload, one after another
     ledger.exe --workload W --seed N --seconds S --trace 0|1
                                                 one workload
     ledger.exe --compare A.json B.json          two sets of runs, with verdicts
     ledger.exe --smoke                          1/50-size run of everything, checked

   A run prints every metric as "workload metric value unit" and, in the
   single-workload form, ends with one JSON line: correct, attempted,
   failed and the metrics.  Untraced runs report the end-to-end metrics;
   traced runs ([--trace 1]) the per-layer ones.  Names, units, bounds
   and the workload list live in BENCHMARK.json; the catalogue below
   says how this program measures each name, and a run stops if the two
   disagree. *)

let workloads = [ "qcol-scan"; "serve-cold"; "serve-tiered"; "serve-warm" ]

let end_to_end_units =
  [
    ("setup_s", "s");
    ("qps", "queries/s");
    ("query_p50_ms", "ms");
    ("query_p90_ms", "ms");
    ("cost_per_object", "W/object");
    ("peak_rss_mb", "MB");
  ]

(* A layer a workload does not exercise reads 0 there. *)
let per_layer_units =
  [
    ("storage.open_ms", "ms");
    ("storage.materialize_ms", "ms");
    ("storage.materialize_words_per_row", "words/row");
    ("storage.chunk_decode_us", "us");
    ("storage.chunk_fetches_per_query", "chunks/query");
    ("storage.pool_hit_rate", "frac");
    ("storage.write_s", "s");
    ("classify.kernel_ns_per_row", "ns");
    ("classify.kernel_words_per_row", "words/row");
    ("classify.rows_per_query", "rows/query");
    ("plan.ms_per_query", "ms");
    ("plan.share", "frac");
    ("plan.sample_reads_per_query", "reads/query");
    ("scan.self_ms_per_query", "ms");
    ("scan.self_ns_per_read", "ns");
    ("decide.reads_per_query", "reads/query");
    ("decide.probes_per_read", "probes/read");
    ("engine.words_per_read", "words/read");
    ("probe.flush_ms_per_query", "ms");
    ("probe.batches_per_query", "batches/query");
    ("probe.fill", "frac");
    ("broker.queue_wait_p50_ms", "ms");
    ("broker.queue_wait_p90_ms", "ms");
    ("broker.batch_fill_mean", "objects/batch");
    ("broker.charged_per_request", "frac");
    ("broker.coalesced_frac", "frac");
    ("broker.fresh_frac", "frac");
    ("cascade.proxy.probes_per_query", "probes/query");
    ("cascade.proxy.shrinks_per_query", "shrinks/query");
    ("cascade.proxy.batches_per_query", "batches/query");
    ("cascade.oracle.probes_per_query", "probes/query");
    ("cascade.oracle.shrinks_per_query", "shrinks/query");
    ("cascade.oracle.batches_per_query", "batches/query");
    ("serve.enqueue_us_per_query", "us");
    ("serve.run_overhead_ms", "ms");
    ("trace.overhead_frac", "frac");
    ("trace.coverage", "frac");
  ]

(* Sizes are divided by this in a smoke run. *)
let smoke_scale = 50
let smoke_seconds = 0.25

(* Environment the children must not inherit: each would silently
   change what a workload measures. *)
let scrubbed = [ "QAQ_DOMAINS"; "QAQ_LAYOUT"; "QAQ_FAULT_SEED" ]

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("ledger: " ^ m); exit 2) fmt

(* ---- BENCHMARK.json ---------------------------------------------- *)

type spec_metric = {
  name : string;
  unit : string;
  lower_is_better : bool;
  bound : float;  (** 0 for per-layer metrics, which have none *)
}

type spec = {
  run_seconds : float;
  spec_workloads : string list;
  end_to_end : spec_metric list;
  per_layer : spec_metric list;
}

let load_spec path =
  let j = Json.of_file path in
  let metrics key =
    List.map
      (fun m ->
        {
          name = Json.to_str (Json.member "name" m);
          unit = Json.to_str (Json.member "unit" m);
          lower_is_better = Json.to_str (Json.member "better" m) = "lower";
          bound =
            (match List.assoc_opt "bound" (Json.to_obj m) with
            | Some b -> Json.to_num b
            | None -> 0.0);
        })
      (Json.to_list (Json.member key j))
  in
  {
    run_seconds = Json.to_num (Json.member "run_seconds" j);
    spec_workloads =
      List.map (fun w -> Json.to_str (Json.member "name" w)) (Json.to_list (Json.member "workloads" j));
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }

(* The spec and the catalogue must name the same metrics with the same
   units, and the same workloads. *)
let check_spec spec =
  let agree what catalogue metrics =
    let named = List.map (fun m -> (m.name, m.unit)) metrics in
    if List.sort compare named <> List.sort compare catalogue then
      die "%s metrics in BENCHMARK.json differ from the ledger's catalogue" what
  in
  agree "end_to_end" end_to_end_units spec.end_to_end;
  agree "per_layer" per_layer_units spec.per_layer;
  if spec.spec_workloads <> workloads then
    die "workloads in BENCHMARK.json differ from the ledger's"

(* ---- child processes --------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let child_env () =
  Array.of_list
    (List.filter
       (fun kv ->
         not (List.exists (fun v -> String.starts_with ~prefix:(v ^ "=") kv) scrubbed))
       (Array.to_list (Unix.environment ())))

(* Run this program again with [args] and wait for it: the lines it
   printed, the last one parsed as the JSON result. *)
let spawn ~what args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: args)) (child_env ()) Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  (match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | _ -> die "%s failed" what);
  match List.rev (List.filter (fun l -> l <> "") (String.split_on_char '\n' out)) with
  | last :: rest -> (List.rev rest, Json.parse last)
  | [] -> die "%s printed nothing" what

(* ---- one workload -------------------------------------------------- *)

let scale ~smoke = if smoke then smoke_scale else 1

(* The metrics of one run, printed as lines and as the JSON result. *)
let report spec ~name ~trace ~attempted ~failed values =
  let reported = if trace then spec.per_layer else spec.end_to_end in
  let value m =
    match List.assoc_opt m.name values with
    | Some v when Float.is_finite v -> v
    | Some v -> die "%s %s measured as %f" name m.name v
    | None when trace -> 0.0
    | None -> die "%s did not measure %s" name m.name
  in
  let measured = List.map (fun m -> (m, value m)) reported in
  List.iter (fun (m, v) -> Printf.printf "%s %s %.6g %s\n" name m.name v m.unit) measured;
  if not trace then
    Printf.printf "%s error_rate %.6g failed/attempted\n" name
      (float_of_int failed /. float_of_int (max 1 attempted));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (m, v) ->
                     (m.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit) ]))
                   measured) );
          ]))

(* One part of an untraced run, in this process; prints its raw samples. *)
let run_part ~name ~seed ~part ~seconds ~smoke ~dir =
  let checks = Measure.checks () in
  let scale = scale ~smoke in
  let p =
    if name = "qcol-scan" then Qcol_scan.measure checks ~seed ~part ~seconds ~scale ~dir
    else Serve_load.measure checks ~name ~seed ~part ~seconds ~scale
  in
  let nums l = Json.Arr (List.map (fun v -> Json.Num v) l) in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("attempted", Json.Num (float_of_int checks.Measure.attempted));
            ("failed", Json.Num (float_of_int checks.Measure.failed));
            ("setup_s", Json.Num p.Measure.setup_s);
            ("wall", Json.Num p.Measure.wall);
            ("latencies", nums p.Measure.latencies);
            ("costs", nums p.Measure.costs);
            ("peak_rss_mb", Json.Num p.Measure.peak_rss_mb);
          ]))

let run_workload spec ~spec_path ~name ~seed ~seconds ~trace ~smoke ~dir =
  if not (List.mem name workloads) then
    die "unknown workload %S (one of %s)" name (String.concat ", " workloads);
  mkdir_p dir;
  if trace then begin
    let checks = Measure.checks () in
    let scale = scale ~smoke in
    let values =
      if name = "qcol-scan" then Qcol_scan.trace checks ~seed ~seconds ~scale ~dir
      else Serve_load.trace checks ~name ~seed ~seconds ~scale ~dir
    in
    report spec ~name ~trace ~attempted:checks.Measure.attempted ~failed:checks.Measure.failed
      values
  end
  else begin
    (* The parts run one after another, each in its own process, and
       their samples are pooled. *)
    let parts =
      List.init Measure.parts (fun part ->
          snd
            (spawn
               ~what:(Printf.sprintf "%s part %d" name part)
               ([ "--workload"; name; "--part"; string_of_int part; "--seed"; string_of_int seed;
                  "--seconds"; Printf.sprintf "%.17g" (seconds /. float_of_int Measure.parts);
                  "--out"; dir; "--spec"; spec_path ]
               @ if smoke then [ "--smoke" ] else [])))
    in
    let num key j = Json.to_num (Json.member key j) in
    let nums key = List.concat_map (fun j -> List.map Json.to_num (Json.to_list (Json.member key j))) parts in
    let total key = List.fold_left (fun acc j -> acc +. num key j) 0.0 parts in
    let ms = List.map (fun s -> s *. 1000.0) (nums "latencies") in
    let median_of key = Measure.median (List.map (num key) parts) in
    report spec ~name ~trace
      ~attempted:(int_of_float (total "attempted"))
      ~failed:(int_of_float (total "failed"))
      [
        ("setup_s", median_of "setup_s");
        ("qps", float_of_int (List.length ms) /. total "wall");
        ("query_p50_ms", Measure.percentile ms 0.5);
        ("query_p90_ms", Measure.percentile ms 0.9);
        ("cost_per_object", Measure.mean (nums "costs"));
        ("peak_rss_mb", median_of "peak_rss_mb");
      ]
  end

(* ---- every workload ------------------------------------------------ *)

let machine () =
  let cpu =
    try
      In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all
      |> String.split_on_char '\n'
      |> List.find (String.starts_with ~prefix:"model name")
      |> fun l -> String.trim (List.nth (String.split_on_char ':' l) 1)
    with _ -> "unknown"
  in
  Json.Obj
    [
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("cpu", Json.Str cpu);
    ]

(* Runs accumulate in DIR/ledger.json (traced: ledger-trace.json), the
   format --compare reads. *)
let results_file ~dir ~trace =
  Filename.concat dir (if trace then "ledger-trace.json" else "ledger.json")

(* One workload after another, each in processes of its own, so peak RSS
   and the GC heap are per workload and no workload's heap slows the
   next. *)
let run_all spec ~spec_path ~seed ~seconds ~trace ~smoke ~dir =
  mkdir_p dir;
  let results =
    List.map
      (fun name ->
        let lines, result =
          spawn ~what:("workload " ^ name)
            ([ "--workload"; name; "--seed"; string_of_int seed; "--seconds";
               Printf.sprintf "%.17g" seconds; "--trace"; (if trace then "1" else "0");
               "--out"; dir; "--spec"; spec_path ]
            @ if smoke then [ "--smoke" ] else [])
        in
        if not smoke then List.iter print_endline lines;
        (name, lines, result))
      spec.spec_workloads
  in
  let path = results_file ~dir ~trace in
  let earlier =
    if Sys.file_exists path then Json.to_list (Json.member "runs" (Json.of_file path)) else []
  in
  let run =
    Json.Obj
      [
        ("seed", Json.Num (float_of_int seed));
        ("seconds", Json.Num seconds);
        ("workloads", Json.Obj (List.map (fun (n, _, r) -> (n, r)) results));
      ]
  in
  Json.to_file path (Json.Obj [ ("machine", machine ()); ("runs", Json.Arr (earlier @ [ run ])) ]);
  results

(* ---- --compare ---------------------------------------------------- *)

type verdict = Better | Unchanged | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Unchanged -> "unchanged"
  | Worse -> "WORSE"
  | Unresolved -> "unresolved"

(* A gain needs at least ten pairs, the change winning nine tenths of
   them, and a median moved by more than the parent's own quartile
   spread; a regression is a median worse by more than the bound; a
   spread wider than the bound leaves the metric unresolved unless every
   run of the change beats every run of the parent. *)
let judge m a b =
  let qa1, ma, qa3 = Measure.quartiles a in
  let qb1, mb, qb3 = Measure.quartiles b in
  let better x y = if m.lower_is_better then x < y else x > y in
  let worse_by = (if m.lower_is_better then mb -. ma else ma -. mb) /. Float.abs ma in
  (* Run i of one set is paired with run i of the other. *)
  let pairs = min (List.length a) (List.length b) in
  let first l = List.filteri (fun i _ -> i < pairs) l in
  let wins = List.length (List.filter (fun (x, y) -> better y x) (List.combine (first a) (first b))) in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> better y x) a) b in
  let spread = Float.max ((qa3 -. qa1) /. Float.abs ma) ((qb3 -. qb1) /. Float.abs mb) in
  if pairs >= 10
     && float_of_int wins >= 0.9 *. float_of_int pairs
     && Float.abs (mb -. ma) > qa3 -. qa1
     && worse_by < 0.0
  then Better
  else if worse_by > m.bound then Worse
  else if spread > m.bound && not all_better then Unresolved
  else Unchanged

let compare_sets spec a_path b_path =
  let runs path = Json.to_list (Json.member "runs" (Json.of_file path)) in
  let a_runs = runs a_path and b_runs = runs b_path in
  let results runs name =
    List.filter_map (fun run -> List.assoc_opt name (Json.to_obj (Json.member "workloads" run))) runs
  in
  let errors = ref 0 and regressions = ref 0 in
  Printf.printf "%-13s %-16s %-34s %-34s %8s  %s\n" "workload" "metric"
    ("A " ^ Filename.basename a_path ^ " median [q1, q3]")
    ("B " ^ Filename.basename b_path ^ " median [q1, q3]") "B vs A" "verdict";
  List.iter
    (fun name ->
      let a = results a_runs name and b = results b_runs name in
      List.iter
        (fun r ->
          if not (Json.to_bool (Json.member "correct" r)) || Json.to_num (Json.member "failed" r) > 0.0
          then incr errors)
        (a @ b);
      if a <> [] && b <> [] then
        List.iter
          (fun m ->
            let values rs =
              List.filter_map
                (fun r ->
                  match List.assoc_opt m.name (Json.to_obj (Json.member "metrics" r)) with
                  | Some v -> Some (Json.to_num (Json.member "value" v))
                  | None -> None)
                rs
            in
            let va = values a and vb = values b in
            if va <> [] && vb <> [] then begin
              let v = judge m va vb in
              if v = Worse then incr regressions;
              let show vs =
                let q1, med, q3 = Measure.quartiles vs in
                Printf.sprintf "%.5g [%.5g, %.5g] n=%d" med q1 q3 (List.length vs)
              in
              let _, ma, _ = Measure.quartiles va and _, mb, _ = Measure.quartiles vb in
              Printf.printf "%-13s %-16s %-34s %-34s %+7.2f%%  %s\n" name m.name (show va) (show vb)
                ((mb -. ma) /. Float.abs ma *. 100.0)
                (verdict_name v)
            end)
          spec.end_to_end)
    spec.spec_workloads;
  if !errors > 0 then Printf.printf "%d workload run(s) with failed queries\n" !errors;
  if !regressions > 0 then Printf.printf "%d regression(s)\n" !regressions;
  if !errors > 0 || !regressions > 0 then exit 1

(* ---- --smoke ------------------------------------------------------ *)

let smoke spec ~spec_path ~dir =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let check ~trace =
    let names = List.map (fun m -> m.name) (if trace then spec.per_layer else spec.end_to_end) in
    let results = run_all spec ~spec_path ~seed:1 ~seconds:smoke_seconds ~trace ~smoke:true ~dir in
    List.iter
      (fun (w, lines, r) ->
        let printed name = List.exists (String.starts_with ~prefix:(w ^ " " ^ name ^ " ")) lines in
        List.iter (fun n -> if not (printed n) then problem "%s: %s not printed" w n) names;
        if not trace && not (List.mem (w ^ " error_rate 0 failed/attempted") lines) then
          problem "%s: error_rate is not 0" w;
        if not (Json.to_bool (Json.member "correct" r)) then problem "%s: incorrect output" w;
        if Json.to_num (Json.member "attempted" r) < 1.0 then problem "%s: no query ran" w;
        let keys = List.map fst (Json.to_obj (Json.member "metrics" r)) in
        if List.sort compare keys <> List.sort compare names then
          problem "%s: result metrics differ from BENCHMARK.json" w)
      results;
    ignore (Json.of_file (results_file ~dir ~trace))
  in
  check ~trace:false;
  check ~trace:true;
  match !problems with
  | [] -> print_endline "ledger smoke: ok"
  | ps ->
      List.iter (fun p -> prerr_endline ("ledger smoke: " ^ p)) (List.rev ps);
      exit 1

(* ---- command line ------------------------------------------------- *)

let () =
  let workload = ref None in
  let part = ref None in
  let seed = ref 1 in
  let seconds = ref None in
  let trace = ref false in
  let out = ref (Filename.concat "bench" (Filename.concat "ledger" "_run")) in
  let spec_path = ref "BENCHMARK.json" in
  let smoke_mode = ref false in
  let cmp_a = ref "" and cmp_b = ref "" in
  let args =
    [
      ("--workload", Arg.String (fun w -> workload := Some w), "NAME run one workload");
      ("--part", Arg.Int (fun p -> part := Some p), "I one part of an untraced workload run (internal)");
      ("--seed", Arg.Set_int seed, "N seed of the dataset and query mix (default 1)");
      ( "--seconds",
        Arg.Float (fun s -> seconds := Some s),
        "S timed phase per workload (default: run_seconds of the spec)" );
      ("--trace", Arg.Int (fun t -> trace := t <> 0), "0|1 report per-layer metrics from a traced run");
      ("--out", Arg.Set_string out, "DIR work and results directory (default bench/ledger/_run)");
      ("--spec", Arg.Set_string spec_path, "FILE benchmark description (default BENCHMARK.json)");
      ("--smoke", Arg.Set smoke_mode, " every workload at 1/50 size, output checked");
      ("--compare", Arg.Tuple [ Arg.Set_string cmp_a; Arg.Set_string cmp_b ], "A B compare two run files");
    ]
  in
  Arg.parse args (fun a -> die "unexpected argument %S" a) "ledger.exe [options]";
  let spec = try load_spec !spec_path with Json.Error m | Sys_error m -> die "%s" m in
  check_spec spec;
  let seconds = Option.value !seconds ~default:spec.run_seconds in
  if seconds <= 0.0 then die "--seconds must be positive";
  if !cmp_a <> "" then compare_sets spec !cmp_a !cmp_b
  else
    match (!workload, !part) with
    | Some name, Some part ->
        run_part ~name ~seed:!seed ~part ~seconds ~smoke:!smoke_mode ~dir:!out
    | Some name, None ->
        run_workload spec ~spec_path:!spec_path ~name ~seed:!seed ~seconds ~trace:!trace
          ~smoke:!smoke_mode ~dir:!out
    | None, _ when !smoke_mode -> smoke spec ~spec_path:!spec_path ~dir:!out
    | None, _ ->
        ignore (run_all spec ~spec_path:!spec_path ~seed:!seed ~seconds ~trace:!trace ~smoke:false ~dir:!out)
