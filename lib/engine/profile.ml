type achieved = {
  answer_in_exact : int;
  exact_size : int;
  achieved_precision : float;
  achieved_recall : float;
  precision_pass : bool;
  recall_pass : bool;
}

type audit = {
  requested_precision : float;
  requested_recall : float;
  guaranteed_precision : float;
  guaranteed_recall : float;
  guarantees_met : bool;
  answer_size : int;
  degraded_probes : int;
  budget : Engine.budget_summary option;
  achieved : achieved option;
}

type span_row = { span_name : string; calls : int; seconds : float }

type t = {
  label : string;
  counts : Cost_meter.counts;
  reconcile_error : string option;
  audit : audit;
  spans : span_row list;
  snapshot : Metrics.snapshot;
}

(* Same degenerate-denominator convention as [Quality.Diagnostics]: an
   empty answer is vacuously precise, an empty exact answer is fully
   recalled. *)
let ratio num den = if den = 0 then 1.0 else float_of_int num /. float_of_int den

let spans_of_snapshot s =
  List.filter_map
    (fun (name, v) ->
      match v with
      | Metrics.Count calls
        when String.length name > String.length "span..calls"
             && String.sub name 0 5 = "span."
             && Filename.check_suffix name ".calls" ->
          let base = String.sub name 5 (String.length name - 5 - 6) in
          let seconds =
            match Metrics.get s (Span.seconds_key base) with
            | Some (Metrics.Level l) -> l
            | Some _ | None -> 0.0
          in
          Some { span_name = base; calls; seconds }
      | _ -> None)
    s

let achieved ~oracle (source : _ Scan_pipeline.t) (result : _ Engine.result) =
  let report = result.report in
  let answer_in_exact =
    List.fold_left
      (fun acc (e : _ Operator.emitted) -> if oracle e.obj then acc + 1 else acc)
      0 report.answer
  in
  let exact_size =
    let c = source.cursor () in
    let n = ref 0 in
    while c.advance () do
      if oracle (c.current ()) then incr n
    done;
    !n
  in
  let p = ratio answer_in_exact report.answer_size in
  let r = ratio answer_in_exact exact_size in
  {
    answer_in_exact;
    exact_size;
    achieved_precision = p;
    achieved_recall = r;
    precision_pass = p >= report.requirements.precision;
    recall_pass = r >= report.requirements.recall;
  }

let of_run ?(label = "run") ?oracle ~earlier obs source
    (result : _ Engine.result) =
  let snapshot = Metrics.diff ~later:(Obs.snapshot obs) ~earlier in
  let report = result.report in
  let requirements = report.requirements and g = report.guarantees in
  {
    label;
    counts = result.counts;
    reconcile_error =
      (match result.reconcile snapshot with
      | Ok () -> None
      | Error msg -> Some msg);
    audit =
      {
        requested_precision = requirements.precision;
        requested_recall = requirements.recall;
        guaranteed_precision = g.precision;
        guaranteed_recall = g.recall;
        guarantees_met = Quality.meets g requirements;
        answer_size = report.answer_size;
        degraded_probes = result.degradation.failed_probes;
        budget = result.budget;
        achieved =
          Option.map (fun oracle -> achieved ~oracle source result) oracle;
      };
    spans = spans_of_snapshot snapshot;
    snapshot;
  }

let audit_passed t =
  match t.audit.budget with
  | Some b when b.Engine.budget_limited ->
      (* A budget-limited run trades recall for staying within its
         allotment — the recall shortfall is the contract, not a
         failure.  Precision remains a hard constraint. *)
      t.audit.guaranteed_precision >= t.audit.requested_precision
      && (match t.audit.achieved with
         | None -> true
         | Some a -> a.precision_pass)
  | Some _ | None -> (
      t.audit.guarantees_met
      &&
      match t.audit.achieved with
      | None -> true
      | Some a -> a.precision_pass && a.recall_pass)

let passed t = Option.is_none t.reconcile_error && audit_passed t

let histograms t =
  List.filter_map
    (fun (name, v) ->
      match v with Metrics.Dist d -> Some (name, d) | _ -> None)
    t.snapshot

(* --- JSON ------------------------------------------------------------ *)

let json_bool b = if b then "true" else "false"

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_achieved = function
  | None -> "null"
  | Some a ->
      Printf.sprintf
        "{\"answer_in_exact\": %d, \"exact_size\": %d, \"precision\": %s, \
         \"recall\": %s, \"precision_pass\": %s, \"recall_pass\": %s}"
        a.answer_in_exact a.exact_size
        (json_float a.achieved_precision)
        (json_float a.achieved_recall)
        (json_bool a.precision_pass) (json_bool a.recall_pass)

let to_json t =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"label\": \"%s\",\n" (Metrics.json_escape t.label);
  add "  \"passed\": %s,\n" (json_bool (passed t));
  add
    "  \"counts\": {\"reads\": %d, \"probes\": %d, \"batches\": %d, \
     \"writes_imprecise\": %d, \"writes_precise\": %d},\n"
    t.counts.reads t.counts.probes t.counts.batches t.counts.writes_imprecise
    t.counts.writes_precise;
  (match t.reconcile_error with
  | None -> add "  \"reconcile_error\": null,\n"
  | Some msg -> add "  \"reconcile_error\": \"%s\",\n" (Metrics.json_escape msg));
  let json_budget = function
    | None -> "null"
    | Some b ->
        Printf.sprintf
          "{\"allotted\": %s, \"spent\": %s, \"target_recall\": %s, \
           \"limited\": %s}"
          (json_float b.Engine.allotted) (json_float b.spent)
          (json_float b.target_recall)
          (json_bool b.budget_limited)
  in
  add
    "  \"audit\": {\"requested_precision\": %s, \"requested_recall\": %s, \
     \"guaranteed_precision\": %s, \"guaranteed_recall\": %s, \
     \"guarantees_met\": %s, \"answer_size\": %d, \"degraded_probes\": %d, \
     \"budget\": %s, \"achieved\": %s},\n"
    (json_float t.audit.requested_precision)
    (json_float t.audit.requested_recall)
    (json_float t.audit.guaranteed_precision)
    (json_float t.audit.guaranteed_recall)
    (json_bool t.audit.guarantees_met)
    t.audit.answer_size t.audit.degraded_probes
    (json_budget t.audit.budget)
    (json_achieved t.audit.achieved);
  add "  \"spans\": [%s],\n"
    (String.concat ", "
       (List.map
          (fun r ->
            Printf.sprintf "{\"name\": \"%s\", \"calls\": %d, \"seconds\": %s}"
              (Metrics.json_escape r.span_name)
              r.calls (json_float r.seconds))
          t.spans));
  add "  \"metrics\": %s\n" (String.trim (Metrics.to_json t.snapshot));
  add "}\n";
  Buffer.contents b

(* --- human rendering ------------------------------------------------- *)

let f3 = Text_table.cell_of_float

let render t =
  let b = Buffer.create 1024 in
  let cost = Text_table.create ~title:("profile: " ^ t.label ^ " — cost")
      ~header:[ "operation"; "count" ] in
  Text_table.add_row cost [ "reads"; string_of_int t.counts.reads ];
  Text_table.add_row cost [ "probes"; string_of_int t.counts.probes ];
  Text_table.add_row cost [ "batches"; string_of_int t.counts.batches ];
  Text_table.add_row cost
    [ "writes (imprecise)"; string_of_int t.counts.writes_imprecise ];
  Text_table.add_row cost
    [ "writes (precise)"; string_of_int t.counts.writes_precise ];
  Buffer.add_string b (Text_table.render cost);
  (match t.reconcile_error with
  | None -> Buffer.add_string b "cost meter and qaq.* counters reconcile\n"
  | Some msg -> Buffer.add_string b ("RECONCILE FAILED: " ^ msg ^ "\n"));
  Buffer.add_char b '\n';
  let audit = Text_table.create ~title:"quality audit"
      ~header:[ "constraint"; "requested"; "guaranteed"; "achieved"; "pass" ] in
  let achieved_cell f = match t.audit.achieved with
    | None -> "-"
    | Some a -> f3 (f a)
  and pass_cell f = match t.audit.achieved with
    | None -> if t.audit.guarantees_met then "ok" else "FAIL"
    | Some a -> if f a && t.audit.guarantees_met then "ok" else "FAIL"
  in
  Text_table.add_row audit
    [
      "precision";
      f3 t.audit.requested_precision;
      f3 t.audit.guaranteed_precision;
      achieved_cell (fun a -> a.achieved_precision);
      pass_cell (fun a -> a.precision_pass);
    ];
  Text_table.add_row audit
    [
      "recall";
      f3 t.audit.requested_recall;
      f3 t.audit.guaranteed_recall;
      achieved_cell (fun a -> a.achieved_recall);
      pass_cell (fun a -> a.recall_pass);
    ];
  Buffer.add_string b (Text_table.render audit);
  if t.audit.degraded_probes > 0 then
    Buffer.add_string b
      (Printf.sprintf
         "DEGRADED: %d probe(s) failed permanently; guarantees above are \
          post-degradation\n"
         t.audit.degraded_probes);
  (match t.audit.budget with
  | None -> ()
  | Some bu ->
      Buffer.add_string b
        (Printf.sprintf
           "budget: allotted %s, spent %.6g, target recall %.3f%s\n"
           (if Float.is_finite bu.Engine.allotted then
              Printf.sprintf "%.6g" bu.allotted
            else "inf")
           bu.spent bu.target_recall
           (if bu.budget_limited then
              " (BUDGET-LIMITED: recall shortfall is the contract)"
            else "")));
  (match t.audit.achieved with
  | Some a ->
      Buffer.add_string b
        (Printf.sprintf "answer %d, exact answer %d, overlap %d\n"
           t.audit.answer_size a.exact_size a.answer_in_exact)
  | None ->
      Buffer.add_string b
        (Printf.sprintf "answer %d (no ground-truth oracle)\n"
           t.audit.answer_size));
  Buffer.add_char b '\n';
  (match t.spans with
  | [] -> ()
  | spans ->
      let tbl = Text_table.create ~title:"phases"
          ~header:[ "span"; "calls"; "seconds" ] in
      List.iter
        (fun r ->
          Text_table.add_row tbl
            [ r.span_name; string_of_int r.calls; f3 r.seconds ])
        spans;
      Buffer.add_string b (Text_table.render tbl);
      Buffer.add_char b '\n');
  (match histograms t with
  | [] -> ()
  | dists ->
      let tbl = Text_table.create ~title:"distributions"
          ~header:[ "histogram"; "count"; "p50"; "p90"; "p99"; "max" ] in
      List.iter
        (fun (name, d) ->
          let q p =
            if d.Metrics.d_count = 0 then "-" else f3 (Metrics.quantile d p)
          in
          Text_table.add_row tbl
            [
              name;
              string_of_int d.Metrics.d_count;
              q 0.5;
              q 0.9;
              q 0.99;
              (if d.Metrics.d_count = 0 then "-" else f3 d.Metrics.d_max);
            ])
        dists;
      Buffer.add_string b (Text_table.render tbl));
  Buffer.contents b

let print t = print_string (render t)
