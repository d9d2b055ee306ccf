(* End-to-end tests of the qaq-server core over its line protocol: the
   telemetry stack exercised the way a real deployment sees it — a
   forced fault plan tripping the breaker must surface as an attributed
   flight-recorder dump, HEALTH/SLO must reflect the damage, and
   telemetry must never change an answer. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Drive one protocol session through temp files (pipes could deadlock
   on a RECORDER dump larger than the pipe buffer). *)
let session srv script =
  let in_path = Filename.temp_file "qaq-test-in" ".txt" in
  let out_path = Filename.temp_file "qaq-test-out" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove in_path with Sys_error _ -> ());
      try Sys.remove out_path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out in_path in
      List.iter (fun l -> output_string oc (l ^ "\n")) script;
      close_out oc;
      let inc = open_in in_path in
      let out = open_out out_path in
      let verdict =
        Fun.protect
          ~finally:(fun () ->
            close_in_noerr inc;
            close_out_noerr out)
          (fun () -> Server_core.serve srv inc out)
      in
      let inc = open_in out_path in
      let rec read acc =
        match input_line inc with
        | line -> read (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      let lines = Fun.protect ~finally:(fun () -> close_in_noerr inc) (fun () -> read []) in
      (verdict, lines))

let kv line key =
  String.split_on_char ' ' line
  |> List.find_map (fun tok ->
         let prefix = key ^ "=" in
         if String.starts_with ~prefix tok then
           Some
             (String.sub tok (String.length prefix)
                (String.length tok - String.length prefix))
         else None)

let find_line lines prefix =
  match List.find_opt (String.starts_with ~prefix) lines with
  | Some l -> l
  | None -> Alcotest.failf "no %S line in: %s" prefix (String.concat " | " lines)

let base_config =
  { Server_core.default_config with c_total = 2000; c_seed = 2004 }

(* The acceptance path: a fault plan that fails every backend probe
   behind a breaker.  One query through the protocol must come back
   degraded with a trace ID, trip the breaker, and leave an
   automatically-dumped flight recording whose every event carries that
   query's trace ID — retrievable over RECORDER and written to disk. *)
let test_forced_anomaly_dumps () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "qaq-test-dumps-%d" (Unix.getpid ()))
  in
  let srv =
    Server_core.create
      {
        base_config with
        c_fault_rate = 1.0;
        c_breaker = true;
        c_recorder_dir = Some dir;
      }
  in
  let verdict, lines =
    session srv
      [
        "QUERY tenant=acme seed=1 p=0.9 r=0.6";
        "RUN";
        "HEALTH";
        "SLO acme";
        "RECORDER last";
        "QUIT";
      ]
  in
  checkb "clean QUIT" true (verdict = `Quit);
  let result = find_line lines "RESULT " in
  let trace_id = int_of_string (Option.get (kv result "trace")) in
  Alcotest.(check (option string)) "ran degraded" (Some "true")
    (kv result "degraded");
  Alcotest.(check (option string)) "requirements missed" (Some "false")
    (kv result "met");
  let health = find_line lines "HEALTH " in
  Alcotest.(check (option string)) "breaker tripped" (Some "open")
    (kv health "breaker");
  Alcotest.(check (option string)) "one windowed request" (Some "1")
    (kv health "requests");
  Alcotest.(check (option string)) "shortfall counted" (Some "1")
    (kv health "shortfalls");
  checkb "dumps recorded" true (int_of_string (Option.get (kv health "dumps")) >= 1);
  let slo = find_line lines "SLO tenant=acme" in
  Alcotest.(check (option string)) "tenant shortfall" (Some "1")
    (kv slo "shortfalls");
  (* RECORDER over the protocol: the most recent anomaly dump is the
     failing query's, rendered as a chrome-trace document. *)
  let recorder = find_line lines "RECORDER " in
  Alcotest.(check (option string)) "dump attributed over the wire"
    (Some (string_of_int trace_id))
    (kv recorder "query");
  checkb "chrome-trace payload" true
    (List.exists (fun l -> contains l "\"traceEvents\"") lines);
  (* The breaker-open dump itself: every event stamped with the failing
     query's trace ID. *)
  let dumps =
    Flight_recorder.dumps (Option.get (Server_core.recorder srv))
  in
  let breaker_dump =
    match
      List.find_opt
        (fun d -> d.Flight_recorder.reason = "breaker-open")
        dumps
    with
    | Some d -> d
    | None -> Alcotest.fail "no breaker-open dump"
  in
  checkb "dump names the query" true
    (breaker_dump.Flight_recorder.query = Some trace_id);
  checkb "dump is non-empty" true
    (breaker_dump.Flight_recorder.events <> []);
  List.iter
    (fun (_, ctx, _) ->
      checkb "every event carries the failing trace ID" true
        (ctx.Trace.query = Some trace_id))
    breaker_dump.Flight_recorder.events;
  (* And it landed on disk as valid-enough JSON to name the anomaly. *)
  let files = Array.to_list (Sys.readdir dir) in
  checkb "breaker dump written" true
    (List.exists (fun f -> contains f "breaker-open") files);
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

(* Telemetry is read-only end to end: the same session against a
   recorder-off server and a full-telemetry server produces identical
   RESULT lines once the run-local fields (trace ID, wall time) are
   stripped. *)
let test_protocol_golden_telemetry_off_vs_on () =
  let script =
    [
      "QUERY tenant=a seed=11 p=0.9 r=0.6";
      "QUERY tenant=b seed=12 p=0.85 r=0.5 l=40";
      "RUN";
      "QUIT";
    ]
  in
  let strip line =
    String.split_on_char ' ' line
    |> List.filter (fun tok ->
           not
             (String.starts_with ~prefix:"trace=" tok
             || String.starts_with ~prefix:"elapsed=" tok))
    |> String.concat " "
  in
  let results cfg =
    let _, lines = session (Server_core.create cfg) script in
    List.filter_map
      (fun l ->
        if String.starts_with ~prefix:"RESULT " l then Some (strip l) else None)
      lines
  in
  let off = results { base_config with c_recorder = 0 } in
  let on = results { base_config with c_recorder = 512 } in
  checki "both ran" 2 (List.length off);
  Alcotest.(check (list string)) "identical answers over the wire" off on

(* A server without [c_tiers] is the oracle-only cascade at its batch
   size: over the same two-tenant session it answers and accounts
   exactly like a server given that one-tier cascade explicitly.  RUN
   is pinned to one lane so the broker's batch packing, and hence the
   STATS line, does not depend on scheduling. *)
let test_untiered_is_oracle_only_cascade () =
  let script =
    [
      "QUERY tenant=a seed=11 p=0.9 r=0.6";
      "QUERY tenant=b seed=12 p=0.85 r=0.5 l=40";
      "QUERY tenant=a seed=13 p=0.8 r=0.7";
      "RUN";
      "QUERY tenant=b seed=11 p=0.9 r=0.6";
      "RUN";
      "STATS";
      "QUIT";
    ]
  in
  let strip line =
    String.split_on_char ' ' line
    |> List.filter (fun tok ->
           not
             (String.starts_with ~prefix:"trace=" tok
             || String.starts_with ~prefix:"elapsed=" tok))
    |> String.concat " "
  in
  let lines cfg =
    let _, lines = session (Server_core.create cfg) script in
    List.filter_map
      (fun l ->
        if String.starts_with ~prefix:"RESULT " l then Some (strip l)
        else if String.starts_with ~prefix:"STATS " l then Some l
        else None)
      lines
  in
  let untiered = lines { base_config with c_domains = Some 1 } in
  let explicit =
    lines
      {
        base_config with
        c_domains = Some 1;
        c_tiers =
          Some (Probe_tier.oracle_only ~cost:Cost_model.paper ~batch:8 ());
      }
  in
  checki "four answers and one STATS line" 5 (List.length untiered);
  Alcotest.(check (list string)) "identical RESULT and STATS lines" untiered
    explicit

(* Reject admission feeds the SLO rejection counter without polluting
   the latency quantiles. *)
let test_reject_admission_slo () =
  let srv =
    Server_core.create
      {
        base_config with
        c_capacity = Some 0;
        c_admission = Server_core.Reject;
      }
  in
  let _, lines =
    session srv [ "QUERY tenant=acme seed=1"; "RUN"; "SLO acme"; "QUIT" ]
  in
  ignore (find_line lines "REJECTED ");
  let slo = find_line lines "SLO tenant=acme" in
  Alcotest.(check (option string)) "request counted" (Some "1")
    (kv slo "requests");
  Alcotest.(check (option string)) "rejection counted" (Some "1")
    (kv slo "rejections");
  Alcotest.(check (option string)) "latency stays idle" (Some "nan")
    (kv slo "p50")

(* The pre-telemetry verbs still answer, and unknown input stays a
   protocol-level error. *)
let test_protocol_compat () =
  let srv = Server_core.create base_config in
  let _, lines =
    session srv
      [ "QUERY seed=3"; "RUN"; "STATS"; "TENANTS"; "METRICS"; "HEALTH";
        "bogus"; "QUIT" ]
  in
  ignore (find_line lines "QUEUED ");
  ignore (find_line lines "DONE ");
  ignore (find_line lines "STATS ");
  ignore (find_line lines "TENANT ");
  checkb "metrics JSON" true
    (List.exists (fun l -> contains l "qaq.broker.requests") lines);
  ignore (find_line lines "HEALTH ");
  ignore (find_line lines "ERR unknown command");
  ignore (find_line lines "BYE")

(* A negative quota is a malformed QUERY: it is answered ERR and queues
   nothing, so the batch's valid query runs exactly as on a fresh server
   (a negative quota used to reach the broker at RUN and raise there,
   taking the whole batch down). *)
let test_negative_quota_rejected () =
  (* The trace ID and wall time differ between servers; nothing else may. *)
  let deterministic line =
    String.split_on_char ' ' line
    |> List.filter (fun tok ->
           not
             (String.starts_with ~prefix:"trace=" tok
             || String.starts_with ~prefix:"elapsed=" tok))
    |> String.concat " "
  in
  let run script =
    let verdict, lines = session (Server_core.create base_config) script in
    checkb "clean QUIT" true (verdict = `Quit);
    lines
  in
  let fresh = run [ "QUERY seed=1"; "RUN"; "QUIT" ] in
  (* The reserved SLO aggregate name is malformed the same way: a tenant
     called [_all] would have no window of its own.  So is the empty
     name, which TENANTS could not print as a field of its own, and a
     name with a tab or a control byte, which TENANTS would split and
     the Prometheus file could not quote. *)
  List.iter
    (fun bad ->
      let lines = run [ bad; "QUERY seed=1"; "RUN"; "QUIT" ] in
      ignore (find_line lines "ERR ");
      let results = List.filter (String.starts_with ~prefix:"RESULT ") lines in
      checki "only the valid query ran" 1 (List.length results);
      Alcotest.(check string) "same RESULT as a fresh server"
        (deterministic (find_line fresh "RESULT "))
        (deterministic (List.hd results)))
    [ "QUERY quota=-1"; "QUERY tenant=" ^ Slo.all_tenant; "QUERY tenant=";
      "QUERY tenant=a\tb"; "QUERY tenant=c\001d"; "QUERY recal=0.99";
      "QUERY =1" ];
  (* An unknown key is named, not run at the default it shadows. *)
  let lines = run [ "QUERY seed=1 recal=0.99"; "QUIT" ] in
  checkb "the ERR names the key" true
    (String.starts_with ~prefix:"ERR unknown QUERY key \"recal\""
       (find_line lines "ERR "))

(* A recorder directory that cannot be created is a typed error naming
   the path, raised before the server serves anything (it used to
   escape as a raw [Unix_error] from [mkdir]). *)
let test_recorder_dir_unusable () =
  let file = Filename.temp_file "qaq-test-not-a-dir" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      List.iter
        (fun dir ->
          match
            Server_core.create { base_config with c_recorder_dir = Some dir }
          with
          | _ -> Alcotest.failf "created a server with recorder dir %s" dir
          | exception Server_core.Recorder_dir_error { dir = d; reason } ->
              Alcotest.(check string) "names the path" dir d;
              checkb "gives a reason" true (reason <> ""))
        [ Filename.concat file "dumps"; file ])

let suite =
  [
    ("forced anomaly dumps attributed recording", `Quick,
     test_forced_anomaly_dumps);
    ("protocol golden: telemetry off vs on", `Quick,
     test_protocol_golden_telemetry_off_vs_on);
    ("untiered server is the oracle-only cascade", `Quick,
     test_untiered_is_oracle_only_cascade);
    ("reject admission feeds slo", `Quick, test_reject_admission_slo);
    ("protocol compatibility", `Quick, test_protocol_compat);
    ("negative quota is an ERR", `Quick, test_negative_quota_rejected);
    ("unusable recorder dir is a typed error", `Quick,
     test_recorder_dir_unusable);
  ]
