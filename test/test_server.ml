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

(* The trace ID and wall time differ between servers; nothing else in a
   RESULT line may. *)
let deterministic line =
  String.split_on_char ' ' line
  |> List.filter (fun tok ->
         not
           (String.starts_with ~prefix:"trace=" tok
           || String.starts_with ~prefix:"elapsed=" tok))
  |> String.concat " "

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run [f] on a fresh temp path for the Prometheus file, removed after. *)
let with_prom f =
  let path = Filename.temp_file "qaq-test-prom" ".txt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

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
     the Prometheus file could not quote.  A repeated key is malformed
     rather than last-wins, and SLO takes at most one tenant. *)
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
      "QUERY =1"; "QUERY r=0.99 r=0.5"; "SLO a b" ];
  (* An unknown key is named, not run at the default it shadows. *)
  let lines = run [ "QUERY seed=1 recal=0.99"; "QUIT" ] in
  checkb "the ERR names the key" true
    (String.starts_with ~prefix:"ERR unknown QUERY key \"recal\""
       (find_line lines "ERR "))

(* Reading a tenant's SLO registers nothing: neither a name never
   queried nor one QUERY would refuse shows up in the SLO listing or the
   Prometheus file (a control byte would reach it as a [\u] escape the
   text format does not have, and scrapers reject the whole file). *)
let test_slo_reads_register_nothing () =
  with_prom (fun prom ->
      let srv = Server_core.create { base_config with c_prom = Some prom } in
      let verdict, lines =
        session srv
          [ "SLO ghost"; "SLO c\001d"; "QUERY tenant=a seed=1"; "RUN"; "SLO";
            "QUIT" ]
      in
      checkb "clean QUIT" true (verdict = `Quit);
      Alcotest.(check (option string)) "ghost reads as idle" (Some "0")
        (kv (find_line lines "SLO tenant=ghost") "requests");
      ignore (find_line lines "ERR tenant name");
      let rec after_run = function
        | [] -> []
        | l :: rest ->
            if String.starts_with ~prefix:"DONE " l then rest else after_run rest
      in
      let listed =
        List.filter (String.starts_with ~prefix:"SLO tenant=") (after_run lines)
        |> List.filter_map (fun l -> kv l "tenant")
      in
      Alcotest.(check (list string)) "the listing names only a" [ "a" ] listed;
      let text = read_file prom in
      checkb "tenant a exported" true (contains text "tenant=\"a\"");
      checkb "no ghost exported" false (contains text "ghost");
      checkb "no \\u escape" false (contains text "\\u"))

(* The line protocol under random input: 1-8 lines of verbs in any case
   with 0-3 tokens (valid and unknown key=value pairs, bare tokens,
   extreme numbers, names of bytes 0x01-0x7E) or raw bytes, then a
   fixed query and a seedless one.  Whatever came before, the session
   ends on QUIT without raising, every Prometheus tenant label is
   printable ASCII without a [\u] escape, and both queries answer as on
   a fresh server: the seedless one takes the seed a fresh server gives
   it, moved on only by the seedless queries the random lines queued (a
   rejected line takes no seed).  QUIT is not drawn: it would end the
   session before the fixed queries. *)
let fuzz_config = { Server_core.default_config with c_total = 200 }

let fuzz_lines =
  let open QCheck2.Gen in
  let bytes lo hi size =
    string_size ~gen:(map Char.chr (int_range lo hi)) size
  in
  let name =
    bytes 0x01 0x7E (int_range 1 6) >|= fun n -> if n = "zz" then "zy" else n
  in
  let number =
    oneof
      [
        oneofl
          [ "nan"; "inf"; "-inf"; "-1"; "0"; "1"; "0.5"; "0.99"; "1e308";
            "99999999999999999999" ];
        map string_of_int (int_range (-5) 1000);
        map (Printf.sprintf "%g") (float_range 0.0 2.0);
      ]
  in
  let key =
    oneofl [ "tenant"; "seed"; "p"; "r"; "l"; "quota"; "recal"; ""; "TENANT" ]
  in
  let token =
    oneof
      [
        map2 (fun k v -> k ^ "=" ^ v) key number;
        map (fun n -> "tenant=" ^ n) name;
        name;
        number;
        pure "last";
      ]
  in
  let verb =
    oneofl
      [ "QUERY"; "RUN"; "STATS"; "TENANTS"; "METRICS"; "HEALTH"; "SLO";
        "RECORDER"; "HELP"; "BOGUS" ]
    >>= fun v ->
    array_size (pure (String.length v)) bool >|= fun lower ->
    String.mapi (fun i c -> if lower.(i) then Char.lowercase_ascii c else c) v
  in
  let line =
    frequency
      [
        (6, map2 (fun v toks -> String.concat " " (v :: toks)) verb
              (list_size (int_range 0 3) token));
        (1, bytes 0x00 0xFF (int_range 0 12));
      ]
  in
  (* A name or raw bytes may hold a newline; drop any line it makes that
     the server would read as QUIT. *)
  let no_quit l =
    String.split_on_char '\n' l
    |> List.filter (fun l -> String.uppercase_ascii (String.trim l) <> "QUIT")
    |> String.concat "\n"
  in
  list_size (int_range 1 8) (map no_quit line)

(* The tenant labels of a Prometheus text, as written (escapes kept). *)
let tenant_labels text =
  let open_ = "{tenant=\"" in
  let n = String.length text and m = String.length open_ in
  let rec label i j =
    if j >= n || text.[j] = '"' then String.sub text i (j - i)
    else label i (if text.[j] = '\\' then j + 2 else j + 1)
  in
  let rec go i acc =
    if i + m > n then List.rev acc
    else if String.sub text i m = open_ then
      let l = label (i + m) (i + m) in
      go (i + m + String.length l) (l :: acc)
    else go (i + 1) acc
  in
  go 0 []

let prop_line_protocol =
  let fixed = "QUERY tenant=zz seed=7" in
  let tail = [ fixed; "QUERY tenant=zz"; "RUN"; "QUIT" ] in
  let last_with prefix lines =
    List.fold_left
      (fun acc l -> if String.starts_with ~prefix l then Some l else acc)
      None lines
  in
  let seed_of line = Option.bind (kv line "seed") int_of_string_opt in
  let fresh_session script =
    snd (session (Server_core.create fuzz_config) script)
  in
  let fresh_seed =
    lazy
      (match Option.bind (last_with "QUEUED " (fresh_session tail)) seed_of with
      | Some s -> s
      | None -> Alcotest.fail "a fresh server announced no seed")
  in
  (* A fresh server's RESULT lines for the two queries when the seedless
     one takes [seed]: [tail] itself for the seed a fresh server gives
     it, else [tail] with that seed pinned. *)
  let fresh = Hashtbl.create 8 in
  let fresh_results seed =
    match Hashtbl.find_opt fresh seed with
    | Some r -> r
    | None ->
        let script =
          if seed = Lazy.force fresh_seed then tail
          else [ fixed; Printf.sprintf "QUERY tenant=zz seed=%d" seed; "RUN"; "QUIT" ]
        in
        let r =
          fresh_session script
          |> List.filter (String.starts_with ~prefix:"RESULT ")
          |> List.map deterministic
        in
        Hashtbl.add fresh seed r;
        r
  in
  let with_id id line =
    String.split_on_char ' ' line
    |> List.map (fun tok ->
           if String.starts_with ~prefix:"id=" tok then "id=" ^ id else tok)
    |> String.concat " "
  in
  let last_two l =
    match List.rev l with b :: a :: _ -> Some (a, b) | _ -> None
  in
  QCheck2.Test.make ~name:"line protocol: random lines never break a session"
    ~count:300
    ~print:(fun lines -> String.concat "\n" (List.map String.escaped lines))
    fuzz_lines
    (fun lines ->
      with_prom (fun prom ->
          let srv =
            Server_core.create { fuzz_config with c_prom = Some prom }
          in
          let verdict, out = session srv (lines @ tail) in
          let labels = tenant_labels (read_file prom) in
          let queued = List.filter (String.starts_with ~prefix:"QUEUED ") out in
          let fresh_seed = Lazy.force fresh_seed in
          (* The random lines' explicit seeds are at most 1000 and the
             server's own start at [fresh_seed], so an earlier reply at or
             above it queued a seedless query. *)
          let taken =
            List.filteri (fun i _ -> i < List.length queued - 2) queued
            |> List.filter (fun l ->
                   match seed_of l with Some s -> s >= fresh_seed | None -> false)
            |> List.length
          in
          let seed = fresh_seed + taken in
          (* The fixed queries are queued last, so their RESULTs come
             last; their ids are whatever their QUEUED replies announced. *)
          let ids =
            Option.map
              (fun (a, b) -> (kv a "id", kv b "id"))
              (last_two queued)
          in
          let expected =
            match (ids, fresh_results seed) with
            | Some (Some a, Some b), [ ra; rb ] ->
                Some (with_id a ra, with_id b rb)
            | _ -> None
          in
          let results =
            List.filter (String.starts_with ~prefix:"RESULT ") out
            |> List.map deterministic |> last_two
          in
          verdict = `Quit
          && labels <> []
          && List.for_all
               (fun l ->
                 String.for_all (fun c -> c > ' ' && c <= '~') l
                 && not (contains l "\\u"))
               labels
          && Option.bind (last_with "QUEUED " out) seed_of = Some seed
          && expected <> None && results = expected))

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

(* Without a breaker each lane keeps a backend round of its own in
   flight, and that moves only wall time: a four-tenant batch against a
   slow backend with no freshness cache answers and accounts the same
   on two lanes as on one.  A fault is drawn from the object's key, so
   a faulted server, plain or tiered, pipelines too and still answers
   the same at both lane counts.  A breaker keeps one round at a
   time. *)
let test_latency_server_pipelines () =
  let latency = { base_config with c_probe_ms = 1.0; c_freshness = 0.0 } in
  let script =
    [
      "QUERY tenant=a seed=11 p=0.9 r=0.6";
      "QUERY tenant=b seed=12 p=0.8 r=0.5 l=30";
      "QUERY tenant=c seed=13 p=0.95 r=0.8 l=80";
      "QUERY tenant=d seed=14 p=0.9 r=0.6 l=50";
      "RUN";
      "QUIT";
    ]
  in
  let results cfg domains =
    let srv = Server_core.create { cfg with c_domains = Some domains } in
    checki
      (Printf.sprintf "%d lanes, %d round slots" domains Engine.default_lanes)
      Engine.default_lanes
      (Probe_broker.rounds (Server_core.broker srv));
    let _, lines = session srv script in
    List.filter_map
      (fun l ->
        if String.starts_with ~prefix:"RESULT " l then Some (deterministic l)
        else None)
      lines
  in
  let one = results latency 1 in
  checki "four answers" 4 (List.length one);
  List.iter
    (fun l ->
      List.iter
        (fun key -> checkb ("RESULT has " ^ key) true (kv l key <> None))
        [ "answer"; "precision"; "recall"; "laxity"; "probes"; "batches"; "cost" ])
    one;
  Alcotest.(check (list string))
    "two lanes answer as one" one (results latency 2);
  let faulted = { latency with c_fault_rate = 0.2 } in
  List.iter
    (fun (what, cfg) ->
      let one = results cfg 1 in
      checki (what ^ ": four answers") 4 (List.length one);
      checkb (what ^ ": faults degrade an answer") true
        (List.exists (fun l -> kv l "degraded" = Some "true") one);
      Alcotest.(check (list string))
        (what ^ ": two lanes answer as one")
        one (results cfg 2))
    [
      ("faulted", faulted);
      ( "faulted, tiered",
        {
          faulted with
          c_tiers =
            Some
              (Probe_tier.of_string
                 "proxy:cp=0.1,cb=1,B=32,shrink=0.8;oracle:cp=1,cb=5,B=8");
        } );
    ];
  checki "a breaker keeps one round" 1
    (Probe_broker.rounds
       (Server_core.broker
          (Server_core.create
             { latency with c_breaker = true; c_domains = Some 2 })))

(* Quota scheduling ([Probe_broker.client ?quota]): a tenant is charged
   only for the probes admitted for it, not for the ones another
   tenant's request already sent or the freshness cache answers, so with
   several lanes a quota'd query's answer depends on which tenant
   reached an object first.  At one lane the queries run in queue order
   and a quota'd script replays exactly. *)
let test_quota_replays_at_one_lane () =
  let script =
    List.init 24 (fun i ->
        Printf.sprintf "QUERY tenant=t%d seed=%d%s" (i mod 4) (100 + i)
          (if i mod 5 = 0 then " quota=40" else ""))
    @ [ "RUN"; "QUIT" ]
  in
  let results () =
    let srv = Server_core.create { base_config with c_domains = Some 1 } in
    let _, lines = session srv script in
    List.filter_map
      (fun l ->
        if String.starts_with ~prefix:"RESULT " l then Some (deterministic l)
        else None)
      lines
  in
  let first = results () in
  checki "every query answers" 24 (List.length first);
  Alcotest.(check (list string)) "a second server replays every RESULT" first
    (results ())

(* A protocol line holds at most 65,536 bytes.  A 1 MiB line is
   skipped to its newline and answered with one ERR, not echoed, and
   the session goes on; a line of exactly the limit still parses. *)
let test_overlong_line () =
  let fresh =
    snd (session (Server_core.create base_config) [ "QUERY seed=1"; "RUN"; "QUIT" ])
  in
  let long = "QUERY tenant=" ^ String.make (1 lsl 20) 'a' in
  let exact = "QUERY seed=1" ^ String.make (65_536 - 12) ' ' in
  let verdict, lines =
    session (Server_core.create base_config) [ long; exact; "RUN"; "QUIT" ]
  in
  checkb "clean QUIT" true (verdict = `Quit);
  let starting prefix = List.filter (String.starts_with ~prefix) lines in
  Alcotest.(check (list string))
    "one ERR for the long line" [ "ERR line longer than 65536 bytes" ]
    (starting "ERR ");
  checkb "nothing echoed" true
    (List.for_all (fun l -> String.length l < 4096) lines);
  match starting "RESULT " with
  | [ r ] ->
      Alcotest.(check string) "the next QUERY and RUN are served"
        (deterministic (find_line fresh "RESULT "))
        (deterministic r)
  | rs -> Alcotest.failf "expected one RESULT, got %d" (List.length rs)

(* A tenant name holds at most 64 bytes.  A longer one, in QUERY or in
   SLO, is one ERR naming the limit and the session goes on; a name of
   exactly 64 bytes is queued and answers as any other tenant's. *)
let test_long_tenant_name () =
  let fresh =
    snd (session (Server_core.create base_config) [ "QUERY seed=1"; "RUN"; "QUIT" ])
  in
  let exact = String.make 64 'a' and long = String.make 65 'b' in
  let verdict, lines =
    session (Server_core.create base_config)
      [ "QUERY tenant=" ^ long ^ " seed=1"; "SLO " ^ long;
        "QUERY tenant=" ^ exact ^ " seed=1"; "RUN"; "QUIT" ]
  in
  checkb "clean QUIT" true (verdict = `Quit);
  let starting prefix = List.filter (String.starts_with ~prefix) lines in
  Alcotest.(check (list string))
    "one ERR per long name"
    [ "ERR tenant name longer than 64 bytes";
      "ERR tenant name longer than 64 bytes" ]
    (starting "ERR ");
  let untenanted line =
    String.split_on_char ' ' (deterministic line)
    |> List.filter (fun tok -> not (String.starts_with ~prefix:"tenant=" tok))
  in
  match starting "RESULT " with
  | [ r ] ->
      Alcotest.(check (option string)) "the 64-byte name runs" (Some exact)
        (kv r "tenant");
      Alcotest.(check (list string)) "and answers as a fresh server"
        (untenanted (find_line fresh "RESULT "))
        (untenanted r)
  | rs -> Alcotest.failf "expected one RESULT, got %d" (List.length rs)

(* At most 4,096 queries wait for RUN.  The next QUERY is one ERR naming
   the limit, RUN still takes every queued one, and the queue then takes
   queries again.  A saturated broker under reject admission answers
   each queued query at once, so the test runs no scan. *)
let test_queue_bound () =
  let srv =
    Server_core.create
      { base_config with c_admission = Reject; c_capacity = Some 0 }
  in
  let verdict, lines =
    session srv
      (List.init 4_097 (fun i -> Printf.sprintf "QUERY seed=%d" i)
      @ [ "RUN"; "QUERY seed=1"; "QUIT" ])
  in
  checkb "clean QUIT" true (verdict = `Quit);
  let count prefix =
    List.length (List.filter (String.starts_with ~prefix) lines)
  in
  Alcotest.(check (list string))
    "one ERR for the 4,097th" [ "ERR queue full (4096 queries)" ]
    (List.filter (String.starts_with ~prefix:"ERR ") lines);
  checki "4,096 queued, then one after RUN" 4_097 (count "QUEUED ");
  checki "RUN takes all 4,096" 4_096 (count "REJECTED ")

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
    ("slo reads register nothing", `Quick, test_slo_reads_register_nothing);
    ("latency server pipelines rounds, same answers", `Quick,
     test_latency_server_pipelines);
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 26 |])
      prop_line_protocol;
    ("quota'd queries replay at one lane", `Quick, test_quota_replays_at_one_lane);
    ("over-long protocol line is one ERR", `Quick, test_overlong_line);
    ("long tenant name is one ERR", `Quick, test_long_tenant_name);
    ("queue holds at most 4,096 queries", `Quick, test_queue_bound);
  ]
