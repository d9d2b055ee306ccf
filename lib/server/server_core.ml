(* The qaq-server engine room, as a library.

   Everything the bin/qaq_server front end does — dataset, cross-query
   broker, line protocol, admission control — lives here so tests and
   benchmarks can drive a server in-process over channel pairs, and so
   the live-telemetry plumbing (trace-stamped queries, the flight
   recorder, rolling SLO windows) has one owner.

   Telemetry wiring, end to end:

   - Every RUN mints a process-unique trace ID per queued query
     (Engine.next_trace_id) and hands the query a broker client whose
     trace sink is stamped with that ID and tenant
     (Obs.with_context), and runs the query's Engine.run on the
     same stamped capability.  Everything a query triggers — reads,
     decisions, probe batches, breaker transitions its dispatch round
     causes — carries its ID.
   - The server's base trace sink tees the flight recorder (bounded
     ring of recent run-level events, auto-dumping on anomalies) with
     an optional stderr formatter.  Dumps land in [c_recorder_dir] as chrome-trace
     JSON and stay queryable over the protocol (RECORDER).
   - Each finished query feeds one Slo.sample (latency from
     result.elapsed_seconds, charged probes, degradation, broker
     rejections, guarantee shortfall) into the rolling per-tenant
     windows behind HEALTH and SLO; METRICS/the Prometheus file expose
     the cumulative registry next to the windowed family. *)

type admission = Degrade | Reject

type config = {
  c_seed : int;
  c_total : int;
  c_f_y : float;
  c_f_m : float;
  c_max_laxity : float;
  c_batch : int;
  c_capacity : int option;
  c_freshness : float;
  c_probe_ms : float;
  c_admission : admission;
  c_domains : int option;
  c_fault_rate : float;
  c_fault_seed : int;
  c_tiers : Probe_tier.spec array option;
  c_breaker : bool;
  c_recorder : int;
  c_recorder_dir : string option;
  c_window : float;
  c_prom : string option;
  c_trace : bool;
}

let default_config =
  {
    c_seed = 2004;
    c_total = 10000;
    c_f_y = 0.2;
    c_f_m = 0.2;
    c_max_laxity = 100.0;
    c_batch = 8;
    c_capacity = None;
    c_freshness = infinity;
    c_probe_ms = 0.0;
    c_admission = Degrade;
    c_domains = None;
    c_fault_rate = 0.0;
    c_fault_seed = 1337;
    c_tiers = None;
    c_breaker = false;
    c_recorder = 256;
    c_recorder_dir = None;
    c_window = 60.0;
    c_prom = None;
    c_trace = false;
  }

type pending = {
  id : int;
  tenant : string;
  seed : int;
  quota : int option;
  requirements : Quality.requirements;
}

type t = {
  cfg : config;
  source : Synthetic.obj Scan_pipeline.t;
      (* the generated relation, built once: every query reads it *)
  broker : Synthetic.obj Probe_broker.t;
  tiers : Probe_tier.spec array;
      (* the broker's backends; [c_tiers = None] is the oracle-only
         cascade at [c_batch] *)
  srv_obs : Obs.t;
  srv_recorder : Flight_recorder.t option;
  srv_slo : Slo.t;
  srv_breaker : Circuit_breaker.t option;
  mutable queue : pending list;  (* newest first *)
  mutable next_id : int;
  mutable next_seed : int;
}

let obs t = t.srv_obs
let broker t = t.broker
let recorder t = t.srv_recorder

(* Dump writing must never take a query down: a full disk loses the
   dump, not the answer. *)
let write_dump dir dump =
  let path = Filename.concat dir (Flight_recorder.dump_filename dump) in
  try
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (Flight_recorder.dump_to_json dump))
  with Sys_error msg ->
    Printf.eprintf "qaq-server: flight-recorder dump failed: %s\n%!" msg

exception Recorder_dir_error of { dir : string; reason : string }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The dump directory is checked once, up front: a path that cannot be a
   directory is a configuration error, not a crash on the first dump. *)
let recorder_dir dir =
  match mkdir_p dir with
  | () when Sys.is_directory dir -> ()
  | () -> raise (Recorder_dir_error { dir; reason = "not a directory" })
  | exception Unix.Unix_error (e, _, _) ->
      raise (Recorder_dir_error { dir; reason = Unix.error_message e })

let create cfg =
  let syn =
    Synthetic.config ~total:cfg.c_total ~f_y:cfg.c_f_y ~f_m:cfg.c_f_m
      ~max_laxity:cfg.c_max_laxity ()
  in
  let data = Synthetic.generate (Rng.create cfg.c_seed) syn in
  let srv_recorder =
    if cfg.c_recorder > 0 then
      let on_dump =
        match cfg.c_recorder_dir with
        | Some dir ->
            recorder_dir dir;
            fun d -> write_dump dir d
        | None -> fun _ -> ()
      in
      Some (Flight_recorder.create ~capacity:cfg.c_recorder ~on_dump ())
    else None
  in
  let sinks =
    (match srv_recorder with
    | Some r -> [ Flight_recorder.sink r ]
    | None -> [])
    @ if cfg.c_trace then [ Trace.formatter Format.err_formatter ] else []
  in
  let trace =
    match sinks with [] -> Trace.null | s :: rest -> List.fold_left Trace.tee s rest
  in
  let srv_obs = Obs.create ~trace () in
  let srv_breaker =
    if cfg.c_breaker then Some (Circuit_breaker.create ~obs:srv_obs ())
    else None
  in
  let latency = cfg.c_probe_ms /. 1000.0 in
  (* A fault is decided per object and tier, from the object's key
     ([Fault_plan.permanent]), so the backend's answers depend only on
     the objects asked.  A round is therefore split-phase: the send
     answers at once and the await lends the lane
     ([Domain_pool.blocking]) for what is left of the latency, so the
     query keeps scanning while its batch is in the backend, its lane
     runs other queries while it waits, and every query in flight may
     keep rounds of its own.  A breaker's verdicts follow round order,
     so a breaker keeps one query per lane and one round at a time,
     sleeping through each round as it is sent. *)
  let lends = not cfg.c_breaker in
  let faults =
    Fault_plan.make ~seed:cfg.c_fault_seed ~permanent_rate:cfg.c_fault_rate ()
  in
  let injected =
    if cfg.c_fault_rate > 0.0 then
      Some (Obs.counter srv_obs Obs.Keys.fault_injected)
    else None
  in
  let send fails to_outcome objs =
    let due = Unix.gettimeofday () +. latency in
    let outcomes =
      Array.map
        (fun (o : Synthetic.obj) ->
          if fails o.Synthetic.id then begin
            Option.iter Metrics.incr injected;
            Probe_driver.Failed { attempts = 1 }
          end
          else to_outcome o)
        objs
    in
    if latency <= 0.0 then Probe_driver.Ready outcomes
    else if not lends then begin
      Unix.sleepf latency;
      Probe_driver.Ready outcomes
    end
    else
      Probe_driver.Later
        (fun () ->
          let left = due -. Unix.gettimeofday () in
          if left > 0.0 then Domain_pool.blocking (fun () -> Unix.sleepf left);
          outcomes)
  in
  (* Every backend configuration is a cascade, [c_tiers = None] the
     oracle-only one.  Each tier draws its faults at a site of its own,
     so a dead proxy does not imply a dead oracle. *)
  let tiers =
    match cfg.c_tiers with
    | Some specs ->
        Probe_tier.validate specs;
        specs
    | None ->
        Probe_tier.oracle_only ~cost:Cost_model.paper ~batch:cfg.c_batch ()
  in
  let backends =
    Array.map
      (fun (spec : Probe_tier.spec) ->
        let fails =
          Fault_plan.permanent faults
            ~site:("server-backend." ^ spec.Probe_tier.name)
        in
        let to_outcome =
          match spec.Probe_tier.kind with
          | Probe_tier.Resolve ->
              fun o -> Probe_driver.Resolved (Synthetic.probe o)
          | Probe_tier.Shrink { power } ->
              fun o -> Probe_driver.Shrunk (Synthetic.shrink ~power o)
        in
        {
          Probe_broker.bk_send = send fails to_outcome;
          bk_batch = spec.Probe_tier.batch;
          bk_fallible = cfg.c_fault_rate > 0.0;
        })
      tiers
  in
  let rounds = if lends then Engine.default_lanes else 1 in
  let broker =
    Probe_broker.create ~obs:srv_obs ~freshness:cfg.c_freshness
      ?capacity:cfg.c_capacity ?breaker:srv_breaker ~rounds
      ~key:(fun (o : Synthetic.obj) -> o.Synthetic.id)
      backends
  in
  let srv_slo = Slo.create ~window_seconds:cfg.c_window () in
  {
    cfg;
    source = Scan_pipeline.rows ~instance:Synthetic.instance data;
    broker;
    tiers;
    srv_obs;
    srv_recorder;
    srv_slo;
    srv_breaker;
    queue = [];
    next_id = 0;
    next_seed = cfg.c_seed + 1;
  }

let pr out fmt =
  Printf.ksprintf
    (fun line ->
      output_string out line;
      output_char out '\n';
      flush out)
    fmt

let print_stats out label (s : Probe_broker.stats) =
  pr out
    "%s requests=%d admitted=%d charged=%d failed=%d coalesced=%d fresh=%d \
     rejected=%d batches=%d"
    label s.requests s.admitted s.charged s.failed s.coalesced s.fresh_hits
    s.rejected s.batches

let query_keys = [ "tenant"; "seed"; "p"; "r"; "l"; "quota" ]

(* key=value tokens over [query_keys]; a bare token, an unknown key (a
   typo such as [recal=0.99] would otherwise run at the default) or a
   repeated key (the last one would otherwise silently win) is an error
   the client can see. *)
let parse_kvs tokens =
  List.fold_left
    (fun acc tok ->
      match acc with
      | Error _ as e -> e
      | Ok kvs -> (
          match String.index_opt tok '=' with
          | None -> Error (Printf.sprintf "expected key=value, got %S" tok)
          | Some i ->
              let key = String.sub tok 0 i in
              if List.mem_assoc key kvs then
                Error (Printf.sprintf "duplicate QUERY key %S" key)
              else if List.mem key query_keys then
                Ok ((key, String.sub tok (i + 1) (String.length tok - i - 1))
                   :: kvs)
              else
                Error
                  (Printf.sprintf "unknown QUERY key %S (keys: %s)" key
                     (String.concat " " query_keys))))
    (Ok []) tokens

(* Bytes 0x21-0x7E: printable ASCII, space excluded. *)
let visible_ascii c = c > ' ' && c <= '~'

let unprintable_tenant = "tenant name must be printable ASCII without spaces"

(* Input bounds: a client holds at most [max_tenant] bytes per tenant
   name and [max_queued] queries awaiting RUN. *)
let max_tenant = 64
let max_queued = 4_096
let long_tenant = Printf.sprintf "tenant name longer than %d bytes" max_tenant

let handle_query srv out tokens =
  match parse_kvs tokens with
  | _ when List.compare_length_with srv.queue max_queued >= 0 ->
      pr out "ERR queue full (%d queries)" max_queued
  | Error msg -> pr out "ERR %s" msg
  | Ok kvs when List.assoc_opt "tenant" kvs = Some Slo.all_tenant ->
      (* A tenant named like the SLO aggregate would have no window of
         its own. *)
      pr out "ERR tenant %s is reserved" Slo.all_tenant
  | Ok kvs when List.assoc_opt "tenant" kvs = Some "" ->
      (* TENANTS prints the name as one whitespace-separated field and
         [SLO <tenant>] takes it as one token: an empty name could be
         neither read back nor addressed. *)
      pr out "ERR tenant name is empty"
  | Ok kvs
    when match List.assoc_opt "tenant" kvs with
         | Some name -> String.length name > max_tenant
         | None -> false ->
      (* The name is echoed in QUEUED, RESULT and TENANTS and kept in
         the SLO windows and the Prometheus file. *)
      pr out "ERR %s" long_tenant
  | Ok kvs
    when match List.assoc_opt "tenant" kvs with
         | Some name -> not (String.for_all visible_ascii name)
         | None -> false ->
      (* A tab would split the name into two TENANTS fields, and a
         control byte reaches the Prometheus file as a label escape the
         text format does not have, so scrapers reject the whole file. *)
      pr out "ERR %s" unprintable_tenant
  | Ok kvs -> (
      let find k = List.assoc_opt k kvs in
      let float_of k default =
        match find k with Some v -> float_of_string_opt v | None -> Some default
      in
      let tenant = Option.value (find "tenant") ~default:"default" in
      (* [Some None]: no seed given, so the query takes the server's next
         one once it is queued — a rejected line takes none. *)
      let seed =
        match find "seed" with
        | Some v -> Option.map Option.some (int_of_string_opt v)
        | None -> Some None
      in
      (* A negative quota is malformed here, not an exception when RUN
         builds the query's broker client. *)
      let quota =
        match find "quota" with
        | Some v -> (
            match int_of_string_opt v with
            | Some n when n >= 0 -> Some (Some n)
            | Some _ | None -> None)
        | None -> Some None
      in
      match
        (seed, quota, float_of "p" 0.9, float_of "r" 0.6, float_of "l" 50.0)
      with
      | Some seed, Some quota, Some p, Some r, Some l -> (
          match Quality.requirements ~precision:p ~recall:r ~laxity:l with
          | requirements ->
              let seed =
                match seed with
                | Some s -> s
                | None ->
                    let s = srv.next_seed in
                    srv.next_seed <- s + 1;
                    s
              in
              let id = srv.next_id in
              srv.next_id <- id + 1;
              srv.queue <-
                { id; tenant; seed; quota; requirements } :: srv.queue;
              pr out "QUEUED id=%d tenant=%s seed=%d p=%g r=%g l=%g" id tenant
                seed p r l
          | exception Invalid_argument msg -> pr out "ERR %s" msg)
      | _ -> pr out "ERR malformed QUERY arguments")

(* Per-tenant broker rejections are only visible as lifetime totals, so
   a batch attributes each tenant's rejection delta to its first query
   of the batch — the windowed totals per tenant come out right. *)
let rejection_deltas before after =
  List.filter_map
    (fun (tenant, (a : Probe_broker.stats)) ->
      let prior =
        match List.assoc_opt tenant before with
        | Some (b : Probe_broker.stats) -> b.rejected
        | None -> 0
      in
      if a.rejected > prior then Some (tenant, a.rejected - prior) else None)
    after

let flush_prometheus srv =
  match srv.cfg.c_prom with
  | None -> ()
  | Some path -> (
      let text =
        Metrics.to_prometheus (Obs.snapshot srv.srv_obs)
        ^ Slo.to_prometheus srv.srv_slo
      in
      try
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc text)
      with Sys_error msg ->
        Printf.eprintf "qaq-server: prometheus write failed: %s\n%!" msg)

let handle_run srv out =
  let queued = Array.of_list (List.rev srv.queue) in
  srv.queue <- [];
  if Array.length queued = 0 then pr out "DONE queries=0"
  else if srv.cfg.c_admission = Reject && Probe_broker.saturated srv.broker
  then begin
    (* Admission at the front door: a saturated broker would only
       degrade every probe, so refuse the batch outright and leave the
       shared capacity to coalesced/fresh traffic. *)
    Array.iter
      (fun q ->
        Slo.observe srv.srv_slo
          {
            Slo.tenant = q.tenant;
            latency_seconds = nan;
            probes = 0;
            degraded = false;
            rejections = 1;
            shortfall = false;
          };
        pr out "REJECTED id=%d tenant=%s saturated" q.id q.tenant)
      queued;
    flush_prometheus srv
  end
  else begin
    let before = Probe_broker.stats srv.broker in
    let tenant_before = Probe_broker.tenant_stats srv.broker in
    let trace_ids = Array.map (fun _ -> Engine.next_trace_id ()) queued in
    let runs =
      Array.mapi
        (fun i q ->
          let ctx =
            { Trace.query = Some trace_ids.(i); tenant = Some q.tenant }
          in
          let obs_q = Obs.with_context srv.srv_obs ctx in
          let cascade =
            Probe_broker.cascade_client ~obs:obs_q ~tenant:q.tenant
              ?quota:q.quota ~specs:srv.tiers srv.broker
          in
          fun () ->
            Engine.run ~rng:(Rng.create q.seed) ~domains:1 ~obs:obs_q
              ~cascade ~instance:Synthetic.instance
              ~requirements:q.requirements srv.source)
        queued
    in
    let results = Engine.execute_many ?domains:srv.cfg.c_domains runs in
    let tenant_after = Probe_broker.tenant_stats srv.broker in
    let deltas = ref (rejection_deltas tenant_before tenant_after) in
    Array.iteri
      (fun i result ->
        let q = queued.(i) in
        let report = result.Engine.report in
        let g = report.Operator.guarantees in
        let d = result.Engine.degradation in
        let rejections =
          match List.assoc_opt q.tenant !deltas with
          | Some n ->
              deltas := List.remove_assoc q.tenant !deltas;
              n
          | None -> 0
        in
        Slo.observe srv.srv_slo
          {
            Slo.tenant = q.tenant;
            latency_seconds = result.Engine.elapsed_seconds;
            probes = result.Engine.counts.Cost_meter.probes;
            degraded = Engine.degraded result;
            rejections;
            shortfall = not d.Engine.requirements_met;
          };
        pr out
          "RESULT id=%d trace=%d tenant=%s seed=%d answer=%d precision=%.4f \
           recall=%.4f laxity=%.4f met=%b probes=%d batches=%d failed=%d \
           degraded=%b cost=%.4f elapsed=%.6f"
          q.id trace_ids.(i) q.tenant q.seed report.Operator.answer_size
          g.Quality.precision g.Quality.recall g.Quality.max_laxity
          d.Engine.requirements_met
          result.Engine.counts.Cost_meter.probes
          result.Engine.counts.Cost_meter.batches d.Engine.failed_probes
          (Engine.degraded result) result.Engine.normalized_cost
          result.Engine.elapsed_seconds)
      results;
    let after = Probe_broker.stats srv.broker in
    pr out
      "DONE queries=%d charged=%d coalesced=%d fresh=%d rejected=%d \
       batches=%d"
      (Array.length results)
      (after.charged - before.charged)
      (after.coalesced - before.coalesced)
      (after.fresh_hits - before.fresh_hits)
      (after.rejected - before.rejected)
      (after.batches - before.batches);
    flush_prometheus srv
  end

let breaker_state srv =
  match srv.srv_breaker with
  | Some b -> Circuit_breaker.state_name (Circuit_breaker.state b)
  | None -> "none"

let report_fields (r : Slo.report) =
  Printf.sprintf
    "window=%g requests=%g rate=%.4f p50=%.6f p99=%.6f probe_rate=%.4f \
     degraded=%.4f rejections=%g shortfalls=%g"
    r.Slo.r_window r.Slo.r_requests r.Slo.r_rate r.Slo.r_p50 r.Slo.r_p99
    r.Slo.r_probe_rate r.Slo.r_degraded r.Slo.r_rejections r.Slo.r_shortfalls

let handle_health srv out =
  let recorded, dumps =
    match srv.srv_recorder with
    | Some rec_ ->
        (Flight_recorder.recorded rec_, List.length (Flight_recorder.dumps rec_))
    | None -> (0, 0)
  in
  pr out "HEALTH %s recorded=%d dumps=%d breaker=%s"
    (report_fields (Slo.overall srv.srv_slo))
    recorded dumps (breaker_state srv)

(* SLO reads name a tenant the way QUERY does: a name QUERY refuses has
   no window to read. *)
let handle_slo srv out args =
  let print (r : Slo.report) =
    pr out "SLO tenant=%s %s" r.Slo.r_tenant (report_fields r)
  in
  match args with
  | [] ->
      List.iter print (Slo.reports srv.srv_slo);
      pr out "OK"
  | [ tenant ] when String.length tenant > max_tenant ->
      pr out "ERR %s" long_tenant
  | [ tenant ] when String.for_all visible_ascii tenant ->
      print (Slo.report srv.srv_slo tenant);
      pr out "OK"
  | [ _ ] -> pr out "ERR %s" unprintable_tenant
  | _ -> pr out "ERR usage: SLO [tenant]"

(* RECORDER            the whole ring as one chrome-trace document
   RECORDER <trace-id> that query's entries in it
   RECORDER last       the most recent automatic anomaly dump *)
let handle_recorder srv out args =
  match srv.srv_recorder with
  | None -> pr out "ERR recorder disabled"
  | Some rec_ -> (
      let emit (d : Flight_recorder.dump) =
        pr out "RECORDER reason=%s query=%s tenant=%s events=%d" d.reason
          (match d.query with Some q -> string_of_int q | None -> "-")
          (Option.value d.tenant ~default:"-")
          (List.length d.events);
        pr out "%s" (Flight_recorder.dump_to_json d);
        pr out "OK"
      in
      match args with
      | [] -> emit (Flight_recorder.manual_dump rec_ ~reason:"manual")
      | [ "last" ] -> (
          match List.rev (Flight_recorder.dumps rec_) with
          | d :: _ -> emit d
          | [] -> pr out "ERR no dumps recorded")
      | [ arg ] -> (
          match int_of_string_opt arg with
          | Some q -> emit (Flight_recorder.manual_dump ~query:q rec_ ~reason:"manual")
          | None -> pr out "ERR expected a trace id or 'last', got %S" arg)
      | _ -> pr out "ERR usage: RECORDER [trace-id|last]")

let help out =
  pr out
    "OK commands: QUERY [tenant=T] [seed=N] [p=] [r=] [l=] [quota=N] | RUN | \
     STATS | TENANTS | METRICS | HEALTH | SLO [tenant] | RECORDER \
     [trace-id|last] | HELP | QUIT"

(* The longest protocol line in bytes, its newline not counted. *)
let max_line = 65_536

(* The next line of [inc] without its newline, as [input_line] reads it,
   but kept in [buf] only up to [max_line] bytes: a longer line is read
   on to its newline without being kept and comes back as [`Too_long]. *)
let read_line buf inc =
  Buffer.clear buf;
  let rec skip () =
    match In_channel.input_char inc with
    | None | Some '\n' -> `Too_long
    | Some _ -> skip ()
  in
  let rec go () =
    match In_channel.input_char inc with
    | None -> if Buffer.length buf = 0 then `Eof else `Line (Buffer.contents buf)
    | Some '\n' -> `Line (Buffer.contents buf)
    | Some _ when Buffer.length buf >= max_line -> skip ()
    | Some c ->
        Buffer.add_char buf c;
        go ()
  in
  go ()

(* One session over a channel pair; returns [`Quit] when the client
   asked to stop the server, [`Eof] when the stream just ended. *)
let serve srv inc out =
  let buf = Buffer.create 256 in
  let rec loop () =
    match read_line buf inc with
    | `Eof -> `Eof
    | `Too_long ->
        pr out "ERR line longer than %d bytes" max_line;
        loop ()
    | `Line line -> (
        let tokens =
          String.split_on_char ' ' (String.trim line)
          |> List.filter (fun s -> s <> "")
        in
        match tokens with
        | [] -> loop ()
        | cmd :: args -> (
            match (String.uppercase_ascii cmd, args) with
            | "QUERY", args ->
                handle_query srv out args;
                loop ()
            | "RUN", [] ->
                handle_run srv out;
                loop ()
            | "STATS", [] ->
                print_stats out "STATS" (Probe_broker.stats srv.broker);
                if Array.length srv.tiers > 1 then
                  Array.iteri
                    (fun i s ->
                      print_stats out
                        (Printf.sprintf "TIER %s" srv.tiers.(i).Probe_tier.name)
                        s)
                    (Probe_broker.by_tier srv.broker);
                loop ()
            | "TENANTS", [] ->
                List.iter
                  (fun (name, s) ->
                    print_stats out (Printf.sprintf "TENANT %s" name) s)
                  (Probe_broker.tenant_stats srv.broker);
                pr out "OK";
                loop ()
            | "METRICS", [] ->
                pr out "%s" (Metrics.to_json (Obs.snapshot srv.srv_obs));
                loop ()
            | "HEALTH", [] ->
                handle_health srv out;
                loop ()
            | "SLO", args ->
                handle_slo srv out args;
                loop ()
            | "RECORDER", args ->
                handle_recorder srv out args;
                loop ()
            | "HELP", _ ->
                help out;
                loop ()
            | "QUIT", [] ->
                pr out "BYE";
                `Quit
            | _ ->
                pr out "ERR unknown command %S (try HELP)" line;
                loop ()))
  in
  loop ()

let serve_socket srv path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  Printf.eprintf "qaq-server: listening on %s\n%!" path;
  let rec accept_loop () =
    let client, _ = Unix.accept sock in
    let inc = Unix.in_channel_of_descr client in
    let out = Unix.out_channel_of_descr client in
    (* A client that disconnects abruptly surfaces as Sys_error
       (ECONNRESET / EPIPE) from channel IO; treat it like EOF rather
       than taking the server down. *)
    let verdict =
      try serve srv inc out with End_of_file | Sys_error _ -> `Eof
    in
    (try Unix.close client with Unix.Unix_error _ -> ());
    match verdict with `Quit -> () | `Eof -> accept_loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    accept_loop
