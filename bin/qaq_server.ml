(* qaq-server — a long-running multi-query QaQ front end.

   A thin cmdliner wrapper over Server_core: the server owns one
   synthetic dataset and one cross-query Probe_broker over it; clients
   register quality-aware queries (each with its own seed, requirements
   and tenant) and run them as a concurrent batch of Engine.run
   calls (the tasks of one Domain_pool.run), every query drawing on the
   shared probe capacity through its own broker client.  Live telemetry
   — trace IDs on every query, a flight recorder with anomaly dumps,
   rolling per-tenant SLO windows behind HEALTH/SLO/RECORDER — is wired
   by the library; this file only parses flags (see Server_core for the
   line protocol).

   By default the server speaks on stdin/stdout; --socket PATH listens
   on a Unix domain socket instead and serves connections one at a
   time. *)

open Cmdliner
open Cli_flags

let admission_conv =
  let parse = function
    | "degrade" -> Ok Server_core.Degrade
    | "reject" -> Ok Server_core.Reject
    | s -> Error (`Msg (Printf.sprintf "unknown admission mode %S" s))
  in
  let print ppf m =
    Format.pp_print_string ppf
      (match m with
      | Server_core.Degrade -> "degrade"
      | Server_core.Reject -> "reject")
  in
  Arg.conv (parse, print)

let run seed total (f_y, f_m) max_laxity batch capacity freshness probe_ms
    admission domains fault_rate fault_seed tiers breaker recorder
    recorder_dir window prom trace socket =
  let cfg =
    {
      Server_core.c_seed = seed;
      c_total = total;
      c_f_y = f_y;
      c_f_m = f_m;
      c_max_laxity = max_laxity;
      c_batch = batch;
      c_capacity = capacity;
      c_freshness = freshness;
      c_probe_ms = probe_ms;
      c_admission = admission;
      c_domains = domains;
      c_fault_rate = fault_rate;
      c_fault_seed = fault_seed;
      c_tiers = tiers;
      c_breaker = breaker;
      c_recorder = recorder;
      c_recorder_dir = recorder_dir;
      c_window = window;
      c_prom = prom;
      c_trace = trace;
    }
  in
  let srv =
    try Server_core.create cfg
    with Server_core.Recorder_dir_error { dir; reason } ->
      Printf.eprintf "qaq-server: --recorder-dir %s: %s\n" dir reason;
      exit 2
  in
  match socket with
  | Some path -> Server_core.serve_socket srv path
  | None ->
      Printf.eprintf
        "qaq-server: %d objects, batch %d, admission %s (HELP for commands)\n%!"
        total batch
        (match admission with
        | Server_core.Degrade -> "degrade"
        | Server_core.Reject -> "reject");
      ignore (Server_core.serve srv stdin stdout)

let cmd =
  let seed =
    let doc = "Dataset seed (the workload all queries share)." in
    Arg.(value & opt int 2004 & info [ "seed" ] ~doc)
  in
  let total =
    let doc = "Shared dataset size |T|." in
    Arg.(value & opt positive_int 10000 & info [ "total" ] ~doc)
  in
  let max_laxity =
    let doc = "Maximum input laxity L." in
    Arg.(value & opt positive_float 100.0 & info [ "max-laxity" ] ~doc)
  in
  let batch =
    let doc =
      "Broker batch size B: backend probes dispatch B at a time, packed \
       across tenants."
    in
    Arg.(value & opt positive_int 8 & info [ "batch"; "B" ] ~doc)
  in
  let capacity =
    let doc =
      "Shared probe capacity: admitted backend probes across the server's \
       lifetime.  Unlimited when absent."
    in
    Arg.(
      value & opt (some non_negative_int) None
      & info [ "capacity" ] ~docv:"N" ~doc)
  in
  let freshness =
    let doc =
      "Freshness window in seconds: a probe completed this recently is a \
       free hit.  Default: forever (the dataset is immutable); 0 disables \
       sharing."
    in
    Arg.(value & opt cap infinity & info [ "freshness" ] ~docv:"SECONDS" ~doc)
  in
  let probe_ms =
    let doc =
      "Simulated backend latency per probe batch, in milliseconds of real \
       wall clock — makes the concurrency saving observable."
    in
    Arg.(
      value & opt non_negative_float 0.0 & info [ "probe-ms" ] ~docv:"MS" ~doc)
  in
  let admission =
    let doc =
      "What a saturated broker does to new queries: degrade (run them; \
       probes beyond capacity fail into guarantee-aware fallbacks) or \
       reject (refuse the batch outright)."
    in
    Arg.(value & opt admission_conv Server_core.Degrade & info [ "admission" ] ~doc)
  in
  let domains =
    let doc =
      "Lanes for RUN (default: one per core, and never more than the \
       queued queries or the cores).  Without --breaker, a lane runs the \
       batch's next query while its query waits on --probe-ms."
    in
    Arg.(
      value & opt (some positive_int) None & info [ "domains" ] ~docv:"N" ~doc)
  in
  let fault_rate =
    let doc =
      "Probability a backend probe fails permanently.  A fault is decided \
       per object and tier from --fault-seed, so a failed object fails for \
       every query that asks for it, and a replay does not depend on \
       --domains.  Default 0: no injection."
    in
    Arg.(value & opt unit_interval 0.0 & info [ "fault-rate" ] ~docv:"P" ~doc)
  in
  let fault_seed =
    let doc =
      "Fault-injection seed: with the tier and the object's id it decides \
       each fault."
    in
    Arg.(value & opt int 1337 & info [ "fault-seed" ] ~doc)
  in
  let tiers =
    let doc =
      "Serve probes through a tiered cascade, e.g. \
       \"proxy:cp=0.1,cb=1,B=32,shrink=0.8;oracle:cp=1,cb=5,B=8\": one \
       shared backend per tier (shrink=POWER tiers narrow objects, the \
       final tier resolves), per-(object, tier) coalescing and \
       freshness, and a TIER line per backend in STATS.  Overrides \
       --batch with each tier's own B."
    in
    Arg.(
      value & opt (some Cli_flags.tiers) None
      & info [ "tiers" ] ~docv:"SPEC" ~doc)
  in
  let breaker =
    let doc = "Put a circuit breaker on the broker's backend dispatch." in
    Arg.(value & flag & info [ "breaker" ] ~doc)
  in
  let recorder =
    let doc =
      "Flight-recorder ring capacity: the recent run-level trace events \
       (phases, batches, probe failures, breaker changes, anomalies; no \
       per-object reads or decisions) kept in one ring shared by every \
       query.  0 disables the recorder."
    in
    Arg.(value & opt non_negative_int 256 & info [ "recorder" ] ~docv:"N" ~doc)
  in
  let recorder_dir =
    let doc =
      "Directory automatic anomaly dumps are written to as chrome-trace \
       JSON files (they stay queryable over RECORDER regardless)."
    in
    Arg.(
      value & opt (some string) None & info [ "recorder-dir" ] ~docv:"DIR" ~doc)
  in
  let window =
    let doc = "Rolling SLO window in seconds (HEALTH and SLO verbs)." in
    Arg.(
      value & opt positive_float 60.0 & info [ "window" ] ~docv:"SECONDS" ~doc)
  in
  let prom =
    let doc =
      "Write a Prometheus text exposition (cumulative metrics + the \
       windowed qaq_slo_* family) to this file after every RUN."
    in
    Arg.(value & opt (some string) None & info [ "prom" ] ~docv:"PATH" ~doc)
  in
  let trace =
    let doc = "Format every trace event to stderr (debugging)." in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let socket =
    let doc = "Listen on a Unix domain socket instead of stdin/stdout." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let doc = "Serve concurrent quality-aware queries from shared probe capacity" in
  Cmd.v
    (Cmd.info "qaq-server" ~version:"1.0.0" ~doc)
    Term.(
      const run $ seed $ total $ fractions $ max_laxity $ batch $ capacity
      $ freshness $ probe_ms $ admission $ domains $ fault_rate $ fault_seed
      $ tiers $ breaker $ recorder $ recorder_dir $ window $ prom $ trace
      $ socket)

let () = exit (Cmd.eval cmd)
