(* serve-cold, serve-tiered and serve-warm: [Server_core] driven
   in-process over pipe pairs by one closed-loop client.  A batch is one
   QUERY line from each of four tenants, then RUN; the server runs the
   four queries on two lanes. *)

open Measure

let tenants = 4
let lanes = 2
let tiers = "proxy:cp=0.1,cb=1,B=32,shrink=0.8;oracle:cp=1,cb=5,B=8"

type workload = {
  config : Server_core.config;
  copies : int;  (** times each (p, r, l) combination is in the mix *)
  warm_batches : int;
  rss_after : int;  (** queries answered before peak RSS is read *)
}

let workload name =
  let cold =
    {
      Server_core.default_config with
      c_total = 2000;
      c_probe_ms = 2.0;
      c_freshness = 0.0;
      c_batch = 8;
      c_domains = Some lanes;
    }
  in
  match name with
  | "serve-cold" -> { config = cold; copies = 8; warm_batches = 1; rss_after = 48 }
  | "serve-tiered" ->
      {
        config = { cold with c_tiers = Some (Probe_tier.of_string tiers) };
        copies = 8;
        warm_batches = 1;
        rss_after = 40;
      }
  | "serve-warm" ->
      (* Server defaults: 10,000 objects and an unbounded freshness
         window, which the warm-up batches fill. *)
      {
        config = { Server_core.default_config with c_domains = Some lanes };
        copies = 32;
        warm_batches = 3;
        rss_after = 320;
      }
  | _ -> invalid_arg ("Serve_load.workload: " ^ name)

type query = { seed : int; p : float; r : float; l : float }

let ps = [| 0.8; 0.9; 0.95 |]
let rs = [| 0.5; 0.6; 0.8 |]
let ls = [| 30.0; 50.0; 80.0 |]

(* Every (p, r, l) combination [copies] times, each with its own query
   seed, in a seeded order: seeds change the queries but not the mix. *)
let make_queries rng ~copies =
  let n = Array.length ps * Array.length rs * Array.length ls in
  let queries =
    Array.init (copies * n) (fun i ->
        let c = i mod n in
        {
          seed = Rng.int rng 0x3FFFFFFF;
          p = ps.(c / (Array.length rs * Array.length ls));
          r = rs.(c / Array.length ls mod Array.length rs);
          l = ls.(c mod Array.length ls);
        })
  in
  Rng.shuffle rng queries;
  queries

(* One protocol session: the request lines go into one pipe, the server
   answers into another.  Requests and replies of a batch are a few
   hundred bytes, far below pipe capacity, so one thread can write,
   serve and read in turn. *)
let serve_lines srv lines =
  let request = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  ignore (Unix.write_substring in_w request 0 (String.length request));
  Unix.close in_w;
  let ic = Unix.in_channel_of_descr in_r in
  let oc = Unix.out_channel_of_descr out_w in
  ignore (Server_core.serve srv ic oc);
  close_in ic;
  close_out oc;
  let rc = Unix.in_channel_of_descr out_r in
  let reply = In_channel.input_all rc in
  close_in rc;
  List.filter (fun l -> l <> "") (String.split_on_char '\n' reply)

let fields line =
  List.filter_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i -> Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
      | None -> None)
    (String.split_on_char ' ' line)

(* The part of a RESULT line a solo re-run must reproduce. *)
let identity_keys = [ "answer"; "precision"; "recall"; "laxity"; "probes"; "batches"; "cost" ]

type answer = {
  ok : bool;  (** met=true, no failed probe, no degradation *)
  identity : string;
  elapsed : float;
  cost : float;
}

let parse_result line =
  let kvs = fields line in
  let get k = List.assoc_opt k kvs in
  let number k = Option.bind (get k) float_of_string_opt in
  match (number "elapsed", number "cost") with
  | Some elapsed, Some cost when List.for_all (fun k -> get k <> None) identity_keys ->
      Some
        {
          ok = get "met" = Some "true" && get "degraded" = Some "false" && get "failed" = Some "0";
          identity =
            String.concat " " (List.map (fun k -> k ^ "=" ^ List.assoc k kvs) identity_keys);
          elapsed;
          cost;
        }
  | _ -> None

let identity_of_result (r : Synthetic.obj Engine.result) =
  let g = r.Engine.report.Operator.guarantees in
  Printf.sprintf "answer=%d precision=%.4f recall=%.4f laxity=%.4f probes=%d batches=%d cost=%.4f"
    r.Engine.report.Operator.answer_size g.Quality.precision g.Quality.recall
    g.Quality.max_laxity r.Engine.counts.Cost_meter.probes
    r.Engine.counts.Cost_meter.batches r.Engine.normalized_cost

(* One set-up: a server over its own data set, warmed up. *)
type server = {
  srv : Server_core.t;
  config : Server_core.config;
  queries : query array;
  seen : (int, string) Hashtbl.t;  (** first identity of each query *)
  mutable audits : (int * int * string) list;  (** sequence, query, identity *)
  setup_s : float;
}

type batch = {
  enqueue_s : float;  (** the serve call carrying the QUERY lines *)
  run_s : float;  (** the RUN round trip *)
  elapsed : float list;  (** each query's [elapsed=], seconds *)
  costs : (int * float) list;  (** query index, [cost=] *)
}

(* Batch [b] of the cycled mix, checked: one RESULT per queued query,
   each with met=true, and no ERR or REJECTED line. *)
let batch checks s ?obs ~label b =
  let span name f = match obs with Some o -> Obs.span o name f | None -> f () in
  let k = Array.length s.queries in
  let picked = List.init tenants (fun j -> (j, ((tenants * b) + j) mod k)) in
  let lines =
    List.map
      (fun (j, qi) ->
        let q = s.queries.(qi) in
        Printf.sprintf "QUERY tenant=t%d seed=%d p=%g r=%g l=%g" j q.seed q.p q.r q.l)
      picked
  in
  let t0 = now () in
  let queued = span "ledger.enqueue" (fun () -> serve_lines s.srv lines) in
  let t1 = now () in
  let reply = span "ledger.run" (fun () -> serve_lines s.srv [ "RUN" ]) in
  let t2 = now () in
  let ids = List.map (fun l -> List.assoc_opt "id" (fields l)) queued in
  let results = List.filter (String.starts_with ~prefix:"RESULT ") reply in
  let refused =
    List.exists
      (fun l ->
        String.starts_with ~prefix:"ERR" l || String.starts_with ~prefix:"REJECTED" l)
      (queued @ reply)
  in
  let done_ok =
    match List.rev reply with d :: _ -> String.starts_with ~prefix:"DONE " d | [] -> false
  in
  let per_query =
    List.mapi
      (fun i (_, qi) ->
        let seq = (tenants * b) + i in
        let id = Option.join (List.nth_opt ids i) in
        let mine =
          List.filter (fun l -> id <> None && List.assoc_opt "id" (fields l) = id) results
        in
        match List.map parse_result mine with
        | [ Some a ] ->
            attempt checks (a.ok && not refused && done_ok) "%s batch %d query %d: %s" label b
              seq (List.hd mine);
            (match Hashtbl.find_opt s.seen qi with
            | None -> Hashtbl.add s.seen qi a.identity
            | Some first ->
                recheck checks (first = a.identity) "%s query %d: repeat of query %d differs"
                  label seq qi);
            if seq mod 10 = 0 then s.audits <- (seq, qi, a.identity) :: s.audits;
            Some (a.elapsed, (qi, a.cost))
        | _ ->
            attempt checks false "%s batch %d query %d: %d RESULT lines, malformed or missing"
              label b seq (List.length mine);
            None)
      picked
  in
  let answered = List.filter_map Fun.id per_query in
  {
    enqueue_s = t1 -. t0;
    run_s = t2 -. t1;
    elapsed = List.map fst answered;
    costs = List.map snd answered;
  }

let setup checks (w : workload) ~seed ~part ~scale =
  let t0 = now () in
  let config =
    { w.config with c_seed = data_seed ~seed ~part; c_total = w.config.c_total / scale }
  in
  let s =
    {
      srv = Server_core.create config;
      config;
      queries = make_queries (Rng.create seed) ~copies:(if scale > 1 then 1 else w.copies);
      seen = Hashtbl.create 64;
      audits = [];
      setup_s = 0.0;
    }
  in
  for b = 0 to w.warm_batches - 1 do
    ignore (batch checks s ~label:"warm-up" b)
  done;
  { s with setup_s = now () -. t0 }

type pass = { batches : batch list; wall : float }

(* Closed loop, one client: batches [start], [start + 1], ... of the
   cycled mix until [seconds] have passed. *)
let pass checks s ?obs ?(rss = rss_probe max_int) ~start ~seconds ~label () =
  let t0 = now () in
  let rec loop b acc =
    rss_tick rss ~answered:(tenants * (b - start));
    if now () -. t0 >= seconds && acc <> [] then
      { batches = List.rev acc; wall = now () -. t0 }
    else loop (b + 1) (batch checks s ?obs ~label b :: acc)
  in
  loop start []

(* Every 10th query, re-run alone through [Engine.execute] with direct
   drivers over the same objects, must reproduce its RESULT line.
   Returns the words allocated per read across those solo runs. *)
let audit checks s =
  let c = s.config in
  let data =
    Synthetic.generate (Rng.create c.c_seed)
      (Synthetic.config ~total:c.c_total ~f_y:c.c_f_y ~f_m:c.c_f_m
         ~max_laxity:c.c_max_laxity ())
  in
  let resolved objs = Array.map (fun o -> Probe_driver.Resolved (Synthetic.probe o)) objs in
  let once = Hashtbl.create 16 in
  let words = ref 0.0 and reads = ref 0 in
  List.iter
    (fun (seq, qi, ident) ->
      if not (Hashtbl.mem once qi) then begin
        Hashtbl.add once qi ();
        let q = s.queries.(qi) in
        let requirements = Quality.requirements ~precision:q.p ~recall:q.r ~laxity:q.l in
        let rng = Rng.create q.seed in
        let w0 = allocated_words () in
        let result =
          match c.c_tiers with
          | None ->
              Engine.execute ~rng ~domains:1 ~instance:Synthetic.instance
                ~probe:(Probe_driver.create_outcomes ~batch_size:c.c_batch resolved)
                ~requirements data
          | Some specs ->
              let driver (t : Probe_tier.spec) =
                match t.Probe_tier.kind with
                | Probe_tier.Resolve -> Probe_driver.create_outcomes ~batch_size:t.batch resolved
                | Probe_tier.Shrink { power } ->
                    Probe_driver.shrinking ~batch_size:t.batch
                      (Array.map (Synthetic.shrink ~power))
              in
              Engine.execute ~rng ~domains:1 ~instance:Synthetic.instance
                ~cascade:(Cascade.create ~specs (Array.map driver specs))
                ~requirements data
        in
        words := !words +. (allocated_words () -. w0);
        reads := !reads + result.Engine.counts.Cost_meter.reads;
        let solo = identity_of_result result in
        recheck checks (solo = ident) "solo re-run of query %d: %s, server said %s" seq solo
          ident
      end)
    (List.rev s.audits);
  ratio !words (float_of_int !reads)

let queries_of p = List.concat_map (fun b -> b.elapsed) p.batches

let measure checks ~name ~seed ~part ~seconds ~scale =
  let w = workload name in
  let s = setup checks w ~seed ~part ~scale in
  (* Each part starts a third of the mix further on, so a run's parts
     answer different queries. *)
  let start = w.warm_batches + (part * Array.length s.queries / tenants / parts) in
  let rss = rss_probe w.rss_after in
  let p = pass checks s ~rss ~start ~seconds ~label:"timed" () in
  ignore (audit checks s);
  (* Each distinct query once: the mean does not depend on how many
     cycles of the mix fit into the timed phase. *)
  let firsts = Hashtbl.create 256 in
  List.iter
    (fun (qi, cost) -> if not (Hashtbl.mem firsts qi) then Hashtbl.add firsts qi cost)
    (List.concat_map (fun b -> b.costs) p.batches);
  ({
     setup_s = s.setup_s;
     latencies = queries_of p;
     wall = p.wall;
     costs = List.of_seq (Hashtbl.to_seq_values firsts);
     peak_rss_mb = rss_read rss;
   }
    : part)

let batch_wall b = b.enqueue_s +. b.run_s

(* The engine work of a batch runs on [lanes] lanes; what RUN takes
   beyond that work spread over the lanes is protocol, pool and
   telemetry overhead plus lane imbalance. *)
let run_overhead b = b.run_s -. (sum b.elapsed /. float_of_int lanes)

(* One process: an untraced half, then a traced half over the same
   batches, bracketed by snapshots of the server's registry and broker
   statistics. *)
let trace checks ~name ~seed ~seconds ~scale ~dir =
  let w = workload name in
  let s = setup checks w ~seed ~part:0 ~scale in
  let start = w.warm_batches in
  let seconds = seconds /. 2.0 in
  let untraced = pass checks s ~start ~seconds ~label:"timed" () in
  let chrome = Chrome_trace.create () in
  let obs = Obs.create ~trace:(Chrome_trace.sink chrome) () in
  let srv_obs = Server_core.obs s.srv in
  let broker = Server_core.broker s.srv in
  let earlier = Obs.snapshot srv_obs in
  let stats0 = Probe_broker.stats broker in
  let traced = pass checks s ~obs ~start ~seconds ~label:"traced" () in
  let later = Obs.snapshot srv_obs in
  let stats1 = Probe_broker.stats broker in
  let words_per_read = audit checks s in
  Chrome_trace.write chrome (Filename.concat dir ("trace-" ^ name ^ ".json"));
  let diff = Metrics.diff ~later ~earlier in
  let count key = float_of_int (Metrics.count_of diff key) in
  let span = span_delta ~earlier ~later in
  let elapsed = queries_of traced in
  let n = float_of_int (List.length elapsed) in
  let nb = float_of_int (List.length traced.batches) in
  let sample_reads = count Obs.Keys.sample_reads in
  let scan_reads = count Obs.Keys.reads -. sample_reads in
  let probes = count Obs.Keys.probes in
  let scan_self = span "scan" -. span "probe-flush" in
  let specs = Option.value s.config.c_tiers ~default:[||] in
  let tier key (t : Probe_tier.spec) = count (key t.Probe_tier.name) in
  let capacity =
    if specs = [||] then count Obs.Keys.batches *. float_of_int s.config.c_batch
    else
      Array.fold_left
        (fun acc t -> acc +. (tier Obs.Keys.tier_batches t *. float_of_int t.Probe_tier.batch))
        0.0 specs
  in
  let dist key = Option.value (Metrics.dist_of diff key) ~default:Metrics.empty_dist in
  let wait = dist Obs.Keys.broker_queue_wait in
  let fill = dist Obs.Keys.broker_batch_fill in
  let quantile_ms d q = if d.Metrics.d_count = 0 then 0.0 else Metrics.quantile d q *. 1000.0 in
  let requests = float_of_int (stats1.requests - stats0.requests) in
  let broker_frac f = ratio (float_of_int (f stats1 - f stats0)) requests in
  let enqueue = sum (List.map (fun b -> b.enqueue_s) traced.batches) in
  let overhead = sum (List.map run_overhead traced.batches) in
  let common = min (List.length untraced.batches) (List.length traced.batches) in
  let prefix p = List.filteri (fun i _ -> i < common) (List.map batch_wall p.batches) in
  let tiered =
    List.concat_map
      (fun name ->
        let per key =
          match Array.find_opt (fun t -> t.Probe_tier.name = name) specs with
          | Some t -> tier key t /. n
          | None -> 0.0
        in
        [
          ("cascade." ^ name ^ ".probes_per_query", per Obs.Keys.tier_probes);
          ("cascade." ^ name ^ ".shrinks_per_query", per Obs.Keys.tier_shrinks);
          ("cascade." ^ name ^ ".batches_per_query", per Obs.Keys.tier_batches);
        ])
      [ "proxy"; "oracle" ]
  in
  [
    ("plan.ms_per_query", span "plan" /. n *. 1000.0);
    ("plan.share", ratio (span "plan") (sum elapsed));
    ("plan.sample_reads_per_query", sample_reads /. n);
    ("scan.self_ms_per_query", scan_self /. n *. 1000.0);
    ("scan.self_ns_per_read", ratio scan_self scan_reads *. 1e9);
    ("decide.reads_per_query", scan_reads /. n);
    ("decide.probes_per_read", ratio probes scan_reads);
    ("engine.words_per_read", words_per_read);
    ("probe.flush_ms_per_query", span "probe-flush" /. n *. 1000.0);
    ("probe.batches_per_query", count Obs.Keys.batches /. n);
    ("probe.fill", ratio probes capacity);
    ("broker.queue_wait_p50_ms", quantile_ms wait 0.5);
    ("broker.queue_wait_p90_ms", quantile_ms wait 0.9);
    ("broker.batch_fill_mean", ratio fill.Metrics.d_sum (float_of_int fill.Metrics.d_count));
    ("broker.charged_per_request", broker_frac (fun s -> s.Probe_broker.charged));
    ("broker.coalesced_frac", broker_frac (fun s -> s.Probe_broker.coalesced));
    ("broker.fresh_frac", broker_frac (fun s -> s.Probe_broker.fresh_hits));
    ("serve.enqueue_us_per_query", enqueue /. n *. 1e6);
    ("serve.run_overhead_ms", overhead /. nb *. 1000.0);
    ("trace.overhead_frac", ratio (sum (prefix traced)) (sum (prefix untraced)) -. 1.0);
    ( "trace.coverage",
      ratio
        (enqueue +. overhead +. ((span "plan" +. span "scan") /. float_of_int lanes))
        (sum (List.map batch_wall traced.batches)) );
  ]
  @ tiered
