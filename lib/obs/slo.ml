(* Per-tenant rolling SLO tracking for a long-running server.

   Each tenant, and the synthetic "_all" aggregate, owns one ring of
   time slices addressed by absolute slot, floor (now / slice_seconds).
   A slice holds every field of the samples that landed in it; a writer
   landing on a slice from another slot replaces it, so stale data
   self-invalidates without a sweeper thread.  One mutex guards the
   table and every ring, and each call reads the clock once: a sample's
   fields land in, and age out of, one slice.  Reads register nothing. *)

let all_tenant = "_all"

type sample = {
  tenant : string;
  latency_seconds : float;
  probes : int;  (* probes charged to this request *)
  degraded : bool;
  rejections : int;  (* quota/capacity rejections this request absorbed *)
  shortfall : bool;  (* finished without meeting requested quality *)
}

type slice = {
  slot : int;  (* the absolute slot this slice serves *)
  n_requests : float;
  n_probes : float;
  n_degraded : float;
  n_rejections : float;
  n_shortfalls : float;
  latency : Metrics.dist;
}

let idle =
  {
    slot = min_int;
    n_requests = 0.0;
    n_probes = 0.0;
    n_degraded = 0.0;
    n_rejections = 0.0;
    n_shortfalls = 0.0;
    latency = Metrics.empty_dist;
  }

(* Field-wise sum, keeping [a]'s slot. *)
let sum a b =
  {
    slot = a.slot;
    n_requests = a.n_requests +. b.n_requests;
    n_probes = a.n_probes +. b.n_probes;
    n_degraded = a.n_degraded +. b.n_degraded;
    n_rejections = a.n_rejections +. b.n_rejections;
    n_shortfalls = a.n_shortfalls +. b.n_shortfalls;
    latency = Metrics.merge_dist a.latency b.latency;
  }

(* Slices per window. *)
let slices = 12

type t = {
  slice_seconds : float;
  clock : unit -> float;
  lock : Mutex.t;
  rings : (string, slice array) Hashtbl.t;  (* tenants and "_all" *)
}

let create ?(window_seconds = 60.0) ?(clock = Span.default_clock) () =
  if not (Float.is_finite window_seconds) || window_seconds <= 0.0 then
    invalid_arg "Slo.create: window_seconds must be finite and positive";
  {
    slice_seconds = window_seconds /. float_of_int slices;
    clock;
    lock = Mutex.create ();
    rings = Hashtbl.create 8;
  }

let window_seconds t = t.slice_seconds *. float_of_int slices

(* Called under the lock. *)
let now_slot t = int_of_float (Float.floor (t.clock () /. t.slice_seconds))

(* One sample as a slice of its own.  Rejected-at-admission samples
   carry a [nan] latency: counted, but kept out of the quantiles. *)
let of_sample slot s =
  let count b = if b then 1.0 else 0.0 in
  {
    slot;
    n_requests = 1.0;
    n_probes = float_of_int (Stdlib.max 0 s.probes);
    n_degraded = count s.degraded;
    n_rejections = float_of_int (Stdlib.max 0 s.rejections);
    n_shortfalls = count s.shortfall;
    latency =
      (if Float.is_finite s.latency_seconds && s.latency_seconds >= 0.0 then
         Metrics.dist_observe Metrics.empty_dist s.latency_seconds
       else Metrics.empty_dist);
  }

let add ring one =
  let i = ((one.slot mod slices) + slices) mod slices in
  ring.(i) <- (if ring.(i).slot = one.slot then sum ring.(i) one else one)

(* Called under the lock; registers [tenant]. *)
let ring t tenant =
  match Hashtbl.find_opt t.rings tenant with
  | Some ring -> ring
  | None ->
      let ring = Array.make slices idle in
      Hashtbl.add t.rings tenant ring;
      ring

let observe t s =
  Mutex.protect t.lock (fun () ->
      let one = of_sample (now_slot t) s in
      add (ring t all_tenant) one;
      if not (String.equal s.tenant all_tenant) then add (ring t s.tenant) one)

type report = {
  r_tenant : string;
  r_window : float;  (* seconds *)
  r_requests : float;  (* requests inside the window *)
  r_rate : float;  (* requests per second *)
  r_p50 : float;  (* latency seconds; nan while idle *)
  r_p99 : float;
  r_probe_rate : float;  (* charged probes per second *)
  r_degraded : float;  (* fraction of windowed requests degraded *)
  r_rejections : float;  (* quota rejections inside the window *)
  r_shortfalls : float;  (* guarantee shortfalls inside the window *)
}

(* The sum of the slices inside the window ending at slot [newest], in
   ring-index order. *)
let window_total ring newest =
  Array.fold_left
    (fun acc sl ->
      if sl.slot > newest - slices && sl.slot <= newest then sum acc sl
      else acc)
    idle ring

(* Called under the lock; an unknown tenant sums an empty window. *)
let report_at t newest tenant =
  let w =
    match Hashtbl.find_opt t.rings tenant with
    | Some ring -> window_total ring newest
    | None -> idle
  in
  {
    r_tenant = tenant;
    r_window = window_seconds t;
    r_requests = w.n_requests;
    r_rate = w.n_requests /. window_seconds t;
    r_p50 = Metrics.quantile w.latency 0.5;
    r_p99 = Metrics.quantile w.latency 0.99;
    r_probe_rate = w.n_probes /. window_seconds t;
    r_degraded =
      (if w.n_requests > 0.0 then w.n_degraded /. w.n_requests else 0.0);
    r_rejections = w.n_rejections;
    r_shortfalls = w.n_shortfalls;
  }

(* Called under the lock. *)
let sorted_tenants t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.rings []
  |> List.filter (fun n -> not (String.equal n all_tenant))
  |> List.sort String.compare

(* Reports for the names [names ()] picks, at one clock read. *)
let read t names =
  Mutex.protect t.lock (fun () ->
      let newest = now_slot t in
      List.map (report_at t newest) (names ()))

let report t tenant = List.hd (read t (fun () -> [ tenant ]))
let overall t = report t all_tenant
let reports t = read t (fun () -> sorted_tenants t)

(* Prometheus text exposition with tenant labels.  The cumulative
   Metrics registry has no label support (names are flat), so the SLO
   family is written by hand here; every series is a gauge because a
   windowed value can fall. *)
let gauges =
  [
    ("qaq_slo_request_rate", "windowed requests per second", fun r -> r.r_rate);
    ("qaq_slo_latency_p50_seconds", "windowed median query latency",
     fun r -> r.r_p50);
    ("qaq_slo_latency_p99_seconds", "windowed p99 query latency",
     fun r -> r.r_p99);
    ("qaq_slo_probe_rate", "windowed charged probes per second",
     fun r -> r.r_probe_rate);
    ("qaq_slo_degraded_fraction", "fraction of windowed requests degraded",
     fun r -> r.r_degraded);
    ("qaq_slo_rejections", "windowed quota/capacity rejections",
     fun r -> r.r_rejections);
    ("qaq_slo_shortfalls", "windowed guarantee shortfalls",
     fun r -> r.r_shortfalls);
  ]

let to_prometheus t =
  let rs = read t (fun () -> sorted_tenants t @ [ all_tenant ]) in
  let b = Buffer.create 512 in
  List.iter
    (fun (name, help, value) ->
      Printf.bprintf b "# HELP %s %s\n# TYPE %s gauge\n" name help name;
      List.iter
        (fun r ->
          let v = value r in
          if Float.is_finite v then
            Printf.bprintf b "%s{tenant=\"%s\"} %.17g\n" name
              (Metrics.json_escape r.r_tenant) v)
        rs)
    gauges;
  Buffer.contents b
