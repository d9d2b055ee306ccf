(* --- registry lock ---------------------------------------------------- *)

(* One recursive lock per registry, shared by every cell it owns: any
   single update is atomic, [snapshot] sees no torn multi-metric states,
   and [atomically] lets a caller group several updates (e.g. the
   broker's requests + outcome pair) into one indivisible step.  OCaml
   mutexes are not re-entrant, so re-entrancy is hand-rolled: the owner
   records its domain id and recursion depth, and only the outermost
   release unlocks.  The unlocked [owner = me] fast path is sound
   because only the domain itself ever stores its own id there. *)
type rlock = { rl_mutex : Mutex.t; mutable rl_owner : int; mutable rl_depth : int }

let rlock_create () = { rl_mutex = Mutex.create (); rl_owner = -1; rl_depth = 0 }

let rlock_acquire l =
  let me = (Domain.self () :> int) in
  if l.rl_owner = me then l.rl_depth <- l.rl_depth + 1
  else begin
    Mutex.lock l.rl_mutex;
    l.rl_owner <- me;
    l.rl_depth <- 1
  end

let rlock_release l =
  l.rl_depth <- l.rl_depth - 1;
  if l.rl_depth = 0 then begin
    l.rl_owner <- -1;
    Mutex.unlock l.rl_mutex
  end

let locked l f =
  rlock_acquire l;
  match f () with
  | v ->
      rlock_release l;
      v
  | exception e ->
      rlock_release l;
      raise e

type counter = { mutable count : int; c_lock : rlock }
type gauge = { mutable level : float; g_lock : rlock }

(* --- histogram bucket layout ----------------------------------------- *)

(* Log-spaced (HDR-style) buckets shared by every histogram: bucket 0
   catches values <= [first_bound] (including exact zeros), buckets
   1 .. n-2 grow geometrically by 2^(1/4) (at most ~19% relative error
   per bucket) up past 1e12, and the last bucket is the overflow.  A
   fixed layout makes merge and diff a plain element-wise array
   operation — no bucket negotiation between snapshots. *)
let bucket_count = 284
let first_bound = 1e-9
let growth = Float.pow 2.0 0.25

let bucket_upper_bound i =
  if i < 0 || i >= bucket_count then
    invalid_arg "Metrics.bucket_upper_bound: index";
  if i = bucket_count - 1 then Float.infinity
  else first_bound *. Float.pow growth (float_of_int i)

let bucket_of v =
  if v <= first_bound then 0
  else
    let i = int_of_float (Float.ceil (4.0 *. Float.log2 (v /. first_bound))) in
    if i >= bucket_count - 1 then bucket_count - 1 else Stdlib.max 1 i

(* A histogram's contents.  Sum, min and max sit in a float array,
   which stores them unboxed, so recording a value allocates nothing.
   A registry histogram is a tally under the registry lock; a bare
   tally is the unlocked run-local form one owner fills and then merges
   in one locked step. *)
type tally = {
  mutable t_count : int;
  t_moments : float array;  (* sum; min (+inf while empty); max (-inf) *)
  t_buckets : int array;
}

let tally () =
  {
    t_count = 0;
    t_moments = [| 0.0; Float.infinity; Float.neg_infinity |];
    t_buckets = Array.make bucket_count 0;
  }

let tally_add t v =
  t.t_count <- t.t_count + 1;
  let m = t.t_moments in
  m.(0) <- m.(0) +. v;
  if v < m.(1) then m.(1) <- v;
  if v > m.(2) then m.(2) <- v;
  let i = bucket_of v in
  t.t_buckets.(i) <- t.t_buckets.(i) + 1

type histogram = { h_tally : tally; h_lock : rlock }

type cell =
  | Counter_cell of counter
  | Gauge_cell of gauge
  | Histogram_cell of histogram

type t = {
  cells : (string, cell) Hashtbl.t;
  exposition : (string, string) Hashtbl.t;
      (* mangled Prometheus name -> owning metric name *)
  lock : rlock;
}

let create () =
  {
    cells = Hashtbl.create 32;
    exposition = Hashtbl.create 32;
    lock = rlock_create ();
  }

let atomically t f = locked t.lock f

let prometheus_name name =
  String.map
    (fun ch ->
      match ch with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ch
      | _ -> '_')
    name

(* Mangling is lossy ("a.b" and "a_b" both expose as "a_b"), so every
   exposition name is reserved at registration and a second metric
   claiming it is rejected — before it counts anything, not when the
   scrape silently merges two series. *)
let reserve t name mangled =
  (match Hashtbl.find_opt t.exposition mangled with
  | Some owner when not (String.equal owner name) ->
      invalid_arg
        (Printf.sprintf
           "Metrics: %S collides with %S in Prometheus exposition (both \
            mangle to %S)"
           name owner mangled)
  | Some _ | None -> ());
  Hashtbl.replace t.exposition mangled name

let counter t name =
  locked t.lock (fun () ->
      match Hashtbl.find_opt t.cells name with
      | Some (Counter_cell c) -> c
      | Some (Gauge_cell _) ->
          invalid_arg ("Metrics.counter: " ^ name ^ " is registered as a gauge")
      | Some (Histogram_cell _) ->
          invalid_arg
            ("Metrics.counter: " ^ name ^ " is registered as a histogram")
      | None ->
          reserve t name (prometheus_name name);
          let c = { count = 0; c_lock = t.lock } in
          Hashtbl.add t.cells name (Counter_cell c);
          c)

let gauge t name =
  locked t.lock (fun () ->
      match Hashtbl.find_opt t.cells name with
      | Some (Gauge_cell g) -> g
      | Some (Counter_cell _) ->
          invalid_arg ("Metrics.gauge: " ^ name ^ " is registered as a counter")
      | Some (Histogram_cell _) ->
          invalid_arg
            ("Metrics.gauge: " ^ name ^ " is registered as a histogram")
      | None ->
          reserve t name (prometheus_name name);
          let g = { level = 0.0; g_lock = t.lock } in
          Hashtbl.add t.cells name (Gauge_cell g);
          g)

let histogram t name =
  locked t.lock (fun () ->
      match Hashtbl.find_opt t.cells name with
      | Some (Histogram_cell h) -> h
      | Some (Counter_cell _) ->
          invalid_arg
            ("Metrics.histogram: " ^ name ^ " is registered as a counter")
      | Some (Gauge_cell _) ->
          invalid_arg
            ("Metrics.histogram: " ^ name ^ " is registered as a gauge")
      | None ->
          let p = prometheus_name name in
          (* A histogram exposes four series; reserve them all so a counter
             named e.g. "<name>.count" cannot later alias "<name>_count". *)
          reserve t name p;
          reserve t name (p ^ "_bucket");
          reserve t name (p ^ "_sum");
          reserve t name (p ^ "_count");
          let h = { h_tally = tally (); h_lock = t.lock } in
          Hashtbl.add t.cells name (Histogram_cell h);
          h)

(* The updates below take the lock inline rather than through [locked]:
   a [fun () -> ...] capturing the cell would allocate on every call.
   None of their locked bodies can raise (arguments are validated before
   the acquire), so the release needs no handler. *)
let incr c =
  rlock_acquire c.c_lock;
  c.count <- c.count + 1;
  rlock_release c.c_lock

let add c n =
  if n < 0 then invalid_arg "Metrics.add: negative increment";
  rlock_acquire c.c_lock;
  c.count <- c.count + n;
  rlock_release c.c_lock

let count c = locked c.c_lock (fun () -> c.count)

let set g v =
  rlock_acquire g.g_lock;
  g.level <- v;
  rlock_release g.g_lock

let level g = locked g.g_lock (fun () -> g.level)

(* Same contract as Hist1d: a NaN or infinite observation is a bug at
   the call site, not a value to bucket. *)
let check_observation fn v =
  if not (Float.is_finite v) then invalid_arg (fn ^ ": non-finite value");
  if v < 0.0 then invalid_arg (fn ^ ": negative value")

let observe h v =
  check_observation "Metrics.observe" v;
  rlock_acquire h.h_lock;
  tally_add h.h_tally v;
  rlock_release h.h_lock

let tally_observe t v =
  check_observation "Metrics.tally_observe" v;
  tally_add t v

let merge_tally h t =
  if t.t_count > 0 then begin
    rlock_acquire h.h_lock;
    let into = h.h_tally and m = t.t_moments in
    let mi = into.t_moments in
    into.t_count <- into.t_count + t.t_count;
    mi.(0) <- mi.(0) +. m.(0);
    if m.(1) < mi.(1) then mi.(1) <- m.(1);
    if m.(2) > mi.(2) then mi.(2) <- m.(2);
    for i = 0 to bucket_count - 1 do
      into.t_buckets.(i) <- into.t_buckets.(i) + t.t_buckets.(i)
    done;
    rlock_release h.h_lock
  end

type dist = {
  d_count : int;
  d_sum : float;
  d_min : float;
  d_max : float;
  d_buckets : int array;
}

let empty_dist =
  {
    d_count = 0;
    d_sum = 0.0;
    d_min = Float.infinity;
    d_max = Float.neg_infinity;
    d_buckets = Array.make bucket_count 0;
  }

let dist_of_histogram h =
  let t = h.h_tally in
  {
    d_count = t.t_count;
    d_sum = t.t_moments.(0);
    d_min = t.t_moments.(1);
    d_max = t.t_moments.(2);
    d_buckets = Array.copy t.t_buckets;
  }

let quantile d q =
  if d.d_count = 0 then Float.nan
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank =
      Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int d.d_count)))
    in
    let rec find i cum =
      if i >= bucket_count - 1 then bucket_count - 1
      else
        let cum = cum + d.d_buckets.(i) in
        if cum >= rank then i else find (i + 1) cum
    in
    let i = find 0 0 in
    (* Geometric bucket midpoint, clamped to the observed extrema: a
       single observation comes back exactly, and no estimate strays
       outside what was actually seen. *)
    let est =
      if i = 0 then 0.0
      else if i = bucket_count - 1 then d.d_max
      else sqrt (bucket_upper_bound (i - 1) *. bucket_upper_bound i)
    in
    Float.max d.d_min (Float.min d.d_max est)
  end

let dist_observe d v =
  check_observation "Metrics.dist_observe" v;
  let buckets = Array.copy d.d_buckets in
  let i = bucket_of v in
  buckets.(i) <- buckets.(i) + 1;
  {
    d_count = d.d_count + 1;
    d_sum = d.d_sum +. v;
    d_min = Float.min d.d_min v;
    d_max = Float.max d.d_max v;
    d_buckets = buckets;
  }

let merge_dist a b =
  {
    d_count = a.d_count + b.d_count;
    d_sum = a.d_sum +. b.d_sum;
    d_min = Float.min a.d_min b.d_min;
    d_max = Float.max a.d_max b.d_max;
    d_buckets =
      Array.init bucket_count (fun i -> a.d_buckets.(i) + b.d_buckets.(i));
  }

type value = Count of int | Level of float | Dist of dist
type snapshot = (string * value) list

let snapshot t =
  (* Under the registry lock: concurrent writers (and [atomically]
     groups) either happened entirely before this capture or entirely
     after it — no torn multi-metric states. *)
  locked t.lock (fun () ->
      Hashtbl.fold
        (fun name cell acc ->
          let v =
            match cell with
            | Counter_cell c -> Count c.count
            | Gauge_cell g -> Level g.level
            | Histogram_cell h -> Dist (dist_of_histogram h)
          in
          (name, v) :: acc)
        t.cells []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let get s name = List.assoc_opt name s

let count_of s name =
  match get s name with
  | Some (Count n) -> n
  | Some (Level _) | Some (Dist _) | None -> 0

let dist_of s name =
  match get s name with Some (Dist d) -> Some d | Some _ | None -> None

let diff ~later ~earlier =
  List.map
    (fun (name, v) ->
      match (v, List.assoc_opt name earlier) with
      | Count l, Some (Count e) -> (name, Count (l - e))
      | Dist l, Some (Dist e) ->
          (* Counts, sums and buckets subtract like counters; the window's
             own extrema are not recoverable from two running extrema, so
             the later ones stand in (they still bound the window). *)
          ( name,
            Dist
              {
                d_count = l.d_count - e.d_count;
                d_sum = l.d_sum -. e.d_sum;
                d_min = l.d_min;
                d_max = l.d_max;
                d_buckets =
                  Array.init bucket_count (fun i ->
                      l.d_buckets.(i) - e.d_buckets.(i));
              } )
      | v, _ -> (name, v))
    later

(* Metric names here are dotted identifiers; escape defensively anyway so
   the export is valid JSON whatever the caller registered. *)
let json_escape name =
  let b = Buffer.create (String.length name) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    name;
  Buffer.contents b

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_of_dist d =
  let opt v = if d.d_count = 0 then "null" else json_float v in
  let q p = opt (quantile d p) in
  Printf.sprintf
    "{\"count\": %d, \"sum\": %s, \"min\": %s, \"max\": %s, \"p50\": %s, \
     \"p90\": %s, \"p99\": %s}"
    d.d_count (json_float d.d_sum) (opt d.d_min) (opt d.d_max) (q 0.5) (q 0.9)
    (q 0.99)

let json_of_value = function
  | Count n -> string_of_int n
  | Level v -> json_float v
  | Dist d -> json_of_dist d

let to_json s =
  let b = Buffer.create 256 in
  Buffer.add_string b "{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b "\n  \"";
      Buffer.add_string b (json_escape name);
      Buffer.add_string b "\": ";
      Buffer.add_string b (json_of_value v))
    s;
  Buffer.add_string b "\n}\n";
  Buffer.contents b

let to_prometheus s =
  let b = Buffer.create 256 in
  List.iter
    (fun (name, v) ->
      let pname = prometheus_name name in
      match v with
      | Count n ->
          Buffer.add_string b
            (Printf.sprintf "# TYPE %s counter\n%s %d\n" pname pname n)
      | Level l ->
          Buffer.add_string b
            (Printf.sprintf "# TYPE %s gauge\n%s %.17g\n" pname pname l)
      | Dist d ->
          (* Cumulative buckets in the standard exposition; empty buckets
             are elided (the "le" bound carries the boundary, so a sparse
             series stays well-formed) and "+Inf" always closes it. *)
          Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" pname);
          let cum = ref 0 in
          Array.iteri
            (fun i n ->
              if n > 0 && i < bucket_count - 1 then begin
                cum := !cum + n;
                Buffer.add_string b
                  (Printf.sprintf "%s_bucket{le=\"%.9g\"} %d\n" pname
                     (bucket_upper_bound i) !cum)
              end)
            d.d_buckets;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" pname d.d_count);
          Buffer.add_string b
            (Printf.sprintf "%s_sum %.17g\n" pname d.d_sum);
          Buffer.add_string b (Printf.sprintf "%s_count %d\n" pname d.d_count))
    s;
  Buffer.contents b
