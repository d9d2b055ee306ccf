(* LRU via a doubly-linked order encoded with a logical clock: each entry
   stores the tick of its last use; eviction removes the minimum entry.
   For the pool sizes used here (tens to hundreds of pages) the O(n)
   eviction scan is simpler than an intrusive list and never shows up in
   profiles.

   The pool is a monitor: every operation — including the loader call on
   a miss — runs under one mutex.  Holding the lock across the load is
   what makes concurrent fetches of the same page single-load: the
   second domain blocks until the first has inserted the entry, then
   takes a hit.  The price is that the loader must not re-enter the pool
   (the mutex is not reentrant) and that loads of *different* pages
   serialize; for the simulated storage underneath this pool, loads are
   cheap decodes, so correctness wins over load concurrency. *)

type 'a entry = {
  page : 'a;  (* the cached unit, e.g. a decoded column chunk *)
  mutable last_used : int;
  loaded_at : float;  (* wall time of the miss; 0 when uninstrumented *)
}

type instruments = {
  i_obs : Obs.t;
  m_hits : Metrics.counter;
  m_misses : Metrics.counter;
  m_evictions : Metrics.counter;
  h_fetch : Metrics.histogram;  (* loader time per miss *)
  h_residency : Metrics.histogram;  (* page lifetime in the pool, at eviction *)
}

type 'a t = {
  capacity : int;
  table : (int, 'a entry) Hashtbl.t;
  ins : instruments option;
  lock : Mutex.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?obs ~capacity () =
  if capacity < 1 then invalid_arg "Buffer_pool.create: capacity < 1";
  let ins =
    Option.map
      (fun o ->
        {
          i_obs = o;
          m_hits = Obs.counter o "buffer_pool.hits";
          m_misses = Obs.counter o "buffer_pool.misses";
          m_evictions = Obs.counter o "buffer_pool.evictions";
          h_fetch = Obs.histogram o "buffer_pool.fetch_seconds";
          h_residency = Obs.histogram o "buffer_pool.residency_seconds";
        })
      obs
  in
  {
    capacity;
    table = Hashtbl.create (2 * capacity);
    ins;
    lock = Mutex.create ();
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* Evict the least-recently-used entry (a no-op on an empty pool). *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun id entry ->
      match !victim with
      | None -> victim := Some (id, entry)
      | Some (_, best) ->
          if entry.last_used < best.last_used then victim := Some (id, entry))
    t.table;
  match !victim with
  | None -> ()
  | Some (id, entry) ->
      (match t.ins with
      | Some i ->
          Metrics.observe i.h_residency
            (Float.max 0.0 (Obs.now i.i_obs -. entry.loaded_at))
      | None -> ());
      Hashtbl.remove t.table id;
      t.evictions <- t.evictions + 1;
      (match t.ins with Some i -> Metrics.incr i.m_evictions | None -> ())

let fetch_locked t page_id load =
  match Hashtbl.find_opt t.table page_id with
  | Some entry ->
      t.hits <- t.hits + 1;
      (match t.ins with Some i -> Metrics.incr i.m_hits | None -> ());
      entry.last_used <- tick t;
      entry.page
  | None ->
      t.misses <- t.misses + 1;
      (match t.ins with Some i -> Metrics.incr i.m_misses | None -> ());
      (* Load before making room: if the loader raises, the pool must
         keep its cached pages and not charge an eviction for a fetch
         that never completed. *)
      let page, loaded_at =
        match t.ins with
        | None -> (load page_id, 0.0)
        | Some i ->
            let t0 = Obs.now i.i_obs in
            let page = load page_id in
            let t1 = Obs.now i.i_obs in
            Metrics.observe i.h_fetch (Float.max 0.0 (t1 -. t0));
            (page, t1)
      in
      if Hashtbl.length t.table >= t.capacity then evict_lru t;
      Hashtbl.replace t.table page_id { page; last_used = tick t; loaded_at };
      page

let fetch t page_id load = locked t (fun () -> fetch_locked t page_id load)

let contains t page_id = locked t (fun () -> Hashtbl.mem t.table page_id)

type stats = { hits : int; misses : int; evictions : int }

let stats (t : _ t) : stats =
  locked t (fun () ->
      { hits = t.hits; misses = t.misses; evictions = t.evictions })

let hit_rate s =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total
