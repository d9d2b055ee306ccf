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

(* The eviction scan's running minimum, kept in the pool so the scan
   allocates nothing per entry. *)
type lru = { mutable victim : int; mutable victim_used : int }

type 'a t = {
  capacity : int;
  table : (int, 'a entry) Hashtbl.t;
  ins : instruments option;
  lock : Mutex.t;
  lru : lru;
  consider : int -> 'a entry -> unit;  (* the scan step, closed over [lru] *)
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
  let lru = { victim = 0; victim_used = max_int } in
  {
    capacity;
    table = Hashtbl.create (2 * capacity);
    ins;
    lock = Mutex.create ();
    lru;
    consider =
      (fun id entry ->
        if entry.last_used < lru.victim_used then begin
          lru.victim <- id;
          lru.victim_used <- entry.last_used
        end);
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

(* Evict the least-recently-used entry (a no-op on an empty pool).
   Ticks are distinct, so the minimum is unique. *)
let evict_lru t =
  t.lru.victim_used <- max_int;
  Hashtbl.iter t.consider t.table;
  if t.lru.victim_used < max_int then begin
    let id = t.lru.victim in
    (match t.ins with
    | Some i ->
        let entry = Hashtbl.find t.table id in
        Metrics.observe i.h_residency
          (Float.max 0.0 (Obs.now i.i_obs -. entry.loaded_at))
    | None -> ());
    Hashtbl.remove t.table id;
    t.evictions <- t.evictions + 1;
    match t.ins with Some i -> Metrics.incr i.m_evictions | None -> ()
  end

let load_locked t page_id load =
  t.misses <- t.misses + 1;
  (match t.ins with Some i -> Metrics.incr i.m_misses | None -> ());
  (* Load before making room: if the loader raises, the pool must keep
     its cached pages and not charge an eviction for a fetch that never
     completed. *)
  let entry =
    match t.ins with
    | None -> { page = load page_id; last_used = 0; loaded_at = 0.0 }
    | Some i ->
        let t0 = Obs.now i.i_obs in
        let page = load page_id in
        let t1 = Obs.now i.i_obs in
        Metrics.observe i.h_fetch (Float.max 0.0 (t1 -. t0));
        { page; last_used = 0; loaded_at = t1 }
  in
  if Hashtbl.length t.table >= t.capacity then evict_lru t;
  entry.last_used <- tick t;
  Hashtbl.replace t.table page_id entry;
  entry.page

(* A hit allocates nothing: no closure, no [Fun.protect], no option. *)
let fetch t page_id load =
  Mutex.lock t.lock;
  match Hashtbl.find t.table page_id with
  | entry ->
      t.hits <- t.hits + 1;
      (match t.ins with Some i -> Metrics.incr i.m_hits | None -> ());
      entry.last_used <- tick t;
      Mutex.unlock t.lock;
      entry.page
  | exception Not_found -> (
      match load_locked t page_id load with
      | page ->
          Mutex.unlock t.lock;
          page
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.unlock t.lock;
          Printexc.raise_with_backtrace e bt)

let contains t page_id = locked t (fun () -> Hashtbl.mem t.table page_id)

type stats = { hits : int; misses : int; evictions : int }

let stats (t : _ t) : stats =
  locked t (fun () ->
      { hits = t.hits; misses = t.misses; evictions = t.evictions })

