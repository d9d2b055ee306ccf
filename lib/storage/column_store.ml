type f64 = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type row = { id : int; lo : float; hi : float; truth : float }

type chunk = {
  base : int;
  len : int;
  ids : int array;
  lo : f64;
  hi : f64;
  truth : f64;
}

type t = {
  length : int;
  chunk_size : int;
  zones : Interval.t option array;
  fetch : int -> chunk;
}

let default_chunk_size = 64

let chunk_count_of ~length ~chunk_size =
  if length = 0 then 0 else ((length - 1) / chunk_size) + 1

let hull_of_slice (lo : f64) (hi : f64) ~off ~len =
  if len = 0 then None
  else begin
    let l = ref Bigarray.Array1.(unsafe_get lo off) in
    let h = ref Bigarray.Array1.(unsafe_get hi off) in
    for i = off + 1 to off + len - 1 do
      let a = Bigarray.Array1.unsafe_get lo i in
      let b = Bigarray.Array1.unsafe_get hi i in
      if a < !l then l := a;
      if b > !h then h := b
    done;
    Some (Interval.make !l !h)
  end

let create ?(chunk_size = default_chunk_size) rows =
  if chunk_size < 1 then invalid_arg "Column_store.create: chunk_size < 1";
  let n = Array.length rows in
  let ids = Array.make n 0 in
  let lo = Bigarray.(Array1.create float64 c_layout n) in
  let hi = Bigarray.(Array1.create float64 c_layout n) in
  let truth = Bigarray.(Array1.create float64 c_layout n) in
  Array.iteri
    (fun i (r : row) ->
      if not (Float.is_finite r.lo && Float.is_finite r.hi) || r.lo > r.hi then
        invalid_arg "Column_store.create: bound columns need finite lo <= hi";
      ids.(i) <- r.id;
      Bigarray.Array1.unsafe_set lo i r.lo;
      Bigarray.Array1.unsafe_set hi i r.hi;
      Bigarray.Array1.unsafe_set truth i r.truth)
    rows;
  let chunks = chunk_count_of ~length:n ~chunk_size in
  (* Every chunk is cut once, here: a fetch is then an array lookup,
     which is what a scan pays per chunk. *)
  let cut =
    Array.init chunks (fun c ->
        let base = c * chunk_size in
        let len = min chunk_size (n - base) in
        {
          base;
          len;
          ids = Array.sub ids base len;
          lo = Bigarray.Array1.sub lo base len;
          hi = Bigarray.Array1.sub hi base len;
          truth = Bigarray.Array1.sub truth base len;
        })
  in
  let zones = Array.map (fun ch -> hull_of_slice ch.lo ch.hi ~off:0 ~len:ch.len) cut in
  let fetch c =
    if c < 0 || c >= chunks then invalid_arg "Column_store.fetch: chunk index";
    cut.(c)
  in
  { length = n; chunk_size; zones; fetch }

let of_fetch ~length ~chunk_size ~zones fetch =
  if chunk_size < 1 then invalid_arg "Column_store.of_fetch: chunk_size < 1";
  if length < 0 then invalid_arg "Column_store.of_fetch: length < 0";
  let chunks = chunk_count_of ~length ~chunk_size in
  if Array.length zones <> chunks then
    invalid_arg "Column_store.of_fetch: zone count does not match the layout";
  { length; chunk_size; zones = Array.copy zones; fetch }

let length t = t.length
let chunk_size t = t.chunk_size
let chunk_count t = chunk_count_of ~length:t.length ~chunk_size:t.chunk_size

let chunk_bounds t c =
  if c < 0 || c >= chunk_count t then
    invalid_arg "Column_store.chunk_bounds: chunk index";
  let base = c * t.chunk_size in
  (base, min t.chunk_size (t.length - base))

let chunk t c = t.fetch c

let zone t c =
  if c < 0 || c >= chunk_count t then invalid_arg "Column_store.zone: chunk index";
  t.zones.(c)

let zones t = Array.copy t.zones

let prunable t pred c =
  match zone t c with
  | None -> true
  | Some hull -> Tvl.equal (Predicate.classify_interval pred hull) Tvl.No

let row ch i =
  if i < 0 || i >= ch.len then invalid_arg "Column_store.row: index";
  {
    id = ch.ids.(i);
    lo = Bigarray.Array1.unsafe_get ch.lo i;
    hi = Bigarray.Array1.unsafe_get ch.hi i;
    truth = Bigarray.Array1.unsafe_get ch.truth i;
  }
