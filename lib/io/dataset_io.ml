let float_to_string x = Printf.sprintf "%.17g" x

let float_of_field name s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> failwith (Printf.sprintf "Dataset_io: bad float in %s: %S" name s)

let int_of_field name s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> failwith (Printf.sprintf "Dataset_io: bad int in %s: %S" name s)

let bool_to_field b = if b then "1" else "0"

let bool_of_field name = function
  | "1" -> true
  | "0" -> false
  | s -> failwith (Printf.sprintf "Dataset_io: bad bool in %s: %S" name s)

(* ---- synthetic objects -------------------------------------------- *)

let synthetic_header =
  [ "id"; "label"; "laxity"; "success"; "probe_yes"; "resolved" ]

let label_to_field = Tvl.to_string

let label_of_field = function
  | "YES" -> Tvl.Yes
  | "NO" -> Tvl.No
  | "MAYBE" -> Tvl.Maybe
  | s -> failwith (Printf.sprintf "Dataset_io: bad label %S" s)

let synthetic_to_rows objects =
  synthetic_header
  :: (Array.to_list objects
     |> List.map (fun (o : Synthetic.obj) ->
            [
              string_of_int o.id;
              label_to_field o.label;
              float_to_string o.laxity;
              float_to_string o.success;
              bool_to_field o.probe_yes;
              bool_to_field o.resolved;
            ]))

let check_header expected = function
  | header :: rows ->
      if header <> expected then
        failwith
          (Printf.sprintf "Dataset_io: unexpected header %s"
             (String.concat "," header));
      rows
  | [] -> failwith "Dataset_io: empty file"

let synthetic_of_rows rows =
  check_header synthetic_header rows
  |> List.map (function
       | [ id; label; laxity; success; probe_yes; resolved ] ->
           Synthetic.make ~id:(int_of_field "id" id)
             ~label:(label_of_field label)
             ~laxity:(float_of_field "laxity" laxity)
             ~success:(float_of_field "success" success)
             ~probe_yes:(bool_of_field "probe_yes" probe_yes)
             ~resolved:(bool_of_field "resolved" resolved)
       | row ->
           failwith
             (Printf.sprintf "Dataset_io: bad synthetic row arity %d"
                (List.length row)))
  |> Array.of_list

let write_synthetic path objects = Csv.write_file path (synthetic_to_rows objects)
let read_synthetic path = synthetic_of_rows (Csv.read_file path)

(* ---- interval-data records ---------------------------------------- *)

let records_header = [ "id"; "belief_lo"; "belief_hi"; "truth" ]

let records_to_rows records =
  records_header
  :: (Array.to_list records
     |> List.map (fun (r : Interval_data.record) ->
            let support =
              match r.belief with
              | Uncertain.Exact x -> Interval.point x
              | Uncertain.Interval i -> i
              | Uncertain.Gaussian _ ->
                  invalid_arg
                    "Dataset_io.records_to_rows: Gaussian beliefs are not \
                     representable in the flat schema"
            in
            [
              string_of_int r.id;
              float_to_string (Interval.lo support);
              float_to_string (Interval.hi support);
              float_to_string r.truth;
            ]))

let records_of_rows rows =
  check_header records_header rows
  |> List.map (function
       | [ id; lo; hi; truth ] ->
           let id = int_of_field "id" id in
           let lo = float_of_field "belief_lo" lo in
           let hi = float_of_field "belief_hi" hi in
           let truth = float_of_field "truth" truth in
           (* A row must be a sound imprecise object: a finite support
              that contains its truth.  Anything else would crash the
              query (or its first probe) far from the file. *)
           let sound =
             Float.is_finite lo && Float.is_finite hi && lo <= truth
             && truth <= hi
           in
           if not sound then
             failwith
               (Printf.sprintf
                  "Dataset_io: record %d: support [%g, %g] is not finite or \
                   does not contain the truth %g"
                  id lo hi truth);
           let belief =
             if lo = hi then Uncertain.exact lo else Uncertain.interval lo hi
           in
           { Interval_data.id; belief; truth }
       | row ->
           failwith
             (Printf.sprintf "Dataset_io: bad record row arity %d"
                (List.length row)))
  |> Array.of_list

let write_records path records = Csv.write_file path (records_to_rows records)
let read_records path = records_of_rows (Csv.read_file path)

(* ---- columnar chunk files (QCOL) ---------------------------------- *)

(* Layout (all integers and float bit patterns little-endian):

     magic        8 bytes   "QCOLv001"
     length       int64     row count
     chunk_size   int64
     zones        17 bytes per chunk: present byte, hull lo, hull hi
     chunks       rows in storage order, chunk by chunk:
                    len x int64 id, len x float64 lo,
                    len x float64 hi, len x float64 truth

   Every row costs exactly 32 bytes in the chunk region, so the byte
   offset of chunk [c] is computable from the header alone — the
   property that lets [open_columnar] fetch (and prune) chunks without
   ever scanning the file. *)

exception Corrupt_columnar of { path : string; reason : string }

let () =
  Printexc.register_printer (function
    | Corrupt_columnar { path; reason } ->
        Some (Printf.sprintf "Corrupt_columnar(%S: %s)" path reason)
    | _ -> None)

let qcol_magic = "QCOLv001"
let qcol_row_bytes = 32
let qcol_zone_bytes = 17

let corrupt path fmt =
  Printf.ksprintf (fun reason -> raise (Corrupt_columnar { path; reason })) fmt

let qcol_header_bytes ~chunks = String.length qcol_magic + 16 + (chunks * qcol_zone_bytes)

(* The byte size the header declares, or [None] when it does not fit in
   an [int]: a header's fields are untrusted, and a product that wraps
   round could otherwise match a tiny file. *)
let qcol_layout_bytes ~length ~chunks =
  let header_max = (max_int - String.length qcol_magic - 16) / qcol_zone_bytes in
  if chunks > header_max || length > max_int / qcol_row_bytes then None
  else
    let header = qcol_header_bytes ~chunks and body = length * qcol_row_bytes in
    if header > max_int - body then None else Some (header + body)

let buf_add_int64 buf i = Buffer.add_int64_le buf i
let buf_add_float buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let save_columnar path store =
  let length = Column_store.length store in
  let chunk_size = Column_store.chunk_size store in
  let chunks = Column_store.chunk_count store in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let buf = Buffer.create 65536 in
      Buffer.add_string buf qcol_magic;
      buf_add_int64 buf (Int64.of_int length);
      buf_add_int64 buf (Int64.of_int chunk_size);
      Array.iter
        (fun zone ->
          match zone with
          | Some hull ->
              Buffer.add_char buf '\001';
              buf_add_float buf (Interval.lo hull);
              buf_add_float buf (Interval.hi hull)
          | None ->
              Buffer.add_char buf '\000';
              buf_add_float buf 0.0;
              buf_add_float buf 0.0)
        (Column_store.zones store);
      Buffer.output_buffer oc buf;
      for c = 0 to chunks - 1 do
        Buffer.clear buf;
        let ch = Column_store.chunk store c in
        let len = ch.Column_store.len in
        for i = 0 to len - 1 do
          buf_add_int64 buf (Int64.of_int ch.Column_store.ids.(i))
        done;
        for i = 0 to len - 1 do
          buf_add_float buf (Bigarray.Array1.get ch.Column_store.lo i)
        done;
        for i = 0 to len - 1 do
          buf_add_float buf (Bigarray.Array1.get ch.Column_store.hi i)
        done;
        for i = 0 to len - 1 do
          buf_add_float buf (Bigarray.Array1.get ch.Column_store.truth i)
        done;
        Buffer.output_buffer oc buf
      done)

type columnar_file = {
  ic : in_channel;
  qcol_store : Column_store.t;
  qcol_pool : Column_store.chunk Buffer_pool.t;
  closed : bool ref;
}

let read_exactly file path b ~at ~len =
  try
    seek_in file at;
    really_input file b 0 len
  with End_of_file -> corrupt path "truncated file: wanted %d bytes at %d" len at

let[@inline] bytes_float b off = Int64.float_of_bits (Bytes.get_int64_le b off)

(* [scratch] holds the raw bytes of one chunk.  One buffer serves every
   fetch of an open file: the pool calls this loader under its lock, so
   two decodes never overlap, and the decoded columns are fresh arrays
   that do not alias it. *)
let decode_chunk ~path ~ic ~chunk_size ~length ~scratch c =
  let base = c * chunk_size in
  let len = Stdlib.min chunk_size (length - base) in
  let chunks = if length = 0 then 0 else ((length - 1) / chunk_size) + 1 in
  let at = qcol_header_bytes ~chunks + (base * qcol_row_bytes) in
  let need = len * qcol_row_bytes in
  if Bytes.length !scratch < need then scratch := Bytes.create need;
  let b = !scratch in
  read_exactly ic path b ~at ~len:need;
  let ids = Array.make len 0 in
  let lo = Bigarray.(Array1.create float64 c_layout len) in
  let hi = Bigarray.(Array1.create float64 c_layout len) in
  let truth = Bigarray.(Array1.create float64 c_layout len) in
  let max_id = Int64.of_int max_int in
  for i = 0 to len - 1 do
    (* Compared and converted in place: no boxed int64, no option. *)
    let id = Bytes.get_int64_le b (i * 8) in
    if id < 0L || id > max_id then corrupt path "chunk %d: id out of range" c;
    Array.unsafe_set ids i (Int64.to_int id);
    let l = bytes_float b ((len + i) * 8) in
    let h = bytes_float b (((2 * len) + i) * 8) in
    let t = bytes_float b (((3 * len) + i) * 8) in
    if not (Float.is_finite l && Float.is_finite h && l <= t && t <= h) then
      corrupt path
        "chunk %d row %d: support [%h, %h] is not finite or does not contain \
         the truth %h"
        c i l h t;
    Bigarray.Array1.unsafe_set lo i l;
    Bigarray.Array1.unsafe_set hi i h;
    Bigarray.Array1.unsafe_set truth i t
  done;
  { Column_store.base; len; ids; lo; hi; truth }

let open_columnar ?obs ?(pool_capacity = 8) path =
  let ic = open_in_bin path in
  match
    let magic =
      try really_input_string ic (String.length qcol_magic)
      with End_of_file -> corrupt path "truncated file: no magic"
    in
    if magic <> qcol_magic then corrupt path "bad magic %S" magic;
    let header = Bytes.create 16 in
    read_exactly ic path header ~at:(String.length qcol_magic) ~len:16;
    let length =
      match Int64.unsigned_to_int (Bytes.get_int64_le header 0) with
      | Some v -> v
      | None -> corrupt path "length out of range"
    in
    let chunk_size =
      match Int64.unsigned_to_int (Bytes.get_int64_le header 8) with
      | Some v when v >= 1 -> v
      | Some v -> corrupt path "chunk_size %d < 1" v
      | None -> corrupt path "chunk_size out of range"
    in
    let chunks = if length = 0 then 0 else ((length - 1) / chunk_size) + 1 in
    let expected =
      match qcol_layout_bytes ~length ~chunks with
      | Some bytes -> bytes
      | None ->
          corrupt path "layout of %d rows in chunks of %d overflows" length
            chunk_size
    in
    if in_channel_length ic <> expected then
      corrupt path "wrong size: %d bytes, layout needs %d" (in_channel_length ic)
        expected;
    let zb = Bytes.create (chunks * qcol_zone_bytes) in
    read_exactly ic path zb ~at:(String.length qcol_magic + 16)
      ~len:(chunks * qcol_zone_bytes);
    let zones =
      Array.init chunks (fun c ->
          let off = c * qcol_zone_bytes in
          match Bytes.get zb off with
          | '\000' -> None
          | '\001' ->
              let l = bytes_float zb (off + 1) in
              let h = bytes_float zb (off + 9) in
              if not (Float.is_finite l && Float.is_finite h) || l > h then
                corrupt path "chunk %d: bad zone hull [%h, %h]" c l h;
              Some (Interval.make l h)
          | b -> corrupt path "chunk %d: bad zone presence byte %C" c b)
    in
    let pool = Buffer_pool.create ?obs ~capacity:pool_capacity () in
    let closed = ref false in
    let load = decode_chunk ~path ~ic ~chunk_size ~length ~scratch:(ref Bytes.empty) in
    let fetch c =
      if !closed then invalid_arg "Dataset_io: columnar file is closed";
      Buffer_pool.fetch pool c load
    in
    let store = Column_store.of_fetch ~length ~chunk_size ~zones fetch in
    { ic; qcol_store = store; qcol_pool = pool; closed }
  with
  | t -> t
  | exception e ->
      close_in_noerr ic;
      raise e

let columnar_store t = t.qcol_store
let columnar_pool t = t.qcol_pool

let close_columnar t =
  if not !(t.closed) then begin
    t.closed := true;
    close_in_noerr t.ic
  end

let with_columnar ?obs ?pool_capacity path f =
  let t = open_columnar ?obs ?pool_capacity path in
  Fun.protect ~finally:(fun () -> close_columnar t) (fun () -> f t.qcol_store)
