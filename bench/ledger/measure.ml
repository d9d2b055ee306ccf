(* Clocks, order statistics, memory and correctness bookkeeping shared
   by the workloads. *)

let now = Unix.gettimeofday

(* An untraced run of a workload is [parts] processes in turn, each with
   its own set-up and data set, each timing its share of the run.  The
   speed of a fresh process on a shared machine varies by several per
   cent from one process to the next; three of them per run average
   that out, and three data sets average out the data. *)
let parts = 3

let data_seed ~seed ~part = (seed * parts) + part

(* What one part reports: its set-up and its timed phase. *)
type part = {
  setup_s : float;
  latencies : float list;  (** seconds, one per query *)
  wall : float;  (** of the timed phase *)
  costs : float list;  (** W / |T| of each distinct query answered *)
  peak_rss_mb : float;
}

(* ---- order statistics -------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let sum xs = List.fold_left ( +. ) 0.0 xs

let mean = function
  | [] -> nan
  | xs -> sum xs /. float_of_int (List.length xs)

(* Linear interpolation between closest ranks. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile xs 0.5

(* First quartile, median, third quartile by the same rule as Python's
   [statistics.quantiles(xs, n=4)] (its default "exclusive" method), so
   spreads read the same here as in any script that checks them. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let cut i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (cut 1, cut 2, cut 3)

(* ---- memory ------------------------------------------------------ *)

(* Peak resident set of this process (Linux VmHWM). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %f kB"
              (fun kb -> kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
      in
      scan ())

(* Peak RSS after a fixed amount of work: the high-water mark when the
   [after]-th query has answered, or at the end if a part never gets that
   far.  The servers' memory grows with the queries they have answered,
   so a peak read at the end of a timed phase would rise and fall with
   throughput. *)
type rss_probe = { after : int; mutable mb : float option }

let rss_probe after = { after; mb = None }

let rss_tick r ~answered =
  if r.mb = None && answered >= r.after then r.mb <- Some (peak_rss_mb ())

let rss_read r = match r.mb with Some mb -> mb | None -> peak_rss_mb ()

(* Words allocated by this domain so far, minor and major heap alike. *)
let allocated_words () =
  Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

(* ---- correctness ------------------------------------------------- *)

(* Every query the benchmark issues is an attempt; an attempt fails when
   any check on its output fails.  The first few failures are printed to
   stderr so a wrong answer is visible, not just counted. *)
type checks = { mutable attempted : int; mutable failed : int }

let checks () = { attempted = 0; failed = 0 }

let attempt c ok fmt =
  Printf.ksprintf
    (fun what ->
      c.attempted <- c.attempted + 1;
      if not ok then begin
        c.failed <- c.failed + 1;
        if c.failed <= 5 then prerr_endline ("ledger: FAILED " ^ what)
      end)
    fmt

(* A later check on an attempt already counted (a re-run, a repeat). *)
let recheck c ok fmt =
  Printf.ksprintf
    (fun what ->
      if not ok then begin
        c.failed <- c.failed + 1;
        if c.failed <= 5 then prerr_endline ("ledger: FAILED " ^ what)
      end)
    fmt

(* ---- registry reads ---------------------------------------------- *)

let span_seconds snapshot name =
  match Metrics.get snapshot (Span.seconds_key name) with
  | Some (Metrics.Level v) -> v
  | _ -> 0.0

(* Gauges keep their latest level under [Metrics.diff], so an
   accumulated span is differenced by hand. *)
let span_delta ~earlier ~later name =
  span_seconds later name -. span_seconds earlier name

let ratio a b = if b = 0.0 then 0.0 else a /. b
