type state = Closed | Open | Half_open

type instruments = {
  g_state : Metrics.gauge;
  h_outage : Metrics.histogram;
}

(* Three consecutive failed rounds trip the breaker; the first open
   window is two rounds, doubled on every re-trip and capped at 64. *)
let trip_after = 3
let backoff_base = 2
let max_backoff = 64

type t = {
  ins : instruments option;
  mutable state : state;
  mutable consecutive : int;
  mutable backoff : int;  (* window length the next trip uses *)
  mutable opened_at : int;  (* round of the last trip *)
  mutable open_until : int;  (* first round allowed after a trip *)
}

let state_value = function Closed -> 0.0 | Half_open -> 1.0 | Open -> 2.0

let set_state t s =
  t.state <- s;
  match t.ins with
  | Some i -> Metrics.set i.g_state (state_value s)
  | None -> ()

let create ?obs () =
  let ins =
    Option.map
      (fun o ->
        {
          g_state = Obs.gauge o Obs.Keys.fault_breaker_state;
          h_outage = Obs.histogram o Obs.Keys.fault_outage_rounds;
        })
      obs
  in
  let t =
    {
      ins;
      state = Closed;
      consecutive = 0;
      backoff = backoff_base;
      opened_at = 0;
      open_until = 0;
    }
  in
  set_state t Closed;
  t

let state t = t.state

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

let allow t ~round =
  match t.state with
  | Closed | Half_open -> true
  | Open ->
      if round >= t.open_until then begin
        (* Backoff expired: let one recovery round through. *)
        set_state t Half_open;
        true
      end
      else false

let trip t ~round =
  t.opened_at <- round;
  t.open_until <- round + t.backoff;
  set_state t Open

let grow_backoff t = t.backoff <- min max_backoff (2 * t.backoff)

let record_success t ~round =
  (match (t.state, t.ins) with
  | (Open | Half_open), Some i ->
      (* The outage is over: record how long the breaker held traffic. *)
      Metrics.observe i.h_outage (float_of_int (round - t.opened_at))
  | _ -> ());
  t.consecutive <- 0;
  t.backoff <- backoff_base;
  set_state t Closed

let record_failure t ~round =
  t.consecutive <- t.consecutive + 1;
  match t.state with
  | Half_open ->
      (* The recovery probe failed too — re-open with a grown window. *)
      grow_backoff t;
      trip t ~round
  | Closed -> if t.consecutive >= trip_after then trip t ~round
  | Open -> ()
