type verdict = [ `Yes | `No | `Maybe ]
type action = [ `Forward | `Probe | `Ignore ]

type context = { query : int option; tenant : string option }

let no_context = { query = None; tenant = None }

type event =
  | Read of { verdict : verdict }
  | Decision of {
      verdict : verdict;
      action : action;
      laxity : float;
      success : float;
    }
  | Probe_resolved of { verdict : verdict }
  | Probe_shrunk of { verdict : verdict }
  | Probe_failed of { attempts : int }
  | Degraded of { verdict : verdict; action : action; forced : bool }
  | Breaker of { state : string; round : int }
  | Batch of { size : int }
  | Early_termination of { reads : int; recall : float }
  | Budget_stop of { reads : int; recall : float }
  | Replan of { reads : int }
  | Shortfall of {
      requested_precision : float;
      requested_recall : float;
      guaranteed_precision : float;
      guaranteed_recall : float;
    }
  | Phase of { name : string; seconds : float }
  | Note of string

type sink = Null | Callback of (context -> event -> unit)

let null = Null
let callback_ctx f = Callback f
let enabled = function Null -> false | Callback _ -> true
let emit_ctx sink ctx e = match sink with Null -> () | Callback f -> f ctx e
let emit sink e = emit_ctx sink no_context e

let with_context ctx = function
  | Null -> Null
  | Callback f -> Callback (fun _ e -> f ctx e)

let tee a b =
  match (a, b) with
  | Null, s | s, Null -> s
  | Callback f, Callback g ->
      let lock = Mutex.create () in
      Callback
        (fun ctx e ->
          Mutex.protect lock (fun () ->
              f ctx e;
              g ctx e))

let collector () =
  let lock = Mutex.create () in
  let events = ref [] in
  ( Callback
      (fun _ctx e -> Mutex.protect lock (fun () -> events := e :: !events)),
    fun () -> Mutex.protect lock (fun () -> List.rev !events) )

let verdict_name = function `Yes -> "YES" | `No -> "NO" | `Maybe -> "MAYBE"

let action_name = function
  | `Forward -> "forward"
  | `Probe -> "probe"
  | `Ignore -> "ignore"

let pp_event ppf = function
  | Read { verdict } -> Format.fprintf ppf "read %s" (verdict_name verdict)
  | Decision { verdict; action; laxity; success } ->
      Format.fprintf ppf "decision %s -> %s (l=%g s=%g)" (verdict_name verdict)
        (action_name action) laxity success
  | Probe_resolved { verdict } ->
      Format.fprintf ppf "probe resolved %s" (verdict_name verdict)
  | Probe_shrunk { verdict } ->
      Format.fprintf ppf "probe shrunk to %s" (verdict_name verdict)
  | Probe_failed { attempts } ->
      Format.fprintf ppf "probe failed permanently after %d attempts" attempts
  | Degraded { verdict; action; forced } ->
      Format.fprintf ppf "degraded %s -> %s%s" (verdict_name verdict)
        (action_name action)
        (if forced then " (forced)" else "")
  | Breaker { state; round } ->
      Format.fprintf ppf "breaker %s at round %d" state round
  | Batch { size } -> Format.fprintf ppf "batch dispatched (size %d)" size
  | Early_termination { reads; recall } ->
      Format.fprintf ppf "early termination after %d reads (r^G=%g)" reads
        recall
  | Budget_stop { reads; recall } ->
      Format.fprintf ppf "budget exhausted after %d reads (r^G=%g)" reads
        recall
  | Replan { reads } -> Format.fprintf ppf "replan at %d reads" reads
  | Shortfall
      {
        requested_precision;
        requested_recall;
        guaranteed_precision;
        guaranteed_recall;
      } ->
      Format.fprintf ppf
        "guarantee shortfall (p %g vs requested %g, r %g vs requested %g)"
        guaranteed_precision requested_precision guaranteed_recall
        requested_recall
  | Phase { name; seconds } ->
      Format.fprintf ppf "phase %s done in %gs" name seconds
  | Note s -> Format.pp_print_string ppf s

let context_label ctx =
  match (ctx.query, ctx.tenant) with
  | None, None -> ""
  | Some q, None -> Printf.sprintf "[q%d]" q
  | Some q, Some t -> Printf.sprintf "[q%d %s]" q t
  | None, Some t -> Printf.sprintf "[%s]" t

let formatter ppf =
  let lock = Mutex.create () in
  Callback
    (fun ctx e ->
      Mutex.protect lock (fun () ->
          Format.fprintf ppf "trace%s: %a@." (context_label ctx) pp_event e))
