(** Structured run-event tracing.

    A sink receives the engine's significant events — object reads,
    decisions, probe resolutions, batch dispatches, early termination,
    adaptive replans, phase completions.  The {!null} sink is free:
    instrumented code guards event {e construction} behind {!enabled},
    so a disabled trace allocates nothing on the per-object path.

    Every emission carries a {!context} — which query (trace ID) and
    which tenant the event belongs to — so that sinks observing a
    concurrent server can attribute interleaved events.  Code that does
    not care about attribution keeps using {!emit}; the engine stamps a
    context onto a whole sink with {!with_context} so downstream
    emitters stay context-oblivious.

    The {!tee}, {!formatter} and collector sinks serialise emission
    with an internal mutex and are safe to share across domains.

    Verdicts and actions are plain polymorphic variants so this library
    stays at the bottom of the dependency graph (no {!Tvl} or
    {!Decision} dependency); producers map their own types in. *)

type verdict = [ `Yes | `No | `Maybe ]
type action = [ `Forward | `Probe | `Ignore ]

type context = { query : int option; tenant : string option }
(** Attribution for an event: the engine-minted per-query trace ID and
    the owning tenant, when known. *)

type event =
  | Read of { verdict : verdict }  (** one object read and classified *)
  | Decision of {
      verdict : verdict;
      action : action;
      laxity : float;
      success : float;
    }  (** the operator committed to an action for one object *)
  | Probe_resolved of { verdict : verdict }
      (** one pending probe resolved to its precise object, which
          classifies as [verdict] ([`Yes] or [`No]) *)
  | Probe_shrunk of { verdict : verdict }
      (** a proxy tier narrowed one pending probe's object, which
          re-classifies as [verdict]: [`No] is consumed, [`Yes]
          forwards or escalates, [`Maybe] escalates *)
  | Probe_failed of { attempts : int }
      (** one pending probe exhausted its retry budget and will never
          resolve; the object degrades to an imprecise write decision *)
  | Degraded of { verdict : verdict; action : action; forced : bool }
      (** the operator fell back to [action] for an object whose probe
          failed; [forced] when no guarantee-feasible action existed *)
  | Breaker of { state : string; round : int }
      (** a circuit breaker changed state ("open" / "half-open" /
          "closed") at the given probe round *)
  | Batch of { size : int }  (** one probe batch dispatched to the source *)
  | Early_termination of { reads : int; recall : float }
      (** the scan stopped before exhausting the input *)
  | Budget_stop of { reads : int; recall : float }
      (** the scan stopped because the cost/time budget ran out before
          the recall bound was reached *)
  | Replan of { reads : int }  (** adaptive re-estimation re-solved the plan *)
  | Shortfall of {
      requested_precision : float;
      requested_recall : float;
      guaranteed_precision : float;
      guaranteed_recall : float;
    }
      (** the run finished without meeting the requested quality
          targets — the guaranteed lower bounds fell short *)
  | Phase of { name : string; seconds : float }  (** a {!Span} completed *)
  | Note of string  (** freeform annotation *)

type sink

val null : sink
(** Discards everything; {!enabled} is [false]. *)

val callback_ctx : (context -> event -> unit) -> sink
(** A sink that receives the full attribution with every event. *)

val collector : unit -> sink * (unit -> event list)
(** A sink that buffers events plus a function returning them in
    emission order — the test-friendly sink.  Mutex-guarded. *)

val formatter : Format.formatter -> sink
(** Prints one line per event ([trace: ...]; [trace[q7 tenant]: ...]
    when the event carries a context).  Mutex-guarded, so concurrent
    domains never interleave within a line. *)

val tee : sink -> sink -> sink
(** Both sinks receive every event, first argument first; {!null}
    arguments collapse away, so teeing with {!null} stays free.  The
    combined emission is mutex-guarded. *)

val with_context : context -> sink -> sink
(** [with_context ctx sink] stamps [ctx] on every event passing
    through, overriding whatever context the emitter supplied.  This is
    how the engine attributes a whole query's events: wrap the shared
    sink once, hand the wrapped sink to context-oblivious emitters.
    {!null} stays {!null} (and so stays free). *)

val enabled : sink -> bool
(** Guard event construction with this so the null sink costs nothing:
    [if Trace.enabled sink then Trace.emit sink (Read ...)]. *)

val emit : sink -> event -> unit
(** Emit with a context whose fields are both [None]. *)

val emit_ctx : sink -> context -> event -> unit

val verdict_name : verdict -> string
(** ["YES"] / ["NO"] / ["MAYBE"], as {!formatter} prints them. *)

val action_name : action -> string
(** ["forward"] / ["probe"] / ["ignore"]. *)
