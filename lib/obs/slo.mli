(** Rolling per-tenant SLO tracking.

    A live, time-windowed view of how each tenant's queries are doing
    right now — request rate, p50/p99 latency, charged-probe rate,
    degraded fraction, quota rejections, guarantee shortfalls — so
    quiet history ages out.  One synthetic ["_all"] tenant aggregates
    everything for the [HEALTH] verb.

    Each tenant owns one ring of 12 time slices; every field of a
    sample lands in the same slice, at one clock read, and ages out
    with it.  A report merges the slices still inside the window, so it
    covers between [window - slice] and [window] seconds of history.

    Concurrency-safe: {!observe} may run from many query domains while
    a reader renders reports. *)

type t

val all_tenant : string
(** ["_all"], the synthetic aggregate tenant. *)

type sample = {
  tenant : string;
  latency_seconds : float;  (** end-to-end query latency *)
  probes : int;  (** probes charged to this request *)
  degraded : bool;
  rejections : int;
      (** quota/capacity rejections this request absorbed *)
  shortfall : bool;
      (** the run finished without meeting the requested quality *)
}

val create : ?window_seconds:float -> ?clock:(unit -> float) -> unit -> t
(** [window_seconds] defaults to 60 (a 60 s window in 5 s steps) and
    [clock] to the wall clock.
    @raise Invalid_argument if [window_seconds] is not finite and
    positive. *)

val observe : t -> sample -> unit
(** Record one finished request against its tenant and ["_all"]. *)

type report = {
  r_tenant : string;
  r_window : float;  (** seconds of history the numbers cover *)
  r_requests : float;  (** requests inside the window *)
  r_rate : float;  (** requests per second *)
  r_p50 : float;  (** latency seconds; [nan] while idle *)
  r_p99 : float;
  r_probe_rate : float;  (** charged probes per second *)
  r_degraded : float;  (** fraction of windowed requests degraded *)
  r_rejections : float;
  r_shortfalls : float;
}

val report : t -> string -> report
(** A tenant's live numbers (all zero / [nan] quantiles when idle or
    unknown).  An unknown tenant is not added to {!reports}. *)

val overall : t -> report
(** [report t all_tenant]. *)

val reports : t -> report list
(** One {!report} per tenant observed so far, sorted by name, excluding
    ["_all"]. *)

val to_prometheus : t -> string
(** Text exposition of the [qaq_slo_*] gauge family with
    [{tenant="..."}] labels (idle [nan] quantiles are elided). *)
