(** The paper's cost model (§3.1, Table 2), extended with a per-batch
    probe setup cost.

    Five unit costs parameterise query evaluation:
    - [c_r]: reading an object from the input and evaluating [λ(o)];
    - [c_p]: probing an object (retrieving [ω^o]) and evaluating
      [λ(ω^o)] — the {e marginal} cost of one more probe in a batch;
    - [c_wi]: appending an imprecise object to the answer;
    - [c_wp]: appending a probed precise object to the answer;
    - [c_b]: the fixed setup cost of one probe {e batch} (request
      dispatch, radio wakeup, connection round-trip), paid once per
      batch of up to [B] probes — see {!Probe_driver}.

    The paper's experiments use [c_r = c_wi = c_wp = 1] and [c_p = 100]
    ("two orders of magnitude", the DRAM/disk or disk/network latency
    gap), with no batching; [paper] therefore has [c_b = 0] and every
    pre-batching number is unchanged. *)

type t = {
  c_r : float;
  c_p : float;
  c_wi : float;
  c_wp : float;
  c_b : float;
}

val make :
  ?c_b:float -> c_r:float -> c_p:float -> c_wi:float -> c_wp:float -> unit -> t
(** [c_b] defaults to 0 (no per-batch cost).
    @raise Invalid_argument if any cost is negative, NaN or infinite. *)

val paper : t
(** [c_r = 1, c_p = 100, c_wi = 1, c_wp = 1, c_b = 0]. *)

val amortized_probe : t -> batch:int -> float
(** The effective per-probe price when probes are issued in batches of
    [batch]: [c_p + c_b/batch].  This is what the optimizer's objective
    (§4.2.2, Eq. 11) must charge per probe so that plan costs match the
    metered reality.  @raise Invalid_argument if [batch < 1]. *)

val pp : Format.formatter -> t -> unit
(** Prints [c_r=… c_p=… c_wi=… c_wp=… c_b=…]; inverse of
    {!of_string}. *)

val of_string : string -> t option
(** Parse the {!pp} format.  Field order is free; [c_b] may be omitted
    (defaults to 0) so strings printed before batching existed still
    parse.  Returns [None] on junk, missing required fields or values
    {!make} would reject. *)
