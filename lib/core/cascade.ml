(* A tiered probe cascade: one driver per Probe_tier.spec, cheap
   Shrink proxies first, the Resolve oracle last.  The cascade itself
   is passive plumbing — escalation and re-classification live in the
   operator ([Operator.run ~cascade]) so the Theorem 3.1 counter
   discipline stays in one place. *)

type 'o t = {
  specs : Probe_tier.spec array;
  drivers : 'o Probe_driver.t array;
  start : int;
}

let create ?start ~specs drivers =
  Probe_tier.validate specs;
  if Array.length drivers <> Array.length specs then
    invalid_arg "Cascade.create: drivers/specs length mismatch";
  Array.iteri
    (fun i d ->
      if Probe_driver.batch_size d <> specs.(i).Probe_tier.batch then
        invalid_arg
          (Printf.sprintf
             "Cascade.create: tier %S driver batch %d <> spec batch %d"
             specs.(i).Probe_tier.name (Probe_driver.batch_size d)
             specs.(i).Probe_tier.batch))
    drivers;
  let start =
    match start with
    | Some s ->
        if s < 0 || s >= Array.length specs then invalid_arg "Cascade.create: start";
        s
    | None -> (Probe_tier.select specs).Probe_tier.start
  in
  { specs; drivers; start }

let of_driver ?(cost = Cost_model.paper) driver =
  let specs =
    Probe_tier.oracle_only ~cost
      ~batch:(Probe_driver.batch_size driver)
      ()
  in
  create ~specs [| driver |]

let specs t = t.specs
let drivers t = t.drivers
let oracle t = t.drivers.(Array.length t.drivers - 1)
let start t = t.start

(* Asked before every read of a scan. *)
let pending t =
  let n = ref 0 in
  for i = 0 to Array.length t.drivers - 1 do
    n := !n + Probe_driver.pending (Array.unsafe_get t.drivers i)
  done;
  !n
