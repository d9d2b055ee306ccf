(* The reference workload of the engine-level gates: 2000 synthetic
   objects (seed 606) queried at p = 0.9, r = 0.6, l = 50 from engine
   seed 607.  The reconcile, profile-audit, fault-sweep, anytime-ladder
   and broker tests each run it as one of their inputs, so they all
   gate the same run. *)

let data () =
  Synthetic.generate (Rng.create 606) (Synthetic.config ~total:2000 ())

let requirements = Quality.requirements ~precision:0.9 ~recall:0.6 ~laxity:50.0
let engine_seed = 607

(* The standard configurations: (label, batch size, adaptive). *)
let configs =
  [ ("B1", 1, false); ("B4", 4, false); ("B16", 16, false);
    ("B4-adaptive", 4, true) ]
