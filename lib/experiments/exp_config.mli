(** Experiment settings for every table of the paper's §5.

    A {!setting} bundles one input characterisation
    ([|T|], [f_y], [f_m], [L]) with one set of quality requirements
    ([p_q], [r_q], [l_q^max]).  A {!sweep} is a named list of settings
    varying one dimension — one sweep per paper table pair
    (§5.1 optimal solutions + §5.2 trial runs). *)

type setting = {
  label : string;  (** the row label, e.g. ["20"] for l_q = 20 *)
  total : int;
  f_y : float;
  f_m : float;
  max_laxity : float;
  p_q : float;
  r_q : float;
  l_q : float;
}

val default : setting
(** The paper's default operating point: [|T| = 10000],
    [f_y = f_m = 0.2], [L = 100], [p_q = 0.9], [r_q = 0.5], [l_q = 50]. *)

val requirements : setting -> Quality.requirements
val workload : setting -> Synthetic.config

type sweep = {
  id : string;  (** e.g. ["laxity"], used on the command line *)
  title : string;
  varied : string;  (** name of the varied parameter, for table headers *)
  settings : setting list;
}

val varying_precision : sweep

val all_sweeps : sweep list
val find_sweep : string -> sweep option
