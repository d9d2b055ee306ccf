(* Tier specifications for tiered probe cascades.

   A cascade is an ordered list of tiers.  Every tier but the last is a
   cheap proxy that *shrinks* an object's imprecision interval (kind
   [Shrink], with an effectiveness [power]); the final tier is the
   oracle that resolves the object to a point (kind [Resolve]).  Each
   tier carries its own per-probe cost [c_p], per-batch cost [c_b] and
   batch size [batch], so the amortized price of a probe at tier [i] is
   [c_p_i + c_b_i / batch_i] — the same amortization PR 1 introduced
   for the single-tier driver, applied per tier. *)

type kind = Resolve | Shrink of { power : float }

type spec = { name : string; kind : kind; c_p : float; c_b : float; batch : int }

let amortized s = s.c_p +. (s.c_b /. float_of_int s.batch)

let valid_cost c = Float.is_finite c && c >= 0.0

(* A tier name is spliced into metric names such as
   [qaq.probe.tier.<name>.probes]; Prometheus exposition maps every
   other character to '_', so two distinct names like "a.b" and "a_b"
   would claim the same series. *)
let valid_name_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' -> true
  | _ -> false

let validate specs =
  let n = Array.length specs in
  if n = 0 then invalid_arg "Probe_tier.validate: empty cascade";
  let seen = Hashtbl.create 8 in
  Array.iteri
    (fun i s ->
      if s.name = "" then invalid_arg "Probe_tier.validate: empty tier name";
      if not (String.for_all valid_name_char s.name) then
        invalid_arg
          (Printf.sprintf
             "Probe_tier.validate: tier name %S must use only [A-Za-z0-9_]"
             s.name);
      if Hashtbl.mem seen s.name then
        invalid_arg
          (Printf.sprintf "Probe_tier.validate: duplicate tier name %S" s.name);
      Hashtbl.add seen s.name ();
      if s.batch < 1 then
        invalid_arg
          (Printf.sprintf "Probe_tier.validate: tier %S batch must be >= 1"
             s.name);
      if not (valid_cost s.c_p && valid_cost s.c_b) then
        invalid_arg
          (Printf.sprintf
             "Probe_tier.validate: tier %S costs must be finite and >= 0"
             s.name);
      (match s.kind with
      | Resolve ->
          if i <> n - 1 then
            invalid_arg
              (Printf.sprintf
                 "Probe_tier.validate: Resolve tier %S must be last" s.name)
      | Shrink { power } ->
          if i = n - 1 then
            invalid_arg
              (Printf.sprintf
                 "Probe_tier.validate: final tier %S must be Resolve" s.name);
          if not (Float.is_finite power && power >= 0.0 && power <= 1.0) then
            invalid_arg
              (Printf.sprintf
                 "Probe_tier.validate: tier %S shrink power must be in [0,1]"
                 s.name)))
    specs;
  match specs.(n - 1).kind with
  | Resolve -> ()
  | Shrink _ -> invalid_arg "Probe_tier.validate: final tier must be Resolve"

let exit_probability s = match s.kind with Resolve -> 1.0 | Shrink p -> p.power

(* Expected amortized cost of the escalation strategy that starts at
   tier [start]: pay tier [start] for every object, tier [start+1] for
   the residual that the proxy failed to make definite, and so on down
   to the oracle.  With residual_start = 1 and residual_{j+1} =
   residual_j * (1 - power_j), the price is
   sum_{j >= start} residual_j * (c_p_j + c_b_j / B_j). *)
let strategy_price specs ~start =
  let n = Array.length specs in
  if start < 0 || start >= n then invalid_arg "Probe_tier.strategy_price: start";
  let price = ref 0.0 and residual = ref 1.0 in
  for j = start to n - 1 do
    price := !price +. (!residual *. amortized specs.(j));
    residual := !residual *. (1.0 -. exit_probability specs.(j))
  done;
  !price

type plan = { start : int; price : float }

(* Cheapest escalation strategy: earliest start wins ties so a free
   proxy is always taken. *)
let select specs =
  validate specs;
  let best = ref { start = 0; price = strategy_price specs ~start:0 } in
  for k = 1 to Array.length specs - 1 do
    let price = strategy_price specs ~start:k in
    if price < !best.price -. 1e-12 then best := { start = k; price }
  done;
  !best

let oracle_only ~(cost : Cost_model.t) ~batch () =
  [| { name = "oracle"; kind = Resolve; c_p = cost.Cost_model.c_p;
       c_b = cost.Cost_model.c_b; batch } |]

(* Grammar: "proxy:cp=0.1,cb=1,B=32,shrink=0.8;oracle:cp=1,cb=5,B=8".
   Tiers separated by ';', each "name:k=v,...".  The [shrink] key makes
   the tier a Shrink proxy; without it the tier is Resolve. *)
let of_string s =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  let parse_tier part =
    match String.index_opt part ':' with
    | None -> fail "Probe_tier.of_string: tier %S missing ':'" part
    | Some i ->
        let name = String.trim (String.sub part 0 i) in
        let body = String.sub part (i + 1) (String.length part - i - 1) in
        let c_p = ref None and c_b = ref 0.0 and batch = ref 1 in
        let shrink = ref None in
        String.split_on_char ',' body
        |> List.iter (fun kv ->
               let kv = String.trim kv in
               if kv <> "" then
                 match String.index_opt kv '=' with
                 | None -> fail "Probe_tier.of_string: bad field %S" kv
                 | Some j ->
                     let k = String.sub kv 0 j in
                     let v = String.sub kv (j + 1) (String.length kv - j - 1) in
                     let fl () =
                       match float_of_string_opt v with
                       | Some f -> f
                       | None ->
                           fail "Probe_tier.of_string: bad number %S in %S" v kv
                     in
                     (match String.lowercase_ascii k with
                     | "cp" | "c_p" -> c_p := Some (fl ())
                     | "cb" | "c_b" -> c_b := fl ()
                     | "b" | "batch" ->
                         batch :=
                           (match int_of_string_opt v with
                           | Some n -> n
                           | None ->
                               fail
                                 "Probe_tier.of_string: bad batch %S in tier %S"
                                 v name)
                     | "shrink" | "power" -> shrink := Some (fl ())
                     | other ->
                         fail "Probe_tier.of_string: unknown key %S in tier %S"
                           other name));
        let c_p =
          match !c_p with
          | Some c -> c
          | None -> fail "Probe_tier.of_string: tier %S missing cp" name
        in
        let kind =
          match !shrink with
          | None -> Resolve
          | Some power -> Shrink { power }
        in
        { name; kind; c_p; c_b = !c_b; batch = !batch }
  in
  let specs =
    String.split_on_char ';' s
    |> List.filter_map (fun part ->
           let part = String.trim part in
           if part = "" then None else Some (parse_tier part))
    |> Array.of_list
  in
  validate specs;
  specs

let to_string specs =
  Array.to_list specs
  |> List.map (fun s ->
         let base =
           Printf.sprintf "%s:cp=%g,cb=%g,B=%d" s.name s.c_p s.c_b s.batch
         in
         match s.kind with
         | Resolve -> base
         | Shrink { power } -> Printf.sprintf "%s,shrink=%g" base power)
  |> String.concat ";"

let pp ppf specs = Format.pp_print_string ppf (to_string specs)
