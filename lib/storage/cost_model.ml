type t = {
  c_r : float;
  c_p : float;
  c_wi : float;
  c_wp : float;
  c_b : float;
}

let check name x =
  if not (Float.is_finite x && x >= 0.0) then
    invalid_arg (Printf.sprintf "Cost_model.make: %s must be >= 0" name)

let make ?(c_b = 0.0) ~c_r ~c_p ~c_wi ~c_wp () =
  check "c_r" c_r;
  check "c_p" c_p;
  check "c_wi" c_wi;
  check "c_wp" c_wp;
  check "c_b" c_b;
  { c_r; c_p; c_wi; c_wp; c_b }

let paper = { c_r = 1.0; c_p = 100.0; c_wi = 1.0; c_wp = 1.0; c_b = 0.0 }

let amortized_probe t ~batch =
  if batch < 1 then invalid_arg "Cost_model.amortized_probe: batch < 1";
  t.c_p +. (t.c_b /. float_of_int batch)

let pp ppf t =
  Format.fprintf ppf "c_r=%g c_p=%g c_wi=%g c_wp=%g c_b=%g" t.c_r t.c_p
    t.c_wi t.c_wp t.c_b

let of_string s =
  let fields =
    String.split_on_char ' ' (String.trim s)
    |> List.filter (fun f -> f <> "")
  in
  let parse_field kv =
    match String.index_opt kv '=' with
    | None -> None
    | Some i -> (
        let key = String.sub kv 0 i in
        let value = String.sub kv (i + 1) (String.length kv - i - 1) in
        match float_of_string_opt value with
        | Some v -> Some (key, v)
        | None -> None)
  in
  let rec collect acc = function
    | [] -> Some acc
    | kv :: rest -> (
        match parse_field kv with
        | Some pair -> collect (pair :: acc) rest
        | None -> None)
  in
  match collect [] fields with
  | None -> None
  | Some pairs -> (
      let required key = List.assoc_opt key pairs in
      match
        (required "c_r", required "c_p", required "c_wi", required "c_wp")
      with
      | Some c_r, Some c_p, Some c_wi, Some c_wp -> (
          (* c_b is optional so strings printed before batching existed
             still parse. *)
          let c_b =
            match List.assoc_opt "c_b" pairs with Some v -> v | None -> 0.0
          in
          try Some (make ~c_b ~c_r ~c_p ~c_wi ~c_wp ())
          with Invalid_argument _ -> None)
      | _ -> None)
