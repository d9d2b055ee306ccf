(* Range-checked flag converters shared by qaq and qaq-server.

   Values outside a flag's range are rejected at parse time, so a bad
   value is a usage error (exit 124) rather than an exception deep in the
   engine. *)

open Cmdliner

let checked conv what ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok x when ok x -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_int = checked Arg.int "a positive integer" (fun n -> n >= 1)
let non_negative_int = checked Arg.int "a non-negative integer" (fun n -> n >= 0)

let non_negative_float =
  checked Arg.float "a finite number >= 0" (fun x ->
      Float.is_finite x && x >= 0.0)

let positive_float =
  checked Arg.float "a finite number > 0" (fun x -> Float.is_finite x && x > 0.0)

let unit_interval =
  checked Arg.float "a finite number in [0, 1]" (fun x ->
      Float.is_finite x && x >= 0.0 && x <= 1.0)

(* A --tiers cascade spec: [Probe_tier.of_string] parses and validates
   it, and its [Invalid_argument] message becomes the usage error. *)
let tiers =
  let parse s =
    match Probe_tier.of_string s with
    | specs -> Ok specs
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Probe_tier.pp)

(* A cap: any number >= 0, where [inf] is no cap at all. *)
let cap = checked Arg.float "a number >= 0 (inf: no cap)" (fun x -> x >= 0.0)

let f_y =
  let doc = "Fraction of YES objects." in
  Arg.(value & opt unit_interval 0.2 & info [ "fy" ] ~doc)

let f_m =
  let doc = "Fraction of MAYBE objects." in
  Arg.(value & opt unit_interval 0.2 & info [ "fm" ] ~doc)

(* [--fy] and [--fm] as a pair: no single flag can check their sum. *)
let fractions =
  let check f_y f_m =
    if f_y +. f_m > 1.0 then
      `Error
        (true, Printf.sprintf "expected --fy + --fm <= 1, got %g + %g" f_y f_m)
    else `Ok (f_y, f_m)
  in
  Term.(ret (const check $ f_y $ f_m))
