let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

(* Unbiased sample variance (denominator n - 1). *)
let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = ref 0.0 in
    Array.iter (fun x -> acc := !acc +. ((x -. m) *. (x -. m))) xs;
    !acc /. float_of_int (n - 1)
  end

let confidence95 xs =
  let n = Array.length xs in
  if n < 2 then 0.0 else 1.96 *. sqrt (variance xs) /. sqrt (float_of_int n)
