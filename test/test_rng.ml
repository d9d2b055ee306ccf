(* Tests for the SplitMix64 generator. *)

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  checki "different seeds diverge" 0 !same

let test_copy_independent () =
  let a = Rng.create 9 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b);
  (* Advancing one does not advance the other. *)
  ignore (Rng.bits64 a);
  ignore (Rng.bits64 a);
  let va = Rng.bits64 a and vb = Rng.bits64 b in
  check "diverged states" true (va <> vb)

let test_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let xs = Array.init 32 (fun _ -> Rng.bits64 a) in
  let ys = Array.init 32 (fun _ -> Rng.bits64 b) in
  let collisions = ref 0 in
  Array.iter (fun x -> Array.iter (fun y -> if x = y then incr collisions) ys) xs;
  checki "no stream collisions" 0 !collisions

let test_int_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 10000 do
    let v = Rng.int rng 17 in
    check "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_uniformity () =
  (* Chi-square against 8 buckets; bound is generous (p << 1e-6 to fail). *)
  let rng = Rng.create 1234 in
  let buckets = Array.make 8 0 in
  let n = 80000 in
  for _ = 1 to n do
    let b = Rng.int rng 8 in
    buckets.(b) <- buckets.(b) + 1
  done;
  let expected = float_of_int n /. 8.0 in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 buckets
  in
  check "chi-square below 50 (7 dof)" true (chi2 < 50.0)

let test_uniform_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 10000 do
    let u = Rng.uniform rng in
    check "in [0,1)" true (u >= 0.0 && u < 1.0)
  done

let test_uniform_in () =
  let rng = Rng.create 8 in
  for _ = 1 to 1000 do
    let v = Rng.uniform_in rng (-3.0) 5.0 in
    check "in [-3,5)" true (v >= -3.0 && v < 5.0)
  done;
  Alcotest.check_raises "reversed" (Invalid_argument "Rng.uniform_in: lo > hi")
    (fun () -> ignore (Rng.uniform_in rng 1.0 0.0))

let test_bernoulli_extremes () =
  let rng = Rng.create 10 in
  for _ = 1 to 100 do
    check "p=1 always true" true (Rng.bernoulli rng 1.0);
    check "p=0 always false" false (Rng.bernoulli rng 0.0)
  done

let test_bernoulli_rate () =
  let rng = Rng.create 11 in
  let hits = ref 0 in
  let n = 50000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.01)

let test_gaussian_moments () =
  let rng = Rng.create 12 in
  let n = 50000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng ~mean:3.0 ~stddev:2.0) in
  check "mean near 3" true (Float.abs (Stats.mean xs -. 3.0) < 0.05);
  let m = Stats.mean xs in
  let var = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
  let stddev = sqrt (var /. float_of_int (n - 1)) in
  check "stddev near 2" true (Float.abs (stddev -. 2.0) < 0.05)

let test_shuffle_permutation () =
  let rng = Rng.create 14 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation"
    (Array.init 100 (fun i -> i))
    sorted;
  check "actually shuffled" true (a <> Array.init 100 (fun i -> i))

(* One draw of each kind, applied to the live generator and to the
   boxed-state copy in [Reference_rng]; a split or copy swaps the pair
   for the derived pair, so later draws check the derived stream. *)
type op = Bits | Int of int | Uniform | Bernoulli of float | Gaussian | Split | Copy

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return Bits);
        (3, map (fun b -> Int b) (oneof [ int_range 1 100; int_range 1 max_int ]));
        (2, return Uniform);
        (3, map (fun p -> Bernoulli p) (float_range (-0.1) 1.1));
        (1, return Gaussian);
        (1, return Split);
        (1, return Copy);
      ])

let show_op = function
  | Bits -> "bits"
  | Int b -> Printf.sprintf "int %d" b
  | Uniform -> "uniform"
  | Bernoulli p -> Printf.sprintf "bernoulli %h" p
  | Gaussian -> "gaussian"
  | Split -> "split"
  | Copy -> "copy"

let prop_matches_reference =
  QCheck.Test.make ~name:"stream equals the boxed-state generator" ~count:300
    QCheck.(
      pair small_int
        (make ~print:(Print.list show_op) Gen.(list_size (int_range 1 200) op_gen)))
    (fun (seed, ops) ->
      let live = ref (Rng.create seed) and old = ref (Reference_rng.create seed) in
      List.for_all
        (fun op ->
          match op with
          | Bits -> Rng.bits64 !live = Reference_rng.bits64 !old
          | Int b -> Rng.int !live b = Reference_rng.int !old b
          | Uniform ->
              Int64.bits_of_float (Rng.uniform !live)
              = Int64.bits_of_float (Reference_rng.uniform !old)
          | Bernoulli p -> Rng.bernoulli !live p = Reference_rng.bernoulli !old p
          | Gaussian ->
              Int64.bits_of_float (Rng.gaussian !live ~mean:1.0 ~stddev:2.0)
              = Int64.bits_of_float
                  (Reference_rng.gaussian !old ~mean:1.0 ~stddev:2.0)
          | Split ->
              live := Rng.split !live;
              old := Reference_rng.split !old;
              true
          | Copy ->
              live := Rng.copy !live;
              old := Reference_rng.copy !old;
              true)
        ops)

(* The pilot draws one Bernoulli per row; with the state kept unboxed a
   draw allocates nothing, so a 1% pilot over 262,144 rows allocates
   only its result (a list cell and an array slot per sampled index) —
   the boxed state cost 8 words per row. *)
let test_sample_indices_allocation () =
  let n = 262_144 in
  let rng = Rng.create 21 in
  ignore (Scan_pipeline.sample_indices rng ~fraction:0.01 64);
  let before = Gc.minor_words () in
  let sample = Scan_pipeline.sample_indices rng ~fraction:0.01 n in
  let words = Gc.minor_words () -. before in
  check "some rows sampled" true (Array.length sample > 0);
  let per_index = words /. float_of_int n in
  if per_index >= 0.25 then
    Alcotest.failf "sample_indices allocated %.3f words per index (bound 0.25)"
      per_index

let suite =
  [
    ("determinism", `Quick, test_determinism);
    ("seeds differ", `Quick, test_seeds_differ);
    ("copy is independent", `Quick, test_copy_independent);
    ("split is independent", `Quick, test_split_independent);
    ("int range and errors", `Quick, test_int_range);
    ("int uniformity (chi-square)", `Quick, test_int_uniformity);
    ("uniform range", `Quick, test_uniform_range);
    ("uniform_in range and errors", `Quick, test_uniform_in);
    ("bernoulli extremes", `Quick, test_bernoulli_extremes);
    ("bernoulli rate", `Quick, test_bernoulli_rate);
    ("gaussian moments", `Quick, test_gaussian_moments);
    ("shuffle is a permutation", `Quick, test_shuffle_permutation);
    QCheck_alcotest.to_alcotest prop_matches_reference;
    ("pilot sampling allocates under 0.25 words per index", `Quick,
     test_sample_indices_allocation);
  ]
