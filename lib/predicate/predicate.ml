type t =
  | Ge of float
  | Gt of float
  | Le of float
  | Lt of float
  | Between of float * float
  | Not of t
  | And of t * t
  | Or of t * t

let check_finite name x =
  if not (Float.is_finite x) then
    invalid_arg (Printf.sprintf "Predicate.%s: bound must be finite" name)

let ge x = check_finite "ge" x; Ge x
let le x = check_finite "le" x; Le x

let between a b =
  check_finite "between" a;
  check_finite "between" b;
  if a > b then invalid_arg "Predicate.between: reversed bounds";
  Between (a, b)

let not_ p = Not p
let ( &&& ) a b = And (a, b)
let ( ||| ) a b = Or (a, b)

let rec eval p v =
  match p with
  | Ge x -> v >= x
  | Gt x -> v > x
  | Le x -> v <= x
  | Lt x -> v < x
  | Between (a, b) -> a <= v && v <= b
  | Not q -> not (eval q v)
  | And (a, b) -> eval a v && eval b v
  | Or (a, b) -> eval a v || eval b v

let rec satisfying_set = function
  | Ge x | Gt x -> Real_set.at_least x
  | Le x | Lt x -> Real_set.at_most x
  | Between (a, b) -> Real_set.segment a b
  | Not q -> Real_set.complement (satisfying_set q)
  | And (a, b) -> Real_set.inter (satisfying_set a) (satisfying_set b)
  | Or (a, b) -> Real_set.union (satisfying_set a) (satisfying_set b)

let classify_interval p support =
  let set = satisfying_set p in
  if Real_set.covers set support then Tvl.Yes
  else if Real_set.disjoint set support then Tvl.No
  else Tvl.Maybe

let classify p o = classify_interval p (Uncertain.support o)

let success p o =
  match classify p o with
  | Tvl.Yes -> 1.0
  | Tvl.No -> 0.0
  | Tvl.Maybe ->
      let set = satisfying_set p in
      let mass =
        match o with
        | Uncertain.Exact v -> if Real_set.mem set v then 1.0 else 0.0
        | Uncertain.Interval i ->
            if Interval.is_point i then
              (if Real_set.mem set (Interval.lo i) then 1.0 else 0.0)
            else Real_set.measure_within set i /. Interval.width i
        | Uncertain.Gaussian { mean; stddev; _ } ->
            let cdf x =
              if x = infinity then 1.0
              else if x = neg_infinity then 0.0
              else Math_special.normal_cdf ~mean ~stddev x
            in
            List.fold_left
              (fun acc (lo, hi) -> acc +. (cdf hi -. cdf lo))
              0.0
              (Real_set.components set)
      in
      Float.min 1.0 (Float.max 0.0 mass)

(* ---- compiled form for vectorized classification ------------------ *)

(* A compiled predicate computes the satisfying set once and keeps its
   components flat, [lo0; hi0; lo1; hi1; ...] in [Real_set.components]
   order, then one sentinel pair of NaNs.  The tests below decide what
   [Real_set.covers], [disjoint], [mem] and [measure_within] decide —
   bit for bit, as the golden row ≡ columnar suite checks — on unboxed
   floats, allocating nothing. *)
type compiled = { source : t; bounds : float array }

let compile p =
  let components = Real_set.components (satisfying_set p) in
  let bounds = Array.make ((2 * List.length components) + 2) nan in
  List.iteri
    (fun k (lo, hi) ->
      bounds.(2 * k) <- lo;
      bounds.((2 * k) + 1) <- hi)
    components;
  { source = p; bounds }

let source c = c.source

(* The components are sorted and separated by gaps (the [Real_set]
   invariant), so for a support [lo <= hi] only the first component
   ending at or after [lo] can cover or meet it.  Its index is counted,
   and the verdict code (0 NO, 1 MAYBE, 2 YES) computed, without a
   data-dependent branch, which random supports would mispredict.  No
   such component, a NaN [lo] or a NaN [hi] all end on comparisons that
   are false — the NaN sentinel's, for the first two — giving NO, as
   the list tests do. *)
let[@inline] first_from (b : float array) (lo : float) =
  let k = ref 0 in
  for j = 0 to (Array.length b / 2) - 2 do
    k := !k + Bool.to_int (not (Array.unsafe_get b ((2 * j) + 1) >= lo))
  done;
  2 * !k

let[@inline] code (b : float array) (lo : float) (hi : float) =
  let k = first_from b lo in
  let clo = Array.unsafe_get b k and chi = Array.unsafe_get b (k + 1) in
  (* meets + covers; covering implies meeting since [lo <= hi] *)
  Bool.to_int (clo <= hi) + (Bool.to_int (clo <= lo) land Bool.to_int (hi <= chi))

let tvl_of_code = [| Tvl.No; Tvl.Maybe; Tvl.Yes |]

(* The MAYBE branch of [success]: membership for a point support, else
   the covered measure over the width, summed in [measure_within]'s
   order over the only components that add anything to it. *)
let[@inline] maybe_success (b : float array) (lo : float) (hi : float) =
  let mass =
    if lo = hi then if code b lo hi = 2 then 1.0 else 0.0
    else begin
      let last = Array.length b - 2 in
      let acc = ref 0.0 and k = ref (first_from b lo) in
      while !k < last && Array.unsafe_get b !k <= hi do
        let l = Float.max (Array.unsafe_get b !k) lo
        and h = Float.min (Array.unsafe_get b (!k + 1)) hi in
        if l < h then acc := !acc +. (h -. l);
        k := !k + 2
      done;
      !acc /. (hi -. lo)
    end
  in
  Float.min 1.0 (Float.max 0.0 mass)

let classify_bounds c ~lo ~hi = Array.unsafe_get tvl_of_code (code c.bounds lo hi)

let success_bounds c ~lo ~hi =
  match code c.bounds lo hi with
  | 2 -> 1.0
  | 1 -> maybe_success c.bounds lo hi
  | _ -> 0.0

type column = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let char_of_code = String.init 3 (fun k -> Tvl.to_char tvl_of_code.(k))
let success_of_code = [| 0.0; 0.0; 1.0 |]

let classify_column c ~(lo : column) ~(hi : column) ~len ~off ~verdicts
    ~laxities ~successes =
  let fits n = len >= 0 && off >= 0 && off + len <= n in
  if not (fits (Bytes.length verdicts) && fits (Array.length laxities)
          && fits (Array.length successes) && len <= Bigarray.Array1.dim lo
          && len <= Bigarray.Array1.dim hi)
  then invalid_arg "Predicate.classify_column: slice out of bounds";
  let b = c.bounds in
  (* The first pass writes every row's verdict, laxity (the support
     width) and YES/NO success and lists the MAYBE rows; the second
     computes their success — no branch per row on the verdict. *)
  let maybes = Array.make len 0 in
  let m = ref 0 in
  for i = 0 to len - 1 do
    let l = Bigarray.Array1.unsafe_get lo i in
    let h = Bigarray.Array1.unsafe_get hi i in
    let code = code b l h in
    Bytes.unsafe_set verdicts (off + i) (String.unsafe_get char_of_code code);
    Array.unsafe_set laxities (off + i) (h -. l);
    Array.unsafe_set successes (off + i) (Array.unsafe_get success_of_code code);
    Array.unsafe_set maybes !m i;
    m := !m + Bool.to_int (code = 1)
  done;
  for j = 0 to !m - 1 do
    let i = Array.unsafe_get maybes j in
    Array.unsafe_set successes (off + i)
      (maybe_success b
         (Bigarray.Array1.unsafe_get lo i)
         (Bigarray.Array1.unsafe_get hi i))
  done

let rec pp ppf = function
  | Ge x -> Format.fprintf ppf "v >= %g" x
  | Gt x -> Format.fprintf ppf "v > %g" x
  | Le x -> Format.fprintf ppf "v <= %g" x
  | Lt x -> Format.fprintf ppf "v < %g" x
  | Between (a, b) -> Format.fprintf ppf "%g <= v <= %g" a b
  | Not q -> Format.fprintf ppf "not (%a)" pp q
  | And (a, b) -> Format.fprintf ppf "(%a) and (%a)" pp a pp b
  | Or (a, b) -> Format.fprintf ppf "(%a) or (%a)" pp a pp b

let to_string p = Format.asprintf "%a" pp p
