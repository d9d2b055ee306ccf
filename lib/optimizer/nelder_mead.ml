type options = { max_iterations : int; tolerance : float }

let default_options = { max_iterations = 500; tolerance = 1e-10 }

type cell = { mutable value : float }

type result = { point : float array; value : float; iterations : int }

(* Standard coefficients: reflection 1, expansion 2, contraction 1/2,
   shrink 1/2. *)
let alpha = 1.0
let gamma = 2.0
let rho = 0.5
let sigma = 0.5

(* The vertex order: [order] is a permutation of the vertex slots, sorted
   by their values [keys].  This is the stdlib's [Array.sort] (a ternary
   heap sort) specialised to float keys, making the same comparisons and
   the same moves, with a [-1] sentinel in place of its [Bottom]
   exception.  The simplex sums its centroid and picks its worst vertex
   in this order, and ties between vertex values are common, so any other
   sort — even a stable one — changes which plan the solver returns. *)
let[@inline] less keys order a b =
  Float.compare keys.(order.(a)) keys.(order.(b)) < 0

let maxson keys order l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if less keys order i31 (i31 + 1) then i31 + 1 else i31 in
    if less keys order x (i31 + 2) then i31 + 2 else x
  end
  else if i31 + 1 < l && less keys order i31 (i31 + 1) then i31 + 1
  else if i31 < l then i31
  else -1

let rec trickle keys order l i e =
  let j = maxson keys order l i in
  if j >= 0 && Float.compare keys.(order.(j)) keys.(e) > 0 then begin
    order.(i) <- order.(j);
    trickle keys order l j e
  end
  else order.(i) <- e

let rec bubble keys order l i =
  let j = maxson keys order l i in
  if j < 0 then i
  else begin
    order.(i) <- order.(j);
    bubble keys order l j
  end

let rec trickle_up keys order i e =
  let father = (i - 1) / 3 in
  if Float.compare keys.(order.(father)) keys.(e) < 0 then begin
    order.(i) <- order.(father);
    if father > 0 then trickle_up keys order father e else order.(0) <- e
  end
  else order.(i) <- e

let sort_order keys order =
  let l = Array.length order in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle keys order l i order.(i)
  done;
  for i = l - 1 downto 2 do
    let e = order.(i) in
    order.(i) <- order.(0);
    trickle_up keys order (bubble keys order i 0) e
  done;
  if l > 1 then begin
    let e = order.(1) in
    order.(1) <- order.(0);
    order.(0) <- e
  end

(* [Float.min] and [Float.max] bit for bit, with no C call unless an
   argument is NaN (DESIGN §4, "Planner kernel"). *)
let[@inline] fmin x y =
  if x < y then x
  else if y < x then y
  else if x = y then if 1.0 /. x < 0.0 then x else y
  else Float.min x y

let[@inline] fmax x y =
  if x < y then y
  else if y < x then x
  else if x = y then if 1.0 /. x < 0.0 then y else x
  else Float.max x y

(* The simplex indexes without bounds checks.  [minimize] checks that
   [lower], [upper] and [init] have one length n, makes every other array
   it indexes with length n or n + 1, and keeps [order] a permutation of
   0..n, so every index is in range.  The checks were 13% of a solve. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

let[@inline] clamp lower upper x =
  for i = 0 to Array.length x - 1 do
    x.!(i) <- fmin upper.!(i) (fmax lower.!(i) x.!(i))
  done

(* [dst] := [wa·a + wb·b] clamped into the box, and the objective's value
   there. *)
let[@inline] eval_combination f lower upper dst a wa b wb (cell : cell) =
  for i = 0 to Array.length dst - 1 do
    dst.!(i) <-
      fmin upper.!(i) (fmax lower.!(i) ((wa *. a.!(i)) +. (wb *. b.!(i))))
  done;
  f dst cell;
  cell.value

let minimize ?(options = default_options) ~lower ~upper ~init f =
  let n = Array.length init in
  if n = 0 then invalid_arg "Nelder_mead.minimize: empty dimension";
  if Array.length lower <> n || Array.length upper <> n then
    invalid_arg "Nelder_mead.minimize: dimension mismatch";
  Array.iteri
    (fun i lo -> if lo > upper.(i) then invalid_arg "Nelder_mead.minimize: box")
    lower;
  let cell : cell = { value = 0.0 } in
  (* Initial simplex: the start plus one vertex per coordinate, stepped by
     10% of the box width.  Vertex [v] lives in slot [v] for the whole
     run; [order] ranks the slots by value. *)
  let points =
    Array.init (n + 1) (fun v ->
        let x = Array.copy init in
        clamp lower upper x;
        if v > 0 then begin
          let i = v - 1 in
          let width = upper.(i) -. lower.(i) in
          let step = if width > 0.0 then 0.1 *. width else 0.1 in
          let moved = if x.(i) +. step <= upper.(i) then x.(i) +. step else x.(i) -. step in
          x.(i) <- moved
        end;
        clamp lower upper x;
        x)
  in
  let values = Array.make (n + 1) 0.0 in
  for v = 0 to n do
    f points.!(v) cell;
    values.!(v) <- cell.value
  done;
  let order = Array.init (n + 1) Fun.id in
  sort_order values order;
  (* Work buffers, reused every iteration: the centroid, and the
     reflected, expanded and contracted candidates in [candidates.(0)],
     [(1)] and [(2)]. *)
  let centroid = Array.make n 0.0 in
  let candidates = Array.init 3 (fun _ -> Array.make n 0.0) in
  let reflected = candidates.!(0) in
  let iterations = ref 0 in
  while
    !iterations < options.max_iterations
    && Float.abs (values.!(order.!(n)) -. values.!(order.!(0))) > options.tolerance
  do
    incr iterations;
    (* Each coordinate summed from 0 over the vertices in rank order,
       worst excluded, in a register. *)
    for i = 0 to n - 1 do
      let sum = ref 0.0 in
      for v = 0 to n - 1 do
        sum := !sum +. points.!(order.!(v)).!(i)
      done;
      centroid.!(i) <- !sum /. float_of_int n
    done;
    let worst = order.!(n) in
    let worst_x = points.!(worst) in
    let worst_f = values.!(worst) in
    let best_f = values.!(order.!(0)) in
    let second_worst_f = values.!(order.!(n - 1)) in
    (* Reflection.  [next] is the candidate that replaces the worst
       vertex, [-1] for a shrink; its value is left in [cell]. *)
    let refl_f =
      eval_combination f lower upper reflected centroid (1.0 +. alpha) worst_x
        (-.alpha) cell
    in
    let next =
      if refl_f < best_f then begin
        (* Expansion. *)
        if
          eval_combination f lower upper candidates.!(1) centroid
            (1.0 +. gamma) worst_x (-.gamma) cell
          < refl_f
        then 1
        else begin
          cell.value <- refl_f;
          0
        end
      end
      else if refl_f < second_worst_f then 0
      else begin
        (* Contraction (outside if the reflected point improved on the
           worst, inside otherwise). *)
        let outside = refl_f < worst_f in
        if
          eval_combination f lower upper candidates.!(2) centroid (1.0 -. rho)
            (if outside then reflected else worst_x)
            rho cell
          < if outside then refl_f else worst_f
        then 2
        else -1
      end
    in
    if next >= 0 then begin
      let x = candidates.!(next) in
      for i = 0 to n - 1 do
        worst_x.!(i) <- x.!(i)
      done;
      values.!(worst) <- cell.value;
      (* Only the worst slot has a new value, and the slots ranked before
         it are still sorted: find its place [j + 1] among them.  If the
         keys then rise strictly (under [Float.compare], which ranks NaN
         too), the sorted permutation is unique, so it is the one
         [sort_order] returns, and the slot is moved there.  On a tie or
         a repeated NaN [sort_order]'s answer depends on the order it
         starts from, so it sorts the old order in full, as before.  The
         keys rise strictly iff the rest does and the new key differs
         from its neighbours: the scan below leaves [key] strictly under
         the slot at [j + 1]. *)
      let key = cell.value in
      let j = ref (n - 1) in
      while !j >= 0 && Float.compare values.!(order.!(!j)) key > 0 do
        decr j
      done;
      let strict = ref (!j < 0 || Float.compare values.!(order.!(!j)) key < 0) in
      for i = 0 to n - 2 do
        if Float.compare values.!(order.!(i)) values.!(order.!(i + 1)) >= 0 then
          strict := false
      done;
      if !strict then begin
        for i = n downto !j + 2 do
          order.!(i) <- order.!(i - 1)
        done;
        order.!(!j + 1) <- worst
      end
      else sort_order values order
    end
    else begin
      (* Shrink towards the best vertex: every slot but the best moves,
         so the order is sorted in full. *)
      let best_x = points.!(order.!(0)) in
      for v = 1 to n do
        let w = order.!(v) in
        let x = points.!(w) in
        values.!(w) <-
          eval_combination f lower upper x best_x (1.0 -. sigma) x sigma cell
      done;
      sort_order values order
    end
  done;
  {
    point = Array.copy points.!(order.!(0));
    value = values.!(order.!(0));
    iterations = !iterations;
  }
