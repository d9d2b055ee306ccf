type options = { max_iterations : int; tolerance : float }

let default_options = { max_iterations = 500; tolerance = 1e-10 }

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

(* After a reflect, expand or contract step only the worst slot
   [order.(n)] has a new value, and the slots ranked before it are still
   sorted: insert it among them.  If the keys then rise strictly (under
   [Float.compare], which ranks NaN too), the sorted permutation is
   unique, so it is the one [sort_order] returns.  On a tie or a repeated
   NaN [sort_order]'s answer depends on the order it starts from, so the
   saved order is restored and sorted in full, exactly as before. *)
let rerank_worst keys order saved =
  let n = Array.length order - 1 in
  Array.blit order 0 saved 0 (n + 1);
  let w = order.(n) in
  let key = keys.(w) in
  let j = ref (n - 1) in
  while !j >= 0 && Float.compare keys.(order.(!j)) key > 0 do
    order.(!j + 1) <- order.(!j);
    decr j
  done;
  order.(!j + 1) <- w;
  let strict = ref true in
  for i = 0 to n - 1 do
    if Float.compare keys.(order.(i)) keys.(order.(i + 1)) >= 0 then
      strict := false
  done;
  if not !strict then begin
    Array.blit saved 0 order 0 (n + 1);
    sort_order keys order
  end

(* [Float.min] and [Float.max] with the strict cases decided by one
   comparison: the stdlib tests sign bits (a C call) whenever its first
   comparison fails.  Ties and NaNs go to the stdlib, so every result,
   -0.0 and NaN included, is the stdlib's bit for bit. *)
let[@inline] fmin x y = if x < y then x else if y < x then y else Float.min x y

let[@inline] fmax x y = if x < y then y else if y < x then x else Float.max x y

let combine_into dst a wa b wb =
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- (wa *. a.(i)) +. (wb *. b.(i))
  done

let minimize ?(options = default_options) ~lower ~upper ~init f =
  let n = Array.length init in
  if n = 0 then invalid_arg "Nelder_mead.minimize: empty dimension";
  if Array.length lower <> n || Array.length upper <> n then
    invalid_arg "Nelder_mead.minimize: dimension mismatch";
  Array.iteri
    (fun i lo -> if lo > upper.(i) then invalid_arg "Nelder_mead.minimize: box")
    lower;
  let clamp x =
    for i = 0 to n - 1 do
      x.(i) <- fmin upper.(i) (fmax lower.(i) x.(i))
    done
  in
  let eval x =
    clamp x;
    f x
  in
  (* Initial simplex: the start plus one vertex per coordinate, stepped by
     10% of the box width.  Vertex [v] lives in slot [v] for the whole
     run; [order] ranks the slots by value. *)
  let points =
    Array.init (n + 1) (fun v ->
        let x = Array.copy init in
        clamp x;
        if v > 0 then begin
          let i = v - 1 in
          let width = upper.(i) -. lower.(i) in
          let step = if width > 0.0 then 0.1 *. width else 0.1 in
          let moved = if x.(i) +. step <= upper.(i) then x.(i) +. step else x.(i) -. step in
          x.(i) <- moved
        end;
        x)
  in
  let values = Array.make (n + 1) 0.0 in
  for v = 0 to n do
    values.(v) <- eval points.(v)
  done;
  let order = Array.init (n + 1) Fun.id in
  sort_order values order;
  (* Work buffers, reused every iteration: the centroid, the
     reflected, expanded and contracted candidates, and the order a
     re-rank falls back to. *)
  let centroid = Array.make n 0.0 in
  let reflected = Array.make n 0.0 in
  let expanded = Array.make n 0.0 in
  let contracted = Array.make n 0.0 in
  let saved = Array.make (n + 1) 0 in
  let replace_worst x value =
    let w = order.(n) in
    Array.blit x 0 points.(w) 0 n;
    values.(w) <- value;
    rerank_worst values order saved
  in
  let iterations = ref 0 in
  while
    !iterations < options.max_iterations
    && Float.abs (values.(order.(n)) -. values.(order.(0))) > options.tolerance
  do
    incr iterations;
    Array.fill centroid 0 n 0.0;
    for v = 0 to n - 1 do
      let x = points.(order.(v)) in
      for i = 0 to n - 1 do
        centroid.(i) <- centroid.(i) +. x.(i)
      done
    done;
    for i = 0 to n - 1 do
      centroid.(i) <- centroid.(i) /. float_of_int n
    done;
    let worst_x = points.(order.(n)) in
    let worst_f = values.(order.(n)) in
    let best_f = values.(order.(0)) in
    let second_worst_f = values.(order.(n - 1)) in
    (* Reflection. *)
    combine_into reflected centroid (1.0 +. alpha) worst_x (-.alpha);
    let refl_f = eval reflected in
    if refl_f < best_f then begin
      (* Expansion. *)
      combine_into expanded centroid (1.0 +. gamma) worst_x (-.gamma);
      let exp_f = eval expanded in
      if exp_f < refl_f then replace_worst expanded exp_f
      else replace_worst reflected refl_f
    end
    else if refl_f < second_worst_f then replace_worst reflected refl_f
    else begin
      (* Contraction (outside if the reflected point improved on the
         worst, inside otherwise). *)
      let outside = refl_f < worst_f in
      let towards = if outside then reflected else worst_x in
      combine_into contracted centroid (1.0 -. rho) towards rho;
      let con_f = eval contracted in
      if con_f < (if outside then refl_f else worst_f) then
        replace_worst contracted con_f
      else begin
        (* Shrink towards the best vertex: every slot but the best
           moves, so the order is sorted in full. *)
        let best_x = points.(order.(0)) in
        for v = 1 to n do
          let w = order.(v) in
          let x = points.(w) in
          combine_into x best_x (1.0 -. sigma) x sigma;
          values.(w) <- eval x
        done;
        sort_order values order
      end
    end
  done;
  {
    point = Array.copy points.(order.(0));
    value = values.(order.(0));
    iterations = !iterations;
  }
