type t = {
  q : int;
  source_length : int;
  (* Sorted distinct grams with multiplicities. *)
  grams : (string * int) array;
}

let profile ~q s =
  if q < 1 then invalid_arg "Qgram.profile: q < 1";
  let pad = String.make (q - 1) '\x00' in
  let padded = pad ^ s ^ pad in
  let n = String.length padded in
  let table = Hashtbl.create 64 in
  for i = 0 to n - q do
    let gram = String.sub padded i q in
    Hashtbl.replace table gram
      (1 + Option.value ~default:0 (Hashtbl.find_opt table gram))
  done;
  let grams =
    Hashtbl.fold (fun gram count acc -> (gram, count) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> Array.of_list
  in
  { q; source_length = String.length s; grams }

let l1_distance a b =
  if a.q <> b.q then invalid_arg "Qgram.l1_distance: mismatched q";
  (* Merge the two sorted profiles. *)
  let total = ref 0 in
  let i = ref 0 and j = ref 0 in
  let na = Array.length a.grams and nb = Array.length b.grams in
  while !i < na || !j < nb do
    if !i >= na then begin
      total := !total + snd b.grams.(!j);
      incr j
    end
    else if !j >= nb then begin
      total := !total + snd a.grams.(!i);
      incr i
    end
    else begin
      let ga, ca = a.grams.(!i) and gb, cb = b.grams.(!j) in
      let cmp = String.compare ga gb in
      if cmp = 0 then begin
        total := !total + abs (ca - cb);
        incr i;
        incr j
      end
      else if cmp < 0 then begin
        total := !total + ca;
        incr i
      end
      else begin
        total := !total + cb;
        incr j
      end
    end
  done;
  !total

let min_edit_distance a b =
  let l1 = l1_distance a b in
  let by_grams = (l1 + (2 * a.q) - 1) / (2 * a.q) in
  Stdlib.max by_grams (abs (a.source_length - b.source_length))

let max_edit_distance a b = Stdlib.max a.source_length b.source_length
