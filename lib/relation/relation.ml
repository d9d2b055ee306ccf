type schema = { names : string array }

let schema names =
  if names = [] then invalid_arg "Relation.schema: empty";
  let arr = Array.of_list names in
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun n ->
      if Hashtbl.mem seen n then
        invalid_arg (Printf.sprintf "Relation.schema: duplicate attribute %S" n);
      Hashtbl.add seen n ())
    arr;
  { names = arr }

let arity s = Array.length s.names

let attr s name =
  let rec find i =
    if i >= arity s then raise Not_found
    else if String.equal s.names.(i) name then i
    else find (i + 1)
  in
  find 0

type tuple = {
  id : int;
  beliefs : Uncertain.t array;
  truths : float array;
}

let tuple ~id ~beliefs ~truths =
  if Array.length beliefs <> Array.length truths then
    invalid_arg "Relation.tuple: arity mismatch";
  Array.iteri
    (fun i truth ->
      if not (Interval.contains (Uncertain.support beliefs.(i)) truth) then
        invalid_arg
          (Printf.sprintf
             "Relation.tuple: truth of attribute %d outside its belief" i))
    truths;
  { id; beliefs = Array.copy beliefs; truths = Array.copy truths }

type condition =
  | Atom of int * Predicate.t
  | Not of condition
  | And of condition * condition
  | Or of condition * condition

let atom s name p = Atom (attr s name, p)

let mentioned c =
  let rec collect acc = function
    | Atom (i, _) -> i :: acc
    | Not c -> collect acc c
    | And (a, b) | Or (a, b) -> collect (collect acc a) b
  in
  List.sort_uniq compare (collect [] c)

(* ---- normalisation ------------------------------------------------- *)

(* Negation normal form: negations absorbed into the atoms' predicates. *)
let rec nnf = function
  | Atom _ as a -> a
  | And (a, b) -> And (nnf a, nnf b)
  | Or (a, b) -> Or (nnf a, nnf b)
  | Not c -> (
      match c with
      | Atom (i, p) -> Atom (i, Predicate.not_ p)
      | Not inner -> nnf inner
      | And (a, b) -> Or (nnf (Not a), nnf (Not b))
      | Or (a, b) -> And (nnf (Not a), nnf (Not b)))

(* Flatten an associative chain of one connective into its operand list. *)
let rec flatten_and acc = function
  | And (a, b) -> flatten_and (flatten_and acc a) b
  | c -> c :: acc

let rec flatten_or acc = function
  | Or (a, b) -> flatten_or (flatten_or acc a) b
  | c -> c :: acc

let rebuild join = function
  | [] -> invalid_arg "Relation: empty condition chain"
  | first :: rest -> List.fold_left join first rest

(* Merge same-attribute sibling atoms so that per-attribute combinations
   get the exact satisfying-set semantics of Predicate. *)
let merge_siblings combine operands =
  let atoms = Hashtbl.create 4 in
  let others = ref [] in
  List.iter
    (function
      | Atom (i, p) ->
          let merged =
            match Hashtbl.find_opt atoms i with
            | None -> p
            | Some q -> combine q p
          in
          Hashtbl.replace atoms i merged
      | c -> others := c :: !others)
    operands;
  let merged_atoms =
    Hashtbl.fold (fun i p acc -> Atom (i, p) :: acc) atoms []
    |> List.sort (fun a b ->
           match (a, b) with
           | Atom (i, _), Atom (j, _) -> compare i j
           | _ -> 0)
  in
  merged_atoms @ List.rev !others

let normalize c =
  let rec norm c =
    match c with
    | Atom _ -> c
    | Not _ -> assert false (* gone after nnf *)
    | And _ ->
        flatten_and [] c |> List.rev |> List.map norm
        |> merge_siblings (fun a b -> Predicate.And (a, b))
        |> rebuild (fun a b -> And (a, b))
    | Or _ ->
        flatten_or [] c |> List.rev |> List.map norm
        |> merge_siblings (fun a b -> Predicate.Or (a, b))
        |> rebuild (fun a b -> Or (a, b))
  in
  norm (nnf c)

(* ---- three-way evaluation ------------------------------------------ *)

let rec classify_raw c t =
  match c with
  | Atom (i, p) -> Predicate.classify p t.beliefs.(i)
  | Not c -> Tvl.not_ (classify_raw c t)
  | And (a, b) -> Tvl.and_ (classify_raw a t) (classify_raw b t)
  | Or (a, b) -> Tvl.or_ (classify_raw a t) (classify_raw b t)

let classify c t = classify_raw (normalize c) t

let rec success_raw c t =
  match c with
  | Atom (i, p) -> Predicate.success p t.beliefs.(i)
  | Not c -> 1.0 -. success_raw c t
  | And (a, b) -> success_raw a t *. success_raw b t
  | Or (a, b) ->
      let sa = success_raw a t and sb = success_raw b t in
      sa +. sb -. (sa *. sb)

let success c t =
  match classify c t with
  | Tvl.Yes -> 1.0
  | Tvl.No -> 0.0
  | Tvl.Maybe ->
      Float.min 1.0 (Float.max 0.0 (success_raw (normalize c) t))

let laxity c t =
  List.fold_left
    (fun acc i -> Float.max acc (Uncertain.laxity t.beliefs.(i)))
    0.0 (mentioned c)

(* ---- probing -------------------------------------------------------- *)

let probe_attribute t i =
  if Uncertain.laxity t.beliefs.(i) = 0.0 then t
  else begin
    let beliefs = Array.copy t.beliefs in
    beliefs.(i) <- Uncertain.exact t.truths.(i);
    { t with beliefs }
  end

(* Probability that revealing attribute [i] makes the (normalised)
   condition definite: partition the attribute's support at the boundary
   points of its atoms' satisfying sets; inside one region every atom of
   [i] is definite, so the condition's verdict there is computable by
   substituting a representative value.  Sum the belief mass of regions
   whose verdict comes out definite. *)
let decisiveness c t i =
  let belief_i = t.beliefs.(i) in
  let support = Uncertain.support belief_i in
  let lo = Interval.lo support and hi = Interval.hi support in
  let boundaries =
    let rec collect acc = function
      | Atom (j, p) when j = i ->
          List.fold_left
            (fun acc (a, b) ->
              let acc = if Float.is_finite a then a :: acc else acc in
              if Float.is_finite b then b :: acc else acc)
            acc
            (Real_set.components (Predicate.satisfying_set p))
      | Atom _ -> acc
      | Not c -> collect acc c
      | And (a, b) | Or (a, b) -> collect (collect acc a) b
    in
    collect [] c
    |> List.filter (fun x -> x > lo && x < hi)
    |> List.sort_uniq Float.compare
  in
  let knots = (lo :: boundaries) @ [ hi ] in
  let with_value v =
    let beliefs = Array.copy t.beliefs in
    beliefs.(i) <- Uncertain.exact v;
    { t with beliefs }
  in
  let rec mass acc = function
    | a :: (b :: _ as rest) ->
        let representative = (a +. b) /. 2.0 in
        let verdict = classify_raw c (with_value representative) in
        let region_mass =
          if Tvl.is_definite verdict then
            Uncertain.success_between belief_i a b
          else 0.0
        in
        mass (acc +. region_mass) rest
    | [ _ ] | [] -> acc
  in
  mass 0.0 knots

let next_probe c t =
  let c = normalize c in
  if Tvl.is_definite (classify_raw c t) then None
  else begin
    let imprecise =
      List.filter
        (fun i -> Uncertain.laxity t.beliefs.(i) > 0.0)
        (mentioned c)
    in
    match imprecise with
    | [] -> None
    | candidates ->
        let best =
          List.fold_left
            (fun best i ->
              let score = decisiveness c t i in
              match best with
              | Some (_, s) when s >= score -> best
              | _ -> Some (i, score))
            None candidates
        in
        Option.map fst best
  end

let resolve ?meter c t =
  let charge () =
    match meter with Some m -> Cost_meter.charge_probe m | None -> ()
  in
  let c = normalize c in
  let rec go t =
    if Tvl.is_definite (classify_raw c t) then t
    else
      match next_probe c t with
      | None -> t (* definite or nothing probeable: stop *)
      | Some i ->
          charge ();
          go (probe_attribute t i)
  in
  let t = go t in
  (* A tuple that resolved YES will be emitted, and emitted probed
     objects must have laxity 0: fetch its remaining mentioned
     attributes.  A NO tuple is discarded, so residual imprecision is
     left unfetched — that saving is the point of per-attribute
     probing. *)
  match classify_raw c t with
  | Tvl.No | Tvl.Maybe -> t
  | Tvl.Yes ->
      List.fold_left
        (fun t i ->
          if Uncertain.laxity t.beliefs.(i) > 0.0 then begin
            charge ();
            probe_attribute t i
          end
          else t)
        t (mentioned c)

let instance c : tuple Operator.instance =
  let c = normalize c in
  {
    classify = classify_raw c;
    laxity = laxity c;
    success = (fun t -> success c t);
  }

(* ---- selection ------------------------------------------------------ *)

type report = {
  answer : tuple Operator.emitted list;
  guarantees : Quality.guarantees;
  requirements : Quality.requirements;
  counts : Cost_meter.counts;
  probe_actions : int;
  answer_size : int;
  exhausted : bool;
}

let select ~rng ~requirements c tuples =
  let c = normalize c in
  (* Two meters: the operator's own (reads, writes, probe decisions) and
     one charged per attribute fetch inside resolve.  The cost-bearing
     probe count is the attribute fetches. *)
  let main = Cost_meter.create () in
  let fetches = Cost_meter.create () in
  let operator_report =
    Operator.run ~rng ~meter:main ~instance:(instance c)
      ~cascade:
        (Cascade.of_driver
           (Probe_driver.scalar (fun t -> resolve ~meter:fetches c t)))
      ~policy:Policy.stingy ~requirements
      (Operator.source_of_array tuples)
  in
  let main_counts = operator_report.Operator.counts in
  {
    answer = operator_report.answer;
    guarantees = operator_report.guarantees;
    requirements = operator_report.requirements;
    counts =
      { main_counts with probes = (Cost_meter.counts fetches).probes };
    probe_actions = main_counts.probes;
    answer_size = operator_report.answer_size;
    exhausted = operator_report.exhausted;
  }
