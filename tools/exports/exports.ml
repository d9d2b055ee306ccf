(* The export check.

   Reads the typed trees that [dune build @check] leaves under
   [_build/default]: every [.cmti] under [lib/] gives the values a library
   interface exports (nested modules included, so [Stats.Welford.add] is one
   export) and the optional parameters of each, and every [.cmt] under
   [lib/], [bin/], [bench/] and [examples/] gives the values its code names
   and the optional arguments it passes them.  The typed tree has already
   resolved [open], [M.( ... )] and nested module paths, so a name is counted
   exactly where the compiler bound it.  Code under [test/] is not read: a
   test is not a caller.

   Two rules:
   - An export counts as called when some compilation unit other than its
     own names it.
   - An optional parameter [?label] of an export counts as passed when some
     application of the export passes it, as [~label:e], [?label:e] or
     [?label].  A call from the export's own module counts (its top-level
     value idents are matched, so a shadowed binding of the same name is not
     the export), but a call from inside the export's own definition does
     not: forwarding a knob to itself passes nothing.  The [None] the
     compiler inserts for an omitted optional argument has no location and
     is not a pass.

   Each uncalled export and each unpassed optional parameter must have a
   line in the allow-list, [tools/exports/allow.txt]:

     Module.value  reason it stays
     Module.value ?label  reason it stays

   Blank lines and lines starting with [#] are skipped.  The check fails on
   an uncalled export or unpassed parameter with no line, naming it with its
   [.mli] line, and on a stale line: one naming a value that is no longer
   exported or that now has a caller, or a parameter that is gone or now
   passed.

   Run it from the repository root:
     dune build @check && dune exec tools/exports/exports.exe *)

let build = Filename.concat "_build" "default"
let allow_file = Filename.concat "tools" (Filename.concat "exports" "allow.txt")

(* Every file under [dir] (hidden [.objs] directories included) whose name
   ends in [ext]. *)
let rec files_under ext dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun name ->
           let path = Filename.concat dir name in
           if Sys.is_directory path then files_under ext path
           else if Filename.check_suffix name ext then [ path ]
           else [])

let line_of (loc : Location.t) =
  (loc.loc_start.pos_fname, loc.loc_start.pos_lnum)

(* The optional labels of a value's declared type, each with its .mli
   line. *)
let rec optional_labels (ty : Typedtree.core_type) =
  match ty.ctyp_desc with
  | Ttyp_arrow (Optional l, _, ret) ->
      (l, line_of ty.ctyp_loc) :: optional_labels ret
  | Ttyp_arrow (_, _, ret) | Ttyp_poly (_, ret) -> optional_labels ret
  | _ -> []

type export = {
  name : string;  (** "Unit.M.x" *)
  at : string * int;  (** its .mli line *)
  options : (string * (string * int)) list;  (** optional labels, .mli lines *)
}

(* The exported values of one interface. *)
let exports_of_cmti path =
  let info = Cmt_format.read_cmt path in
  let rec signature prefix (sg : Typedtree.signature) =
    List.concat_map
      (fun (item : Typedtree.signature_item) ->
        match item.sig_desc with
        | Tsig_value vd ->
            [
              {
                name = prefix ^ "." ^ vd.val_name.txt;
                at = line_of vd.val_loc;
                options = optional_labels vd.val_desc;
              };
            ]
        | Tsig_module { md_name = { txt = Some name; _ }; md_type; _ } -> (
            match md_type.mty_desc with
            | Tmty_signature sg -> signature (prefix ^ "." ^ name) sg
            | _ -> [])
        | _ -> [])
      sg.sig_items
  in
  match info.cmt_annots with
  | Interface sg -> signature info.cmt_modname sg
  | _ -> []

(* A value path rooted at a compilation unit, as "Unit.M.x". *)
let rec global_name : Path.t -> string option = function
  | Pident id when Ident.persistent id -> Some (Ident.name id)
  | Pdot (p, s) -> Option.map (fun q -> q ^ "." ^ s) (global_name p)
  | _ -> None

(* The top-level value and module idents of an implementation, keyed to
   their qualified names.  Of two bindings of one name only the last, the
   one the interface exports, is kept. *)
let top_level_idents modname (str : Typedtree.structure) =
  let names = Hashtbl.create 64 in
  let rec structure prefix (str : Typedtree.structure) =
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                List.iter
                  (fun id ->
                    Hashtbl.replace names (prefix ^ "." ^ Ident.name id) id)
                  (Typedtree.pat_bound_idents vb.vb_pat))
              vbs
        | Tstr_module { mb_id = Some id; mb_expr; _ } -> (
            let name = prefix ^ "." ^ Ident.name id in
            Hashtbl.replace names name id;
            match mb_expr.mod_desc with
            | Tmod_structure str -> structure name str
            | _ -> ())
        | _ -> ())
      str.str_items
  in
  structure modname str;
  let idents = Hashtbl.create 64 in
  Hashtbl.iter (fun name id -> Hashtbl.replace idents id name) names;
  idents

(* Records, for the implementation [path], every global value it names
   outside its own compilation unit in [called], and every optional label it
   passes to a global value, its own unit's included, in [passed]. *)
let uses_of_cmt called passed path =
  let info = Cmt_format.read_cmt path in
  match info.cmt_annots with
  | Implementation str ->
      let own = info.cmt_modname ^ "." in
      let local = top_level_idents info.cmt_modname str in
      let rec name_of : Path.t -> string option = function
        | Pident id when not (Ident.persistent id) -> Hashtbl.find_opt local id
        | Pdot (p, s) -> Option.map (fun q -> q ^ "." ^ s) (name_of p)
        | p -> global_name p
      in
      (* The top-level binding being walked: its own calls pass nothing. *)
      let current = ref [] in
      let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
        (match e.exp_desc with
        | Texp_ident (p, _, _) -> (
            match global_name p with
            | Some name when not (String.starts_with ~prefix:own name) ->
                Hashtbl.replace called name ()
            | _ -> ())
        | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
            match name_of p with
            | Some name when not (List.mem name !current) ->
                List.iter
                  (fun ((label : Asttypes.arg_label), arg) ->
                    match (label, arg) with
                    | Optional l, Some (a : Typedtree.expression)
                      when a.exp_loc <> Location.none ->
                        Hashtbl.replace passed (name, l) ()
                    | _ -> ())
                  args
            | _ -> ())
        | _ -> ());
        Tast_iterator.default_iterator.expr it e
      in
      let structure_item (it : Tast_iterator.iterator)
          (item : Typedtree.structure_item) =
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            let saved = !current in
            current :=
              List.filter_map
                (fun id -> Hashtbl.find_opt local id)
                (List.concat_map
                   (fun (vb : Typedtree.value_binding) ->
                     Typedtree.pat_bound_idents vb.vb_pat)
                   vbs);
            Tast_iterator.default_iterator.structure_item it item;
            current := saved
        | _ -> Tast_iterator.default_iterator.structure_item it item
      in
      let it = { Tast_iterator.default_iterator with expr; structure_item } in
      it.structure it str
  | _ -> ()

(* The allow-list's entries: (line number, qualified name, optional label,
   reason). *)
let read_allow_list () =
  if not (Sys.file_exists allow_file) then []
  else
    let split line =
      match String.index_opt line ' ' with
      | Some k ->
          ( String.sub line 0 k,
            String.trim (String.sub line k (String.length line - k)) )
      | None -> (line, "")
    in
    In_channel.with_open_text allow_file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.mapi (fun i line -> (i + 1, String.trim line))
    |> List.filter_map (fun (n, line) ->
           if line = "" || line.[0] = '#' then None
           else
             let name, rest = split line in
             if String.starts_with ~prefix:"?" rest then
               let label, reason = split rest in
               let label = String.sub label 1 (String.length label - 1) in
               Some (n, name, Some label, reason)
             else Some (n, name, None, rest))

let () =
  let lib = Filename.concat build "lib" in
  let cmtis = files_under ".cmti" lib in
  if cmtis = [] then begin
    prerr_endline
      ("exports: no .cmti under " ^ lib ^ "; run `dune build @check` first");
    exit 2
  end;
  let exports = List.concat_map exports_of_cmti cmtis in
  let called = Hashtbl.create 1024 and passed = Hashtbl.create 1024 in
  List.iter
    (fun dir ->
      List.iter (uses_of_cmt called passed)
        (files_under ".cmt" (Filename.concat build dir)))
    [ "lib"; "bin"; "bench"; "examples" ];
  let allowed_values, allowed_options =
    List.partition_map
      (fun (n, name, label, reason) ->
        match label with
        | None -> Left (n, name, reason)
        | Some l -> Right (n, name, l, reason))
      (read_allow_list ())
  in
  let problems = ref 0 and option_problems = ref 0 in
  let fail counter fmt =
    incr counter;
    Printf.printf fmt
  in
  let uncalled =
    List.filter (fun e -> not (Hashtbl.mem called e.name)) exports
  in
  List.iter
    (fun { name; at = file, line; _ } ->
      if not (List.exists (fun (_, a, _) -> a = name) allowed_values) then
        fail problems
          "%s:%d: %s is exported but has no caller in lib/, bin/, bench/ or \
           examples/ outside its module\n"
          file line name)
    uncalled;
  List.iter
    (fun (n, name, reason) ->
      if not (List.exists (fun e -> e.name = name) exports) then
        fail problems
          "%s:%d: %s is allow-listed but no lib/ interface exports it\n"
          allow_file n name
      else if Hashtbl.mem called name then
        fail problems
          "%s:%d: %s is allow-listed but has a caller outside its module\n"
          allow_file n name
      else if reason = "" then
        fail problems "%s:%d: %s is allow-listed without a reason\n" allow_file
          n name)
    allowed_values;
  let options =
    List.concat_map
      (fun e -> List.map (fun (l, at) -> (e.name, l, at)) e.options)
      exports
  in
  let unpassed =
    List.filter (fun (name, l, _) -> not (Hashtbl.mem passed (name, l))) options
  in
  List.iter
    (fun (name, l, (file, line)) ->
      if
        not
          (List.exists
             (fun (_, a, al, _) -> a = name && al = l)
             allowed_options)
      then
        fail option_problems
          "%s:%d: %s ?%s is an optional parameter no code in lib/, bin/, \
           bench/ or examples/ passes\n"
          file line name l)
    unpassed;
  List.iter
    (fun (n, name, l, reason) ->
      if not (List.exists (fun (a, al, _) -> a = name && al = l) options) then
        fail option_problems
          "%s:%d: %s ?%s is allow-listed but no lib/ interface declares it\n"
          allow_file n name l
      else if Hashtbl.mem passed (name, l) then
        fail option_problems
          "%s:%d: %s ?%s is allow-listed but some code outside test/ passes \
           it\n"
          allow_file n name l
      else if reason = "" then
        fail option_problems "%s:%d: %s ?%s is allow-listed without a reason\n"
          allow_file n name l)
    allowed_options;
  Printf.printf
    "exports: %d exported values, %d uncalled, %d allow-listed, %d problems\n"
    (List.length exports) (List.length uncalled) (List.length allowed_values)
    !problems;
  Printf.printf
    "options: %d optional parameters, %d unpassed, %d allow-listed, %d \
     problems\n"
    (List.length options) (List.length unpassed) (List.length allowed_options)
    !option_problems;
  if !problems + !option_problems > 0 then exit 1
