(* The export check.

   Reads the typed trees that [dune build @check] leaves under
   [_build/default]: every [.cmti] under [lib/] gives the values a library
   interface exports (nested modules included, so [Stats.Welford.add] is one
   export), and every [.cmt] under [lib/], [bin/], [bench/] and [examples/]
   gives the values its code names.  The typed tree has already resolved
   [open], [M.( ... )] and nested module paths, so a name is counted exactly
   where the compiler bound it.  Code under [test/] is not read: a test is
   not a caller.

   An export counts as called when some compilation unit other than its own
   names it.  Each uncalled export must have a line in the allow-list,
   [tools/exports/allow.txt]:

     Module.value  reason it stays

   Blank lines and lines starting with [#] are skipped.  The check fails on
   an uncalled export with no line, naming it with its [.mli] line, and on a
   stale line: one naming a value that is no longer exported or that now has
   a caller.

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

(* The exported values of one interface: (qualified name, .mli line). *)
let exports_of_cmti path =
  let info = Cmt_format.read_cmt path in
  let rec signature prefix (sg : Typedtree.signature) =
    List.concat_map
      (fun (item : Typedtree.signature_item) ->
        match item.sig_desc with
        | Tsig_value vd ->
            let pos = vd.val_loc.loc_start in
            [ (prefix ^ "." ^ vd.val_name.txt, (pos.pos_fname, pos.pos_lnum)) ]
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

(* Every global value name the implementation [path] uses, outside its own
   compilation unit. *)
let uses_of_cmt called path =
  let info = Cmt_format.read_cmt path in
  let own = info.cmt_modname ^ "." in
  let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> (
        match global_name p with
        | Some name when not (String.starts_with ~prefix:own name) ->
            Hashtbl.replace called name ()
        | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  match info.cmt_annots with
  | Implementation str -> it.structure it str
  | _ -> ()

(* The allow-list's entries: (line number, qualified name, reason). *)
let read_allow_list () =
  if not (Sys.file_exists allow_file) then []
  else
    In_channel.with_open_text allow_file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.mapi (fun i line -> (i + 1, String.trim line))
    |> List.filter_map (fun (n, line) ->
           if line = "" || line.[0] = '#' then None
           else
             match String.index_opt line ' ' with
             | Some k ->
                 let rest = String.sub line k (String.length line - k) in
                 Some (n, String.sub line 0 k, String.trim rest)
             | None -> Some (n, line, ""))

let () =
  let lib = Filename.concat build "lib" in
  let cmtis = files_under ".cmti" lib in
  if cmtis = [] then begin
    prerr_endline
      ("exports: no .cmti under " ^ lib ^ "; run `dune build @check` first");
    exit 2
  end;
  let exports = List.concat_map exports_of_cmti cmtis in
  let called = Hashtbl.create 1024 in
  List.iter
    (fun dir ->
      List.iter (uses_of_cmt called)
        (files_under ".cmt" (Filename.concat build dir)))
    [ "lib"; "bin"; "bench"; "examples" ];
  let allowed = read_allow_list () in
  let problems = ref 0 in
  let fail fmt =
    incr problems;
    Printf.printf fmt
  in
  let uncalled =
    List.filter (fun (name, _) -> not (Hashtbl.mem called name)) exports
  in
  List.iter
    (fun (name, (file, line)) ->
      if not (List.exists (fun (_, a, _) -> a = name) allowed) then
        fail
          "%s:%d: %s is exported but has no caller in lib/, bin/, bench/ or \
           examples/ outside its module\n"
          file line name)
    uncalled;
  List.iter
    (fun (n, name, reason) ->
      if not (List.mem_assoc name exports) then
        fail "%s:%d: %s is allow-listed but no lib/ interface exports it\n"
          allow_file n name
      else if Hashtbl.mem called name then
        fail "%s:%d: %s is allow-listed but has a caller outside its module\n"
          allow_file n name
      else if reason = "" then
        fail "%s:%d: %s is allow-listed without a reason\n" allow_file n name)
    allowed;
  Printf.printf
    "exports: %d exported values, %d uncalled, %d allow-listed, %d problems\n"
    (List.length exports) (List.length uncalled) (List.length allowed)
    !problems;
  if !problems > 0 then exit 1
