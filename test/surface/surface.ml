(* The public-surface check.  Reads every source file it is given on the
   command line (dune passes the repository's .ml and .mli files, and
   test/surface.allow) and fails when

   - a lib/**/*.ml has no .mli;
   - a val that a lib interface exports has no caller outside its own
     module in production code (lib, bin, bench, perfbench, examples
     and the workloads in test/fixtures that bench shares), unless
     test/surface.allow
     names it with a reason;
   - an allowlist entry names a val that no interface exports, one that
     production code now calls, or one that no test calls either.

   A call is an identifier [M.v] (also [Lib.M.v], or [A.v] after
   [module A = M]) or a bare [v] in a file that opens or includes [M]
   anywhere.  That over-approximates the real callers, so the check
   never calls a used val unused; it can miss a val that is dead but
   shares its name with a local in a file that opens its module.

   Run: dune build @test/surface/runtest (or dune runtest). *)

let read path = In_channel.with_open_bin path In_channel.input_all

(* Paths arrive relative to this directory (test/surface) in the build
   tree; report them from the repository root. *)
let repo_path p =
  let rec go dir = function
    | ".." :: rest -> go (List.tl dir) rest
    | rest -> List.rev_append dir rest
  in
  String.concat "/" (go [ "surface"; "test" ] (String.split_on_char '/' p))

let starts p prefix = String.starts_with ~prefix p

type role = Lib of string * string  (** library, module *) | Prod | Test

let role path =
  if starts path "lib/" then
    match String.split_on_char '/' path with
    | [ "lib"; lib; file ] ->
        Lib (lib, String.capitalize_ascii (Filename.remove_extension file))
    | _ -> failwith ("surface: unexpected lib path " ^ path)
  else if
    starts path "bin/" || starts path "bench/" || starts path "perfbench/"
    || starts path "examples/" || starts path "test/fixtures/"
  then Prod
  else Test

(* ---- exported vals ---- *)

type export = {
  name : string;  (** [Lib.M.Sub.v], as the allowlist spells it *)
  key : string * string;  (** innermost module, val *)
  file : string;  (** the implementation, lib/L/m.ml *)
}

let exports path =
  let mli = repo_path path in
  let lib, m =
    match role mli with Lib (l, m) -> (l, m) | _ -> assert false
  in
  let lexbuf = Lexing.from_string (read path) in
  Location.init lexbuf mli;
  let prefix =
    if String.capitalize_ascii lib = m then [ m ]
    else [ String.capitalize_ascii lib; m ]
  in
  let rec walk path inner sg =
    List.concat_map
      (fun (item : Parsetree.signature_item) ->
        match item.psig_desc with
        | Psig_value vd ->
            let v = vd.pval_name.txt in
            [
              {
                name = String.concat "." (path @ [ v ]);
                key = (inner, v);
                file = Filename.remove_extension mli ^ ".ml";
              };
            ]
        | Psig_module
            { pmd_name = { txt = Some sub; _ };
              pmd_type = { pmty_desc = Pmty_signature sg; _ }; _ } ->
            walk (path @ [ sub ]) sub sg
        | _ -> [])
      sg
  in
  walk prefix m (Parse.interface lexbuf)

(* ---- callers ---- *)

type uses = {
  qualified : (string * string, unit) Hashtbl.t;  (** module, val *)
  bare : (string, unit) Hashtbl.t;
  opens : (string, unit) Hashtbl.t;
  aliases : (string, string) Hashtbl.t;
}

let rec last_module = function
  | Longident.Lident m | Ldot (_, m) -> Some m
  | Lapply (_, l) -> last_module l

let uses ml =
  let u =
    {
      qualified = Hashtbl.create 64;
      bare = Hashtbl.create 64;
      opens = Hashtbl.create 8;
      aliases = Hashtbl.create 8;
    }
  in
  let open_module (me : Parsetree.module_expr) =
    match me.pmod_desc with
    | Pmod_ident { txt; _ } -> Hashtbl.replace u.opens (Longident.last txt) ()
    | _ -> ()
  in
  let alias name (me : Parsetree.module_expr) =
    match (name, me.pmod_desc) with
    | Some a, Pmod_ident { txt; _ } ->
        Hashtbl.replace u.aliases a (Longident.last txt)
    | _ -> ()
  in
  let default = Ast_iterator.default_iterator in
  let iter =
    {
      default with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = Lident v; _ } -> Hashtbl.replace u.bare v ()
          | Pexp_ident { txt = Ldot (p, v); _ } -> (
              match last_module p with
              | Some m -> Hashtbl.replace u.qualified (m, v) ()
              | None -> ())
          | Pexp_open (od, _) -> open_module od.popen_expr
          | Pexp_letmodule ({ txt; _ }, me, _) -> alias txt me
          | _ -> ());
          default.expr it e);
      structure_item =
        (fun it si ->
          (match si.pstr_desc with
          | Pstr_open od -> open_module od.popen_expr
          | Pstr_include id -> open_module id.pincl_mod
          | Pstr_module mb -> alias mb.pmb_name.txt mb.pmb_expr
          | _ -> ());
          default.structure_item it si);
    }
  in
  let lexbuf = Lexing.from_string (read ml) in
  Location.init lexbuf (repo_path ml);
  iter.structure iter (Parse.implementation lexbuf);
  (* [module C = Cube] makes [C.v] a call of [Cube.v], and [open C] an
     open of [Cube]. *)
  let resolve m = Option.value (Hashtbl.find_opt u.aliases m) ~default:m in
  let resolved = Hashtbl.create (Hashtbl.length u.qualified) in
  Hashtbl.iter (fun (m, v) () -> Hashtbl.replace resolved (resolve m, v) ())
    u.qualified;
  let opens = Hashtbl.create 8 in
  Hashtbl.iter (fun m () -> Hashtbl.replace opens (resolve m) ()) u.opens;
  { u with qualified = resolved; opens }

let calls u (m, v) =
  Hashtbl.mem u.qualified (m, v) || (Hashtbl.mem u.opens m && Hashtbl.mem u.bare v)

(* ---- the allowlist ---- *)

type entry = { line : int; val_name : string }

let allowlist path =
  String.split_on_char '\n' (read path)
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter_map (fun (line, l) ->
         if l = "" || l.[0] = '#' then None
         else
           match String.index_opt l ' ' with
           | Some i when String.trim (String.sub l i (String.length l - i)) <> ""
             ->
               Some (Ok { line; val_name = String.sub l 0 i })
           | _ -> Some (Error (line, l)))

(* ---- the check ---- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let allow_path =
    match List.filter (fun p -> Filename.basename p = "surface.allow") args with
    | [ p ] -> p
    | _ -> failwith "surface: pass test/surface.allow exactly once"
  in
  let sources =
    List.filter
      (fun p ->
        let r = repo_path p in
        (Filename.check_suffix r ".ml" || Filename.check_suffix r ".mli")
        && not (starts r "test/surface/"))
      args
    |> List.sort_uniq compare
  in
  let is_source p = List.exists (fun s -> repo_path s = p) sources in
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let lib_ml, lib_mli =
    List.partition
      (fun p -> Filename.check_suffix p ".ml")
      (List.filter (fun p -> starts (repo_path p) "lib/") sources)
  in
  List.iter
    (fun ml ->
      if not (is_source (repo_path ml ^ "i")) then
        error "%s: no interface; add %si exporting what other modules call"
          (repo_path ml) (repo_path ml))
    lib_ml;
  let exports = List.concat_map exports lib_mli in
  let callers =
    List.filter (fun p -> Filename.check_suffix p ".ml") sources
    |> List.map (fun p -> (repo_path p, uses p))
  in
  let exports =
    List.map
      (fun e ->
        let outside =
          List.filter
            (fun (f, u) -> f <> e.file && calls u e.key)
            callers
        in
        let prod, test =
          List.partition (fun (f, _) -> role f <> Test) outside
        in
        (e, List.map fst prod, List.map fst test))
      exports
  in
  let entries = allowlist allow_path in
  let allowed = Hashtbl.create 16 in
  List.iter
    (function
      | Error (line, l) ->
          error "test/surface.allow:%d: %S needs a val and a reason" line l
      | Ok { line; val_name } -> (
          if Hashtbl.mem allowed val_name then
            error "test/surface.allow:%d: %s is listed twice" line val_name;
          Hashtbl.replace allowed val_name ();
          match List.find_opt (fun (e, _, _) -> e.name = val_name) exports with
          | None ->
              error "test/surface.allow:%d: %s names no exported val" line
                val_name
          | Some (_, f :: _, _) ->
              error
                "test/surface.allow:%d: %s is called from %s; drop the entry"
                line val_name f
          | Some (_, [], []) ->
              error
                "test/surface.allow:%d: %s has no caller in test/ either; \
                 un-export it and drop the entry"
                line val_name
          | Some (_, [], _ :: _) -> ()))
    entries;
  List.iter
    (fun (e, prod, test) ->
      match (prod, test) with
      | _ :: _, _ -> ()
      | [], [] ->
          error "%s: exported, but no module outside %s calls it" e.name
            e.file
      | [], t :: _ ->
          if not (Hashtbl.mem allowed e.name) then
            error
              "%s: exported for test/ only (%s); go through the public API, \
               move the oracle to test/, or name it in test/surface.allow"
              e.name t)
    exports;
  let seams = Hashtbl.length allowed in
  Printf.printf
    "surface: %d vals exported by %d lib interfaces, %d of them test seams \
     named in test/surface.allow\n"
    (List.length exports) (List.length lib_mli) seams;
  match List.rev !errors with
  | [] -> ()
  | errs ->
      List.iter prerr_endline errs;
      Printf.eprintf "surface: %d problem(s)\n" (List.length errs);
      exit 1
