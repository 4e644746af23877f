open Matrix

type t = {
  schemas : (string, Schema.t * Registry.kind) Hashtbl.t;
  stmts : (string, Exl.Ast.stmt) Hashtbl.t;
  deps : (string, string list) Hashtbl.t;
  dependents : (string, string list) Hashtbl.t;
  mutable derived_rev : string list;  (* reverse global definition order *)
  mutable programs : string list;
}

let create () =
  {
    schemas = Hashtbl.create 64;
    stmts = Hashtbl.create 64;
    deps = Hashtbl.create 64;
    dependents = Hashtbl.create 64;
    derived_rev = [];
    programs = [];
  }

let group_by_sources (s : Exl.Ast.stmt) =
  (* group-by source dimensions are not cube references; cube_refs
     already excludes them, as well as shift's dimension argument. *)
  Exl.Ast.cube_refs s.Exl.Ast.rhs

(* Programs share elementary cubes (schemas must agree) but no derived
   cube may be defined twice across programs.  [synthetic] names
   declarations that only satisfied the standalone type check and must
   not join the graph (used by [register_source]). *)
let register_program ?(synthetic = []) t ~name
    (checked : Exl.Typecheck.checked) =
  let env = checked.Exl.Typecheck.env in
  (* Validate before mutating. *)
  let conflict = ref None in
  List.iter
    (fun cube ->
      if !conflict = None && not (List.mem cube synthetic) then
        let schema = Exl.Typecheck.Env.schema_exn env cube in
        let kind = Option.get (Exl.Typecheck.Env.kind env cube) in
        match (Hashtbl.find_opt t.schemas cube, kind) with
        | Some (_, Registry.Derived), _ | Some _, Registry.Derived ->
            (* Derived cubes are single-definition globally; an
               elementary may not shadow a derived cube either. *)
            if
              kind = Registry.Derived
              || snd (Hashtbl.find t.schemas cube) = Registry.Derived
            then
              conflict :=
                Some
                  (Printf.sprintf "program %s: cube %s is already defined" name
                     cube)
        | Some (existing, Registry.Elementary), Registry.Elementary ->
            if not (Schema.equal existing schema) then
              conflict :=
                Some
                  (Printf.sprintf
                     "program %s: elementary cube %s redeclared with a different schema"
                     name cube)
        | None, _ -> ())
    (Exl.Typecheck.Env.names env);
  match !conflict with
  | Some msg -> Error msg
  | None ->
      List.iter
        (fun cube ->
          let schema = Exl.Typecheck.Env.schema_exn env cube in
          let kind = Option.get (Exl.Typecheck.Env.kind env cube) in
          if (not (Hashtbl.mem t.schemas cube)) && not (List.mem cube synthetic)
          then Hashtbl.replace t.schemas cube (schema, kind))
        (Exl.Typecheck.Env.names env);
      List.iter
        (fun (s : Exl.Ast.stmt) ->
          let cube = s.Exl.Ast.lhs in
          Hashtbl.replace t.schemas cube
            (Exl.Typecheck.Env.schema_exn env cube, Registry.Derived);
          Hashtbl.replace t.stmts cube s;
          let sources = group_by_sources s in
          Hashtbl.replace t.deps cube sources;
          List.iter
            (fun src ->
              let prev = Option.value ~default:[] (Hashtbl.find_opt t.dependents src) in
              if not (List.mem cube prev) then
                Hashtbl.replace t.dependents src (cube :: prev))
            sources;
          t.derived_rev <- cube :: t.derived_rev)
        checked.Exl.Typecheck.statements;
      t.programs <- name :: t.programs;
      Ok ()

let domain_keyword d = Domain.to_string d

let decl_of_schema (s : Schema.t) =
  {
    Exl.Ast.d_name = s.Schema.name;
    d_dims =
      Array.to_list s.Schema.dims
      |> List.map (fun d -> (d.Schema.dim_name, domain_keyword d.Schema.dim_domain));
    d_measure = Some (domain_keyword s.Schema.measure_domain);
    d_pos = Exl.Ast.no_pos;
  }

(* Programs may reference cubes defined by previously registered
   programs (the global DAG spans programs); those references are
   satisfied by synthetic input declarations during the standalone
   type check. *)
let register_source t ~name source =
  match Exl.Parser.parse source with
  | Error e -> Error (Exl.Errors.to_string e)
  | Ok program ->
      let local = Hashtbl.create 16 in
      List.iter
        (function
          | Exl.Ast.Decl d -> Hashtbl.replace local d.Exl.Ast.d_name ()
          | Exl.Ast.Stmt st -> Hashtbl.replace local st.Exl.Ast.lhs ())
        program;
      let synthetic = ref [] in
      List.iter
        (fun (st : Exl.Ast.stmt) ->
          List.iter
            (fun ref_name ->
              if
                (not (Hashtbl.mem local ref_name))
                && (not (List.mem ref_name !synthetic))
                && Hashtbl.mem t.schemas ref_name
              then synthetic := ref_name :: !synthetic)
            (Exl.Ast.cube_refs st.Exl.Ast.rhs))
        (Exl.Ast.stmts program);
      let prelude =
        List.rev_map
          (fun c -> Exl.Ast.Decl (decl_of_schema (fst (Hashtbl.find t.schemas c))))
          !synthetic
      in
      (match Exl.Typecheck.check (prelude @ program) with
      | Error es -> Error (Exl.Errors.list_to_string es)
      | Ok checked -> register_program ~synthetic:!synthetic t ~name checked)

let cubes t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.schemas [] |> List.sort String.compare

let schema t name = Option.map fst (Hashtbl.find_opt t.schemas name)
let kind t name = Option.map snd (Hashtbl.find_opt t.schemas name)
let sources_of t name = Option.value ~default:[] (Hashtbl.find_opt t.deps name)

let dependents_of t name =
  List.sort String.compare
    (Option.value ~default:[] (Hashtbl.find_opt t.dependents name))

let derived_order t = List.rev t.derived_rev

type dirty_set = {
  changed_elementary : string list;
  changed_derived : string list;
  dirty_derived : string list;
}

let dirty_set t ~changed =
  let dirty = Hashtbl.create 16 in
  let rec mark name =
    if not (Hashtbl.mem dirty name) then begin
      Hashtbl.replace dirty name ();
      List.iter mark
        (Option.value ~default:[] (Hashtbl.find_opt t.dependents name))
    end
  in
  List.iter mark changed;
  let of_kind k =
    List.sort_uniq String.compare
      (List.filter (fun c -> kind t c = Some k) changed)
  in
  (* An explicitly changed cube is an input of the propagation, never a
     member of the recomputation set: its new content *is* the change
     (recomputing it from its unchanged sources would overwrite exactly
     what the caller just loaded).  Its transitive dependents are what
     must be rederived. *)
  let dirty_derived =
    List.filter
      (fun cube ->
        Hashtbl.mem dirty cube
        && (not (List.mem cube changed))
        && Hashtbl.mem t.stmts cube)
      (derived_order t)
  in
  {
    changed_elementary = of_kind Registry.Elementary;
    changed_derived = of_kind Registry.Derived;
    dirty_derived;
  }

let affected t ~changed = (dirty_set t ~changed).dirty_derived

let build_program t ~cubes:selected =
  let selected_set = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace selected_set c ()) selected;
  (* Inputs: sources of selected statements not themselves selected. *)
  let inputs = ref [] in
  let add_input c =
    if (not (Hashtbl.mem selected_set c)) && not (List.mem c !inputs) then
      inputs := c :: !inputs
  in
  let missing =
    List.filter (fun c -> not (Hashtbl.mem t.stmts c)) selected
  in
  if missing <> [] then
    Error
      (Printf.sprintf "no defining statement for cube(s) %s"
         (String.concat ", " missing))
  else begin
    List.iter
      (fun c -> List.iter add_input (sources_of t c))
      selected;
    (* An input without a registered schema is a metadata hole, not a
       programming error: report it so the dispatcher can quarantine
       the subgraph instead of crashing the wave. *)
    let unknown = List.filter (fun c -> schema t c = None) !inputs in
    if unknown <> [] then
      Error
        (Printf.sprintf "no registered schema for source cube(s) %s"
           (String.concat ", " unknown))
    else begin
    let decls =
      List.rev_map
        (fun c -> Exl.Ast.Decl (decl_of_schema (Option.get (schema t c))))
        !inputs
    in
    (* Keep the global definition order among the selected statements. *)
    let stmts =
      List.filter_map
        (fun c ->
          if Hashtbl.mem selected_set c then
            Some (Exl.Ast.Stmt (Hashtbl.find t.stmts c))
          else None)
        (derived_order t)
    in
    match Exl.Typecheck.check (decls @ stmts) with
    | Ok checked -> Ok checked
    | Error es -> Error (Exl.Errors.list_to_string es)
    end
  end

let partition ~assign ordered =
  let rec loop acc current_target current = function
    | [] ->
        List.rev
          (if current = [] then acc
           else (current_target, List.rev current) :: acc)
    | cube :: rest ->
        let target = assign cube in
        if target = current_target || current = [] then
          loop acc target (cube :: current) rest
        else loop ((current_target, List.rev current) :: acc) target [ cube ] rest
  in
  loop [] "" [] ordered

let dot t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph cubes {\n  rankdir=LR;\n";
  List.iter
    (fun cube ->
      let shape =
        match kind t cube with
        | Some Registry.Elementary -> "box"
        | _ -> "ellipse"
      in
      Buffer.add_string buf (Printf.sprintf "  %s [shape=%s];\n" cube shape))
    (cubes t);
  List.iter
    (fun cube ->
      List.iter
        (fun src -> Buffer.add_string buf (Printf.sprintf "  %s -> %s;\n" src cube))
        (sources_of t cube))
    (cubes t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
